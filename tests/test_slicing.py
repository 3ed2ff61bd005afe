import numpy as np
import pytest

from gssd import slicing
from gssd.rng import RngRoot
from gssd.slicing import (
    SampleSet,
    project,
    sample_direction,
    smooth_double,
)

ROOT = RngRoot(42)


def _stream(label, index=0, seed=42):
    return RngRoot(seed).stream(label, index)


class TestSampleSet:
    def test_valid_matrix(self):
        s = SampleSet(np.ones((3, 2)))
        assert s.n == 3 and s.d == 2

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ValueError):
            SampleSet(np.ones(3))
        with pytest.raises(ValueError):
            SampleSet(np.ones((0, 2)))
        with pytest.raises(ValueError):
            SampleSet(np.array([[1.0, np.nan]]))


class TestSampleDirection:
    def test_d1_is_sign(self):
        for i in range(10):
            u = sample_direction(1, _stream("d1", i))
            assert u[0] in (-1.0, 1.0)

    def test_unit_norm(self):
        for i in range(20):
            u = sample_direction(3, _stream("d3", i))
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12

    def test_coordinate_means_vanish(self):
        # coordinate variance on the sphere is 1/d, so the mean of 1e5 draws
        # concentrates well inside the 0.02 band
        total = np.zeros(3)
        n = 10**5
        s = _stream("unif-sphere")
        for _ in range(n):
            total += sample_direction(3, s)
        assert np.all(np.abs(total / n) < 0.02)


    def test_all_zero_draws_raise_after_the_retries(self):
        class Zeros:
            calls = 0

            def normals(self, n):
                self.calls += 1
                return np.zeros(n)

        stream = Zeros()
        with pytest.raises(RuntimeError, match="degenerate Gaussian draw persisted"):
            sample_direction(3, stream)
        assert stream.calls == slicing._MAX_DIRECTION_RETRIES


class TestProject:
    def test_axis_projection_gives_column(self):
        X = SampleSet(np.arange(12.0).reshape(4, 3))
        u = np.array([1.0, 0.0, 0.0])
        assert np.array_equal(project(X, u), X.data[:, 0])

    def test_diagonal_projection(self):
        X = SampleSet(np.array([[1.0, 1.0]]))
        u = np.array([1.0, 1.0]) / np.sqrt(2)
        assert project(X, u)[0] == pytest.approx(np.sqrt(2), abs=1e-15)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        X = SampleSet(rng.normal(size=(5, 4)))
        z = rng.normal(size=4)
        u = z / np.linalg.norm(z)
        expected = np.array([sum(X.data[i, j] * u[j] for j in range(4)) for i in range(5)])
        assert np.allclose(project(X, u), expected, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(6, 3))
        B = rng.normal(size=(6, 3))
        z = rng.normal(size=3)
        u = z / np.linalg.norm(z)
        left = project(SampleSet(2.5 * A + 0.5 * B), u)
        right = 2.5 * project(SampleSet(A), u) + 0.5 * project(SampleSet(B), u)
        assert np.allclose(left, right, atol=1e-12)

    def test_unit_norm_accepted(self):
        assert np.array_equal(project(SampleSet(np.eye(2)), np.array([0.6, 0.8])), [0.6, 0.8])

    @pytest.mark.parametrize(
        "u, match",
        [
            (np.array([1.0, 0.0, 0.0]), "shape"),
            (np.ones((1, 2)) / np.sqrt(2), "shape"),
            (np.array([0.6, 0.81]), "unit-norm"),
            (np.array([np.nan, 0.0]), "finite"),  # a NaN norm must fail, not slip past |norm - 1| > tol
            (np.array([np.inf, 0.0]), "finite"),
        ],
    )
    def test_rejects_wrong_shape_non_unit_and_non_finite(self, u, match):
        with pytest.raises(ValueError, match=match):
            project(SampleSet(np.ones((2, 2))), u)


class TestSmoothDouble:
    def test_sigma_zero_is_identity(self):
        v = np.array([1.0, -2.0, 3.5])
        out = smooth_double(v, 0.0, _stream("noise"))
        assert np.array_equal(out, v)

    def test_noise_variance(self):
        n = 10**5
        out = smooth_double(np.zeros(n), 3.0, _stream("var"))
        assert abs(out.var(ddof=1) - 9.0) < 0.45

    def test_noise_mean(self):
        n = 10**5
        c = 2.7
        out = smooth_double(np.full(n, c), 1.0, _stream("mean"))
        assert abs(out.mean() - c) < 3.0 / np.sqrt(n)

    def test_deterministic_given_stream(self):
        v = np.linspace(0, 1, 50)
        a = smooth_double(v, 2.0, _stream("det", 4))
        b = smooth_double(v, 2.0, _stream("det", 4))
        assert np.array_equal(a, b)

    def test_sigma_to_zero_limit(self):
        v = np.linspace(-1, 1, 100)
        out = smooth_double(v, 1e-8, _stream("limit"))
        assert np.max(np.abs(out - v)) < 1e-6

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            smooth_double(np.array([0.0, bad]), 1.0, _stream("nan-values"))

    @pytest.mark.parametrize("values", [np.zeros(0), np.zeros((2, 3))])
    def test_values_must_be_a_non_empty_vector(self, values):
        with pytest.raises(ValueError):
            smooth_double(values, 1.0, _stream("shape"))
