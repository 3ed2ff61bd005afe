import numpy as np
import pytest
from scipy.integrate import quad

from gssd.rng import RngRoot
from gssd.slicing import (
    Direction,
    SampleSet,
    mixture_pdf,
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


class TestDirection:
    def test_unit_norm_enforced(self):
        Direction(np.array([0.6, 0.8]))
        with pytest.raises(ValueError):
            Direction(np.array([0.6, 0.81]))


class TestSampleDirection:
    def test_d1_is_sign(self):
        for i in range(10):
            u = sample_direction(1, _stream("d1", i))
            assert u.coords[0] in (-1.0, 1.0)

    def test_unit_norm(self):
        for i in range(20):
            u = sample_direction(3, _stream("d3", i))
            assert abs(np.linalg.norm(u.coords) - 1.0) <= 1e-12

    def test_coordinate_means_vanish(self):
        # coordinate variance on the sphere is 1/d, so the mean of 1e5 draws
        # concentrates well inside the 0.02 band
        total = np.zeros(3)
        n = 10**5
        s = _stream("unif-sphere")
        for _ in range(n):
            total += sample_direction(3, s).coords
        assert np.all(np.abs(total / n) < 0.02)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            sample_direction(0, _stream("bad"))


class TestProject:
    def test_axis_projection_gives_column(self):
        X = SampleSet(np.arange(12.0).reshape(4, 3))
        u = Direction(np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(project(X, u), X.data[:, 0])

    def test_diagonal_projection(self):
        X = SampleSet(np.array([[1.0, 1.0]]))
        u = Direction(np.array([1.0, 1.0]) / np.sqrt(2))
        assert project(X, u)[0] == pytest.approx(np.sqrt(2), abs=1e-15)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        X = SampleSet(rng.normal(size=(5, 4)))
        z = rng.normal(size=4)
        u = Direction(z / np.linalg.norm(z))
        expected = np.array([sum(X.data[i, j] * u.coords[j] for j in range(4)) for i in range(5)])
        assert np.allclose(project(X, u), expected, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(6, 3))
        B = rng.normal(size=(6, 3))
        z = rng.normal(size=3)
        u = Direction(z / np.linalg.norm(z))
        left = project(SampleSet(2.5 * A + 0.5 * B), u)
        right = 2.5 * project(SampleSet(A), u) + 0.5 * project(SampleSet(B), u)
        assert np.allclose(left, right, atol=1e-12)

    def test_dimension_mismatch(self):
        X = SampleSet(np.ones((2, 3)))
        u = Direction(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            project(X, u)


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

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            smooth_double(np.zeros(3), -0.1, _stream("neg"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            smooth_double(np.zeros(3), bad, _stream("nan"))
        with pytest.raises(ValueError, match="finite"):
            mixture_pdf(np.zeros(3), bad, 0.0)

    @pytest.mark.parametrize("values", [np.zeros(0), np.zeros((2, 3))])
    def test_values_must_be_a_non_empty_vector(self, values):
        with pytest.raises(ValueError):
            smooth_double(values, 1.0, _stream("shape"))


class TestMixturePdf:
    def test_single_standard_component_at_origin(self):
        val = mixture_pdf(np.array([0.0]), 1.0, 0.0)
        assert val == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-12)
        # quadrature oracle: same density integrates to the CDF step
        integral, _ = quad(lambda t: mixture_pdf(np.array([0.0]), 1.0, t), -8, 8)
        assert integral == pytest.approx(1.0, abs=1e-9)

    def test_normalization_by_trapezoid(self):
        v = np.array([-2.0, 0.3, 5.0])
        sigma = 1.7
        t = np.linspace(v.min() - 10 * sigma, v.max() + 10 * sigma, 200_001)
        dens = mixture_pdf(v, sigma, t)
        assert np.all(dens >= 0)
        assert np.trapezoid(dens, t) == pytest.approx(1.0, abs=1e-6)

    def test_symmetry_for_symmetric_atoms(self):
        v = np.array([-1.3, 1.3])
        t = np.linspace(0.0, 6.0, 101)
        assert np.allclose(mixture_pdf(v, 0.8, t), mixture_pdf(v, 0.8, -t), atol=1e-15)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            mixture_pdf(np.array([0.0]), 0.0, 0.0)
