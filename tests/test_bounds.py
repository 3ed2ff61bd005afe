import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaincc

import gssd
from gssd import bounds
from gssd.bounds import (
    PointMass,
    SphericalGaussian,
    TheoryBound,
    gaussian_abs_moment,
    kummer_1f1,
    mc_error_bound,
    sample_bound,
    upsilon_constant,
    xi_constant,
)
from gssd.rng import RngRoot


class TestGaussianAbsMoment:
    def test_unit_variance(self):
        assert gaussian_abs_moment(2, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_first_absolute_moment(self):
        assert gaussian_abs_moment(1, 1.0) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-14)

    def test_fourth_moment_scale_two(self):
        # E|N(0, s^2)|^4 = 3 s^4
        assert gaussian_abs_moment(4, 2.0) == pytest.approx(48.0, rel=1e-13)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0, 4.5])
    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
    def test_matches_quadrature(self, q, s):
        dens = lambda t: abs(t) ** q * math.exp(-0.5 * (t / s) ** 2) / (s * math.sqrt(2 * math.pi))
        want, _ = quad(dens, -np.inf, np.inf, limit=200)
        assert gaussian_abs_moment(q, s) == pytest.approx(want, rel=1e-8)


class TestKummer:
    def test_z_zero(self):
        assert kummer_1f1(0.3, 1.7, 0.0) == 1.0

    def test_terminating_polynomial(self):
        # 1F1(-1, 1/2; z) = 1 - 2z
        assert kummer_1f1(-1, 0.5, 1.0) == -1.0

    def test_exponential_identity(self):
        assert kummer_1f1(0.5, 0.5, 1.0) == pytest.approx(math.e, rel=1e-10)

    def test_against_direct_series_oracle(self):
        for a, g, z in [(0.7, 1.3, 0.9), (2.0, 3.5, -1.2), (1.5, 0.8, 2.0)]:
            total, term = 1.0, 1.0
            for k in range(200):
                term *= (a + k) / (g + k) * z / (k + 1)
                total += term
            assert kummer_1f1(a, g, z) == pytest.approx(total, rel=1e-11)

    def test_degree_p_polynomial_property(self):
        # 1F1(-p, 1/2; z) for integer p interpolates exactly from 2p+1 nodes
        for p in (1, 2, 3):
            nodes = np.cos(np.pi * (np.arange(2 * p + 1) + 0.5) / (2 * p + 1)) * 3
            vals = [kummer_1f1(-p, 0.5, z) for z in nodes]
            coeffs = np.polyfit(nodes, vals, p)
            for z in (-2.5, 0.4, 1.9):
                want = kummer_1f1(-p, 0.5, z)
                assert np.polyval(coeffs, z) == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_nonconvergence_raises(self):
        with pytest.raises(RuntimeError):
            kummer_1f1(1.0, 2.0, 900.0)

    def test_term_cap_raises_on_a_convergent_series(self, monkeypatch):
        # 1F1(1/2; 3/2; 3) meets its tail bound at term 26; a cap of 5 stops it first
        monkeypatch.setattr(bounds, "_KUMMER_MAX_TERMS", 5)
        with pytest.raises(RuntimeError, match="did not converge in 5 terms"):
            kummer_1f1(0.5, 1.5, 3.0)

    @pytest.mark.parametrize("a, g, z", [
        (1e-14, 1.0, 60.0), (1e-20, 1.0, 100.0), (0.5, 1.5, 40.0), (0.5, 0.5, 1.0), (1.5, 0.8, 2.0),
        (3.0, 0.5, 10.0), (0.3, -1.5, 2.0), (-0.5, 0.5, -3.0), (-3.7, 0.5, 8.0), (1.0, 2.0, 600.0),
    ])
    def test_matches_mpmath(self, a, g, z):
        # a first term far below the sum (a = 1e-14) must not stop a series whose terms still grow
        import mpmath

        with mpmath.workdps(30):
            want = mpmath.hyp1f1(a, g, z)
        assert kummer_1f1(a, g, z) == pytest.approx(float(want), rel=2e-15, abs=0.0)


class TestXiConstant:
    def test_point_mass_closed_form(self):
        # tail term vanishes, leaving the Gaussian reweighting term alone;
        # recompute the displayed constant independently
        p, sigma, vartheta = 1, 1.0, 2.0
        got = xi_constant(p, sigma, vartheta, PointMass())
        gauss_term = math.sqrt(4 * math.pi * sigma**2 * vartheta**2 / (vartheta**2 - 2))
        want = (
            2 ** (2.5 * p - 1.25)
            / math.sqrt(math.pi)
            * sigma ** (p - 0.25)
            * vartheta ** (p + 1)
            * math.sqrt(math.gamma(p + 0.5))
            * math.sqrt(gauss_term)
        )
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("source, name", [(SphericalGaussian(200), "d=200"), (PointMass(1e3), "radius=1000.0")])
    def test_tail_integral_beyond_the_double_range_names_its_point(self, source, name):
        # both tail integrals are finite but exceed the largest double, where math.exp raises OverflowError
        with pytest.raises(ValueError, match="double range") as info:
            xi_constant(2, 1.0001, 2.0, source)
        assert name in str(info.value) and "sigma=1.0001" in str(info.value) and "vartheta=2.0" in str(info.value)

    @pytest.mark.parametrize("p, sigma", [(150, 3.0), (1000, 3.0), (60, 1e10)])
    def test_xi_beyond_the_double_range_names_its_settings(self, p, sigma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="double range") as info:
                xi_constant(p, sigma, 2.0, PointMass(1.0))
        assert all(name in str(info.value) for name in (f"p={p}", f"sigma={sigma}", "vartheta=2.0", "radius=1.0"))

    def test_subgaussian_source_is_finite(self):
        # omega below sigma * vartheta / 2 keeps the reweighted tail integrable
        sigma, vartheta, d = 1.0, 2.0, 5
        omega = 0.4 * sigma * vartheta / 2
        xi = xi_constant(2, sigma, vartheta, SphericalGaussian(d, omega))
        assert math.isfinite(xi) and xi > 0

    def test_tail_integral_matches_quadrature_oracle(self):
        sigma, vartheta, d, omega = 1.0, 2.0, 3, 0.3
        got = SphericalGaussian(d, omega).tail_integral(2 / (sigma**2 * vartheta**2))
        f = lambda x: math.exp(2 * x**2 / (sigma**2 * vartheta**2)) * gammaincc(d / 2, x**2 / (2 * omega**2))
        want, _ = quad(f, 0, 10, limit=300)
        assert got == pytest.approx(want, rel=1e-8)

    def test_heavy_tail_rejected(self):
        # sigma * vartheta <= 2 omega: omega too large, sigma too small, or sigma * vartheta = 2
        # and 1.9 for a standard normal source, on and inside the boundary
        cases = [(1.0, 2.0, 1, 8.0), (0.5, 2.0, 4, 1.0), (1.0, 2.0, 1, 1.0), (1.0, 2.0, 4, 1.0),
                 (1.0, 2.0, 50, 1.0), (1.0, 1.9, 1, 1.0)]
        for sigma, vartheta, d, omega in cases:
            with pytest.raises(ValueError, match="integrability condition"):
                xi_constant(1, sigma, vartheta, SphericalGaussian(d, omega))


def upper_gamma_tail_integral(d, omega, a):
    """integral_0^inf exp(a xi^2) P[|X| > xi] d xi for X ~ N(0, omega^2 I_d), with P[|X| > xi] the
    regularized upper gamma function, split where the integrand peaks."""
    def tail_weighted(xi):
        q = gammaincc(d / 2, xi * xi / (2 * omega**2))
        return math.exp(a * xi * xi + math.log(q)) if q > 0 else 0.0

    peak = omega * math.sqrt(d / (1 - 2 * a * omega**2))
    return sum(quad(tail_weighted, lo, hi, epsabs=0, epsrel=1e-12, limit=400)[0]
               for lo, hi in ((0, peak), (peak, np.inf)))


class TestSources:
    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 60), omega=st.floats(0.1, 5.0), ratio=st.floats(1.2, 10.0))
    def test_gaussian_matches_upper_gamma_quadrature(self, d, omega, ratio):
        # sigma * vartheta / (2 omega) = ratio at vartheta = 2
        sigma, vartheta = ratio * omega, 2.0
        a = 2 / (sigma**2 * vartheta**2)
        want = upper_gamma_tail_integral(d, omega, a)
        assert SphericalGaussian(d, omega).tail_integral(a) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("d", [1600, 3200])
    def test_gaussian_peak_far_from_zero(self, d):
        a = 2 / (3.0**2 * 2.0**2)  # sigma 3, vartheta 2
        assert SphericalGaussian(d).tail_integral(a) == pytest.approx(upper_gamma_tail_integral(d, 1.0, a), rel=1e-8)

    @pytest.mark.parametrize("d", [1600, 6400])
    def test_gaussian_matches_hypergeometric_closed_form_at_large_d(self, d):
        # E[F_a(omega R)] = omega sqrt(2) Gamma((d + 1)/2) / Gamma(d/2) 2F1(1/2, (d + 1)/2; 3/2; 2 a omega^2)
        # (erfi as a 1F1 series, then the odd moments of chi_d), evaluated at 40 digits
        import mpmath

        mpmath.mp.dps = 40
        a = 2 / (3.0**2 * 2.0**2)  # sigma 3, vartheta 2
        half = mpmath.mpf(d + 1) / 2
        want = mpmath.sqrt(2) * mpmath.exp(mpmath.loggamma(half) - mpmath.loggamma(mpmath.mpf(d) / 2))
        want *= mpmath.hyp2f1(0.5, half, 1.5, 2 * mpmath.mpf(a))
        assert SphericalGaussian(d).tail_integral(a) == pytest.approx(float(want), rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(radius=st.floats(0.0, 5.0), a=st.floats(0.01, 2.0))
    def test_point_mass_matches_quadrature(self, radius, a):
        want, _ = quad(lambda xi: math.exp(a * xi * xi), 0, radius, epsabs=0, epsrel=1e-12)
        assert PointMass(radius).tail_integral(a) == pytest.approx(want, rel=1e-8)

    def test_gaussian_takes_a_numpy_integer_dimension(self):
        assert SphericalGaussian(np.int64(4)).moment(1) == 4.0

    @pytest.mark.parametrize("d", [1600, 6400])
    @pytest.mark.parametrize("omega", [1.0, 0.3])
    def test_gaussian_moments_match_mpmath_at_large_d(self, d, omega):
        import mpmath

        m = SphericalGaussian(d, omega).moment
        with mpmath.workdps(30):
            for k in range(5):
                want = mpmath.mpf(omega) ** (2 * k) * 2**k * mpmath.rf(mpmath.mpf(d) / 2, k)
                assert m(k) == pytest.approx(float(want), rel=1e-15, abs=0.0)


class TestUpsilonConstant:
    def test_hand_expanded_p1(self):
        got = upsilon_constant(1, 1.0, PointMass(1.0), 1.0)
        assert got == pytest.approx(2.0, rel=1e-13)

    @pytest.mark.parametrize("p, sigma, source, want", [
        (2, 1e-80, PointMass(1.0), 2.0), (2, 1e-100, PointMass(1.0), 2.0), (3, 1e-52, SphericalGaussian(3), 420.0),
    ])
    def test_tiny_sigma_keeps_the_limit_of_the_series(self, p, sigma, source, want):
        # as sigma -> 0 only the k = p term is left, 2^(p-1) M_2p, which sigma = 1e-40 already reads;
        # a power of 1/sigma^2 in any term overflows to inf, and inf times the vanishing sigma^2p to nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert upsilon_constant(p, 1e-40, source) == pytest.approx(want, rel=1e-13, abs=0.0)
            assert upsilon_constant(p, sigma, source) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("sigma, radius", [(0.5, 0.3), (1.0, 1.0), (2.0, 3.0)])
    def test_point_mass_is_kummer_series_times_prefactor(self, p, sigma, radius):
        # M_2k = r^2k folds into the series argument: the sum is 1F1(-p; 1/2; -r^2 / (2 sigma^2))
        prefactor = 2.0 ** (2 * p - 1) / math.sqrt(math.pi) * sigma ** (2 * p) * math.gamma(p + 0.5)
        want = prefactor * kummer_1f1(-p, 0.5, -(radius**2) / (2 * sigma**2))
        assert upsilon_constant(p, sigma, PointMass(radius)) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("p, sigma, source", [
        (150, 3.0, PointMass(1.0)), (1000, 1.0, PointMass(1.0)), (40, 1.0, PointMass(1e10)),
    ])
    def test_upsilon_beyond_the_double_range_names_its_settings(self, p, sigma, source):
        # Gamma(p + 1/2) times 2^(2p - 1) overflows from p = 150; a moment M_2k overflows for a far point mass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="double range") as info:
                upsilon_constant(p, sigma, source)
        assert all(name in str(info.value) for name in (f"p={p}", f"sigma={sigma}", repr(source)))

    def test_series_terminates_at_p(self):
        # moments beyond k = p never enter: poisoning them must not change the value
        class Poisoned(SphericalGaussian):
            def moment(self, k):
                return super().moment(k) if k <= 2 else float("nan")
        a = upsilon_constant(2, 1.3, SphericalGaussian(4))
        b = upsilon_constant(2, 1.3, Poisoned(4))
        assert a == b

    def test_gaussian_moments_match_chi_square_quadrature(self):
        d = 5
        m = SphericalGaussian(d).moment
        # chi density of |X| for X ~ N(0, I_d)
        norm = 2 ** (1 - d / 2) / math.gamma(d / 2)
        for k in (1, 2, 3):
            dens = lambda r: r ** (2 * k) * norm * r ** (d - 1) * math.exp(-0.5 * r * r)
            want, _ = quad(dens, 0, 40, limit=300)
            assert m(k) == pytest.approx(want, rel=1e-9)

    def test_point_mass_moments(self):
        m = PointMass(2.0).moment
        assert m(0) == 1.0 and m(1) == 4.0 and m(2) == 16.0


def test_sigma_whose_square_is_not_a_normal_double_is_rejected():
    # Xi divides by sigma^2, which is 0 from about 1.5e-162 (a ZeroDivisionError) and subnormal above that (an
    # infinite tail argument, or nan), and Upsilon shares its domain; the least sigma allowed gives finite constants
    for sigma in (1e-200, 1e-155, math.nextafter(bounds._SIGMA_MIN, 0.0)):
        with pytest.raises(ValueError, match="sigma must be"):
            xi_constant(1, sigma, 3.0, PointMass(0.0))
        with pytest.raises(ValueError, match="sigma must be"):
            upsilon_constant(1, sigma, PointMass(0.0))
    assert math.isfinite(xi_constant(1, bounds._SIGMA_MIN, 3.0, PointMass(0.0)))
    assert math.isfinite(upsilon_constant(1, bounds._SIGMA_MIN, PointMass(0.0)))


def test_import_leaves_scipy_integrate_unloaded():
    # only SphericalGaussian.tail_integral integrates; loading scipy.integrate at import doubles its cost
    src = str(Path(gssd.__file__).resolve().parents[1])
    code = "import sys, gssd, gssd.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestSampleBound:
    def test_n_one_is_xi(self):
        assert sample_bound(1, 3.3, 7.7) == 3.3

    def test_decreasing_along_powers_of_ten(self):
        xi, up = 1.0, 2.0
        vals = [sample_bound(n, xi, up) for n in (10**2, 10**4, 10**6)]
        assert vals[0] > vals[1] > vals[2]

    def test_pure_sqrt_term(self):
        assert sample_bound(4, 1.0, 0.0) == 0.5

    def test_strictly_decreasing_from_three(self):
        for xi, up in [(1.0, 0.0), (0.5, 2.0), (2.0, 10.0)]:
            vals = [sample_bound(n, xi, up) for n in range(3, 200)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_xi_scales_first_term_exactly(self):
        n, xi, up = 50, 1.7, 0.9
        log_term = up * math.log(n) / n
        assert sample_bound(n, 2 * xi, up) - log_term == pytest.approx(
            2 * (sample_bound(n, xi, up) - log_term), rel=1e-14
        )


class TestMcErrorBound:
    def test_constant_vector(self):
        assert mc_error_bound(np.full(8, 3.3)) == 0.0

    def test_two_point_hand_value(self):
        assert mc_error_bound(np.array([0.0, 2.0])) == pytest.approx(1.0, rel=1e-14)

    def test_doubling_l_shrinks_near_invsqrt2(self):
        ratios = []
        for trial in range(50):
            z = RngRoot(99).stream("mc-bound", trial).normals(400)
            ratios.append(mc_error_bound(z[:400]) / mc_error_bound(z[:200]))
        mean_ratio = float(np.mean(ratios))
        assert 0.6 <= mean_ratio <= 0.82


class TestTheoryBound:
    def test_evaluate_and_envelope(self):
        tb = TheoryBound.evaluate(
            p=2,
            sigma=1.0,
            source=PointMass(0.0),
            vartheta=2.0,
            c_p=1.0,
        )
        assert tb.xi > 0 and tb.tail_integral == 0.0
        assert tb.at(100) > tb.at(400) > tb.at(1600)

    def test_tail_integral_is_computed_once(self, monkeypatch):
        calls = []
        exact = bounds.SphericalGaussian.tail_integral

        def counted(self, a):
            calls.append(a)
            return exact(self, a)

        monkeypatch.setattr(bounds.SphericalGaussian, "tail_integral", counted)
        source = SphericalGaussian(3)
        tb = TheoryBound.evaluate(p=2, sigma=1.5, source=source, vartheta=2.5)
        assert len(calls) == 1
        assert tb.tail_integral == exact(source, 2 / (1.5**2 * 2.5**2))
        assert tb.xi == xi_constant(2, 1.5, 2.5, source)
