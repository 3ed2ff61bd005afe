"""Analytic constants and error bounds for the smoothed sliced estimator.

The finite-sample error of the estimator admits an envelope of the form
Xi / sqrt(n) + Upsilon * log(n) / n, where both constants are explicit up to
a free calibration factor c_p (default C_P = 1, user-configurable):

    Xi = 2^{5p/2 - 5/4} / sqrt(pi) * sigma^{p - 1/4} * theta^{p+1}
         * sqrt(Gamma(p + 1/2))
         * sqrt( sqrt(4 pi sigma^2 theta^2 / (theta^2 - 2)) + 4 * T )

with theta > sqrt(2) a free parameter (default VARTHETA = 2) and T the tail
integral integral_0^inf exp(a xi^2) P[|X| > xi] d xi, a = 2 / (sigma^2 theta^2).
By the layer-cake formula T = E[F_a(|X|)] with

    F_a(r) = integral_0^r exp(a xi^2) d xi = exp(a r^2) * dawsn(sqrt(a) r) / sqrt(a),

so T exists exactly when E[exp(a |X|^2)] does; for X ~ N(0, omega^2 I_d) that
is a omega^2 < 1/2, i.e. sigma * theta > 2 omega.  And

    Upsilon = 2^{2p-1} c_p / sqrt(pi) * sigma^{2p} * Gamma(p + 1/2)
              * sum_{k=0}^{p} (-p)_k / (1/2)_k * (-1)^k / ((2 sigma^2)^k k!)
              * M_{2k}

for integer p, where M_{2k} is the 2k-th absolute moment of the source
distribution.  The sum is Kummer's series 1F1(-p; 1/2; -1/(2 sigma^2)) with
its k-th term weighted by M_{2k}; it terminates because (-p)_k vanishes for
k > p.  A source (``PointMass`` or ``SphericalGaussian``) gives both T
and M_{2k}.

The Monte Carlo direction-sampling error is the usual A / sqrt(L) with A^2 the
variance of the per-direction values; ``mc_error_bound`` is its sample plug-in.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import dawsn, gammaln
from scipy.special import gamma as gamma_fn

from ._checks import _check_count, _check_real

__all__ = [
    "TheoryBound",
    "PointMass",
    "SphericalGaussian",
    "gaussian_abs_moment",
    "kummer_1f1",
    "xi_constant",
    "upsilon_constant",
    "sample_bound",
    "mc_error_bound",
]

_SQRT2 = math.sqrt(2.0)
# the least sigma of the envelope and of the mixture oracle: Xi divides by sigma^2, which below it is not a normal
# double and from about 1.5e-162 is 0; Upsilon shares the domain.  The oracle's quantiles step in units of sigma,
# which below it lose their precision or divide by 0.
_SIGMA_MIN = math.sqrt(sys.float_info.min)
VARTHETA = 2.0  # the envelope's default free parameter vartheta > sqrt(2)
C_P = 1.0  # the envelope's default calibration factor of the log(n)/n term


def gaussian_abs_moment(q: float, s: float) -> float:
    """E|N(0, s^2)|^q = s^q * 2^{q/2} * Gamma((q+1)/2) / sqrt(pi), for q >= 0."""
    _check_real("moment order q", q)
    _check_real("scale s", s, strict=True)
    return s**q * 2.0 ** (q / 2.0) * gamma_fn((q + 1.0) / 2.0) / math.sqrt(math.pi)


_KUMMER_RTOL = 2.0**-53  # the tail left off is below half an ulp of the sum
_KUMMER_MAX_TERMS = 10_000


def kummer_1f1(a: float, gamma: float, z: float) -> float:
    """Confluent hypergeometric series sum_k (a)_k / (gamma)_k * z^k / k!.

    If a is a non-positive integer the series terminates exactly at k = -a.  Otherwise, once
    k > -a and k > -gamma, rho_k = max(1, (a + k) / (gamma + k)) * |z| / (k + 1) bounds every later
    term ratio and only falls with k; the sum stops when rho_k < 1 and the tail bound
    |term_k| * rho_k / (1 - rho_k) is below _KUMMER_RTOL * |partial sum|, within _KUMMER_MAX_TERMS terms.
    """
    for name, value in (("a", a), ("gamma", gamma), ("z", z)):
        _check_real(name, value, -math.inf)
    if gamma <= 0 and float(gamma).is_integer():
        raise ValueError(f"gamma must not be a non-positive integer (a pole of the series), got {gamma!r}")
    terminal = int(-a) if a <= 0 and float(a).is_integer() else None
    total = 0.0
    for k, term in enumerate(_kummer_terms(a, gamma, z)):
        total += term
        if not (math.isfinite(term) and math.isfinite(total)):
            raise RuntimeError(f"hypergeometric series overflowed at term {k}; partial value {total!r}")
        if terminal is not None:
            if k >= terminal:
                return total
        elif k + a > 0 and k + gamma > 0:
            rho = max(1.0, (a + k) / (gamma + k)) * abs(z) / (k + 1)
            if rho < 1.0 and abs(term) * rho <= _KUMMER_RTOL * (1.0 - rho) * abs(total):
                return total
        if k >= _KUMMER_MAX_TERMS:
            raise RuntimeError(
                f"hypergeometric series did not converge in {_KUMMER_MAX_TERMS} terms; partial value {total!r}"
            )


def _kummer_terms(a: float, gamma: float, z: float):
    """The terms (a)_k / (gamma)_k * z^k / k! of Kummer's series for k = 0, 1, ..., each from the one before."""
    term = 1.0
    for k in itertools.count():
        yield term
        term *= (a + k) / (gamma + k) * z / (k + 1)


_NOT_INTEGRABLE = (
    "tail integral diverges; for X ~ N(0, omega^2 I_d) the integrability condition is sigma * vartheta > 2 omega"
)


@dataclass(frozen=True)
class PointMass:
    """X at distance ``radius`` from the origin."""

    radius: float = 0.0

    def __post_init__(self) -> None:
        _check_real("radius", self.radius)

    def moment(self, k: int) -> float:
        """M_{2k} = radius^{2k}."""
        _check_count("moment index k", k, 0)
        return self.radius ** (2 * k)

    def tail_integral(self, a: float) -> float:
        """T = F_a(radius) = radius * exp(a radius^2) * dawsn(x) / x with x = sqrt(a) radius, in closed form."""
        _check_real("a", a)
        x = math.sqrt(a) * self.radius
        if x == 0.0:  # radius 0, or so small that F_a(radius) = radius to double precision
            return float(self.radius)
        return math.exp(math.log(self.radius) + a * self.radius**2 + math.log(dawsn(x) / x))


@dataclass(frozen=True)
class SphericalGaussian:
    """X ~ N(0, omega^2 I_d)."""

    d: int
    omega: float = 1.0

    def __post_init__(self) -> None:
        _check_count("dimension d", self.d)
        _check_real("omega", self.omega, strict=True)

    def moment(self, k: int) -> float:
        """M_{2k} = omega^{2k} 2^k (d/2)(d/2 + 1)...(d/2 + k - 1) (chi-square moments).

        Each 2 (d/2 + j) = d + 2j is an integer, so the product is exact while it stays below 2^53.
        """
        _check_count("moment index k", k, 0)
        return float(self.omega ** (2 * k) * math.prod(self.d + 2.0 * j for j in range(k)))

    def tail_integral(self, a: float) -> float:
        """T = E[F_a(omega R)] for R ~ chi_d, a quadrature over the chi density in log space.

        The log density is centred at its peak, so its rounding does not grow
        with d log d; what is left grows with d |log c|, from c^-d below.
        """
        _check_real("a", a)
        if not a * self.omega**2 < 0.5:
            raise ValueError(_NOT_INTEGRABLE)
        # imported here, its one use: scipy.integrate would double the time and memory of `import gssd`
        from scipy.integrate import quad

        # u = c R turns exp(a omega^2 R^2) of F_a times exp(-R^2 / 2) of the density into exp(-u^2 / 2),
        # which keeps the peak near u = sqrt(d - 1) however close a omega^2 is to 1/2
        d = self.d
        x = 2.0 * a * self.omega**2
        c = math.sqrt(1.0 - x)
        root_a, root_d = math.sqrt(a), math.sqrt(d)
        # log of the chi_d density at u = sqrt(d) t, centred at its peak: with the Stirling form of
        # gammaln(d/2) the terms of size d log d cancel in closed form and leave -log(pi)/2 - S(d/2);
        # c^-d is the Jacobian of u = c R
        log_scale = -0.5 * math.log(math.pi) - _stirling_remainder(0.5 * d) - 0.5 * d * math.log1p(-x)

        def integrand(u: float) -> float:
            t = u / root_d
            density = math.exp((d - 1) * math.log(t) - 0.5 * d * (t - 1.0) * (t + 1.0) + log_scale)
            return density * dawsn(root_a * self.omega * u / c) / root_a

        # split at the peak: over [0, inf) in one piece quad misses a peak far from 0 (T = 2e-22 at d = 1600);
        # a T beyond the double range makes math.exp in the density factor raise OverflowError (``_xi_and_tail``
        # turns it into a ValueError)
        pieces = ((0.0, root_d), (root_d, math.inf))
        return sum(quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0] for lo, hi in pieces)


# B_2j / (2j (2j - 1)) for j = 1..7; from k = 10 on the first omitted term is below 3e-17
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _stirling_remainder(k: float) -> float:
    """S(k) = gammaln(k) - ((k - 1/2) log k - k + log(2 pi) / 2), by its asymptotic series from k = 10 on."""
    if k < 10.0:
        return float(gammaln(k)) - ((k - 0.5) * math.log(k) - k + 0.5 * math.log(2.0 * math.pi))
    return sum(b / k ** (2 * j + 1) for j, b in enumerate(_STIRLING))


Source = PointMass | SphericalGaussian


def xi_constant(p: float, sigma: float, vartheta: float, source: Source) -> float:
    """The sqrt(n)-rate constant Xi of ``source``.

    Requires vartheta > sqrt(2) (otherwise the Gaussian reweighting integral
    inside the constant diverges) and an integrable tail integral.
    """
    return _xi_and_tail(p, sigma, vartheta, source)[0]


def _xi_and_tail(p: float, sigma: float, vartheta: float, source: Source) -> tuple[float, float]:
    """Xi and the tail integral inside it, which is computed once."""
    _check_real("order p", p, 1)
    _check_real("sigma", sigma, _SIGMA_MIN)
    _check_real("vartheta", vartheta, _SQRT2, strict=True)
    try:  # the tail integral or a power past the double range raises OverflowError, a product past it is inf
        tail_integral = source.tail_integral(2.0 / (sigma**2 * vartheta**2))
        gauss_term = math.sqrt(4.0 * math.pi * sigma**2 * vartheta**2 / (vartheta**2 - 2.0))
        prefactor = (
            2.0 ** (2.5 * p - 1.25)
            / math.sqrt(math.pi)
            * sigma ** (p - 0.25)
            * vartheta ** (p + 1.0)
            * math.sqrt(gamma_fn(p + 0.5))
        )
        xi = prefactor * math.sqrt(gauss_term + 4.0 * tail_integral)
    except OverflowError:
        xi = math.inf
    if not math.isfinite(xi):
        raise ValueError(f"Xi of {source} at p={p!r}, sigma={sigma!r}, vartheta={vartheta!r} exceeds the double range")
    return xi, tail_integral


def upsilon_constant(p: int, sigma: float, source: Source, c_p: float = C_P) -> float:
    """The log(n)/n-rate constant Upsilon of ``source`` for integer order p.

    Only the moments M_{2k} for k = 0..p enter: the series terminates at k = p.
    """
    _check_real("sigma", sigma, _SIGMA_MIN)
    _check_real("c_p", c_p)
    _check_real("order p", p, 1)
    if not float(p).is_integer():
        raise ValueError(f"order p must be an integer for Upsilon's terminating series, got {p!r}")
    p = int(p)
    # sigma^2p times the k-th term of 1F1(-p; 1/2; -1/(2 sigma^2)) is sigma^2(p-k) times its k-th term at
    # sigma = 1: no term forms a power of 1/sigma, which overflows for a tiny sigma
    terms = zip(range(p + 1), _kummer_terms(-p, 0.5, -0.5))
    try:
        series = sum(term * sigma ** (2 * (p - k)) * source.moment(k) for k, term in terms)
        upsilon = 2.0 ** (2 * p - 1) * c_p / math.sqrt(math.pi) * float(gamma_fn(p + 0.5)) * series
    except OverflowError:
        upsilon = math.inf
    if not math.isfinite(upsilon):
        raise ValueError(f"Upsilon of {source} at p={p!r}, sigma={sigma!r}, c_p={c_p!r} exceeds the double range")
    return upsilon


def sample_bound(n: int, xi: float, upsilon: float) -> float:
    """Envelope Xi / sqrt(n) + Upsilon * log(n) / n."""
    _check_count("n", n)
    _check_real("xi", xi)
    _check_real("upsilon", upsilon)
    return xi / math.sqrt(n) + upsilon * math.log(n) / n


def mc_error_bound(per_projection: np.ndarray) -> float:
    """Plug-in direction-sampling error: sample std of the values over sqrt(L)."""
    vals = np.asarray(per_projection, dtype=np.float64).ravel()
    _check_count("number of per-projection values", vals.size, 2)
    return float(np.std(vals, ddof=1) / math.sqrt(vals.size))


@dataclass(frozen=True)
class TheoryBound:
    """Evaluated constants for the n-dependent error envelope."""

    p: float
    sigma: float
    vartheta: float
    xi: float
    upsilon: float
    c_p: float
    tail_integral: float

    @classmethod
    def evaluate(
        cls, p: int, sigma: float, source: Source, vartheta: float = VARTHETA, c_p: float = C_P
    ) -> TheoryBound:
        xi, tail_integral = _xi_and_tail(p, sigma, vartheta, source)
        upsilon = upsilon_constant(p, sigma, source, c_p)
        return cls(float(p), float(sigma), float(vartheta), xi, upsilon, float(c_p), tail_integral)

    def at(self, n: int) -> float:
        return sample_bound(n, self.xi, self.upsilon)

