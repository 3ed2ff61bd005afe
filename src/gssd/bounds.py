"""Analytic constants and error bounds for the smoothed sliced estimator.

The finite-sample error of the estimator admits an envelope of the form
Xi / sqrt(n) + Upsilon * log(n) / n, where both constants are explicit up to
a free calibration factor c_p (default 1, user-configurable):

    Xi = 2^{5p/2 - 5/4} / sqrt(pi) * sigma^{p - 1/4} * theta^{p+1}
         * sqrt(Gamma(p + 1/2))
         * sqrt( sqrt(4 pi sigma^2 theta^2 / (theta^2 - 2)) + 4 * T )

with theta > sqrt(2) a free parameter and T the tail integral
integral_0^inf exp(2 xi^2 / (sigma^2 theta^2)) P[|X| > xi] d xi, and

    Upsilon = 2^{2p-1} c_p / sqrt(pi) * sigma^{2p} * Gamma(p + 1/2)
              * sum_{k=0}^{p} (-p)_k / (1/2)_k * (-1)^k / ((2 sigma^2)^k k!)
              * M_{2k}

for integer p, where M_{2k} is the 2k-th absolute moment of the source
distribution.  The hypergeometric series terminates because (-p)_k vanishes
for k > p.

The Monte Carlo direction-sampling error is the usual A / sqrt(L) with A^2 the
variance of the per-direction values; ``mc_error_bound`` is its sample plug-in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn
from scipy.special import gammaincc, gammaln

__all__ = [
    "TheoryBound",
    "gaussian_abs_moment",
    "pochhammer",
    "kummer_1f1",
    "tail_reweighted_integral",
    "xi_constant",
    "upsilon_constant",
    "sample_bound",
    "mc_error_bound",
    "tail_point_mass",
    "tail_spherical_gaussian",
    "moments_point_mass",
    "moments_spherical_gaussian",
]

_SQRT2 = math.sqrt(2.0)


def gaussian_abs_moment(q: float, s: float) -> float:
    """E|N(0, s^2)|^q = s^q * 2^{q/2} * Gamma((q+1)/2) / sqrt(pi), for q >= 0."""
    if q < 0:
        raise ValueError("moment order q must be >= 0")
    if s <= 0:
        raise ValueError("scale s must be positive")
    return s**q * 2.0 ** (q / 2.0) * gamma_fn((q + 1.0) / 2.0) / math.sqrt(math.pi)


def pochhammer(alpha: float, k: int) -> float:
    """Rising factorial (alpha)_k = alpha (alpha+1) ... (alpha+k-1); ()_0 = 1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    out = 1.0
    for j in range(k):
        out *= alpha + j
    return out


def kummer_1f1(a: float, gamma: float, z: float, rtol: float = 1e-12, max_terms: int = 10_000) -> float:
    """Confluent hypergeometric series sum_k (a)_k / (gamma)_k * z^k / k!.

    If a is a non-positive integer the series terminates exactly at k = -a.
    Otherwise terms are accumulated until |term| < rtol * |partial sum|.
    """
    if gamma <= 0 and float(gamma).is_integer():
        raise ValueError("gamma must not be a non-positive integer (series pole)")
    terminal = None
    if a <= 0 and float(a).is_integer():
        terminal = int(-a)
    total = 1.0
    term = 1.0
    k = 0
    while True:
        if not (math.isfinite(term) and math.isfinite(total)):
            raise RuntimeError(f"hypergeometric series overflowed at term {k}; partial value {total!r}")
        if terminal is not None and k >= terminal:
            return total
        if terminal is None and k > 0 and abs(term) < rtol * abs(total):
            return total
        if k >= max_terms:
            raise RuntimeError(
                f"hypergeometric series did not converge in {max_terms} terms; partial value {total!r}"
            )
        term *= (a + k) / (gamma + k) * z / (k + 1)
        total += term
        k += 1


_NOT_INTEGRABLE = (
    "tail integrand is not decaying; the integrability condition "
    "requires P[|X| > xi] to beat exp(-2 xi^2 / (sigma^2 vartheta^2))"
)


def _tail_cutoff(integrand: Callable[[float], float], sigma: float, vartheta: float) -> float:
    """Smallest probe point beyond which the tail integrand is negligible."""
    probe = max(sigma * vartheta, 1.0)
    for _ in range(60):
        if integrand(probe) < 1e-14:
            return probe
        probe *= 1.5
    raise ValueError(_NOT_INTEGRABLE)


def tail_reweighted_integral(
    sigma: float, vartheta: float, tail_fn: Callable[[float], float]
) -> float:
    """integral_0^inf exp(2 xi^2 / (sigma^2 vartheta^2)) P[|X| > xi] d xi.

    Adaptive quadrature with an automatic upper cutoff where the integrand has
    dropped below 1e-14; raises if the integrand never decays (the constant is
    undefined for such heavy tails).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")

    def integrand(xi: float) -> float:
        t = tail_fn(xi)
        if t <= 0.0:
            return 0.0
        # log-space guard: heavy tails push the exponent past double range
        log_val = 2.0 * xi**2 / (sigma**2 * vartheta**2) + math.log(t)
        if log_val > 700.0:
            return math.inf
        return math.exp(log_val)

    cutoff = _tail_cutoff(integrand, sigma, vartheta)
    value, _ = quad(integrand, 0.0, cutoff, limit=200)
    if not math.isfinite(value):
        # the probe can stop where P[|X| > xi] underflows to 0 while the reweighted integrand still grows
        raise ValueError(_NOT_INTEGRABLE)
    return value


def xi_constant(
    p: float, sigma: float, vartheta: float, tail_fn: Callable[[float], float]
) -> float:
    """The sqrt(n)-rate constant Xi.

    ``tail_fn`` maps xi >= 0 to P[|X| > xi] for the source distribution.
    Requires vartheta > sqrt(2) (otherwise the Gaussian reweighting integral
    inside the constant diverges).
    """
    return _xi_and_tail(p, sigma, vartheta, tail_fn)[0]


def _xi_and_tail(
    p: float, sigma: float, vartheta: float, tail_fn: Callable[[float], float]
) -> tuple[float, float]:
    """Xi and the tail integral inside it, which is computed once."""
    if p < 1:
        raise ValueError("order p must be >= 1")
    if vartheta <= _SQRT2:
        raise ValueError("vartheta must exceed sqrt(2)")
    tail_integral = tail_reweighted_integral(sigma, vartheta, tail_fn)
    gauss_term = math.sqrt(4.0 * math.pi * sigma**2 * vartheta**2 / (vartheta**2 - 2.0))
    prefactor = (
        2.0 ** (2.5 * p - 1.25)
        / math.sqrt(math.pi)
        * sigma ** (p - 0.25)
        * vartheta ** (p + 1.0)
        * math.sqrt(gamma_fn(p + 0.5))
    )
    return prefactor * math.sqrt(gauss_term + 4.0 * tail_integral), tail_integral


def upsilon_constant(
    p: int, sigma: float, moments: Callable[[int], float], c_p: float = 1.0
) -> float:
    """The log(n)/n-rate constant Upsilon for integer order p.

    ``moments(k)`` must return M_{2k}, the 2k-th absolute moment of the source
    distribution, for k = 0..p.  The alternating series terminates at k = p.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not float(p).is_integer() or p < 1:
        raise ValueError("upsilon is defined for positive integer p (terminating series)")
    p = int(p)
    series = 0.0
    for k in range(p + 1):
        coef = pochhammer(-p, k) / pochhammer(0.5, k)
        series += coef * (-1.0) ** k / ((2.0 * sigma**2) ** k * math.factorial(k)) * moments(k)
    return 2.0 ** (2 * p - 1) * c_p / math.sqrt(math.pi) * sigma ** (2 * p) * gamma_fn(p + 0.5) * series


def sample_bound(n: int, xi: float, upsilon: float) -> float:
    """Envelope Xi / sqrt(n) + Upsilon * log(n) / n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return xi / math.sqrt(n) + upsilon * math.log(n) / n


def mc_error_bound(per_projection: np.ndarray) -> float:
    """Plug-in direction-sampling error: sample std of the values over sqrt(L)."""
    vals = np.asarray(per_projection, dtype=np.float64).ravel()
    L = vals.size
    if L < 2:
        raise ValueError("need at least 2 per-projection values")
    return float(np.std(vals, ddof=1) / math.sqrt(L))


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
        cls,
        p: int,
        sigma: float,
        tail_fn: Callable[[float], float],
        moments: Callable[[int], float],
        vartheta: float = 2.0,
        c_p: float = 1.0,
    ) -> TheoryBound:
        xi, tail_integral = _xi_and_tail(p, sigma, vartheta, tail_fn)
        upsilon = upsilon_constant(p, sigma, moments, c_p)
        return cls(
            p=float(p),
            sigma=float(sigma),
            vartheta=float(vartheta),
            xi=xi,
            upsilon=upsilon,
            c_p=float(c_p),
            tail_integral=tail_integral,
        )

    def at(self, n: int) -> float:
        return sample_bound(n, self.xi, self.upsilon)


# Built-in tail functions P[|X| > xi] and even-moment maps M_{2k} for common sources.


def tail_point_mass(radius: float = 0.0) -> Callable[[float], float]:
    """Point mass at distance ``radius`` from the origin."""
    return lambda xi: 1.0 if xi < radius else 0.0


def tail_spherical_gaussian(d: int, omega: float = 1.0) -> Callable[[float], float]:
    """X ~ N(0, omega^2 I_d): P[|X| > xi] is a regularized upper gamma function."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if omega <= 0:
        raise ValueError("omega must be positive")
    return lambda xi: float(gammaincc(d / 2.0, xi**2 / (2.0 * omega**2)))


def moments_point_mass(radius: float = 0.0) -> Callable[[int], float]:
    return lambda k: 1.0 if k == 0 else radius ** (2 * k)


def moments_spherical_gaussian(d: int, omega: float = 1.0) -> Callable[[int], float]:
    """M_{2k} = omega^{2k} 2^k Gamma(d/2 + k) / Gamma(d/2) (chi-square moments)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if omega <= 0:
        raise ValueError("omega must be positive")

    def m(k: int) -> float:
        return float(omega ** (2 * k) * 2.0**k * math.exp(gammaln(d / 2.0 + k) - gammaln(d / 2.0)))

    return m
