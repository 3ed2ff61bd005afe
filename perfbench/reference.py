"""Slow reference computations that the benchmark checks gssd's outputs against.

Each one is written from the definition and calls nothing in gssd's
divergences module, so a faster implementation there can be checked against
it.  All of them are dense or iterate to a tighter tolerance than gssd, and
run outside the timed region.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp, ndtr, ndtri

_ROWS = 256  # row block of the dense pairwise sums; bounds memory to _ROWS * m floats


def _pairwise_sum(a: np.ndarray, b: np.ndarray, fn) -> float:
    return sum(float(fn(a[i : i + _ROWS, None] - b[None, :]).sum()) for i in range(0, a.size, _ROWS))


def mean_pairwise_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Mean |s - t| over all unordered pairs of distinct points of the pooled set."""
    pooled = np.concatenate([x, y])
    m = pooled.size
    return _pairwise_sum(pooled, pooled, np.abs) / (m * (m - 1))


def mmd_sq(x: np.ndarray, y: np.ndarray, bandwidth: float) -> float:
    """Biased V-statistic of the squared MMD with a Gaussian kernel, summed pair by pair."""

    def kernel(z):
        return np.exp(-0.5 * (z / bandwidth) ** 2)

    n, m = x.size, y.size
    return (
        _pairwise_sum(x, x, kernel) / (n * n)
        - 2.0 * _pairwise_sum(x, y, kernel) / (n * m)
        + _pairwise_sum(y, y, kernel) / (m * m)
    )


def _entropic_ot(x: np.ndarray, y: np.ndarray, p: float, eps: float) -> float:
    """Entropic OT value <f, a> + <g, b> at the dual optimum, to a marginal error below 1e-10.

    Maximises the semi-dual F(g) = <g, b> + <f(g), a>, with f(g) the exact
    c-transform, by Newton's method with backtracking.  Fixed-point iterations
    down a halving epsilon ladder give the starting point.  Row marginals hold
    exactly for f(g); the column marginal error is the gradient of F.
    """
    C = np.abs(x[:, None] - y[None, :]) ** p
    a = np.full(x.size, 1.0 / x.size)
    b = np.full(y.size, 1.0 / y.size)

    def c_transform(g):
        A = (g[None, :] - C) / eps + np.log(b)[None, :]
        lse = logsumexp(A, axis=1)
        return -eps * lse, np.exp(A - lse[:, None])  # f, and the plan's rows over a

    e = max(eps, float(C.max()) / 50.0)
    g = np.zeros(y.size)
    while True:
        for _ in range(50):
            f = -e * logsumexp(np.log(b)[None, :] + (g[None, :] - C) / e, axis=1)
            g = -e * logsumexp(np.log(a)[:, None] + (f[:, None] - C) / e, axis=0)
        if e == eps:
            break
        e = max(eps, 0.5 * e)
    for _ in range(100):
        f, rows = c_transform(g)
        value = f @ a + g @ b
        cols = a @ rows
        err = float(np.abs(b - cols).max())
        if err < 1e-13:
            break
        neg_hessian = (np.diag(cols) - rows.T @ (a[:, None] * rows)) / eps
        step = np.linalg.lstsq(neg_hessian, b - cols, rcond=None)[0]
        t = 1.0
        while t > 1e-12 and c_transform(g + t * step)[0] @ a + (g + t * step) @ b < value:
            t *= 0.5
        if t <= 1e-12:
            break  # F no longer rises in floating point
        g = g + t * step
    if err >= 1e-10:
        raise RuntimeError(f"reference Sinkhorn stopped at a marginal error of {err:.1e}")
    return float(value)


def sinkhorn_div(x: np.ndarray, y: np.ndarray, p: float, eps: float) -> float:
    """Debiased entropic divergence OT(x, y) - OT(x, x) / 2 - OT(y, y) / 2."""
    return _entropic_ot(x, y, p, eps) - 0.5 * _entropic_ot(x, x, p, eps) - 0.5 * _entropic_ot(y, y, p, eps)


def mixture_quantiles(v: np.ndarray, sigma: float, levels: np.ndarray) -> np.ndarray:
    """Quantiles of (1/n) sum_i N(v_i, sigma^2) by Newton steps kept inside a bracket."""
    z = ndtri(levels)
    lo = v.min() + sigma * z
    hi = v.max() + sigma * z
    # start from the inverse of the CDF tabulated on an even grid
    knots = np.linspace(lo[0], hi[-1], 512)
    cdf = ndtr((knots[:, None] - v[None, :]) / sigma).mean(axis=1)
    t = np.clip(np.interp(levels, cdf, knots), lo, hi)
    for _ in range(100):
        w = (t[:, None] - v[None, :]) / sigma
        resid = ndtr(w).mean(axis=1) - levels
        dens = np.exp(-0.5 * w * w).mean(axis=1) / (sigma * np.sqrt(2.0 * np.pi))
        hi = np.where(resid >= 0, t, hi)
        lo = np.where(resid < 0, t, lo)
        step = np.divide(resid, dens, out=np.full_like(t, np.inf), where=dens > 0)
        new = t - step
        new = np.where((new > lo) & (new < hi), new, 0.5 * (lo + hi))
        if float(np.abs(new - t).max()) <= 1e-13 * max(float(hi.max() - lo.min()), sigma):
            return new
        t = new
    raise RuntimeError("reference mixture quantiles did not converge")


def smoothed_wasserstein(vx: np.ndarray, vy: np.ndarray, sigma: float, p: float, grid: int) -> float:
    """W_p^p between two sigma-smoothed empirical slices on a midpoint grid of quantile levels."""
    levels = (np.arange(grid) + 0.5) / grid
    qx = mixture_quantiles(vx, sigma, levels)
    qy = mixture_quantiles(vy, sigma, levels)
    return float(np.mean(np.abs(qx - qy) ** p))
