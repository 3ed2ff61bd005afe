"""Base 1D divergences between empirical measures on the line.

Three families are provided:

* ``wasserstein_pp`` -- the exact p-th power of the 1D Wasserstein distance,
  via the quantile coupling (sorted samples for equal sizes, merged quantile
  breakpoints otherwise).
* ``mmd_sq`` -- the squared maximum mean discrepancy as the biased V-statistic
  of a Gaussian kernel, (1/n^2) sum k(x_i, x_j) - (2/nm) sum k(x_i, y_j)
  + (1/m^2) sum k(y_i, y_j), by an O((n + m) (range/h)) trapezoid rule in
  the kernel's Gaussian frequency, checked against the same rule on every
  other node, or else by the exact O((n + m)^2) kernel sum in fixed-size
  blocks.
* ``sinkhorn_div`` -- the debiased entropic divergence
  S_eps = OT_eps(x, y) - OT_eps(x, x)/2 - OT_eps(y, y)/2 for cost |s - t|^p,
  where OT_eps is the entropic optimal transport value (transport cost plus
  eps * KL of the plan against the product of the marginals), solved by
  log-domain fixed-point iterations.

``smoothed_wasserstein_oracle`` gives a deterministic high-accuracy value of
W_p^p between two equal-bandwidth Gaussian mixtures, used as the second route
against the double-sampling estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = [
    "DivergenceSpec",
    "SinkhornResult",
    "wasserstein_pp",
    "wasserstein_pp_rows",
    "mmd_sq",
    "bandwidth_mean_pairwise",
    "sinkhorn_div",
    "smoothed_wasserstein_oracle",
]

KINDS = ("wasserstein", "mmd", "sinkhorn")

_MMD_BLOCK = 2048
# The trapezoid rule with step tau errs on E cos(w Z) = exp(-w^2 / 2) by about exp(-(2 pi / tau - |w|)^2 / 2)
# (Poisson summation).  The MMD integrand's frequencies are |w| <= range / h and sum |s_i| = 2, so with
# tau = pi / (range / h + _QUAD_MARGIN) the step-2 tau rule errs by at most 4 exp(-_QUAD_MARGIN^2 / 2) =
# 1.4e-16 < 2^-52, and the step-tau rule (margin range / h + 2 _QUAD_MARGIN) by far less.  Nodes stop at
# |z| <= _QUAD_CUT, which drops Gaussian mass 2e-19.
_QUAD_MARGIN = 8.7
_QUAD_CUT = 9.0
_QUAD_BLOCK = 1 << 16  # floats in each work buffer of the quadrature route
_QUAD_RTOL = 1e-13
_QUAD_ATOL = 2.0**-52


@dataclass(frozen=True)
class DivergenceSpec:
    """Which base divergence to slice, and its hyperparameters.

    ``bandwidth=None`` selects the mean-pairwise-distance heuristic, computed
    per projection on the pooled smoothed values; a positive float fixes it.
    """

    kind: str
    p: float = 2.0
    epsilon: float = 0.1
    bandwidth: float | None = None
    sinkhorn_tol: float = 1e-9
    sinkhorn_max_iter: int = 1000

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown divergence kind {self.kind!r}; expected one of {KINDS}")
        if not 1 <= self.p < math.inf:
            raise ValueError("order p must be finite and >= 1")
        if self.kind == "sinkhorn" and not 0 < self.epsilon < math.inf:
            raise ValueError("sinkhorn epsilon must be finite and positive")
        if self.bandwidth is not None and not 0 < self.bandwidth < math.inf:
            raise ValueError("fixed bandwidth must be finite and positive")
        if not 0 <= self.sinkhorn_tol < math.inf:
            raise ValueError("sinkhorn_tol must be finite and >= 0 (0 runs to the iteration cap)")
        if self.sinkhorn_max_iter < 1:
            raise ValueError("sinkhorn_max_iter must be >= 1")


def _as_samples(x, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def wasserstein_pp(x, y, p: float) -> float:
    """W_p^p between the uniform empirical measures of x and y.

    Equal sizes reduce to the mean p-th power of sorted differences; unequal
    sizes integrate |F_x^{-1}(t) - F_y^{-1}(t)|^p exactly over the merged
    quantile breakpoints (both quantile functions are piecewise constant).
    """
    if not 1 <= p < math.inf:
        raise ValueError("order p must be finite and >= 1")
    return float(wasserstein_pp_rows(_as_samples(x, "x")[None], _as_samples(y, "y")[None], p)[0])


def wasserstein_pp_rows(X: np.ndarray, Y: np.ndarray, p: float) -> np.ndarray:
    """``wasserstein_pp`` of row k of X against row k of Y, for every row at once.

    Each row is reduced on its own contiguous run, so row k is bit-identical to
    ``wasserstein_pp(X[k], Y[k], p)`` however many rows there are.
    """
    xs = np.sort(X, axis=1)
    ys = np.sort(Y, axis=1)
    n, m = xs.shape[1], ys.shape[1]
    if n == m:
        return np.mean(np.abs(xs - ys) ** p, axis=1)
    qx = np.arange(1, n + 1) / n
    qy = np.arange(1, m + 1) / m
    ts = np.concatenate([qx, qy])
    ts.sort(kind="mergesort")
    widths = np.diff(ts, prepend=0.0)
    mids = ts - 0.5 * widths
    ix = np.searchsorted(qx, mids, side="left")
    iy = np.searchsorted(qy, mids, side="left")
    # take() keeps rows contiguous, so each row sums in the order of a 1-D array
    return np.sum(widths * np.abs(xs.take(ix, axis=1) - ys.take(iy, axis=1)) ** p, axis=1)


def _kernel_sum(a: np.ndarray, b: np.ndarray, bandwidth: float) -> float:
    """Sum of exp(-(s-t)^2 / (2 bw^2)) over all pairs, in fixed-size blocks."""
    total = 0.0
    with np.errstate(over="ignore"):  # a pair far apart on the scale of bw overflows to z = inf, kernel value 0
        for i in range(0, a.size, _MMD_BLOCK):
            ai = a[i : i + _MMD_BLOCK, None]
            for j in range(0, b.size, _MMD_BLOCK):
                z = (ai - b[None, j : j + _MMD_BLOCK]) / bandwidth
                total += float(np.exp(-0.5 * z * z).sum())
    return total


def _quadrature_pair(u: np.ndarray, s: np.ndarray, tau: float, K: int) -> tuple[float, float]:
    """E_Z |sum_i s_i exp(i Z u_i)|^2 by the trapezoid rule on z_k = k tau, k = 0..K (K even),
    and by the same rule on the even k alone, with step 2 tau: (coarse, fine).

    The integrand is even, so the weights tau phi(z_k) are doubled for k >= 1.  At each node it is one
    cos, one sin and two matrix-vector products over the pooled values, a block of nodes at a time in
    two reused work buffers of at most _QUAD_BLOCK floats each.
    """
    z = tau * np.arange(K + 1)
    w = tau / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * z * z)
    w[1:] *= 2.0
    power = np.empty(z.size)
    rows = min(z.size, max(1, _QUAD_BLOCK // u.size))
    arg = np.empty((rows, u.size))
    trig = np.empty((rows, u.size))
    for i in range(0, z.size, rows):
        k = min(rows, z.size - i)
        a, t = arg[:k], trig[:k]
        np.multiply(z[i : i + k, None], u, out=a)
        re = np.cos(a, out=t) @ s
        im = np.sin(a, out=a) @ s
        power[i : i + k] = re * re + im * im
    return 2.0 * float(power[::2] @ w[::2]), float(power @ w)


def mmd_sq(x, y, bandwidth: float) -> float:
    """Squared MMD with Gaussian kernel, biased V-statistic (>= 0 up to rounding).

    By k_h(s - t) = E cos(Z (s - t) / h), Z ~ N(0, 1), the V-statistic is
    E |phi_x(Z/h) - phi_y(Z/h)|^2 over the empirical characteristic functions.
    The trapezoid rule with step tau = pi / (range/h + _QUAD_MARGIN) on
    0 <= z <= _QUAD_CUT sums it; its value is returned when the rule on every
    other node agrees with it to _QUAD_RTOL relative, plus _QUAD_ATOL (the
    exact sum's own rounding).  Otherwise, and straight away when the K + 1
    nodes would evaluate more terms than the exact sum has kernel pairs, the
    exact blocked kernel sum runs.
    """
    if not 0 < bandwidth < math.inf:
        raise ValueError("bandwidth must be finite and positive")
    xs = _as_samples(x, "x")
    ys = _as_samples(y, "y")
    n, m = xs.size, ys.size
    v = np.concatenate([xs, ys])
    lo, hi = float(v.min()), float(v.max())
    band = (hi - lo) / bandwidth + _QUAD_MARGIN  # pi / tau
    K = 2.0 * np.ceil(0.5 * _QUAD_CUT * band / math.pi)  # a float, inf when h is tiny: no int() before the test
    if (K + 1.0) * v.size <= n * n + n * m + m * m:
        v -= 0.5 * (lo + hi)  # the kernel is shift-invariant; centring keeps the phases Z v / h small
        s = np.concatenate([np.full(n, 1.0 / n), np.full(m, -1.0 / m)])
        coarse, fine = _quadrature_pair(v / bandwidth, s, math.pi / band, int(K))
        if abs(fine - coarse) <= _QUAD_RTOL * fine + _QUAD_ATOL:
            return fine
    return (
        _kernel_sum(xs, xs, bandwidth) / (n * n)
        - 2.0 * _kernel_sum(xs, ys, bandwidth) / (n * m)
        + _kernel_sum(ys, ys, bandwidth) / (m * m)
    )


def bandwidth_mean_pairwise(x, y) -> float:
    """Mean absolute difference over all unordered pairs of the pooled set.

    Degenerate pooled sets (all points equal) fall back to 1.0 so the kernel
    stays well-defined and MMD^2 of identical degenerate sets remains 0.
    """
    pooled = np.concatenate([_as_samples(x, "x"), _as_samples(y, "y")])
    m = pooled.size
    if m < 2:
        raise ValueError("pooled set must contain at least 2 points")
    s = np.sort(pooled)
    # sum_{i<j} (s_j - s_i) = sum_i s_i * (2i - m + 1) over the sorted order
    total = float(np.sum(s * (2.0 * np.arange(m) - (m - 1))))
    mean = 2.0 * total / (m * (m - 1))
    if mean <= 0.0:
        return 1.0
    return mean


class SinkhornResult(NamedTuple):
    value: float
    converged: bool
    iterations: int
    marginal_error: float


def _potential(h: np.ndarray, C: np.ndarray, logw: np.ndarray, e: float, W: np.ndarray) -> np.ndarray:
    """-e * log sum_j exp((h_j - C_ij)/e + logw_j) for each row i, computed in W (the shape of C)."""
    np.subtract(h, C, out=W)
    np.divide(W, e, out=W)
    np.add(W, logw, out=W)
    top = W.max(axis=1)
    np.subtract(W, top[:, None], out=W)
    np.exp(W, out=W)
    return -e * (top + np.log(W.sum(axis=1)))


def _entropic_ot(
    x: np.ndarray, y: np.ndarray, p: float, eps: float, tol: float, max_iter: int
) -> tuple[float, bool, int, float]:
    """Entropic OT value <f,a> + <g,b> at the log-domain fixed point.

    Warm-starts through a geometric epsilon ladder from max(eps, C_max/50) down
    to the target; every (f, g) update counts against max_iter. After a g update
    the plan's columns are exact and row i sums to a_i exp((f_i - t_i)/eps), with
    t the next f update, so the L-infinity marginal violation costs O(n). The
    solve stops when it is below tol at the target epsilon; it is inf when
    max_iter runs out before the target.
    """
    n, m = x.size, y.size
    loga = np.full(n, -np.log(n))
    logb = np.full(m, -np.log(m))
    a, b = np.exp(loga), np.exp(logb)
    C = np.abs(x[:, None] - y[None, :]) ** p
    cmax = float(C.max())
    if cmax == 0.0:
        return 0.0, True, 0, 0.0

    W = np.empty_like(C)  # the g update runs in the transposed views C.T and W.T
    g = np.zeros(m)
    it = 0
    e = max(eps, cmax / 50.0)
    while e > eps * 1.0001:  # coarse levels of the ladder, 20 updates each
        for _ in range(min(20, max_iter - it)):
            f = _potential(g, C, logb, e, W)
            g = _potential(f, C.T, loga, e, W.T)
            it += 1
        e *= 0.5
    err = np.inf
    if it < max_iter:
        f = _potential(g, C, logb, eps, W)
        while True:
            g = _potential(f, C.T, loga, eps, W.T)
            it += 1
            t = _potential(g, C, logb, eps, W)
            err = float(np.abs(np.expm1((f - t) / eps)).max()) / n
            if err < tol or it == max_iter:
                break
            f = t
    value = float(f @ a + g @ b)
    return value, err < tol, it, err


def sinkhorn_div(x, y, spec: DivergenceSpec) -> SinkhornResult:
    """Debiased entropic divergence for cost |s-t|^p.

    Non-convergence within ``spec.sinkhorn_max_iter`` is reported through the
    ``converged`` flag; the value is still returned.
    """
    if not 0 < spec.epsilon < math.inf:
        raise ValueError("sinkhorn epsilon must be finite and positive")
    xs = _as_samples(x, "x")
    ys = _as_samples(y, "y")
    args = (spec.p, spec.epsilon, spec.sinkhorn_tol, spec.sinkhorn_max_iter)
    vxy, cxy, ixy, exy = _entropic_ot(xs, ys, *args)
    vxx, cxx, ixx, exx = _entropic_ot(xs, xs, *args)
    vyy, cyy, iyy, eyy = _entropic_ot(ys, ys, *args)
    return SinkhornResult(
        value=vxy - 0.5 * vxx - 0.5 * vyy,
        converged=cxy and cxx and cyy,
        iterations=ixy + ixx + iyy,
        marginal_error=max(exy, exx, eyy),
    )


def _mixture_quantiles(v: np.ndarray, sigma: float, levels: np.ndarray, iters: int = 60) -> np.ndarray:
    """Quantiles of (1/n) sum_i N(v_i, sigma^2) at the given levels, by bisection.

    All components share sigma, so [v_min + sigma*z, v_max + sigma*z] with
    z = ndtri(level) brackets each quantile exactly; single-atom mixtures
    collapse immediately.
    """
    z = ndtri(levels)
    lo = v.min() + sigma * z
    hi = v.max() + sigma * z
    if v.size == 1:
        return lo
    scale = max(float(hi[-1] - lo[0]), sigma)
    for _ in range(iters):
        if float(np.max(hi - lo)) <= 1e-10 * scale:
            break
        mid = 0.5 * (lo + hi)
        cdf = ndtr((mid[:, None] - v[None, :]) / sigma).mean(axis=1)
        above = cdf >= levels
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


def smoothed_wasserstein_oracle(vx, vy, sigma: float, p: float, grid: int = 2000) -> float:
    """W_p^p between the mixtures (1/n) sum N(vx_i, s^2) and (1/m) sum N(vy_j, s^2).

    Numerical quantile coupling: both mixture CDFs are inverted by bisection on
    a midpoint grid of quantile levels and the p-th power difference is
    averaged.  Deterministic.
    """
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be finite and positive in oracle mode")
    if grid < 1000:
        raise ValueError("quantile grid must have at least 1000 points")
    if not 1 <= p < math.inf:
        raise ValueError("order p must be finite and >= 1")
    ax = _as_samples(vx, "vx")
    ay = _as_samples(vy, "vy")
    levels = (np.arange(grid) + 0.5) / grid
    qx = _mixture_quantiles(ax, sigma, levels)
    qy = _mixture_quantiles(ay, sigma, levels)
    return float(np.mean(np.abs(qx - qy) ** p))


def power_value(tx: np.ndarray, ty: np.ndarray, spec: DivergenceSpec) -> tuple[float, bool]:
    """The per-slice quantity D^p for one pair of smoothed slices.

    Wasserstein and Sinkhorn values already live on the |s-t|^p cost scale and
    are used directly; squared MMD is the square of the RKHS metric, so the
    order-p quantity is mmd_sq^{p/2}.  Returns (value, converged).
    """
    if spec.kind == "wasserstein":
        return wasserstein_pp(tx, ty, spec.p), True
    if spec.kind == "mmd":
        bw = spec.bandwidth
        if bw is None:
            bw = bandwidth_mean_pairwise(tx, ty)
        m2 = max(mmd_sq(tx, ty, bw), 0.0)
        return m2 ** (spec.p / 2.0), True
    res = sinkhorn_div(tx, ty, spec)
    return res.value, res.converged
