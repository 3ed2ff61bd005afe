"""Base 1D divergences between empirical measures on the line, and ``_slice_values``,
their order-p value on each row of a matrix of slice pairs that the caller owns: the one
dispatch on the kind.

Three families are provided:

* ``wasserstein_pp`` -- the exact p-th power of the 1D Wasserstein distance,
  via the quantile coupling (sorted samples for equal sizes, merged quantile
  breakpoints otherwise).
* ``mmd_sq`` -- the squared maximum mean discrepancy as the biased V-statistic
  of a Gaussian kernel, (1/n^2) sum k(x_i, x_j) - (2/nm) sum k(x_i, y_j)
  + (1/m^2) sum k(y_i, y_j), by a trapezoid rule on O(range/h) nodes in
  the kernel's Gaussian frequency, whose node sums come from a grid of
  L ~ 4 (nodes) phases and 19 Taylor terms of the rest, binned and
  transformed by real FFTs, with no cos or sin per point, checked against the
  same rule on every other node, or else by the exact O((n + m)^2) signed
  kernel sum over the pooled slice, a block of rows at a time.
* ``sinkhorn_div`` -- the debiased entropic divergence
  S_eps = OT_eps(x, y) - OT_eps(x, x)/2 - OT_eps(y, y)/2 for cost |s - t|^p,
  where OT_eps is the entropic optimal transport value (transport cost plus
  eps * KL of the plan against the product of the marginals).  The cross term
  is found by Newton's method on the semi-dual at the target epsilon, each step
  solved by matrix-free conjugate gradients, from the exact unregularised dual
  of the sorted pair's monotone plan; each self term, whose optimum is
  symmetric, by averaged c-transform steps from g = 0, the unregularised dual
  of the identity plan, one matrix-vector product with the Gibbs kernel
  exp(-C/eps) a step.

``smoothed_wasserstein_oracle`` gives a deterministic high-accuracy value of
W_p^p between two equal-bandwidth Gaussian mixtures, used as the second route
against the double-sampling estimator: each mixture's quantiles come from a
safeguarded Newton solve on its CDF, read from Taylor expansions about the
nearest knot, one knot per 0.22 sigma of the span and at most 512.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.hermite_e import herme2poly
from scipy.special import ndtr, ndtri

from ._checks import _check_choice, _check_count, _check_real
from .bounds import _SIGMA_MIN

__all__ = [
    "DivergenceSpec",
    "SinkhornResult",
    "wasserstein_pp",
    "mmd_sq",
    "bandwidth_mean_pairwise",
    "sinkhorn_div",
    "smoothed_wasserstein_oracle",
]

KINDS = ("wasserstein", "mmd", "sinkhorn")

_BLOCK = 1 << 16  # floats in each work buffer of a blocked loop
# The trapezoid rule with step tau errs on E cos(w Z) = exp(-w^2 / 2) by about exp(-(2 pi / tau - |w|)^2 / 2)
# (Poisson summation).  The MMD integrand's frequencies are |w| <= range / h and sum |s_i| = 2, so with
# tau = pi / (range / h + _QUAD_MARGIN) the step-2 tau rule errs by at most 4 exp(-_QUAD_MARGIN^2 / 2) =
# 1.4e-16 < 2^-52, and the step-tau rule (margin range / h + 2 _QUAD_MARGIN) by far less.  Nodes stop at
# |z| <= _QUAD_CUT, which drops Gaussian mass 2e-19.
_QUAD_MARGIN = 8.7
_QUAD_CUT = 9.0
_QUAD_RTOL = 1e-13
_QUAD_ATOL = 2.0**-52
_NODE_TERMS = 19  # Taylor terms of the node sums (``_node_sums``)
_TWO_PI_HI = math.ldexp(round(math.ldexp(2.0 * math.pi, 23)), -23)  # 2 pi to 26 significant bits
_TWO_PI_LO = (2.0 * math.pi - _TWO_PI_HI) + 2.4492935982947064e-16  # the rest, with 2 pi - fl(2 pi)
ORACLE_GRID = 2000  # the mixture-quantile oracle's default number of midpoint quantile levels
_ORACLE_MIN_GRID = 1000
# The oracle's quantiles start from the inverse of the CDF tabulated at _QUANTILE_KNOTS points, then take Newton
# steps; each level stops at its first step of at most _QUANTILE_RTOL times the span of all brackets.  A step
# takes the midpoint of the level's bracket instead when the Newton point leaves the bracket, or when the bracket
# has not halved over the last two steps and the Newton step is longer than that tolerance.  So from the third
# step on the bracket halves at least every three steps, a step is never longer than the bracket, and no level
# takes more than _QUANTILE_STEPS steps (2^-34 < _QUANTILE_RTOL).
# A step reads CDF and density from a Taylor expansion about the level's centre c, in d = (t - c) / sigma:
# F(t) = sum_k m_k d^k / k!, with m_k the mixture mean of Phi^(k)((c - v) / sigma) for k <= _TAYLOR_ORDER = K
# (``_mixture_taylor``).  The centre is the nearest knot when that is within _TAYLOR_RADIUS = rho of t (in units
# of sigma), else the point of the level's last re-centring, and a pass at t re-centres the level where that too
# is farther.  With |d| <= rho the Lagrange remainder is at most max|Phi^(K+1)| rho^(K+1) / (K+1)! =
# 1162 rho^12 / 12! = 7.6e-18 for the CDF and 1162 rho^11 / 11! = 8.3e-16 for sigma times the density
# (max|Phi^(12)| = max|He_11 phi| = 1162, at |x| = 0.44), below the rounding of the means themselves for the CDF.
# A span S gets min(_QUANTILE_KNOTS, ceil(S / (2 rho sigma)) + 1) knots, at most 2 rho sigma apart, so every level
# of a span up to 2 rho (_QUANTILE_KNOTS - 1) = 112 sigma takes its steps on the knots; wider spans keep 512 knots,
# S / 511 apart, and re-centre some levels.  Each atom and knot costs one ndtr, one exp and K products, so the
# high order pays: order 7 keeps these remainders only at rho = 0.02, with 5.5 times the knots and about 4 times
# the time per pass.
_QUANTILE_KNOTS = 512
_QUANTILE_RTOL = 1e-10
_QUANTILE_STEPS = 3 * 34 + 1
_TAYLOR_ORDER = 11
_TAYLOR_RADIUS = 0.11
# The Newton steps of the Sinkhorn solve: conjugate gradients stop at a relative residual _CG_RTOL (an inexact
# step cannot move the fixed point: the stop test uses the exact gradient) or after m products, where they end
# in exact arithmetic; a _NEWTON_RIDGE multiple of the mean preconditioner diagonal pins the constant direction
# of the semi-dual.  A step is halved until the semi-dual falls by at most _NEWTON_SLACK times its terms'
# magnitude, its rounding, and the solve may end once the decrement <grad, step> is within that rounding.
_CG_RTOL = 1e-3
_NEWTON_RIDGE = 1e-12
_NEWTON_SLACK = 16 * 2.0**-52
_SYMMETRIC_CHECK = 3  # the self terms' averaged steps per marginal-error check


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
        _check_choice("divergence kind", self.kind, KINDS)
        _check_real("order p", self.p, 1)
        _check_real("sinkhorn epsilon", self.epsilon, strict=True)
        if self.bandwidth is not None:
            _check_real("fixed bandwidth", self.bandwidth, strict=True)
        _check_real("sinkhorn_tol", self.sinkhorn_tol)  # 0 runs to the iteration cap
        _check_count("sinkhorn_max_iter", self.sinkhorn_max_iter)


def _as_samples(x, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array, got shape {arr.shape}")
    _check_count(f"number of {name} values", arr.size)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def wasserstein_pp(x, y, p: float) -> float:
    """W_p^p between the uniform empirical measures of x and y.

    Equal sizes reduce to the mean p-th power of sorted differences; unequal
    sizes integrate |F_x^{-1}(t) - F_y^{-1}(t)|^p exactly over the merged
    quantile breakpoints (both quantile functions are piecewise constant).
    """
    xs, ys = _as_samples(x, "x"), _as_samples(y, "y")
    _check_real("order p", p, 1)
    return float(_wasserstein_rows(np.concatenate((xs, ys))[None], xs.size, p)[0])


def _wasserstein_rows(V: np.ndarray, n: int, p: float) -> np.ndarray:
    """``wasserstein_pp`` of the first n values of each row of V against the rest, for every row at once, on
    finite rows: both slices of each row are sorted in place, and the terms are formed a block of rows at a
    time in work buffers.  Each row is reduced on its own contiguous run, so row k is bit-identical to
    ``wasserstein_pp(V[k, :n], V[k, n:], p)`` however many rows there are."""
    xs, ys = V[:, :n], V[:, n:]
    xs.sort(axis=1)
    ys.sort(axis=1)
    m = ys.shape[1]
    out = np.empty(len(V))
    if n == m:
        # not in place: numpy would copy ys first, as its rows interleave with those of xs in memory
        for rows, (a,) in _row_blocks(len(V), n, 1):
            np.subtract(xs[rows], ys[rows], out=a)
            np.abs(a, out=a)
            a **= p  # the same fast path as a ** p
            out[rows] = a.mean(axis=1)
        return out
    widths, ix, iy = _staircase(n, m)
    iy = iy + n  # the cells of y in the pooled row
    # take() keeps rows contiguous, so each row sums in the order of a 1-D array whatever the block's height;
    # it reads whole pooled rows, as a view of x's or y's half would be copied first; every index is in range,
    # and mode "clip" lets take() write into the buffer without one of its own
    for rows, (a, b) in _row_blocks(len(V), widths.size, 2):
        np.take(V[rows], ix, axis=1, out=a, mode="clip")
        np.take(V[rows], iy, axis=1, out=b, mode="clip")
        np.subtract(a, b, out=a)
        np.abs(a, out=a)
        a **= p
        np.multiply(widths, a, out=a)
        out[rows] = a.sum(axis=1)
    return out


@functools.lru_cache(maxsize=8)
def _staircase(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The monotone plan between n and m sorted atoms on the merged quantile breakpoints k/n and l/m: each
    piece's width and its cell (ix, iy).  A breakpoint both sides share comes twice, the second time as a
    piece of width 0 on the cell before it.  Built once per (n, m), as read-only arrays."""
    qx = np.arange(1, n + 1) / n
    qy = np.arange(1, m + 1) / m
    ts = np.concatenate([qx, qy])
    ts.sort(kind="mergesort")
    widths = np.diff(ts, prepend=0.0)
    mids = ts - 0.5 * widths
    plan = widths, np.searchsorted(qx, mids, side="left"), np.searchsorted(qy, mids, side="left")
    for a in plan:
        a.flags.writeable = False
    return plan


def _monotone_dual(xs: np.ndarray, ys: np.ndarray, p: float) -> np.ndarray:
    """A potential g on the sorted ys of the unregularised dual of the monotone plan from the sorted xs.

    For p >= 1 the cost |s - t|^p is convex, so that plan is optimal, and its cells (``_staircase``) run
    from (0, 0) to (n - 1, m - 1), each one step right, down, or both.  f_i + g_j = C_ij on every cell fixes
    g_{j+1} - g_j = C_{i,j+1} - C_{i,j} on a step right along row i.  A diagonal step from (i, j) leaves
    f_i + g_{j+1} <= C_{i,j+1} and f_{i+1} + g_j <= C_{i+1,j} to hold, which is g_{j+1} - g_j in
    [C_{i+1,j+1} - C_{i+1,j}, C_{i,j+1} - C_{i,j}], an interval by the Monge property of a convex cost; it
    takes the midpoint.  Both rules are the mean of that difference on the rows before and after the step.
    g is shifted to a median of 0: at large p the step past a tail pair can be 10^8 and more, and the solve
    rounds g_j - C_ij on the scale of the larger term, so the bulk of the columns should not carry it.
    """
    widths, ix, iy = _staircase(xs.size, ys.size)
    i, j = ix[widths > 0], iy[widths > 0]
    right = np.flatnonzero(j[1:] > j[:-1])
    before, after, j = xs[i[right]], xs[i[right + 1]], j[right]
    y0, y1 = ys[j], ys[j + 1]
    step = 0.5 * (np.abs(before - y1) ** p - np.abs(before - y0) ** p)
    step += 0.5 * (np.abs(after - y1) ** p - np.abs(after - y0) ** p)
    g = np.concatenate(([0.0], np.cumsum(step)))
    return g - np.median(g)


def _row_blocks(count: int, width: int, buffers: int):
    """Split ``count`` rows of ``width`` floats into blocks of at most _BLOCK floats (one row when width is larger).

    Yields each block's row slice and an array of ``buffers`` work buffers of the block's shape,
    C-contiguous and reused from block to block.
    """
    rows = max(1, min(count, _BLOCK // width))
    work = np.empty((buffers, rows, width))
    for i in range(0, count, rows):
        k = min(rows, count - i)
        yield slice(i, i + k), work[:, :k]


def _kernel_sum(v: np.ndarray, s: np.ndarray, bandwidth: float) -> float:
    """s^T K s with K_ij = exp(-(v_i - v_j)^2 / (2 bw^2)), evaluating each value of the symmetric K once.

    Each block of rows evaluates K against its own and the later columns only.  Those values add to
    the block's rows of r = K s and, read as columns, to the later rows of r; then s^T K s = s @ r.
    Each r_i is the small difference of two kernel means, so s @ r cancels no large terms.
    """
    r = np.zeros(v.size)
    with np.errstate(over="ignore"):  # a pair far apart on the scale of bw overflows to z = inf, kernel value 0
        for rows, (z,) in _row_blocks(v.size, v.size, 1):
            z = z[:, : v.size - rows.start]  # the columns from the block's first row on
            np.subtract(v[rows, None], v[rows.start :], out=z)
            np.divide(z, bandwidth, out=z)
            np.multiply(z, z, out=z)
            np.multiply(z, -0.5, out=z)
            np.exp(z, out=z)
            r[rows] += z @ s[rows.start :]
            r[rows.stop :] += s[rows] @ z[:, rows.stop - rows.start :]
    return float(s @ r)


def _geometric(first: np.ndarray, ratio: np.ndarray, rows: int) -> np.ndarray:
    """Rows first * ratio^p for p = 0..rows - 1 in O(log rows) products: rows p + 2^j are rows p times
    ratio^(2^j), so each entry is a product of O(log rows) rounded factors."""
    out = np.empty((rows, *first.shape), dtype=np.result_type(first, ratio))
    out[0] = first
    done = 1
    while done < rows:
        m = min(done, rows - done)
        np.multiply(out[:m], ratio, out=out[done : done + m])
        done, ratio = done + m, ratio * ratio
    return out


def _node_sums(u: np.ndarray, s: np.ndarray, tau: float, K: int) -> np.ndarray:
    """sum_i s_i exp(-i k theta_i), theta_i = fl(tau u_i), for k = 0..K, with no cos or sin per point.

    With L the smallest power of two >= 4 (K + 1) and D = 2 pi / L, theta_i = m_i D + d_i, m_i = rint(theta_i / D),
    so |k d_i| <= pi K / L < pi / 4, and exp(-i k theta_i) = exp(-2 pi i k m_i / L) sum_p (-i k d_i)^p / p!: term p
    sums to (-i k)^p / p! rfft(x^(p))_k, x^(p) = bincount(m_i mod L, s_i d_i^p).  D_hi = _TWO_PI_HI / L has 26
    significant bits, so m_i D_hi is exact for |m_i| < 2^27 (fewer than 2^26 points, by the route test in
    ``mmd_sq``), theta_i - m_i D_hi is exact (Sterbenz), and d_i takes one rounding.  After P = _NODE_TERMS terms
    the tail is at most sum |s_i| |k d_i|^P / P! e^{|k d_i|} <= sum |s_i| (pi / 4)^19 / 19! e^{pi / 4} =
    1.8e-19 sum |s_i| < 2^-60 sum |s_i| (18 terms would leave 4.4e-18).  A block of terms shares one bincount,
    each row in its own L cells, and one rfft; per cell the bincount adds in the order of i, and rfft transforms
    each row alone, so no bit depends on the block.  Both hold the GIL, so a slice makes a few dozen numpy
    calls, not a few per term, to keep handovers between threads few.
    """
    L = 1 << (4 * K + 3).bit_length()
    theta = tau * u
    mult = np.rint(theta * (L / (2.0 * math.pi)))
    delta = theta - mult * (_TWO_PI_HI / L)
    delta -= mult * (_TWO_PI_LO / L)
    power = _geometric(s, delta, _NODE_TERMS)  # row p: s_i d_i^p
    rows = max(1, min(_NODE_TERMS, _BLOCK // L))
    cells = (mult.astype(np.intp) & (L - 1)) + L * np.arange(rows)[:, None]  # m_i mod L, in row r's cells
    sums = np.empty((_NODE_TERMS, K + 1), dtype=complex)
    for p in range(0, _NODE_TERMS, rows):
        h = min(rows, _NODE_TERMS - p)
        grid = np.bincount(cells[:h].ravel(), power[p : p + h].ravel(), h * L).reshape(h, L)
        sums[p : p + h] = np.fft.rfft(grid, axis=1)[:, : K + 1]
    sums *= _geometric(np.ones(K + 1, dtype=complex), -1j * np.arange(K + 1), _NODE_TERMS)
    sums /= _FACTORIALS[: _NODE_TERMS, None]
    return sums.sum(axis=0)


def _quadrature_pair(u: np.ndarray, s: np.ndarray, tau: float, K: int) -> tuple[float, float]:
    """E_Z |sum_i s_i exp(i Z u_i)|^2 by the trapezoid rule on z_k = k tau, k = 0..K (K even),
    and by the same rule on the even k alone, with step 2 tau: (coarse, fine).

    The integrand is even, so the weights tau phi(z_k) are doubled for k >= 1.  Node k's sum is
    ``_node_sums``' k-th, the conjugate of sum_i s_i exp(i k fl(tau u_i)), of the same modulus: tau u_i is
    rounded once, a shift of u_i below the rounding it already carries, and each node's sum errs by a few
    ulps of sum |s_i|, whatever the frequency.
    """
    sums = _node_sums(u, s, tau, K)
    power = sums.real * sums.real + sums.imag * sums.imag
    z = tau * np.arange(K + 1)
    w = tau / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * z * z)
    w[1:] *= 2.0
    return 2.0 * float(power[::2] @ w[::2]), float(power @ w)


def mmd_sq(x, y, bandwidth: float) -> float:
    """Squared MMD with Gaussian kernel, biased V-statistic (>= 0 up to rounding).

    Over the pooled slice v = (x, y) with weights s = (1/n, ..., -1/m, ...) the
    V-statistic is the quadratic form s^T K s of the kernel matrix.  By
    k_h(a - b) = E cos(Z (a - b) / h), Z ~ N(0, 1), it is also
    E |sum_i s_i exp(i Z v_i / h)|^2.  The trapezoid rule with step
    tau = pi / (range/h + _QUAD_MARGIN) on 0 <= z <= _QUAD_CUT sums that
    (``_quadrature_pair``), its K + 1 node sums a nonuniform DFT: each phase is
    rounded to a grid of L >= 4 (K + 1) points and the rest expanded to 19
    Taylor terms, tail below 2^-60 sum |s_i|, each a real FFT of length L
    (``_node_sums``; Anderson & Dahleh, SIAM J. Sci. Comput. 17(4), 1996).
    At n = 2000, m = 1600 a slice took 0.6-0.7, 0.9-1.2 and 3.7-4.6 ms at K = 42, 288 and 2700 (one
    thread, loaded host).  Its value is returned when the rule on every other node agrees with it
    to _QUAD_RTOL relative, plus _QUAD_ATOL (the exact sum's own rounding).
    Otherwise, and straight away when the K + 1 nodes would evaluate more
    terms than the exact sum has kernel pairs, the exact signed kernel sum
    s^T K s runs, a block of rows at a time.
    """
    _check_real("bandwidth", bandwidth, strict=True)
    xs = _as_samples(x, "x")
    ys = _as_samples(y, "y")
    n, m = xs.size, ys.size
    v = np.concatenate([xs, ys])
    s = np.concatenate([np.full(n, 1.0 / n), np.full(m, -1.0 / m)])
    lo, hi = float(v.min()), float(v.max())
    band = (hi - lo) / bandwidth + _QUAD_MARGIN  # pi / tau
    K = 2.0 * np.ceil(0.5 * _QUAD_CUT * band / math.pi)  # a float, inf when h is tiny: no int() before the test
    if (K + 1.0) * v.size <= n * n + n * m + m * m:
        # the kernel is shift-invariant; centring keeps the phases Z v / h small
        u = (v - 0.5 * (lo + hi)) / bandwidth
        coarse, fine = _quadrature_pair(u, s, math.pi / band, int(K))
        if abs(fine - coarse) <= _QUAD_RTOL * fine + _QUAD_ATOL:
            return fine
    return _kernel_sum(v, s, bandwidth)


def bandwidth_mean_pairwise(x, y) -> float:
    """Mean absolute difference over all unordered pairs of the pooled set.

    Degenerate pooled sets (all points equal) fall back to 1.0 so the kernel
    stays well-defined and MMD^2 of identical degenerate sets remains 0.
    """
    pooled = np.concatenate([_as_samples(x, "x"), _as_samples(y, "y")])
    m = pooled.size  # at least 2: each set is non-empty
    s = np.sort(pooled)
    # sum_{i<j} (s_j - s_i) = sum_i s_i * (2i - m + 1) over the sorted order
    total = float(np.sum(s * (2.0 * np.arange(m) - (m - 1))))
    mean = 2.0 * total / (m * (m - 1))
    if mean <= 0.0:
        return 1.0
    return mean


class SinkhornResult(NamedTuple):
    """The debiased value and the three solves' diagnostics.

    ``iterations`` sums the Newton steps of the cross solve and the averaged
    steps g <- (g + T(g))/2 of the two self solves (the halvings of a Newton
    step are not counted); ``marginal_error`` is the largest final
    max |cols - b|, measured at the target epsilon where each solve stopped,
    and inf only where a Newton trial came out non-finite.  A cross solve whose
    potentials are too large for doubles to resolve epsilon stops at the first
    step where they are, unconverged at any marginal error.
    """

    value: float
    converged: bool
    iterations: int
    marginal_error: float


def _potential(h: np.ndarray, C: np.ndarray, e: float, W: np.ndarray) -> np.ndarray:
    """-e * log (1/m) sum_j exp((h_j - C_ij)/e) for each row i of the m columns, computed in W (the shape of C).

    W ends as the plan's rows over a: exp(d_ij) over its row's sum, d_ij = (h_j - C_ij)/e - max_j, the sum the
    potential reads.  A row whose mean of exp(d) is above 1/2 takes its log as log1p of the mean of expm1(d),
    recomputed a block of rows at a time: there the potential may lie far below e log m, and log of a mean
    rounded near 1 would lose its digits.
    """
    m = C.shape[1]
    np.subtract(h, C, out=W)
    np.divide(W, e, out=W)
    top = W.max(axis=1)
    np.subtract(W, top[:, None], out=W)
    np.exp(W, out=W)
    sums = W.sum(axis=1)
    np.divide(W, sums[:, None], out=W)
    mean = sums / m
    near = np.flatnonzero(mean > 0.5)
    logmean = np.log(mean)
    for rows, (d,) in _row_blocks(near.size, m, 1):
        sel = near[rows]
        np.take(C, sel, axis=0, out=d, mode="clip")
        np.subtract(h, d, out=d)
        np.divide(d, e, out=d)
        np.subtract(d, top[sel, None], out=d)
        np.expm1(d, out=d)
        logmean[sel] = np.log1p(d.sum(axis=1) / m)
    return -e * (top + logmean)


def _newton_step(R: np.ndarray, a: np.ndarray, cols: np.ndarray, grad: np.ndarray, eps: float) -> np.ndarray:
    """Solve ((diag(cols) - R^T diag(a) R)/eps + ridge I) s = grad by conjugate gradients, matrix-free.

    Each product is two matrix-vector products over R; diag(cols)/eps + ridge preconditions.  The solve
    starts from s = 0 and stops once |residual| <= _CG_RTOL |grad|, so a zero gradient is a zero step.
    """
    ridge = _NEWTON_RIDGE * float(cols.sum()) / (eps * cols.size)
    diag = cols / eps + ridge
    s = np.zeros_like(grad)
    r = grad.copy()
    z = r / diag
    d = z.copy()
    rz = float(r @ z)
    stop = (_CG_RTOL * float(np.linalg.norm(grad))) ** 2
    for _ in range(cols.size):
        if float(r @ r) <= stop:
            break
        hd = (cols * d - ((R @ d) * a) @ R) / eps + ridge * d
        alpha = rz / float(d @ hd)
        s += alpha * d
        r -= alpha * hd
        np.divide(r, diag, out=z)
        rz, rz_old = float(r @ z), rz
        d = z + (rz / rz_old) * d
    return s


def _entropic_ot(
    x: np.ndarray, y: np.ndarray, p: float, eps: float, tol: float, max_iter: int
) -> tuple[float, bool, int, float]:
    """Entropic OT value <f,a> + <g,b> at the dual optimum.

    Maximises the semi-dual F(g) = <f(g), a> + <g, b>, with f(g) the exact
    c-transform, by Newton steps solved by conjugate gradients (``_newton_step``)
    and halved until F does not fall.  The steps start from the unregularised
    dual of the sorted pair (``_monotone_dual``) and run at eps until the
    marginal error is below tol and the Newton decrement <grad, step> is within
    F's rounding, _NEWTON_SLACK times its terms' magnitude.  f(g) makes the
    plan's rows exact, so that error is max |b - cols|, the gradient of F; its
    mean, pure rounding since F(g + c) = F(g), is taken out before the step.  A
    rounding of eps or more does not resolve the entropic term at all (at large
    p the potentials can reach 10^21), so the solve stops, unconverged, at the
    first step where it finds one, with that step's finite value and error.
    Every Newton step (not each halving) counts against max_iter.
    A solve holds C and one work buffer W, which ``_potential`` leaves as the
    plan's rows over a.
    """
    n, m = x.size, y.size
    a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    x, y = np.sort(x), np.sort(y)
    C = np.abs(x[:, None] - y[None, :]) ** p
    if float(C.max()) == 0.0:
        return 0.0, True, 0, 0.0

    W = np.empty_like(C)
    g = _monotone_dual(x, y, p)
    f = _potential(g, C, eps, W)
    value = float(f @ a + g @ b)
    for it in range(max_iter + 1):  # the steps, and the last stop test
        cols = a @ W
        grad = b - cols
        err = float(np.abs(grad).max())
        grad -= grad.mean()  # F(g + c) = F(g), so the gradient's mean is rounding, which the ridge would amplify
        slack = _NEWTON_SLACK * float(np.abs(f) @ a + np.abs(g) @ b)
        if slack >= eps:  # doubles cannot resolve the entropic term, at this step or any other
            return value, False, it, err
        step = _newton_step(W, a, cols, grad, eps)
        converged = err < tol and float(grad @ step) <= slack
        if converged or it == max_iter:
            return value, converged, it, err
        t = 1.0
        while True:
            h = g + t * step
            f = _potential(h, C, eps, W)
            trial = float(f @ a + h @ b)
            if not math.isfinite(trial):  # ends the solve: a nan never compares, so halving would spin
                return trial, False, it, math.inf
            if trial >= value - slack:
                break
            t *= 0.5
        g, value = h, trial


def _symmetric_ot(x: np.ndarray, p: float, eps: float, tol: float, max_iter: int) -> tuple[float, bool, int, float]:
    """Entropic OT value of x against itself, <T(g),a> + <g,a> at the symmetric dual optimum f = g.

    The c-transform T has the optimum as its fixed point, and the averaged step g <- (g + T(g))/2
    reaches it fast (Feydy et al., arXiv:1810.08278).  The steps start from g = 0, the unregularised
    dual of the identity plan, and run at eps on the Gibbs kernel K = exp(-C/eps), built once: with
    v = exp(g/eps) and s = K v, T(g) = -eps log(s/n).  No iterate leaves |g_i| <= (eps/2) log n (C_ii = 0
    gives T(g)_i <= eps log n - g_i, C >= 0 gives T(g)_i >= -max g), so v lies in [n^-1/2, n^1/2],
    s_i >= v_i > 0, and an entry of K underflows only below n e^-708 of its row's diagonal term.  A row
    whose terms' mean, relative to its top >= g_i/eps, exceeds 1/2 would lose its digits in the log; the
    rows with (s_i/n) e^(-g_i/eps) > 1/2 include all of them, and ``_potential`` recomputes them from C,
    a block of rows at a time.  The marginal error max |a - cols| of the plan T(g) makes exact in its
    rows, the semi-dual gradient, is cols = v K(a/s) (K is symmetric), checked against tol every
    _SYMMETRIC_CHECK steps and when max_iter runs out.  A solve holds C and K.
    """
    n = x.size
    a = np.full(n, 1.0 / n)
    C = np.abs(x[:, None] - x[None, :]) ** p
    if float(C.max()) == 0.0:
        return 0.0, True, 0, 0.0

    K = np.divide(C, -eps)
    np.exp(K, out=K)
    g = np.zeros(n)
    for it in range(max_iter + 1):  # the steps, and the last stop test
        v = np.exp(g / eps)
        s = K @ v
        f = -eps * np.log(s / n)
        near = np.flatnonzero(s > 0.5 * n * v)
        for rows, (c, w) in _row_blocks(near.size, n, 2):
            sel = near[rows]
            np.take(C, sel, axis=0, out=c, mode="clip")
            f[sel] = _potential(g, c, eps, w)
        if it == max_iter or it % _SYMMETRIC_CHECK == _SYMMETRIC_CHECK - 1:
            err = float(np.abs(a - v * (K @ (a / s))).max())
            if err < tol or it == max_iter:
                return float(f @ a + g @ a), err < tol, it, err
        g += f
        g *= 0.5


def sinkhorn_div(x, y, spec: DivergenceSpec) -> SinkhornResult:
    """Debiased entropic divergence for cost |s-t|^p.

    The cross term is solved by ``_entropic_ot``, the two self terms by ``_symmetric_ot``.
    Non-convergence within ``spec.sinkhorn_max_iter`` is reported through the
    ``converged`` flag; the value is still returned.
    """
    xs = _as_samples(x, "x")
    ys = _as_samples(y, "y")
    with np.errstate(over="ignore"):  # an inf cost, the pooled (max - min)^p, would make every trial nan
        if np.ptp(np.concatenate((xs, ys))) ** spec.p == np.inf:
            raise ValueError(
                f"sinkhorn cost (max - min)^p of the pooled n={xs.size} and m={ys.size} values exceeds the double"
                f" range (p={spec.p!r}, epsilon={spec.epsilon!r})"
            )
    args = (spec.p, spec.epsilon, spec.sinkhorn_tol, spec.sinkhorn_max_iter)
    vxy, cxy, ixy, exy = _entropic_ot(xs, ys, *args)
    vxx, cxx, ixx, exx = _symmetric_ot(xs, *args)
    vyy, cyy, iyy, eyy = _symmetric_ot(ys, *args)
    return SinkhornResult(
        value=vxy - 0.5 * vxx - 0.5 * vyy,
        converged=cxy and cxx and cyy,
        iterations=ixy + ixx + iyy,
        marginal_error=max(exy, exx, eyy),
    )


# row j, j < K = _TAYLOR_ORDER: the coefficients of the Hermite polynomial He_j in powers 0..K-1
_HERMITE = np.array([np.pad(herme2poly(e), (0, _TAYLOR_ORDER - 1 - j)) for j, e in enumerate(np.eye(_TAYLOR_ORDER))])
_FACTORIALS = np.array([float(math.factorial(k)) for k in range(max(_TAYLOR_ORDER + 1, _NODE_TERMS))])


def _mixture_taylor(v: np.ndarray, sigma: float, t: np.ndarray) -> np.ndarray:
    """Row k, k = 0.._TAYLOR_ORDER: the mean over the atoms v_i of Phi^(k)((t - v_i) / sigma) at each point of t.

    Row 0 is the CDF of (1/n) sum_i N(v_i, sigma^2) and row 1 is sigma times its density.  By
    Phi^(k) = (-1)^(k-1) He_{k-1} phi for k >= 1, one ndtr and one exp per atom and point give every row: the
    means of a^j exp(-a^2 / 2), j < K, combine by the coefficients of He_{k-1} (_HERMITE).  The points come a
    block at a time in two work buffers, and each mean is taken over its own point's row, so no bit depends on
    how many rows a block holds.
    """
    K = _TAYLOR_ORDER
    out = np.empty((K + 1, t.size))
    powers = np.empty((K, t.size))  # row j: the mean of a^j exp(-a^2 / 2)
    for rows, (a, w) in _row_blocks(t.size, v.size, 2):
        np.subtract(t[rows, None], v, out=a)
        np.divide(a, sigma, out=a)
        out[0, rows] = ndtr(a, out=w).mean(axis=1)
        with np.errstate(over="ignore"):  # an atom far off on the scale of sigma overflows to a^2 = inf, exp 0
            np.multiply(a, a, out=w)
        np.multiply(w, -0.5, out=w)
        np.exp(w, out=w)
        powers[0, rows] = w.mean(axis=1)
        for j in range(1, K):
            np.multiply(w, a, out=w)
            powers[j, rows] = w.mean(axis=1)
    for k in range(1, K + 1):
        total = np.zeros(t.size)
        for j in np.flatnonzero(_HERMITE[k - 1]):
            total += _HERMITE[k - 1, j] * powers[j]
        out[k] = (-1.0) ** (k - 1) / math.sqrt(2.0 * math.pi) * total
    return out


def _taylor_cdf_pdf(m: np.ndarray, d: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """CDF and density at c + d sigma, from the rows m of ``_mixture_taylor`` at the centres c, by Horner in d."""
    K = _TAYLOR_ORDER
    cdf = m[K] / _FACTORIALS[K]
    pdf = m[K] / _FACTORIALS[K - 1]
    for k in range(K - 1, 0, -1):
        cdf = cdf * d + m[k] / _FACTORIALS[k]
        pdf = pdf * d + m[k] / _FACTORIALS[k - 1]
    return cdf * d + m[0], pdf / sigma


def _mixture_quantiles(v: np.ndarray, sigma: float, levels: np.ndarray) -> np.ndarray:
    """Quantiles of (1/n) sum_i N(v_i, sigma^2) at the given increasing levels, by safeguarded Newton steps.

    All components share sigma, so [v_min + sigma*z, v_max + sigma*z] with
    z = ndtri(level) brackets each quantile exactly; single-atom mixtures
    collapse immediately, and so do mixtures whose brackets all round to one
    point (equal atoms and noise below their rounding).  Each step reads the
    CDF residual and the density at every level still stepping from its
    Taylor expansion about its centre, narrows its bracket, and takes the
    Newton point when it lies in the bracket, bounds included, or else the
    midpoint (the centres, the safeguards and the step cap are set out at
    _QUANTILE_STEPS).
    """
    z = ndtri(levels)
    lo = v.min() + sigma * z
    hi = v.max() + sigma * z
    if v.size == 1:
        return lo
    span = float(hi[-1]) - float(lo[0])  # a Python float: past the double range it is inf, with no warning
    if not math.isfinite(span / sigma):
        raise ValueError(f"n={v.size} atoms at sigma={sigma!r} span {span!r}: past the double range in sigmas")
    if span == 0.0:  # lo[0] <= lo <= hi <= hi[-1], so every bracket is that point; one knot would divide 0 by 0
        return lo
    tol = _QUANTILE_RTOL * max(span, sigma)
    count = int(min(_QUANTILE_KNOTS, np.ceil(span / (2.0 * _TAYLOR_RADIUS * sigma)) + 1))
    knots = np.linspace(lo[0], hi[-1], count)
    at_knots = _mixture_taylor(v, sigma, knots)
    gap = (knots[-1] - knots[0]) / (count - 1)
    radius = _TAYLOR_RADIUS * sigma
    q = np.clip(np.interp(levels, at_knots[0], knots), lo, hi)
    # the levels still stepping, with their iterates, brackets, bracket widths two steps and one step back,
    # and their centres and expansions
    idx, t, lev = np.arange(q.size), q.copy(), levels
    w2 = w1 = np.full(q.size, math.inf)
    c, m = np.full(q.size, math.inf), np.empty((_TAYLOR_ORDER + 1, q.size))
    for _ in range(_QUANTILE_STEPS):
        j = np.clip(np.rint((t - knots[0]) / gap), 0, count - 1).astype(np.intp)
        on_knot = np.abs(t - knots[j]) <= radius
        c = np.where(on_knot, knots[j], c)
        m = np.where(on_knot, at_knots[:, j], m)
        far = np.abs(t - c) > radius
        if far.any():
            c[far] = t[far]
            m[:, far] = _mixture_taylor(v, sigma, t[far])
        cdf, pdf = _taylor_cdf_pdf(m, (t - c) / sigma, sigma)
        r = cdf - lev
        above = r >= 0
        hi = np.where(above, t, hi)
        lo = np.where(above, lo, t)
        width = hi - lo
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # the density underflows in far tails
            newton = t - r / pdf
        take = (lo <= newton) & (newton <= hi) & ((width <= 0.5 * w2) | (np.abs(newton - t) <= tol))
        new = np.where(take, newton, 0.5 * (lo + hi))
        q[idx] = new
        going = np.abs(new - t) > tol
        if not going.any():
            break
        idx, t, lev, lo, hi, w2, w1, c = (a[going] for a in (idx, new, lev, lo, hi, w1, width, c))
        m = m[:, going]
    return q


def smoothed_wasserstein_oracle(vx, vy, sigma: float, p: float, grid: int = ORACLE_GRID) -> float:
    """W_p^p between the mixtures (1/n) sum N(vx_i, s^2) and (1/m) sum N(vy_j, s^2).

    Numerical quantile coupling: both mixture CDFs are inverted on a midpoint
    grid of quantile levels by safeguarded Newton steps (``_mixture_quantiles``),
    and the p-th power difference is averaged.  Each quantile stops within
    1e-10 of the brackets' span, in practice at a CDF residual of rounding
    size.  A step reads CDF and density in O(1) from a Taylor expansion of
    order 11 about a centre within 0.11 sigma: the nearest knot, where one O(n)
    pass per mixture tabulates the expansions, or else a point where the level
    re-centres with a pass of its own.  The knots are one per 0.22 sigma of the
    span, at most 512, so a span up to 112 sigma makes no O(n) pass beyond
    the knots.  Memory grows with grid + n, not grid * n: a pass takes a
    block of points at a time.  Deterministic.  Raises ValueError for sigma
    below ``bounds._SIGMA_MIN`` or a span that is not finite in sigmas.
    """
    _check_real("oracle sigma", sigma, _SIGMA_MIN)
    _check_count("oracle quantile grid", grid, _ORACLE_MIN_GRID)
    _check_real("order p", p, 1)
    ax = _as_samples(vx, "vx")
    ay = _as_samples(vy, "vy")
    levels = (np.arange(grid) + 0.5) / grid
    qx = _mixture_quantiles(ax, sigma, levels)
    qy = _mixture_quantiles(ay, sigma, levels)
    return float(np.mean(np.abs(qx - qy) ** p))


def _slice_values(V: np.ndarray, n: int, spec: DivergenceSpec) -> tuple[np.ndarray, int]:
    """The per-slice quantity D^p of each row of V, its first n values one slice and the rest the other,
    and how many rows did not converge.

    Wasserstein and Sinkhorn values already live on the |s-t|^p cost scale and
    are used directly; squared MMD is the square of the RKHS metric, so the
    order-p quantity is mmd_sq^{p/2}, at the fixed bandwidth or else at the
    mean-pairwise bandwidth of its own row.  Only Sinkhorn rows can fail to converge.
    The rows belong to the caller, who gives them up: Wasserstein sorts both slices of each row in place.
    A row that MMD, its bandwidth or Sinkhorn refuses with ValueError, as each refuses a slice past the
    double range, gets a nan value.
    """
    if spec.kind == "wasserstein":
        return _wasserstein_rows(V, n, spec.p), 0
    values, unconverged = np.full(len(V), np.nan), 0
    for k, (x, y) in enumerate(zip(V[:, :n], V[:, n:])):
        try:
            if spec.kind == "sinkhorn":
                r = sinkhorn_div(x, y, spec)
                values[k], unconverged = r.value, unconverged + (not r.converged)
            else:
                values[k] = max(mmd_sq(x, y, spec.bandwidth or bandwidth_mean_pairwise(x, y)), 0.0) ** (spec.p / 2.0)
        except ValueError:  # a slice the base divergence refuses keeps its nan value
            pass
    return values, unconverged
