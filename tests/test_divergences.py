import contextlib
import itertools
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermeroots, hermeval
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from gssd import divergences
from gssd.bounds import _SIGMA_MIN
from gssd.divergences import (
    DivergenceSpec,
    _entropic_ot,
    bandwidth_mean_pairwise,
    mmd_sq,
    sinkhorn_div,
    smoothed_wasserstein_oracle,
    wasserstein_pp,
)
from gssd.rng import RngRoot

_QUARTERS = st.integers(-4, 4).map(lambda k: k / 4)  # a coarse grid, so samples tie


# ---------------------------------------------------------------- oracles


def wasserstein_bruteforce(x, y, p):
    """Exhaustive minimum over all permutation couplings (equal sizes, n <= 6)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    best = math.inf
    for perm in itertools.permutations(range(len(y))):
        cost = float(np.mean(np.abs(x - y[list(perm)]) ** p))
        best = min(best, cost)
    return best


def wasserstein_quantile_grid(x, y, p, grid=2_000_000):
    """Riemann sum of |F_x^{-1} - F_y^{-1}|^p on a fine midpoint level grid."""
    xs, ys = np.sort(np.asarray(x, float)), np.sort(np.asarray(y, float))
    t = (np.arange(grid) + 0.5) / grid
    qx = xs[np.minimum((t * len(xs)).astype(int), len(xs) - 1)]
    qy = ys[np.minimum((t * len(ys)).astype(int), len(ys) - 1)]
    return float(np.mean(np.abs(qx - qy) ** p))


def mmd_dense_oracle(x, y, bw, rows=256):
    """The V-statistic written out: every kernel pair, summed a block of rows at a time."""

    def total(a, b):
        return sum(
            float(np.exp(-0.5 * ((a[i : i + rows, None] - b[None, :]) / bw) ** 2).sum()) for i in range(0, a.size, rows)
        )

    n, m = x.size, y.size
    return total(x, x) / n**2 - 2 * total(x, y) / (n * m) + total(y, y) / m**2


def mixture_cdf(v, sigma, t):
    """(1/n) sum_i Phi((t - v_i) / sigma) at each point of t."""
    return ndtr((np.asarray(t)[:, None] - v[None, :]) / sigma).mean(axis=1)


def mixture_quantiles_by_bisection(v, sigma, levels):
    """Quantiles of (1/n) sum_i N(v_i, sigma^2): 100 halvings of [v_min + sigma z, v_max + sigma z], z = ndtri(level),
    which holds every quantile since each component's own quantile lies in it; returns them with that span."""
    lo = v.min() + sigma * ndtri(levels)
    hi = v.max() + sigma * ndtri(levels)
    span = max(float(hi[-1] - lo[0]), sigma)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        above = mixture_cdf(v, sigma, mid) >= levels
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    return 0.5 * (lo + hi), span


def mmd_exact_route(x, y, bw):
    """mmd_sq on its exact route, the signed kernel sum: the two rules it checks are made to disagree."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divergences, "_quadrature_pair", lambda *args: (0.0, 1.0))
        return mmd_sq(x, y, bw)


def wasserstein_quantile_exact(x, y, p):
    """The quantile integral summed piece by piece between the breakpoints k/n and l/m, kept as fractions."""
    xs, ys = sorted(x), sorted(y)
    n, m = len(xs), len(ys)
    ts = sorted({Fraction(k, n) for k in range(n + 1)} | {Fraction(k, m) for k in range(m + 1)})
    # on (lo, hi] the quantile functions are xs[ceil(t n) - 1] and ys[ceil(t m) - 1]
    return sum(float(hi - lo) * abs(xs[math.ceil(hi * n) - 1] - ys[math.ceil(hi * m) - 1]) ** p
               for lo, hi in zip(ts, ts[1:]))


@contextlib.contextmanager
def counting(name):
    """Record the arguments of every call to divergences.<name> inside the block."""
    calls = []
    inner = getattr(divergences, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divergences, name, wrapper)
        yield calls


def sinkhorn_dense_oracle(x, y, p, eps, iters=100_000):
    """Kernel-domain matrix scaling run to saturation, then Newton steps; primal value with KL term.

    The scaling stops after iters updates, or sooner once the row marginals hold
    to 1e-14 relative (the columns hold exactly after each update).  Where groups
    of points lie far apart in units of eps they barely exchange mass, and each
    update contracts the error by a factor near 1, so dense Newton steps on the
    log scalings finish the solve (``_newton_polish``).
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n, m = len(x), len(y)
    a = np.full(n, 1.0 / n)
    b = np.full(m, 1.0 / m)
    C = np.abs(x[:, None] - y[None, :]) ** p
    K = np.exp(-C / eps)
    u = np.ones(n)
    v = np.ones(m)
    for k in range(iters):
        u = a / (K @ v)
        v = b / (K.T @ u)
        if k % 100 == 99 and np.abs(u * (K @ v) / a - 1.0).max() < 1e-14:
            break
    u, v = _newton_polish(K, a, b, u, v)
    P = u[:, None] * K * v[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        logratio = np.where(P > 0, np.log(np.where(P > 0, P, 1.0) / (a[:, None] * b[None, :])), 0.0)
    return float((P * C).sum() + eps * (P * logratio).sum())


def _newton_polish(K, a, b, u, v, steps=50):
    """Newton steps on (log u, log v) for the marginals of diag(u) K diag(v), each halved until the residual
    norm falls, until both marginals hold to 1e-14 relative.  The Jacobian [[diag(P1), P], [P^T, diag(P^T 1)]]
    is singular along (1, -1), the scalings' common factor, so each step is its least-squares solution."""
    n = a.size

    def residual(lu, lv):
        P = np.exp(lu)[:, None] * K * np.exp(lv)[None, :]
        return P, np.concatenate([P.sum(axis=1) - a, P.sum(axis=0) - b])

    lu, lv = np.log(u), np.log(v)
    P, r = residual(lu, lv)
    for _ in range(steps):
        if max(np.abs(r[:n] / a).max(), np.abs(r[n:] / b).max()) < 1e-14:
            break
        J = np.block([[np.diag(P.sum(axis=1)), P], [P.T, np.diag(P.sum(axis=0))]])
        step = np.linalg.lstsq(J, r, rcond=None)[0]
        norm, t = np.linalg.norm(r), 1.0
        for _ in range(30):
            P_t, r_t = residual(lu - t * step[:n], lv - t * step[n:])
            if np.linalg.norm(r_t) < norm:
                break
            t *= 0.5
        else:
            break
        lu, lv, P, r = lu - t * step[:n], lv - t * step[n:], P_t, r_t
    return np.exp(lu), np.exp(lv)


# ---------------------------------------------------------------- wasserstein


class TestWassersteinPP:
    def test_identical_sets_are_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=13)
        assert wasserstein_pp(x, x, 2) == 0.0

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_translation_pair(self, p):
        got = wasserstein_pp([0.0, 1.0], [0.5, 1.5], p)
        assert got == pytest.approx(0.5**p, rel=1e-14)

    def test_small_instance_against_bruteforce(self):
        x = np.array([0.0, 2.0])
        y = np.array([0.0, 1.0])
        assert wasserstein_pp(x, y, 2) == pytest.approx(0.5, abs=1e-15)
        assert wasserstein_pp(x, y, 2) == pytest.approx(wasserstein_bruteforce(x, y, 2), abs=1e-15)

    def test_unequal_sizes_halfweight_example(self):
        # (1/2, 1/2) atoms at {0, 1} against a single atom at 0: the quantile
        # integral is 0 on (0, 1/2] and 1 on (1/2, 1]
        assert wasserstein_pp([0.0, 1.0], [0.0], 1) == pytest.approx(0.5, abs=1e-15)
        assert wasserstein_pp([0.0, 1.0], [0.0], 1) == pytest.approx(
            wasserstein_quantile_grid([0.0, 1.0], [0.0], 1), abs=1e-6
        )

    @pytest.mark.parametrize("n,m,p", [(3, 5, 1), (7, 4, 2), (9, 9, 2), (2, 11, 3)])
    def test_general_sizes_match_quantile_grid_oracle(self, n, m, p):
        rng = np.random.default_rng(n * 100 + m)
        x = rng.normal(size=n)
        y = rng.normal(size=m) + 0.5
        assert wasserstein_pp(x, y, p) == pytest.approx(wasserstein_quantile_grid(x, y, p), rel=2e-5)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        rows=st.integers(1, 3),
        n=st.integers(1, 9),
        m=st.integers(1, 9),
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        scale=st.sampled_from([1e-8, 1.0, 1e8]),
    )
    def test_rows_match_exact_quantile_integral(self, data, rows, n, m, p, scale):
        # samples on a grid of quarters tie within and across the sets
        def sets(size):
            row = st.lists(_QUARTERS, min_size=size, max_size=size)
            return scale * np.array(data.draw(st.lists(row, min_size=rows, max_size=rows)))

        X, Y = sets(n), sets(m)
        got = divergences._wasserstein_rows(X.copy(), Y.copy(), p)
        for k in range(rows):
            assert got[k] == pytest.approx(wasserstein_quantile_exact(X[k], Y[k], p), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n, m", [(6, 6), (6, 4)])
    def test_leaves_contiguous_float64_arguments_as_they_are(self, n, m):
        # such arguments reach the in-place reducer without a conversion, so only its copy keeps them
        rng = np.random.default_rng(n + m)
        x, y = rng.normal(size=n), rng.normal(size=m)
        x0, y0 = x.copy(), y.copy()
        assert wasserstein_pp(x, y, 2.0) > 0.0
        assert np.array_equal(x, x0) and np.array_equal(y, y0)

    def test_bruteforce_equivalence_up_to_six(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4, 5, 6):
            for _ in range(4):
                x = rng.normal(size=n)
                y = rng.normal(size=n)
                for p in (1, 2):
                    assert wasserstein_pp(x, y, p) == pytest.approx(
                        wasserstein_bruteforce(x, y, p), abs=1e-12
                    )

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 17))
            x, y, z = rng.normal(size=(3, n)) * rng.uniform(0.5, 2)
            dxy = wasserstein_pp(x, y, 2) ** 0.5
            dyx = wasserstein_pp(y, x, 2) ** 0.5
            dyz = wasserstein_pp(y, z, 2) ** 0.5
            dxz = wasserstein_pp(x, z, 2) ** 0.5
            assert dxy == dyx
            assert dxz <= dxy + dyz + 1e-10

    def test_translation_invariance_and_homogeneity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        base = wasserstein_pp(x, y, 2) ** 0.5
        shifted = wasserstein_pp(x + 3.7, y + 3.7, 2) ** 0.5
        scaled = wasserstein_pp(2.5 * x, 2.5 * y, 2) ** 0.5
        assert shifted == pytest.approx(base, rel=1e-12)
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)

    def test_gaussian_closed_form(self):
        n = 10**5
        m1, s1 = 0.0, 1.0
        m2, s2 = 1.0, 2.0
        x = m1 + s1 * RngRoot(0).stream("gauss-x", 0).normals(n)
        y = m2 + s2 * RngRoot(0).stream("gauss-y", 0).normals(n)
        w2 = wasserstein_pp(x, y, 2) ** 0.5
        expected = math.sqrt((m1 - m2) ** 2 + (s1 - s2) ** 2)
        assert w2 == pytest.approx(expected, rel=0.02)


# ---------------------------------------------------------------- mmd


class TestMmdSq:
    def test_identical_sets(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=20)
        assert abs(mmd_sq(x, x, 1.0)) < 1e-12

    def test_two_atom_value(self):
        got = mmd_sq([0.0], [1.0], 1.0)
        assert got == pytest.approx(2.0 * (1.0 - math.exp(-0.5)), abs=1e-12)

    def test_nonnegative_on_random_sets(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.normal(size=int(rng.integers(1, 30)))
            y = rng.normal(size=int(rng.integers(1, 30)))
            assert mmd_sq(x, y, rng.uniform(0.3, 3)) >= -1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=15)
        y = rng.normal(size=9)
        v1 = mmd_sq(x, y, 0.7)
        v2 = mmd_sq(rng.permutation(x), rng.permutation(y), 0.7)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_blockwise_matches_dense(self):
        # the rule and, over 500 blocks of 11 rows, the exact route
        rng = np.random.default_rng(8)
        x = rng.normal(size=3000)
        y = rng.normal(size=2500) + 0.3
        bw = 0.9
        dense = (
            np.exp(-0.5 * ((x[:, None] - x[None, :]) / bw) ** 2).sum() / x.size**2
            - 2 * np.exp(-0.5 * ((x[:, None] - y[None, :]) / bw) ** 2).sum() / (x.size * y.size)
            + np.exp(-0.5 * ((y[:, None] - y[None, :]) / bw) ** 2).sum() / y.size**2
        )
        for got in (mmd_sq(x, y, bw), mmd_exact_route(x, y, bw)):
            assert got == pytest.approx(float(dense), rel=1e-12)


def sweep_slice(sigma):
    """A smoothed slice pair of the noise sweep's size, n = 2000 and m = 1600."""
    rng = np.random.default_rng(11)
    x = rng.normal(size=2000) + sigma * rng.normal(size=2000)
    y = rng.normal(size=1600) + 0.3 + sigma * rng.normal(size=1600)
    return x, y


# rounding of sums whose terms are at most 1: the scale of the exact route's own error
KERNEL_SUM_ATOL = 64 * 2.0**-52


class TestMmdRoutes:
    @settings(max_examples=50, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 40), st.integers(200, 3000)),
        m=st.one_of(st.integers(1, 40), st.integers(200, 3000)),
        kind=st.sampled_from(["normal", "ties", "near-identical"]),
        log_h=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2000, m=1600, kind="normal", log_h=-0.8, seed=0)
    @example(n=2500, m=2500, kind="near-identical", log_h=0.0, seed=1)
    @example(n=300, m=3000, kind="ties", log_h=-3.0, seed=2)
    def test_matches_exact_sum_and_dense_formula(self, n, m, kind, log_h, seed):
        rng = np.random.default_rng(seed)
        if kind == "normal":
            x, y = rng.normal(size=n), rng.normal(size=m) + rng.normal(scale=0.5)
        elif kind == "ties":
            x, y = rng.integers(-3, 4, n) * 0.5, rng.integers(-2, 5, m) * 0.5
        else:  # the same points up to 1e-9, in another order
            x = rng.normal(size=n)
            y = rng.permutation(x) + 1e-9 * rng.normal(size=n)
        spread = float(np.ptp(np.concatenate([x, y])))
        bw = (spread if spread > 0 else 1.0) * 10.0**log_h
        want, exact = mmd_dense_oracle(x, y, bw), mmd_exact_route(x, y, bw)
        with counting("_kernel_sum") as calls:
            got = mmd_sq(x, y, bw)
        for ref in (want, exact):
            assert abs(got - ref) <= 1e-12 * abs(ref) + KERNEL_SUM_ATOL
        if calls:
            assert got == exact
        else:
            assert got >= 0.0

    @pytest.mark.parametrize("sigma", [0.0, 15.0])
    def test_default_bandwidth_slice_never_runs_the_kernel_sum(self, sigma):
        x, y = sweep_slice(sigma)
        bw = bandwidth_mean_pairwise(x, y)
        with counting("_kernel_sum") as calls:
            got = mmd_sq(x, y, bw)
        assert calls == []
        assert got > 0.0 and got == pytest.approx(mmd_exact_route(x, y, bw), rel=1e-12)

    def test_narrow_bandwidth_runs_the_exact_sum_before_any_quadrature(self):
        # at h = 1e-3 the rule would need about 2.9 (range / h) nodes: more terms than the exact sum's pairs
        x, y = sweep_slice(1.0)
        with counting("_kernel_sum") as calls, counting("_quadrature_pair") as rules:
            got = mmd_sq(x, y, 1e-3)
        assert len(calls) == 1 and rules == []
        assert got == mmd_exact_route(x, y, 1e-3)

    def test_exact_route_holds_one_block_of_rows(self):
        # the (n + m)^2 kernel values would take 99 MiB; a block of rows is one 2^16-float buffer, 0.5 MiB
        x, y = sweep_slice(1.0)
        tracemalloc.start()
        try:
            mmd_sq(x, y, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("ratio", [0.0, 1.0, 10.0, 100.0, 1000.0, *np.geomspace(1.0, 1000.0, 152)[1:-1].tolist()])
    def test_both_rules_resolve_the_highest_frequency(self, ratio):
        # v = (-t/2, t/2), s = (1, -1): the integrand is 2 - 2 cos(Z t / h), whose frequency t / h is the
        # largest a slice of range t can have, and E = 2 - 2 exp(-(t / h)^2 / 2); the phases reach 9 t / (2 h),
        # 4500 at t / h = 1000, where one rounding of a phase to a double moves it by up to 4.5e-13
        band = ratio + divergences._QUAD_MARGIN
        K = 2 * math.ceil(0.5 * divergences._QUAD_CUT * band / math.pi)
        u, s = np.array([-0.5 * ratio, 0.5 * ratio]), np.array([1.0, -1.0])
        want = 2.0 - 2.0 * math.exp(-0.5 * ratio * ratio)
        for got in divergences._quadrature_pair(u, s, math.pi / band, K):
            assert abs(got - want) <= 16 * 2.0**-52

    def test_coarse_value_is_the_rule_on_every_other_node(self):
        # a step too coarse for frequencies up to 10, so the two values differ and the check has something to see
        rng = np.random.default_rng(4)
        u, s = np.linspace(-5.0, 5.0, 7), rng.normal(size=7)
        tau = math.pi / 11.0
        K = 2 * math.ceil(0.5 * divergences._QUAD_CUT / tau)
        coarse, fine = divergences._quadrature_pair(u, s, tau, K)
        assert coarse == pytest.approx(divergences._quadrature_pair(u, s, 2.0 * tau, K // 2)[1], rel=1e-14)
        assert abs(coarse - fine) > 1e-3 * fine

    def test_bandwidth_a_tenth_stays_on_the_rule_in_a_few_mib(self):
        # range / h is about 91 here: a 289-node rule, far fewer terms than the exact sum's pairs
        x, y = sweep_slice(1.0)
        with counting("_kernel_sum") as calls:
            tracemalloc.start()
            try:
                got = mmd_sq(x, y, 0.1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert calls == [] and peak <= 4 * 2**20
        assert got == pytest.approx(mmd_exact_route(x, y, 0.1), rel=1e-12)

    @pytest.mark.parametrize("bandwidth", ["mean-pairwise", 0.1])
    @pytest.mark.parametrize("rows", [1, 3, 64])
    def test_rule_bits_do_not_depend_on_the_block(self, monkeypatch, bandwidth, rows):
        # blocks of one, three or 64 rows of 2 (n + m) floats against the default nine: the offsets and
        # anchors (5 + 5 rows at the mean-pairwise bandwidth, 13 + 12 at h = 0.1) come a few at a time or
        # all in one block; one GEMM per block instead of a dgemv per row fails at 64 rows
        x, y = sweep_slice(1.0)
        h = bandwidth_mean_pairwise(x, y) if bandwidth == "mean-pairwise" else bandwidth
        with counting("_kernel_sum") as calls:
            want = mmd_sq(x, y, h)
            monkeypatch.setattr(divergences, "_BLOCK", rows * 2 * (x.size + y.size))
            got = mmd_sq(x, y, h)
        assert calls == [] and got == want

    def test_largest_rule_at_the_sweep_size_stays_in_a_few_mib(self):
        # range / h is about 933 here: a 2701-node rule, next to the route's limit of 2711 nodes at
        # n = 2000, m = 1600; the offsets' 74 cos and sin rows take 2 MiB, the two block buffers 1 MiB
        x, y = sweep_slice(15.0)
        with counting("_kernel_sum") as calls, counting("_quadrature_pair") as rules:
            tracemalloc.start()
            try:
                got = mmd_sq(x, y, 0.111)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert calls == [] and rules[0][3] == 2700 and peak <= 4 * 2**20
        assert got == pytest.approx(mmd_exact_route(x, y, 0.111), rel=1e-12)

    def test_subnormal_bandwidth_gives_the_exact_value(self):
        # range / h overflows to inf; every distinct pair is then infinitely far apart and its kernel is 0
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=30), rng.normal(size=20)
        got = mmd_sq(x, y, 1e-320)
        assert got == mmd_exact_route(x, y, 1e-320) == pytest.approx(1 / 30 + 1 / 20, rel=1e-15)
        # with one repeated point the range is 0, the rule runs, and its phases stay 0
        assert abs(mmd_sq(np.zeros(30), np.zeros(20), 1e-320)) <= KERNEL_SUM_ATOL

    @pytest.mark.parametrize("rel_gap, exact", [(1e-14, False), (1e-12, True)])
    def test_rules_that_disagree_fall_back_to_the_exact_sum(self, monkeypatch, rel_gap, exact):
        x, y = sweep_slice(0.0)
        bw = bandwidth_mean_pairwise(x, y)
        monkeypatch.setattr(divergences, "_quadrature_pair", lambda *args: (0.01, 0.01 * (1.0 + rel_gap)))
        got = mmd_sq(x, y, bw)
        assert got == (mmd_exact_route(x, y, bw) if exact else 0.01 * (1.0 + rel_gap))

    def test_quadrature_route_allocates_a_few_mib(self):
        # the rule's two work buffers hold 2^16 floats each, 1 MiB together
        x, y = sweep_slice(1.0)
        bw = bandwidth_mean_pairwise(x, y)
        tracemalloc.start()
        try:
            mmd_sq(x, y, bw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_noise_mean_of_double_sampling_is_the_closed_form(self):
        # Gaussian noise of scale s turns k_h(a - b) into c k_H(a - b), H = sqrt(h^2 + 2 s^2), c = h / H,
        # for independent draws; the diagonal terms of the V-statistic stay 1, hence (1 - c)(1/n + 1/m)
        rng = np.random.default_rng(0)
        v, w = rng.normal(size=40), rng.normal(size=30) + 0.7
        h, s = 0.8, 1.3
        H = math.sqrt(h * h + 2 * s * s)
        c = h / H
        want = c * mmd_sq(v, w, H) + (1 - c) * (1 / 40 + 1 / 30)
        assert want == pytest.approx(0.09831, abs=5e-6)
        noise = np.random.default_rng(1)
        draws = np.array(
            [mmd_sq(v + s * noise.normal(size=40), w + s * noise.normal(size=30), h) for _ in range(20_000)]
        )
        std_error = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - want) <= 4 * std_error


class TestBandwidthHeuristic:
    def test_single_pair(self):
        assert bandwidth_mean_pairwise([0.0], [1.0]) == 1.0

    def test_degenerate_pooled_set_falls_back(self):
        assert bandwidth_mean_pairwise([2.0, 2.0], [2.0]) == 1.0

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=8)
        y = rng.normal(size=5)
        b = bandwidth_mean_pairwise(x, y)
        assert bandwidth_mean_pairwise(3.0 * x, 3.0 * y) == pytest.approx(3.0 * b, rel=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=11)
        y = rng.normal(size=6)
        pooled = np.concatenate([x, y])
        pairs = [abs(a - b) for i, a in enumerate(pooled) for b in pooled[i + 1 :]]
        assert bandwidth_mean_pairwise(x, y) == pytest.approx(float(np.mean(pairs)), rel=1e-12)


# ---------------------------------------------------------------- sinkhorn


def _spec(p=2.0, eps=0.1, tol=1e-9, max_iter=1000):
    return DivergenceSpec("sinkhorn", p=p, epsilon=eps, sinkhorn_tol=tol, sinkhorn_max_iter=max_iter)


_RNG13 = np.random.default_rng(13)
_SEEDED_FOUR_POINT = [(_RNG13.normal(size=4), _RNG13.normal(size=4) + 0.5) for _ in range(3)]


class TestSinkhornDiv:
    def test_self_divergence_vanishes(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=25)
        res = sinkhorn_div(x, x, _spec())
        assert abs(res.value) < 1e-6

    @pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
    def test_single_atoms(self, eps):
        res = sinkhorn_div([0.0], [1.0], _spec(eps=eps))
        assert res.value == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        x=st.lists(_QUARTERS, min_size=1, max_size=8),
        y=st.lists(_QUARTERS, min_size=1, max_size=8),
        eps=st.floats(0.3, 1.0),
        p=st.sampled_from([1, 2]),
    )
    @example(x=_SEEDED_FOUR_POINT[0][0], y=_SEEDED_FOUR_POINT[0][1], eps=0.5, p=2)
    @example(x=_SEEDED_FOUR_POINT[1][0], y=_SEEDED_FOUR_POINT[1][1], eps=0.5, p=2)
    @example(x=_SEEDED_FOUR_POINT[2][0], y=_SEEDED_FOUR_POINT[2][1], eps=0.5, p=2)
    def test_small_instances_match_dense_oracle(self, x, y, eps, p):
        # on [-1, 1] with eps >= 0.3, C_max / eps <= 13.4; 5000 scaling iterations leave the oracle up to about
        # 1e-6 off where two groups of points barely exchange mass, and its Newton steps finish the solve
        x, y = np.asarray(x, float), np.asarray(y, float)
        got = sinkhorn_div(x, y, _spec(p=p, eps=eps, tol=1e-12, max_iter=20_000))
        want = (
            sinkhorn_dense_oracle(x, y, p, eps, iters=5000)
            - 0.5 * sinkhorn_dense_oracle(x, x, p, eps, iters=5000)
            - 0.5 * sinkhorn_dense_oracle(y, y, p, eps, iters=5000)
        )
        assert got.value == pytest.approx(want, abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.integers(2, 8), m=st.integers(2, 8), p=st.sampled_from([1.0, 2.0]),
           eps=st.sampled_from([0.02, 0.1, 0.5]), gap=st.integers(6, 9))
    def test_newton_finish_converges_on_weakly_coupled_clusters(self, data, n, m, p, eps, gap):
        # two groups about gap * eps apart in cost, each on a grid of three points so that points tie; the
        # alternating update needs 10^3 to a few 10^5 sweeps on such sets, which the dense oracle still affords
        # (at eps 0.02, gap 9, a group of four points at 0 and two at 1.1 span takes about 2 * 10^5)
        assume(n != m)
        span = (gap * eps) ** (1.0 / p)

        def groups(k):
            steps = data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
            sides = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
            return np.array([span * (side + j / 20) for j, side in zip(steps, sides)])

        x, y = groups(n), groups(m)
        spec = DivergenceSpec("sinkhorn", p=p, epsilon=eps)
        for u, v in ((x, y), (x, x), (y, y)):
            value, converged, _, err = _entropic_ot(u, v, p, eps, spec.sinkhorn_tol, spec.sinkhorn_max_iter)
            assert converged and err < spec.sinkhorn_tol
            assert value == pytest.approx(sinkhorn_dense_oracle(u, v, p, eps, iters=2_000_000), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("n, m, eps", [(9, 14, 0.5), (31, 17, 0.05), (20, 20, 0.05)])
    def test_cap_short_of_the_finish_reports_the_solve_unconverged(self, n, m, eps, p):
        # every cap below the finished solve's step count ends at the target, unconverged with the error there,
        # and tol 0 runs to the cap; the finished solve is checked against the kernel scaling, which shares no
        # code with it
        rng = np.random.default_rng(16)
        x = rng.normal(size=n)
        y = rng.normal(size=m) + 0.5
        value, converged, steps, err = _entropic_ot(x, y, p, eps, 1e-9, 1000)
        assert converged and err < 1e-9 and 1 < steps <= 20
        assert value == pytest.approx(sinkhorn_dense_oracle(x, y, p, eps, iters=20_000), rel=1e-12)
        for tol, max_iter in [*((1e-9, k) for k in range(1, steps)), (0.0, steps), (0.0, steps + 3)]:
            value, converged, it, err = _entropic_ot(x, y, p, eps, tol, max_iter)
            assert math.isfinite(value) and (converged, it) == (False, max_iter) and math.isfinite(err)

    @settings(max_examples=40, deadline=None)
    @given(
        x=st.lists(st.one_of(_QUARTERS, st.floats(-3, 3)), min_size=1, max_size=12),
        p=st.sampled_from([1.0, 1.5, 2.0]),
        eps=st.sampled_from([0.02, 0.1, 0.5]),
    )
    # values far below eps log n; the first also ran the Newton solve into its cap
    @example(x=[0.0, 0.0, 2.0**-14], p=1.0, eps=0.5)
    @example(x=[0.0, 2.0**-14], p=2.0, eps=0.02)
    @example(x=[0.0, 0.0, 2.0**-24], p=1.0, eps=0.1)
    # a gradient of pure rounding, -ulp(1/5) on every column: unless its mean is taken out, the ridge makes it a
    # constant Newton step of -2.8e-6 against potentials of 1e-19
    @example(x=[0.0, 0.0, 0.0, 0.0, 2.1479529275671504e-19], p=1.0, eps=0.02)
    def test_self_solve_matches_the_cross_solve(self, x, p, eps):
        # the averaged fixed point and the Newton solve of OT_eps(x, x) stop on the same marginal error
        x = np.asarray(x, float)
        value, converged, _, err = divergences._symmetric_ot(x, p, eps, 1e-12, 1000)
        want, want_converged, _, _ = _entropic_ot(x, x, p, eps, 1e-12, 1000)
        assert converged and want_converged and err < 1e-12
        assert value == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("x, p, eps", [([0.0, 0.0, 2.0**-14], 1.0, 0.5), ([0.0, 2.0**-14], 2.0, 0.02),
                                           ([0.0, 0.0, 2.0**-24], 1.0, 0.1)])
    def test_self_solve_recomputes_nearly_tied_rows_in_the_log_domain(self, x, p, eps):
        # the tied examples above: their potentials lie far below eps log n, where the log of a kernel row sum
        # near n would lose its digits, so the rows go to _potential
        with counting("_potential") as calls:
            _, converged, _, _ = divergences._symmetric_ot(np.asarray(x, float), p, eps, 1e-12, 1000)
        assert converged and calls

    def test_self_solve_where_most_of_the_kernel_underflows(self):
        # spread 15 at eps 0.01: exp(-C_ij / eps) is exactly 0 on most pairs, and those terms are below
        # n e^-708 of their row's diagonal term
        x = 15 * np.random.default_rng(2).normal(size=200)
        C = (x[:, None] - x[None, :]) ** 2
        assert (np.exp(-C / 0.01) == 0.0).mean() > 0.5
        value, converged, _, err = divergences._symmetric_ot(x, 2.0, 0.01, 1e-9, 1000)
        want, want_converged, _, _ = _entropic_ot(x, x, 2.0, 0.01, 1e-9, 1000)
        assert converged and want_converged and err < 1e-9
        assert value == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_self_solve_recomputes_near_rows_a_block_at_a_time(self, monkeypatch):
        # every row of points within 2^-30 of each other is near at eps 1, and each goes through _potential in
        # blocks of at most _BLOCK floats, so the solve still holds C and K and little more
        n = 1000
        x = 2.0**-30 * np.random.default_rng(18).uniform(size=n)
        rows, inner = [], divergences._potential
        monkeypatch.setattr(divergences, "_potential", lambda h, C, e, W: rows.append(C.shape[0]) or inner(h, C, e, W))
        tracemalloc.start()
        try:
            _, converged, it, _ = divergences._symmetric_ot(x, 2.0, 1.0, 1e-12, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert converged
        assert sum(rows) == n * (it + 1) and max(rows) <= divergences._BLOCK // n
        assert peak <= 2.5 * n * n * 8

    @settings(max_examples=30, deadline=None)
    @given(x=st.lists(_QUARTERS, min_size=1, max_size=8), eps=st.floats(0.3, 1.0), p=st.sampled_from([1.0, 2.0]))
    @example(x=[-0.5, -0.75, 1.0], eps=0.3125, p=2.0)
    @example(x=[1.0, 1.0, -1.0], eps=0.3, p=2.0)
    def test_self_solve_matches_dense_oracle(self, x, eps, p):
        # eps >= 0.3 on [-1, 1], where the oracle's Newton steps finish what 5000 scaling iterations leave (see above)
        x = np.asarray(x, float)
        value, converged, _, _ = divergences._symmetric_ot(x, p, eps, 1e-12, 1000)
        assert converged
        assert value == pytest.approx(sinkhorn_dense_oracle(x, x, p, eps, iters=5000), rel=1e-10, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(
        x=st.lists(st.one_of(_QUARTERS, st.floats(-3, 3)), min_size=1, max_size=12),
        y=st.lists(st.one_of(_QUARTERS, st.floats(-3, 3)), min_size=1, max_size=12),
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )
    @example(x=[0.5], y=[-1.0, 0.25, 0.25], p=1.5)
    @example(x=[0.0, 0.25, 0.25, 1.0], y=[0.25, -0.5], p=3.0)
    @example(x=[-1.0, 0.0, 1.0], y=[-1.0, 0.0, 1.0], p=1.0)
    @example(x=[0.0, 0.0, 2.0], y=[0.0, 2.0, 0.0625], p=3.0)  # W far below the terms: the sum's rounding bounds it
    @example(x=[0.0, 0.0, 0.0, 0.0, 1.0], y=[0.0, 0.0, 1.0, 2.2250738585e-313, 2.2250738585e-313], p=1.0)  # subnormal
    def test_warm_dual_is_optimal_for_the_unregularised_problem(self, x, y, p):
        # g with its c-transform f is feasible, f_i + g_j <= C_ij, so <f, a> + <g, b> <= W_p^p, and equality makes
        # both optimal; wasserstein_pp integrates the quantile functions, a route the dual does not take.  Where
        # W_p^p is far below the terms, a few ulps of them bound the rounding of the sum, and where the terms are
        # subnormal, whose ulps 2^-52 * terms underflow to 0, a few units of the subnormal spacing 2^-1074 do
        xs, ys = np.sort(x), np.sort(y)
        g = divergences._monotone_dual(xs, ys, p)
        C = np.abs(xs[:, None] - ys[None, :]) ** p
        f = (C - g).min(axis=1)
        terms = float(np.abs(f).mean() + np.abs(g).mean())
        ulps = 8 * max(2.0**-52 * terms, 2.0**-1074)
        assert float(f.mean() + g.mean()) == pytest.approx(wasserstein_pp(x, y, p), rel=1e-13, abs=ulps)
        assert (f[:, None] + g[None, :] - C <= 4 * np.spacing(np.maximum(C, np.abs(g)))).all()

    @pytest.mark.parametrize("p, eps", [(1.0, 0.05), (2.0, 0.1)])
    def test_self_solve_cap_short_of_the_finish_reports_itself_unconverged(self, p, eps):
        # the error is checked whenever the cap runs out, so every cap reports a finite one; tol 0 runs to the cap
        rng = np.random.default_rng(16)
        x = 2 * rng.normal(size=30)
        value, converged, steps, err = divergences._symmetric_ot(x, p, eps, 1e-9, 1000)
        assert converged and err < 1e-9 and 1 < steps < 1000
        for tol, max_iter in [*((1e-9, k) for k in range(1, steps)), (0.0, steps), (0.0, steps + 4)]:
            value, converged, it, err = divergences._symmetric_ot(x, p, eps, tol, max_iter)
            assert math.isfinite(value) and (converged, it) == (False, max_iter) and 0 < err < math.inf

    @pytest.mark.parametrize("p", [8.0, 16.0, 30.0, 60.0])
    def test_large_order_converges_within_the_entropic_gap(self, p, monkeypatch):
        # the cost reaches 10^35 here, yet the warm dual leaves the cross term a few Newton steps at eps;
        # KL >= 0 puts OT_eps(x, y) above W_p^p, and the monotone plan, whose KL is log n, puts it below
        # W_p^p + eps log n, while the self terms lie in [0, eps log n] (W_p^p of a set against itself is 0)
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=20), rng.normal(size=20)
        eps, gap = 0.1, 0.1 * math.log(20)
        w = wasserstein_pp(x, y, p)
        value, converged, _, _ = _entropic_ot(x, y, p, eps, 1e-9, 1000)
        assert converged and w <= value <= w + gap
        for u in (x, y):
            value, converged, _, _ = divergences._symmetric_ot(u, p, eps, 1e-9, 1000)
            assert converged and 0.0 <= value <= gap
        if p <= 16:  # the reference's own ladder stalls at p 30 and 60, and it raises there
            monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
            import reference

            assert sinkhorn_div(x, y, _spec(p=p)).value == pytest.approx(reference.sinkhorn_div(x, y, p, eps), rel=1e-9)

    @pytest.mark.parametrize("n, p, eps", [(120, 1.0, 0.1), (200, 2.0, 0.01)])
    def test_wide_spread_pair_converges_within_the_cap(self, n, p, eps):
        # spread 15, the top sigma of noise-sweep: alternating log-domain sweeps on the coarse levels do not reach
        # the tolerance within the default cap on either pair, nor Newton steps whose conjugate gradients stop
        # at 100 < m products on the second
        rng = np.random.default_rng(2)
        x = 15 * rng.normal(size=n)
        y = 15 * rng.normal(size=n) + 0.5
        spec = _spec(p=p, eps=eps)
        res = sinkhorn_div(x, y, spec)
        assert res.converged and res.marginal_error < spec.sinkhorn_tol
        assert res.value >= -spec.sinkhorn_tol

    def test_solve_holds_two_n_by_m_arrays(self):
        # the cost matrix and one work buffer; the warm dual and the Newton steps add O(n) arrays
        n = 1000
        rng = np.random.default_rng(17)
        x, y = rng.uniform(size=n), rng.uniform(size=n)
        tracemalloc.start()
        try:
            _, _, it, _ = _entropic_ot(x, y, 2.0, 0.1, 0.0, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert it == 3
        assert peak <= 2.5 * n * n * 8

    def test_epsilon_decrease_approaches_quantile_value(self):
        # translated sets: the quadratic-cost value is shift^2 for every
        # epsilon, so the sweep is monotone (flat) down to the transport value
        x = np.array([0.0, 0.5, 1.0, 1.5])
        y = x + 3.0
        w = wasserstein_pp(x, y, 2)
        values = [sinkhorn_div(x, y, _spec(eps=e)).value for e in (1.0, 0.1, 0.01)]
        for hi, lo in zip(values, values[1:]):
            assert hi >= lo - 1e-6
        assert values[-1] == pytest.approx(w, abs=1e-6)

    def test_nonconvergence_is_flagged_not_fatal(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=30)
        y = rng.normal(size=30) + 8.0
        res = sinkhorn_div(x, y, _spec(eps=0.01, max_iter=10))
        assert res.converged is False
        assert math.isfinite(res.value)

    @pytest.mark.parametrize("x, y, p", [([1e200, 0.0], [0.0, 1.0], 2.0), ([0.0], [1e308, -1e308], 1.0)])
    def test_cost_beyond_the_double_range_is_refused(self, x, y, p):
        # an inf cost makes the warm dual and every Newton trial nan: the solve would return nan, not a refusal
        with pytest.raises(ValueError, match=rf"n={len(x)} and m={len(y)} .*double range \(p={p}, epsilon=0.1\)"):
            sinkhorn_div(x, y, _spec(p=p))

    def test_newton_halving_ends_on_a_non_finite_trial(self):
        with np.errstate(all="ignore"):
            value, converged, _, err = divergences._entropic_ot(
                np.array([1e200, 0.0]), np.array([0.0, 1.0]), 2.0, 0.1, 1e-9, 1000
            )
        assert math.isnan(value) and not converged and err == math.inf

    def test_value_not_below_minus_tol(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            x = rng.normal(size=12)
            y = x + 1e-5 * rng.normal(size=12)
            res = sinkhorn_div(x, y, _spec())
            assert res.converged and res.value >= -1e-9


# ---------------------------------------------------------------- mixture oracle


_MIXTURE_SHAPES = st.sampled_from(["atom", "ties", "clusters", "spread"])
_MIXTURE_SCALES = st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e8])


def draw_mixture(data, shape, scale):
    """Atoms and sigma of one mixture shape, both times scale.  ties: atoms a quarter (250 sigma) apart;
    clusters: two groups 50 apart at sigma 0.02, where the CDF is flat between them to far below rounding."""

    def points(elements, lo=2):
        return np.array(data.draw(st.lists(elements, min_size=lo, max_size=12)), dtype=float)

    if shape == "atom":
        v, sigma = np.array([data.draw(st.floats(-3, 3))]), data.draw(st.sampled_from([0.02, 1.0]))
    elif shape == "ties":
        v, sigma = points(_QUARTERS), 1e-3
    elif shape == "clusters":
        v, sigma = np.concatenate([0.1 * points(_QUARTERS, lo=1), 50.0 + 0.1 * points(_QUARTERS, lo=1)]), 0.02
    else:
        v, sigma = points(st.floats(-3, 3)), data.draw(st.sampled_from([0.3, 1.0, 3.0]))
    return scale * v, scale * sigma


class TestSmoothedWassersteinOracle:
    def test_identical_mixture_is_zero(self):
        v = np.array([0.0, 1.0, 2.5])
        assert smoothed_wasserstein_oracle(v, v, 1.0, 2) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("p", [1, 2])
    def test_translated_atoms(self, p):
        a, b = 0.3, 2.1
        got = smoothed_wasserstein_oracle([a], [b], 0.7, p)
        assert got == pytest.approx(abs(a - b) ** p, rel=1e-4)

    def test_against_double_sampling_estimate(self):
        # a single 1e5-draw replicate fluctuates by ~1.9% (one sigma), so the
        # 2% band is checked on the mean of six fixed-stream replicates
        vx = np.array([0.0, 2.0])
        vy = np.array([1.0])
        sigma, p, n = 1.0, 2, 10**5
        sampled = []
        for rep in range(6):
            sx = RngRoot(21).stream("oracle-x", rep)
            sy = RngRoot(21).stream("oracle-y", rep)
            # one noise draw per mixture component, repeated to n total draws
            cx = np.repeat(vx, n // len(vx))
            tx = cx + sigma * sx.normals(cx.size)
            cy = np.repeat(vy, n // len(vy))
            ty = cy + sigma * sy.normals(cy.size)
            sampled.append(wasserstein_pp(tx, ty, p))
        exact = smoothed_wasserstein_oracle(vx, vy, sigma, p)
        assert float(np.mean(sampled)) == pytest.approx(exact, rel=0.02)

    def test_mass_shift_between_two_component_mixtures(self):
        got = smoothed_wasserstein_oracle([-1.0, 1.0], [-1.0 + 0.4, 1.0 + 0.4], 0.5, 2)
        assert got == pytest.approx(0.4**2, rel=1e-4)

    def test_grid_message_names_the_rule_and_the_value(self):
        message = "oracle quantile grid must be an integer >= 1000, got 999"
        with pytest.raises(ValueError, match=f"^{message}$"):
            smoothed_wasserstein_oracle([0.0], [1.0], 1.0, 2, grid=999)

    @pytest.mark.parametrize("sigma", [_SIGMA_MIN, 1e-100, 1e-12])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_tends_to_wasserstein_of_the_atoms_as_sigma_falls_to_zero(self, sigma, p):
        # the paper's continuity in sigma at 0, on the oracle route: 5 against 8 atoms, whose CDF steps fall
        # between the 1000 midpoint levels; at the least sigma an atom over 2 from a point overflows a^2 to inf,
        # which must not warn
        rng = np.random.default_rng(11)
        vx, vy = 2.0 * rng.normal(size=5), 2.0 * rng.normal(size=8) + 0.5
        want = wasserstein_pp(vx, vy, p)
        assert smoothed_wasserstein_oracle(vx, vy, sigma, p, grid=1000) == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_span_past_the_double_range_names_n_and_sigma(self):
        with pytest.raises(ValueError, match=r"^n=2 atoms at sigma=1\.0 span inf: past the double range"):
            smoothed_wasserstein_oracle([-1e308, 1e308], [0.0, 1.0], 1.0, 2.0, 1000)
        with pytest.raises(ValueError, match=r"^n=2 atoms at sigma=1e-150 span 1e\+160: past the double range"):
            smoothed_wasserstein_oracle([0.0, 1.0], [0.0, 1e160], 1e-150, 2.0, 1000)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), shape=_MIXTURE_SHAPES, scale=_MIXTURE_SCALES)
    def test_quantiles_match_bisection(self, data, shape, scale):
        # each level must sit at a CDF residual of rounding size, or else (where the CDF is that flat) as close to
        # the bisected quantile as the two stopping widths allow
        v, sigma = draw_mixture(data, shape, scale)
        levels = (np.arange(1000) + 0.5) / 1000
        got = divergences._mixture_quantiles(v, sigma, levels)
        want, span = mixture_quantiles_by_bisection(v, sigma, levels)
        ok = (np.abs(mixture_cdf(v, sigma, got) - levels) <= 1e-13) | (np.abs(got - want) <= 2e-10 * span)
        assert ok.all(), (levels[~ok], got[~ok], want[~ok])

    def test_bits_do_not_depend_on_the_level_block(self, monkeypatch):
        rng = np.random.default_rng(4)
        vx, vy = rng.normal(size=300), 1.5 * rng.normal(size=300) + 0.4
        want = smoothed_wasserstein_oracle(vx, vy, 1.0, 2, grid=1000)  # the default block: 218 levels of 300 points
        for rows in (1, 7):
            monkeypatch.setattr(divergences, "_BLOCK", rows * 300)
            assert smoothed_wasserstein_oracle(vx, vy, 1.0, 2, grid=1000) == want

    def test_memory_does_not_grow_with_grid_times_n(self):
        # grid x n = 10^7 floats, 76 MiB for one CDF matrix; the blocks hold 2^16 floats each
        rng = np.random.default_rng(5)
        vx, vy = rng.normal(size=10_000), 2.0 * rng.normal(size=10_000) + 1.5
        tracemalloc.start()
        try:
            smoothed_wasserstein_oracle(vx, vy, 1.0, 2, grid=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestMixtureCdfPdf:
    # rows 0 and 1 of _mixture_taylor are the CDF and sigma times the density
    @staticmethod
    def pdf(v, sigma, t):
        return divergences._mixture_taylor(np.asarray(v, dtype=float), sigma, np.asarray(t, dtype=float))[1] / sigma

    def test_single_standard_component_at_origin(self):
        assert self.pdf([0.0], 1.0, [0.0])[0] == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-12)
        # quadrature oracle: same density integrates to the CDF step
        integral, _ = quad(lambda t: self.pdf([0.0], 1.0, [t])[0], -8, 8)
        assert integral == pytest.approx(1.0, abs=1e-9)

    def test_normalization_by_trapezoid(self):
        v = np.array([-2.0, 0.3, 5.0])
        sigma = 1.7
        t = np.linspace(v.min() - 10 * sigma, v.max() + 10 * sigma, 200_001)
        dens = self.pdf(v, sigma, t)
        assert np.all(dens >= 0)
        assert np.trapezoid(dens, t) == pytest.approx(1.0, abs=1e-6)

    def test_symmetry_for_symmetric_atoms(self):
        v = np.array([-1.3, 1.3])
        t = np.linspace(0.0, 6.0, 101)
        assert np.allclose(self.pdf(v, 0.8, t), self.pdf(v, 0.8, -t), atol=1e-15)

    def test_memory_does_not_grow_with_points_times_atoms(self):
        # 2000 points of a 5000-atom mixture are 76 MiB as one matrix; a block of points holds 2^16 floats
        rng = np.random.default_rng(0)
        v, t = rng.normal(size=5000), np.linspace(-4.0, 4.0, 2000)
        tracemalloc.start()
        try:
            rows = divergences._mixture_taylor(v, 0.5, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        want = [np.exp(-0.5 * ((p - v) / 0.5) ** 2).mean() / (0.5 * np.sqrt(2 * np.pi)) for p in t[::199]]
        assert rows[1, ::199] / 0.5 == pytest.approx(want, rel=1e-13)
        assert rows[0, ::199] == pytest.approx(mixture_cdf(v, 0.5, t[::199]), rel=1e-13)

    def test_bits_do_not_depend_on_the_point_block(self, monkeypatch):
        rng = np.random.default_rng(3)
        v, t = rng.normal(size=3000), np.linspace(-5.0, 5.0, 101)
        want = divergences._mixture_taylor(v, 0.7, t)  # the default block: 21 points of 3000 atoms
        for rows in (1, 7):
            monkeypatch.setattr(divergences, "_BLOCK", rows * 3000)
            assert np.array_equal(divergences._mixture_taylor(v, 0.7, t), want)

    def test_the_radius_fits_the_order(self):
        # The Lagrange remainders at the module's order K and radius rho stay within the bounds the next test
        # uses, so neither constant can move alone; M = max|Phi^(K+1)| = max|He_K phi| is taken where its
        # derivative -He_{K+1} phi vanishes
        K, rho = divergences._TAYLOR_ORDER, divergences._TAYLOR_RADIUS
        roots = hermeroots([0] * (K + 1) + [1])
        M = np.max(np.abs(hermeval(roots, [0] * K + [1]) * np.exp(-0.5 * roots**2))) / math.sqrt(2 * math.pi)
        assert M * rho ** (K + 1) / math.factorial(K + 1) <= 9.0e-18
        assert M * rho**K / math.factorial(K) <= 3.6e-15

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), shape=_MIXTURE_SHAPES, scale=_MIXTURE_SCALES)
    def test_expansion_matches_direct_means_within_the_radius(self, data, shape, scale):
        # The Newton steps read CDF and density at c + d sigma, |d| <= rho, from the rows at c.  Bounds: the
        # Lagrange remainders, 9.0e-18 for the CDF and 3.6e-15 for sigma times the density, plus 32 ulps of 1 for
        # rounding: on each side, 23 half-ulps to sum up to 24 atoms, 2 ulps for ndtr or exp and 1 for the
        # arguments' roundings (|x Phi'(x)| and |x phi'(x)| are below 1/2), and 2 ulps for Horner.
        v, sigma = draw_mixture(data, shape, scale)
        rho, ulp = divergences._TAYLOR_RADIUS, 2.0**-52
        c = v[data.draw(st.integers(0, v.size - 1))] + sigma * data.draw(st.floats(-6, 6))
        rows = divergences._mixture_taylor(v, sigma, np.array([c]))
        for d in (-rho, rho, data.draw(st.floats(-rho, rho))):
            t = c + d * sigma
            cdf, pdf = divergences._taylor_cdf_pdf(rows, np.array([(t - c) / sigma]), sigma)
            x = (t - v) / sigma
            assert abs(cdf[0] - ndtr(x).mean()) <= 9.0e-18 + 32 * ulp
            assert abs(sigma * pdf[0] - np.exp(-0.5 * x * x).mean() / math.sqrt(2 * math.pi)) <= 3.6e-15 + 32 * ulp


# ---------------------------------------------------------------- slice values


def _slice_rows(n, m, rows=5, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, n)), rng.normal(size=(rows, m)) * 1.5 + 0.4


class TestSliceValues:
    # the rows go in as copies: _slice_values may overwrite the rows it is given
    # (9000, 8000): 17 000 breakpoints, so the unequal-size rows are reduced in blocks of 3 and 2 rows
    @pytest.mark.parametrize("n, m", [(7, 7), (7, 5), (9000, 8000)])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    def test_wasserstein_rows_are_wpp(self, n, m, p):
        TX, TY = _slice_rows(n, m)
        vals, bad = divergences._slice_values(TX.copy(), TY.copy(), DivergenceSpec("wasserstein", p=p))
        assert bad == 0
        assert [float(v) for v in vals] == [wasserstein_pp(x, y, p) for x, y in zip(TX, TY)]

    @pytest.mark.parametrize("bandwidth", [1.0, None])
    @pytest.mark.parametrize("p", [2.0, 1.0])
    def test_mmd_rows_are_squared_mmd_to_the_power_p_over_2(self, p, bandwidth):
        TX, TY = _slice_rows(6, 4)
        vals, bad = divergences._slice_values(TX.copy(), TY.copy(), DivergenceSpec("mmd", p=p, bandwidth=bandwidth))
        # None: the mean-pairwise bandwidth of each row on its own; the rows' bandwidths all differ
        bws = [bandwidth or bandwidth_mean_pairwise(x, y) for x, y in zip(TX, TY)]
        assert bandwidth is not None or len(set(bws)) == len(bws)
        want = [max(mmd_sq(x, y, h), 0.0) ** (p / 2.0) for x, y, h in zip(TX, TY, bws)]
        assert bad == 0 and [float(v) for v in vals] == want

    def test_sinkhorn_counts_every_unconverged_row(self):
        TX, TY = _slice_rows(5, 4, rows=3)
        vals, bad = divergences._slice_values(TX.copy(), TY.copy(), _spec(max_iter=1))
        assert bad == 3 and vals.shape == (3,)
        vals, bad = divergences._slice_values(TX.copy(), TY.copy(), _spec(eps=1.0))
        assert bad == 0
        assert list(vals) == [sinkhorn_div(x, y, _spec(eps=1.0)).value for x, y in zip(TX, TY)]


# ---------------------------------------------------------------- input ranges


_SAMPLE_FUNCTIONS = {
    "wasserstein_pp": lambda x, y: wasserstein_pp(x, y, 2.0),
    "mmd_sq": lambda x, y: mmd_sq(x, y, 1.0),
    "bandwidth_mean_pairwise": bandwidth_mean_pairwise,
    "sinkhorn_div": lambda x, y: sinkhorn_div(x, y, _spec()),
    "smoothed_wasserstein_oracle": lambda x, y: smoothed_wasserstein_oracle(x, y, 1.0, 2.0),
}


class TestInputRanges:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", _SAMPLE_FUNCTIONS)
    def test_non_finite_samples_raise(self, name, bad):
        for x, y in (([0.0, bad, 1.0], [1.0, 2.0]), ([0.0, 1.0], [bad])):
            with pytest.raises(ValueError, match="non-finite"):
                _SAMPLE_FUNCTIONS[name](x, y)

    def test_sinkhorn_max_iter_takes_a_numpy_integer(self):
        assert DivergenceSpec("sinkhorn", sinkhorn_max_iter=np.int64(5)).sinkhorn_max_iter == 5

    def test_zero_sinkhorn_tol_runs_to_the_cap(self):
        res = sinkhorn_div([0.0, 1.0], [0.5, 2.0], _spec(tol=0.0, max_iter=30))
        assert res.iterations == 3 * 30 and not res.converged
