import contextlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gssd import divergences
from gssd.divergences import (
    DivergenceSpec,
    _entropic_ot,
    bandwidth_mean_pairwise,
    mmd_sq,
    power_value,
    sinkhorn_div,
    smoothed_wasserstein_oracle,
    wasserstein_pp,
)
from gssd.rng import RngRoot


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


def mmd_exact_route(x, y, bw):
    """The exact route of mmd_sq: three blocked kernel sums, combined in this order."""
    ks = divergences._kernel_sum
    n, m = x.size, y.size
    return ks(x, x, bw) / (n * n) - 2.0 * ks(x, y, bw) / (n * m) + ks(y, y, bw) / (m * m)


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
    """Kernel-domain matrix scaling run to saturation; primal value with KL term."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n, m = len(x), len(y)
    a = np.full(n, 1.0 / n)
    b = np.full(m, 1.0 / m)
    C = np.abs(x[:, None] - y[None, :]) ** p
    K = np.exp(-C / eps)
    u = np.ones(n)
    v = np.ones(m)
    for _ in range(iters):
        u = a / (K @ v)
        v = b / (K.T @ u)
    P = u[:, None] * K * v[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        logratio = np.where(P > 0, np.log(np.where(P > 0, P, 1.0) / (a[:, None] * b[None, :])), 0.0)
    return float((P * C).sum() + eps * (P * logratio).sum())


def sinkhorn_reference_loop(x, y, p, eps, max_iter):
    """The log-domain loop written with a temporary per operation, run to max_iter (no stopping rule).

    Returns the value <f,a> + <g,b>, the update count, the L-infinity marginal
    violation of the plan built from the final potentials, and the number of
    coarse ladder levels (20 updates each) before the target epsilon.
    """
    n, m = x.size, y.size
    loga = np.full(n, -np.log(n))
    logb = np.full(m, -np.log(m))
    a, b = np.exp(loga), np.exp(logb)
    C = np.abs(x[:, None] - y[None, :]) ** p

    def lse_rows(A):
        top = A.max(axis=1)
        return top + np.log(np.exp(A - top[:, None]).sum(axis=1))

    ladder = []
    e = max(eps, float(C.max()) / 50.0)
    while e > eps * 1.0001:
        ladder.append(e)
        e *= 0.5
    ladder.append(eps)
    f, g = np.zeros(n), np.zeros(m)
    it = 0
    for level, e in enumerate(ladder):
        budget = max_iter - it if level == len(ladder) - 1 else min(20, max_iter - it)
        for _ in range(budget):
            f = -e * lse_rows((g[None, :] - C) / e + logb[None, :])
            g = -e * lse_rows(((f[:, None] - C) / e + loga[:, None]).T)
            it += 1
    P = np.exp((f[:, None] + g[None, :] - C) / eps + loga[:, None] + logb[None, :])
    err = max(float(np.abs(P.sum(axis=1) - a).max()), float(np.abs(P.sum(axis=0) - b).max()))
    return float(f @ a + g @ b), it, err, len(ladder) - 1


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

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            wasserstein_pp([], [0.0], 2)
        with pytest.raises(ValueError):
            wasserstein_pp([0.0], [], 2)


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
        # sizes above the block edge exercise the tiled kernel accumulation
        rng = np.random.default_rng(8)
        x = rng.normal(size=3000)
        y = rng.normal(size=2500) + 0.3
        bw = 0.9
        dense = (
            np.exp(-0.5 * ((x[:, None] - x[None, :]) / bw) ** 2).sum() / x.size**2
            - 2 * np.exp(-0.5 * ((x[:, None] - y[None, :]) / bw) ** 2).sum() / (x.size * y.size)
            + np.exp(-0.5 * ((y[:, None] - y[None, :]) / bw) ** 2).sum() / y.size**2
        )
        assert mmd_sq(x, y, bw) == pytest.approx(float(dense), rel=1e-12)

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            mmd_sq([0.0], [1.0], 0.0)


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
        assert len(calls) == 3 and rules == []
        assert got == mmd_exact_route(x, y, 1e-3)

    @pytest.mark.parametrize("ratio", [0.0, 1.0, 10.0, 100.0, 1000.0])
    def test_both_rules_resolve_the_highest_frequency(self, ratio):
        # v = (-t/2, t/2), s = (1, -1): the integrand is 2 - 2 cos(Z t / h), whose frequency t / h is the
        # largest a slice of range t can have, and E = 2 - 2 exp(-(t / h)^2 / 2)
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
        # one block of the exact route is 2048 x 2048 floats, 32 MiB, and it holds three at once
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

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            bandwidth_mean_pairwise([0.5], [])


# ---------------------------------------------------------------- sinkhorn


def _spec(p=2.0, eps=0.1, tol=1e-9, max_iter=1000):
    return DivergenceSpec("sinkhorn", p=p, epsilon=eps, sinkhorn_tol=tol, sinkhorn_max_iter=max_iter)


_QUARTERS = st.integers(-4, 4).map(lambda k: k / 4)  # a coarse grid, so samples tie
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
        # on [-1, 1] with eps >= 0.3, C_max / eps <= 13.4, so 5000 scaling iterations contract the
        # oracle's error by tanh(C_max / (4 eps))^10000 < 1e-10; the seeded instances reach 1e-9
        x, y = np.asarray(x, float), np.asarray(y, float)
        got = sinkhorn_div(x, y, _spec(p=p, eps=eps, tol=1e-12, max_iter=20_000))
        want = (
            sinkhorn_dense_oracle(x, y, p, eps, iters=5000)
            - 0.5 * sinkhorn_dense_oracle(x, x, p, eps, iters=5000)
            - 0.5 * sinkhorn_dense_oracle(y, y, p, eps, iters=5000)
        )
        assert got.value == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("n, m, eps", [(9, 14, 0.5), (31, 17, 0.05), (20, 20, 0.05)])
    def test_solve_matches_reference_loop_bit_for_bit(self, n, m, eps, p):
        rng = np.random.default_rng(16)
        x = rng.normal(size=n)
        y = rng.normal(size=m) + 0.5
        coarse = sinkhorn_reference_loop(x, y, p, eps, 1)[3]
        # a few updates past the coarse levels: the violation is far above its rounding
        for max_iter in (20 * coarse + 1, 20 * coarse + 2, 20 * coarse + 5):
            want_value, want_it, want_err, _ = sinkhorn_reference_loop(x, y, p, eps, max_iter)
            value, converged, it, err = _entropic_ot(x, y, p, eps, 0.0, max_iter)
            assert (value, it, converged) == (want_value, want_it, False)
            assert err == pytest.approx(want_err, rel=1e-12)

    @pytest.mark.parametrize("max_iter", [1, 3, 20, 25])
    def test_ladder_cut_short_reports_infinite_error(self, max_iter):
        rng = np.random.default_rng(3)
        x = 2 * rng.normal(size=40)
        y = 2 * rng.normal(size=30) + 0.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, converged, it, err = _entropic_ot(x, y, 2.0, 0.1, 1e-9, max_iter)
        assert (converged, it, err) == (False, max_iter, math.inf)
        assert math.isfinite(value)

    def test_solve_holds_two_n_by_m_arrays(self):
        # the cost matrix and one work buffer; eps above C_max / 50 puts every update at the target
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

    def test_value_not_below_minus_tol(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            x = rng.normal(size=12)
            y = x + 1e-5 * rng.normal(size=12)
            res = sinkhorn_div(x, y, _spec())
            assert res.value >= -1e-9

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            DivergenceSpec("sinkhorn", p=2, epsilon=0.0)


# ---------------------------------------------------------------- mixture oracle


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

    def test_guards(self):
        with pytest.raises(ValueError):
            smoothed_wasserstein_oracle([0.0], [1.0], 0.0, 2)
        with pytest.raises(ValueError):
            smoothed_wasserstein_oracle([0.0], [1.0], 1.0, 2, grid=500)


# ---------------------------------------------------------------- power values


class TestPowerValue:
    def test_wasserstein_power_is_wpp(self):
        x = np.array([0.0, 1.0])
        y = np.array([2.0, 3.0])
        spec = DivergenceSpec("wasserstein", p=2)
        val, ok = power_value(x, y, spec)
        assert ok and val == wasserstein_pp(x, y, 2)

    def test_mmd_order_two_is_squared_mmd(self):
        x = np.array([0.0, 0.5])
        y = np.array([1.0, 1.5])
        spec = DivergenceSpec("mmd", p=2, bandwidth=1.0)
        val, ok = power_value(x, y, spec)
        assert ok and val == pytest.approx(mmd_sq(x, y, 1.0), rel=1e-12)

    def test_mmd_order_one_is_root(self):
        x = np.array([0.0, 0.5])
        y = np.array([1.0, 1.5])
        spec = DivergenceSpec("mmd", p=1, bandwidth=1.0)
        val, _ = power_value(x, y, spec)
        assert val == pytest.approx(math.sqrt(mmd_sq(x, y, 1.0)), rel=1e-12)


# ---------------------------------------------------------------- input ranges


_SAMPLE_FUNCTIONS = {
    "wasserstein_pp": lambda x, y: wasserstein_pp(x, y, 2.0),
    "mmd_sq": lambda x, y: mmd_sq(x, y, 1.0),
    "bandwidth_mean_pairwise": bandwidth_mean_pairwise,
    "sinkhorn_div": lambda x, y: sinkhorn_div(x, y, _spec()),
    "smoothed_wasserstein_oracle": lambda x, y: smoothed_wasserstein_oracle(x, y, 1.0, 2.0),
}

_SETTINGS = {
    "DivergenceSpec.p": lambda v: DivergenceSpec("wasserstein", p=v),
    "DivergenceSpec.epsilon": lambda v: DivergenceSpec("sinkhorn", epsilon=v),
    "DivergenceSpec.bandwidth": lambda v: DivergenceSpec("mmd", bandwidth=v),
    "DivergenceSpec.sinkhorn_tol": lambda v: DivergenceSpec("wasserstein", sinkhorn_tol=v),
    "wasserstein_pp.p": lambda v: wasserstein_pp([0.0], [1.0], v),
    "mmd_sq.bandwidth": lambda v: mmd_sq([0.0], [1.0], v),
    "smoothed_wasserstein_oracle.sigma": lambda v: smoothed_wasserstein_oracle([0.0], [1.0], v, 2.0),
    "smoothed_wasserstein_oracle.p": lambda v: smoothed_wasserstein_oracle([0.0], [1.0], 1.0, v),
}


class TestInputRanges:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", _SAMPLE_FUNCTIONS)
    def test_non_finite_samples_raise(self, name, bad):
        for x, y in (([0.0, bad, 1.0], [1.0, 2.0]), ([0.0, 1.0], [bad])):
            with pytest.raises(ValueError, match="non-finite"):
                _SAMPLE_FUNCTIONS[name](x, y)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", _SETTINGS)
    def test_non_finite_settings_raise(self, name, bad):
        with pytest.raises(ValueError, match="finite"):
            _SETTINGS[name](bad)

    def test_zero_sinkhorn_tol_runs_to_the_cap(self):
        res = sinkhorn_div([0.0, 1.0], [0.5, 2.0], _spec(tol=0.0, max_iter=30))
        assert res.iterations == 3 * 30 and not res.converged
