import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
