import hashlib
import math
import re
import struct
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Philox
from scipy.special import gammaln, ndtri

from gssd import estimator
from gssd.divergences import DivergenceSpec, bandwidth_mean_pairwise, mmd_sq, wasserstein_pp
from gssd.estimator import GssdConfig, estimate, sweep_sigma, two_sigma_check
from gssd.rng import RngRoot, keyed_normals
from gssd.slicing import SampleSet, project, sample_direction, smooth_double


def gauss_set(seed, label, n, d, mean=0.0, scale=1.0):
    z = RngRoot(seed).stream(label, 0).normals(n * d).reshape(n, d)
    return SampleSet(mean + scale * z)


def wcfg(seed, sigma=1.0, L=32, p=2.0, divergence=None, **kw):
    return GssdConfig(
        sigma=sigma,
        num_projections=L,
        divergence=divergence or DivergenceSpec("wasserstein", p=p),
        seed=RngRoot(seed),
        **kw,
    )


def reference_words(seed, label, index, count):
    """The first ``count`` words of stream (seed, label, index), keyed from its hash message written out."""
    raw = label.encode("utf-8")
    msg = struct.pack("<Q", seed) + struct.pack("<I", len(raw)) + raw + struct.pack("<Q", index)
    key = np.frombuffer(hashlib.blake2b(msg, digest_size=16).digest(), dtype="<u8").astype(np.uint64)
    return Philox(key=key).random_raw(count)


def reference_normals(seed, label, index, count):
    """ndtri of (k + 0.5) * 2^-53, k the top 53 bits of ``reference_words``, clamped below 1."""
    k = (reference_words(seed, label, index, count) >> np.uint64(11)).astype(np.float64)
    return ndtri(np.minimum((k + 0.5) * 2.0**-53, np.nextafter(1.0, 0.0)))


def sphere_abs_moment(p, d):
    """E|u_1|^p for u uniform on S^{d-1}: Gamma(d/2)Gamma((p+1)/2)/(sqrt(pi)Gamma((d+p)/2))."""
    return math.exp(gammaln(d / 2) + gammaln((p + 1) / 2) - 0.5 * math.log(math.pi) - gammaln((d + p) / 2))


class TestEstimateBasics:
    def test_identical_sets_no_noise_is_zero(self):
        X = gauss_set(1, "x", 40, 4)
        est = estimate(X, X, wcfg(7, sigma=0.0))
        assert est.mean_pow == 0.0 and est.root == 0.0

    def test_mean_pow_is_mean_of_projections(self):
        X = gauss_set(2, "x", 30, 3)
        Y = gauss_set(2, "y", 30, 3)
        est = estimate(X, Y, wcfg(8))
        assert est.mean_pow == float(np.mean(est.per_projection))
        assert est.std_error == pytest.approx(est.sample_std / math.sqrt(32), rel=1e-14)
        assert est.root == pytest.approx(est.mean_pow**0.5, rel=1e-14)

    def test_dimension_mismatch_rejected(self):
        X = gauss_set(3, "x", 10, 3)
        Y = gauss_set(3, "y", 10, 4)
        with pytest.raises(ValueError):
            estimate(X, Y, wcfg(9))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("x, sigma", [
        ([[1.5e308, 1.5e308], [1.4e308, 1.5e308]], 0.0),  # projections past the double range
        ([[0.5, -1.0], [1.0, 0.25]], 1e300),  # noise whose squared gaps are past it
        ([[0.0, 1.4e154], [0.0, 0.0]], 0.0),  # squared gaps past it on directions near the second axis only
    ])
    def test_non_finite_value_is_refused_naming_its_projection(self, x, sigma, workers):
        # numpy only warns where a slice's value overflows; the estimate must refuse it, not average a nan or inf
        X, Y = SampleSet(np.array(x)), gauss_set(4, "y", 3, 2)
        cfg = wcfg(10, sigma=sigma, L=70)

        def finite(l):
            try:
                return math.isfinite(rebuilt_value(X, Y, cfg, l))
            except ValueError:  # the slice itself is past the double range
                return False

        first = next(l for l in range(70) if not finite(l))  # 0, 0 and 4
        message = f"^projection {first} at sigma {re.escape(str(sigma))} has a non-finite wasserstein value$"
        with pytest.raises(ValueError, match=message):
            estimate(X, Y, cfg, workers=workers)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GssdConfig(
                sigma=1.0, num_projections=4,
                divergence=DivergenceSpec("mmd", p=2), seed=RngRoot(0), mode="mixture_oracle",
            )

    @pytest.mark.parametrize("grid", [10, 999, 1000.5, math.inf, True])
    def test_oracle_grid_checked_at_construction(self, grid):
        spec = DivergenceSpec("wasserstein", p=2)
        with pytest.raises(ValueError, match="grid"):
            GssdConfig(sigma=1.0, num_projections=4, divergence=spec, seed=RngRoot(0), mode="mixture_oracle",
                       oracle_grid=grid)
        # the double-empirical mode never reads the grid
        GssdConfig(sigma=1.0, num_projections=4, divergence=spec, seed=RngRoot(0), oracle_grid=grid)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["wasserstein", "mmd", "mmd-fixed", "sinkhorn", "oracle"])
    def test_workers_do_not_change_bits(self, kind):
        # the mixture oracle draws no noise, so its tiles run the buffers without the noise columns;
        # at the fixed bandwidth 0.7 every slice's trapezoid rule has 58 to 78 nodes on 6 or 7 anchors
        oracle = kind == "oracle"
        bandwidth = 0.7 if kind == "mmd-fixed" else None
        spec = DivergenceSpec("wasserstein" if oracle else kind.removesuffix("-fixed"), p=2, bandwidth=bandwidth,
                              sinkhorn_max_iter=100)
        X = gauss_set(4, "x", 60, 5)
        Y = gauss_set(4, "y", 60, 5)
        mode = dict(mode="mixture_oracle", oracle_grid=1000) if oracle else {}
        cfg = GssdConfig(sigma=1.5, num_projections=16, divergence=spec, seed=RngRoot(11), **mode)
        seq = estimate(X, Y, cfg, workers=1)
        par = estimate(X, Y, cfg, workers=8)
        assert np.array_equal(seq.per_projection, par.per_projection)
        assert seq.mean_pow == par.mean_pow

    def test_threads_switching_every_microsecond_keep_every_bit(self):
        # more threads than cores, switching as often as the interpreter allows: the keying
        # lock and the per-block workspaces must lose no update
        X = gauss_set(9, "sw-x", 40, 4)
        Y = gauss_set(9, "sw-y", 30, 4, mean=0.2)
        cfg = wcfg(19, L=200)
        streams = [("proj", 4), ("noisex", 40)]
        blocks = [range(8 * i, 8 * i + 8) for i in range(8)]
        want_rows = [keyed_normals(cfg.seed, streams, ls) for ls in blocks]
        want = estimate(X, Y, cfg, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=9) as pool:
                rows = [pool.submit(keyed_normals, cfg.seed, streams, ls) for ls in blocks]
                est = pool.submit(estimate, X, Y, cfg, 8)
                got_rows = [f.result(timeout=120) for f in rows]
                got = est.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(got_rows, want_rows))
        assert np.array_equal(got.per_projection, want.per_projection)

    def test_repeat_run_identical(self):
        X = gauss_set(6, "x", 25, 3)
        Y = gauss_set(6, "y", 25, 3)
        a = estimate(X, Y, wcfg(13))
        b = estimate(X, Y, wcfg(13))
        assert a.mean_pow == b.mean_pow
        assert np.array_equal(a.per_projection, b.per_projection)

    def test_unequal_sample_counts_supported(self):
        X = gauss_set(17, "x", 30, 4)
        Y = gauss_set(17, "y", 20, 4, mean=0.5)
        a = estimate(X, Y, wcfg(14, L=12))
        b = estimate(X, Y, wcfg(14, L=12))
        assert a.mean_pow > 0
        assert np.array_equal(a.per_projection, b.per_projection)


def kind_cfg(kind, seed, sigma=1.0, L=32):
    spec = DivergenceSpec(kind, p=2, sinkhorn_max_iter=100)
    return GssdConfig(sigma=sigma, num_projections=L, divergence=spec, seed=RngRoot(seed))


def rebuilt_value(X, Y, cfg, l):
    """Projection l rebuilt one stream at a time through the public slicing functions."""
    root = cfg.seed
    u = sample_direction(X.d, root.stream("proj", l))
    tx = smooth_double(project(X, u), cfg.sigma, root.stream("noisex", l))
    ty = smooth_double(project(Y, u), cfg.sigma, root.stream("noisey", l))
    if cfg.divergence.kind == "wasserstein":
        return wasserstein_pp(tx, ty, cfg.divergence.p)
    return max(mmd_sq(tx, ty, bandwidth_mean_pairwise(tx, ty)), 0.0) ** (cfg.divergence.p / 2)


class TestSlicePipeline:
    """The single tile pipeline: every projection depends only on its own keyed streams."""

    @pytest.mark.parametrize("kind, n, m", [("wasserstein", 40, 40), ("wasserstein", 45, 30), ("mmd", 40, 25)])
    def test_workers_1_2_8_bitwise(self, kind, n, m):
        X = gauss_set(21, "pw-x", n, 4)
        Y = gauss_set(21, "pw-y", m, 4, mean=0.4)
        runs = [estimate(X, Y, kind_cfg(kind, 31, L=150 if kind == "wasserstein" else 10), workers=w) for w in (1, 2, 8)]
        for other in runs[1:]:
            assert np.array_equal(runs[0].per_projection, other.per_projection)
            assert runs[0].mean_pow == other.mean_pow

    def test_prefix_across_tile_boundary_bitwise(self):
        # L = 70 crosses the first tile boundary and ends inside the second tile
        X = gauss_set(22, "pp-x", 50, 5)
        Y = gauss_set(22, "pp-y", 35, 5, mean=0.3)
        long = estimate(X, Y, wcfg(32, L=200), workers=3)
        short = estimate(X, Y, wcfg(32, L=70), workers=2)
        assert estimator._TILE < 70 < 2 * estimator._TILE
        assert np.array_equal(long.per_projection[:70], short.per_projection)

    def test_rerun_bitwise(self):
        X = gauss_set(23, "rr-x", 30, 3)
        Y = gauss_set(23, "rr-y", 30, 3)
        a = sweep_sigma(X, Y, [0.0, 2.0], wcfg(33, L=80), workers=2)
        b = sweep_sigma(X, Y, [0.0, 2.0], wcfg(33, L=80), workers=2)
        for ea, eb in zip(a, b):
            assert np.array_equal(ea.per_projection, eb.per_projection)

    @pytest.mark.parametrize("kind, mode, n, m, L, sigmas", [
        # sigma 0 after a smoothed row: its slices must be P itself, not what the last sigma left in the buffers
        ("wasserstein", "double_empirical", 60, 45, 90, [0.5, 0.0, 3.0]),
        ("mmd", "double_empirical", 50, 40, 6, [0.5, 0.0, 3.0]),
        ("sinkhorn", "double_empirical", 20, 15, 4, [0.5, 0.0, 3.0]),
        ("wasserstein", "mixture_oracle", 30, 25, 70, [0.5, 3.0]),  # the oracle's sigma is positive
    ])
    def test_sweep_equals_estimate_at_each_sigma(self, kind, mode, n, m, L, sigmas):
        X = gauss_set(24, "se-x", n, 4)
        Y = gauss_set(24, "se-y", m, 4, mean=0.5)
        cfg = replace(kind_cfg(kind, 34, L=L), mode=mode, oracle_grid=1000)
        for s, est in zip(sigmas, sweep_sigma(X, Y, sigmas, cfg, workers=2)):
            single = estimate(X, Y, replace(cfg, sigma=s))
            assert np.array_equal(est.per_projection, single.per_projection)
            assert est.unconverged == single.unconverged
            assert est.config.sigma == s

    @pytest.mark.parametrize("kind, n, m, sigma", [
        ("wasserstein", 40, 40, 1.5), ("wasserstein", 50, 30, 0.7), ("wasserstein", 30, 45, 0.0), ("mmd", 35, 20, 1.0),
    ])
    def test_rows_match_rebuilt_slices(self, kind, n, m, sigma):
        # exact, not just within 1e-12: the pipeline runs the public functions'
        # arithmetic row by row
        X = gauss_set(25, "rb-x", n, 6)
        Y = gauss_set(25, "rb-y", m, 6, mean=0.2)
        cfg = kind_cfg(kind, 35, sigma=sigma, L=70)
        est = estimate(X, Y, cfg, workers=2)
        for l in (0, 1, 63, 64, 69):
            want = rebuilt_value(X, Y, cfg, l)
            assert est.per_projection[l] == want

    @pytest.mark.parametrize("d, n, m, rows", [
        (5, 30, 20, 10), (1, 7, 3, 5), (3, 1, 1, 1), (50, 2000, 1600, 63), (200, 300, 257, 64), (10, 1000, 800, 2),
        (50, 500, 500, 64),  # a full tile of the projection-complexity job
    ])
    def test_tile_rows_equal_public_functions(self, d, n, m, rows):
        X = gauss_set(27, "tr-x", n, d)
        Y = gauss_set(27, "tr-y", m, d)
        root = RngRoot(37)
        ls = range(60, 60 + rows)
        [(a, b, U, px, py, zx, zy)] = estimator._tiles(X, Y, root, ls, True)
        assert (a, b) == (ls.start, ls.stop)
        for k, l in enumerate(ls):
            u = sample_direction(d, root.stream("proj", l))
            assert np.array_equal(U[k], u)
            assert np.array_equal(px[k], project(X, u))
            assert np.array_equal(py[k], project(Y, u))
            assert np.array_equal(zx[k], root.stream("noisex", l).normals(n))
            assert np.array_equal(zy[k], root.stream("noisey", l).normals(m))
        assert next(estimator._tiles(X, Y, root, ls, False))[5:] == (None, None)

    def test_zero_direction_draw_falls_back_to_sample_direction(self, monkeypatch):
        # a word whose top 53 bits are 2^52 maps to u = 0.5, i.e. z = 0; force such direction
        # draws, first and later in a tile, and check each row redraws as sample_direction does
        # (which reads the stream's real draw, so the estimate is the unpatched one), without a warning
        real = estimator.keyed_normals
        zeroed = []

        def zero_directions(root, streams, indices, out=None):
            G = real(root, streams, indices, out)
            for k, l in enumerate(indices):
                if l in (0, 2, 65):
                    G[k, : streams[0][1]] = 0.0
                    zeroed.append(l)
            return G

        X = gauss_set(26, "zd-x", 20, 3)
        Y = gauss_set(26, "zd-y", 20, 3, mean=1.0)
        cfg = wcfg(36, sigma=0.0, L=70)
        want = estimate(X, Y, cfg)
        monkeypatch.setattr(estimator, "keyed_normals", zero_directions)
        est = estimate(X, Y, cfg)
        assert sorted(zeroed) == [0, 2, 65]
        assert np.array_equal(est.per_projection, want.per_projection)
        for l in (0, 2, 65):
            assert est.per_projection[l] == rebuilt_value(X, Y, cfg, l)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        labels=st.lists(st.sampled_from(["proj", "noisex", "noisey", "data", "", "噪声"]), min_size=1, max_size=3),
        counts=st.lists(st.integers(0, 9), min_size=3, max_size=3),
        start=st.integers(0, 2**64 - 1),
        size=st.integers(1, 5),
    )
    def test_keyed_normals_equal_streams(self, seed, labels, counts, start, size):
        # a non-ASCII label's key prefix packs its UTF-8 byte length; the indices reach 2^64 - 1
        root = RngRoot(seed)
        streams = list(zip(labels, counts))
        start = min(start, 2**64 - size)
        indices = range(start, start + size)
        G = keyed_normals(root, streams, indices)
        for k, l in enumerate(indices):
            col = 0
            for label, count in streams:
                assert np.array_equal(G[k, col : col + count], root.stream(label, l).normals(count))
                assert np.array_equal(G[k, col : col + count], reference_normals(seed, label, l, count))
                col += count


class TestPointMassOracleMode:
    def test_matches_sphere_moment_closed_form(self):
        # L = 1e4 projections over single-atom mixtures; sphere-moment formula
        # cross-checked below by plain Monte Carlo
        d, p, L = 3, 1, 10_000
        x0 = np.array([[0.3, -1.2, 0.7]])
        y0 = np.array([[1.1, 0.4, -0.2]])
        delta = float(np.linalg.norm(x0 - y0))
        cfg = GssdConfig(
            sigma=1.0, num_projections=L,
            divergence=DivergenceSpec("wasserstein", p=p),
            seed=RngRoot(42), mode="mixture_oracle", oracle_grid=1000,
        )
        est = estimate(SampleSet(x0), SampleSet(y0), cfg)
        expect = delta * sphere_abs_moment(p, d)
        assert est.mean_pow == pytest.approx(expect, rel=0.02)

    def test_sphere_moment_formula_against_mc(self):
        d = 3
        z = RngRoot(123).stream("sphere-mc", 0).normals(3 * 10**6).reshape(-1, 3)
        u1 = z[:, 0] / np.linalg.norm(z, axis=1)
        for p in (1, 2, 3):
            mc = float(np.mean(np.abs(u1) ** p))
            assert sphere_abs_moment(p, d) == pytest.approx(mc, rel=5e-3)


class TestEstimatorProperties:
    def test_symmetry_within_noise(self):
        for seed in range(4):
            X = gauss_set(seed, "sym-x", 300, 6)
            Y = gauss_set(seed, "sym-y", 300, 6, mean=0.5)
            cfg = wcfg(20 + seed, sigma=1.0, L=64)
            exy = estimate(X, Y, cfg)
            eyx = estimate(Y, X, cfg)
            assert abs(exy.mean_pow - eyx.mean_pow) <= 3 * (exy.std_error + eyx.std_error)

    @pytest.mark.parametrize("kind", ["wasserstein", "mmd", "sinkhorn"])
    def test_nonnegative_mean(self, kind):
        spec = DivergenceSpec(kind, p=2, sinkhorn_max_iter=200)
        X = gauss_set(7, "nn-x", 50, 4)
        Y = gauss_set(7, "nn-y", 50, 4)
        cfg = GssdConfig(sigma=1.0, num_projections=16, divergence=spec, seed=RngRoot(30))
        est = estimate(X, Y, cfg)
        assert est.mean_pow >= -spec.sinkhorn_tol

    def test_consistency_in_projection_count(self):
        # |estimate(L) - estimate(L_ref)| should decay like 1/sqrt(L); per-index
        # streams make the L-estimate the prefix mean of the reference values
        X = gauss_set(40, "cl-x", 200, 10)
        Y = gauss_set(40, "cl-y", 200, 10)
        Ls = np.array([10, 50, 100, 500, 1000])
        L_ref = 10_000
        errs = np.zeros((20, Ls.size))
        for s in range(20):
            ref = estimate(X, Y, wcfg(1000 + s, sigma=1.0, L=L_ref))
            prefix_means = np.cumsum(ref.per_projection) / np.arange(1, L_ref + 1)
            errs[s] = np.abs(prefix_means[Ls - 1] - ref.mean_pow)
        mean_err = errs.mean(axis=0)
        slope = np.polyfit(np.log(Ls), np.log(mean_err), 1)[0]
        assert -0.7 <= slope <= -0.3

    @pytest.mark.parametrize("spec", [
        DivergenceSpec("wasserstein", p=2.0),
        # every slice's trapezoid rule has 50 to 66 nodes on 5 to 7 anchors
        DivergenceSpec("mmd", p=2.0, bandwidth=0.7),
    ], ids=["wasserstein", "mmd-fixed"])
    def test_prefix_consistency_is_exact(self, spec):
        X = gauss_set(41, "pf-x", 64, 4)
        Y = gauss_set(41, "pf-y", 64, 4)
        big = estimate(X, Y, wcfg(50, sigma=1.0, L=40, divergence=spec))
        small = estimate(X, Y, wcfg(50, sigma=1.0, L=12, divergence=spec))
        assert np.array_equal(big.per_projection[:12], small.per_projection)
        assert small.mean_pow == float(np.mean(big.per_projection[:12]))

    def test_root_triangle_inequality_statistically(self):
        for seed in range(3):
            X = gauss_set(seed, "tri-x", 250, 5)
            Y = gauss_set(seed, "tri-y", 250, 5, mean=0.8)
            Z = gauss_set(seed, "tri-z", 250, 5, mean=1.6)
            cfg = wcfg(60 + seed, sigma=1.0, L=96)
            exz = estimate(X, Z, cfg)
            exy = estimate(X, Y, cfg)
            eyz = estimate(Y, Z, cfg)
            def root_se(e):
                return e.std_error / (2 * max(e.root, 1e-9))
            slack = 3 * (root_se(exz) + root_se(exy) + root_se(eyz))
            assert exz.root <= exy.root + eyz.root + slack

    def test_modes_agree_on_gaussian_toy(self):
        # the double-sampling value and the exact mixture value must agree
        # per slice at n = 1e4 (shared direction streams)
        n, d, sigma = 10_000, 5, 1.0
        X = gauss_set(70, "mode-x", n, d)
        Y = gauss_set(70, "mode-y", n, d, mean=1.5, scale=2.0)
        dbl = estimate(X, Y, wcfg(71, sigma=sigma, L=1))
        orc = estimate(
            X,
            Y,
            GssdConfig(
                sigma=sigma, num_projections=1,
                divergence=DivergenceSpec("wasserstein", p=2),
                seed=RngRoot(71), mode="mixture_oracle", oracle_grid=1000,
            ),
        )
        assert dbl.mean_pow == pytest.approx(orc.mean_pow, rel=0.05)


class TestSweepSigma:
    def test_duplicate_sigmas_identical(self):
        X = gauss_set(9, "sw-x", 40, 3)
        Y = gauss_set(9, "sw-y", 40, 3)
        a, b = sweep_sigma(X, Y, [1.5, 1.5], wcfg(80, L=16))
        assert np.array_equal(a.per_projection, b.per_projection)

    def test_monotone_decrease_on_scaled_pair(self):
        # population slice values (sqrt(1+s^2) - sqrt(4+s^2))^2 + shift term
        # decrease in s; common random numbers keep the comparison tight
        X = gauss_set(10, "mono-x", 2000, 50)
        Y = gauss_set(10, "mono-y", 2000, 50, mean=1.0, scale=2.0)
        ests = sweep_sigma(X, Y, [0.0, 1.0, 3.0], wcfg(81, L=200))
        for lo, hi in zip(ests, ests[1:]):
            assert hi.mean_pow <= lo.mean_pow + 2 * (lo.std_error + hi.std_error)

    def test_sigma_to_zero_limit(self):
        X = gauss_set(11, "lim-x", 500, 10)
        Y = gauss_set(11, "lim-y", 500, 10, mean=0.5)
        e0, e1 = sweep_sigma(X, Y, [0.0, 1e-3], wcfg(82, L=64))
        assert abs(e1.mean_pow - e0.mean_pow) < 3 * (e0.std_error + e1.std_error) + 1e-3


class TestTwoSigmaCheck:
    def test_equal_sigmas_gap_vanishes_and_holds(self):
        X = gauss_set(13, "ts-x", 200, 4)
        Y = gauss_set(13, "ts-y", 200, 4, mean=0.7)
        rep = two_sigma_check(X, Y, 1.0, 1.0, wcfg(90, L=64))
        assert rep.gap == 0.0
        assert rep.holds

    def test_additive_gap_value_p1(self):
        X = gauss_set(14, "gap-x", 50, 3)
        Y = gauss_set(14, "gap-y", 50, 3)
        rep = two_sigma_check(X, Y, 0.0, 1.0, wcfg(91, p=1.0, L=16))
        assert rep.gap == pytest.approx(2.0**2.5, rel=1e-14)

    def test_gaussian_toy_holds(self):
        X = gauss_set(15, "hold-x", 400, 8)
        Y = gauss_set(15, "hold-y", 400, 8, mean=1.0)
        rep = two_sigma_check(X, Y, 1.0, 2.0, wcfg(92, L=96))
        assert rep.holds

    def test_order_and_kind_guards(self):
        X = gauss_set(16, "g-x", 20, 2)
        with pytest.raises(ValueError):
            two_sigma_check(X, X, 2.0, 1.0, wcfg(93))
        mmd_cfg = GssdConfig(
            sigma=1.0, num_projections=8,
            divergence=DivergenceSpec("mmd", p=2), seed=RngRoot(0),
        )
        with pytest.raises(ValueError):
            two_sigma_check(X, X, 0.5, 1.0, mmd_cfg)
