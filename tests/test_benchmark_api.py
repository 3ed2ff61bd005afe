"""Smoke test of the gssd API that the benchmark in ``perfbench/`` calls.

A rename of a function or config field the benchmark uses fails here, in the
test suite, and not first in a benchmark run.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

import gssd
from gssd import divergences


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    return workloads


def test_warm_up_and_slice_rebuild(workloads, tmp_path):
    inputs = workloads.swd_inputs(1, str(tmp_path))
    workloads.warm_up(inputs, ("wasserstein", "mmd", "sinkhorn", "oracle"))
    X, Y, cfg = inputs["X"], inputs["Y"], replace(inputs["cfg"], num_projections=4)
    est = gssd.estimate(X, Y, cfg)
    tx, ty = workloads.slice_pair(X, Y, cfg.seed, 3, cfg.sigma)
    assert est.per_projection[3] == gssd.wasserstein_pp(tx, ty, workloads.P)


def test_exact_routes_sinkhorn_converges_and_matches_the_reference(workloads, tmp_path):
    import reference

    inputs = workloads.exact_inputs(1, str(tmp_path))
    (print1, report), (print2, _) = (workloads.exact_sinkhorn(inputs, w) for w in (1, 2))
    assert print1 == print2
    assert report["unconverged_projections"] == 0
    # the slices compare() estimates on, rebuilt as the benchmark's own output check does
    root = gssd.RngRoot(workloads.SKD_SEED).child("compare", 0)
    X, Y = gssd.SampleSet(inputs["skd"]["x"]), gssd.SampleSet(inputs["skd"]["y"])
    slices = [workloads.slice_pair(X, Y, root, l, 1.0) for l in range(workloads.EXACT_SKD_L)]
    want = np.mean([reference.sinkhorn_div(tx, ty, workloads.P, 0.1) for tx, ty in slices])
    assert report["mean_pow"] == pytest.approx(want, rel=1e-11, abs=0.0)


def test_exact_routes_self_terms_stay_on_the_kernel(workloads, tmp_path, monkeypatch):
    # no row of these slices is nearly tied, so no self solve recomputes a row in the log domain
    inputs = workloads.exact_inputs(1, str(tmp_path))
    root = gssd.RngRoot(workloads.SKD_SEED).child("compare", 0)
    X, Y = gssd.SampleSet(inputs["skd"]["x"]), gssd.SampleSet(inputs["skd"]["y"])
    calls, inner = [], divergences._potential
    monkeypatch.setattr(divergences, "_potential", lambda *args: calls.append(args[1].shape) or inner(*args))
    for l in range(workloads.EXACT_SKD_L):
        for u in workloads.slice_pair(X, Y, root, l, 1.0):
            _, converged, _, _ = divergences._symmetric_ot(u, workloads.P, 0.1, 1e-9, 1000)
            assert converged
    assert calls == []


def test_exact_routes_oracle_matches_the_reference(workloads, tmp_path):
    import reference

    inputs = workloads.exact_inputs(1, str(tmp_path))
    (print1, est), (print2, _) = (workloads.exact_oracle(inputs, w) for w in (1, 2))
    assert print1 == print2
    # the projections the oracle estimates on, rebuilt as the benchmark's own output check does
    px, py = workloads.projections(inputs["OX"], inputs["OY"], inputs["oracle"].seed, 0)
    want = reference.smoothed_wasserstein(px, py, 1.0, workloads.P, workloads.ORACLE_GRID)
    assert est.per_projection[0] == pytest.approx(want, rel=1e-11, abs=0.0)


def oracle_passes(workloads, monkeypatch, px, py, sigma):
    """The benchmark's oracle value of the projections at sigma, and the (atoms, points) of each
    ``_mixture_taylor`` pass it makes."""
    passes, inner = [], divergences._mixture_taylor

    def counted(v, sigma, t):
        passes.append((v.size, t.size))
        return inner(v, sigma, t)

    monkeypatch.setattr(divergences, "_mixture_taylor", counted)
    return gssd.smoothed_wasserstein_oracle(px, py, sigma, workloads.P, workloads.ORACLE_GRID), passes


def test_exact_routes_oracle_makes_no_pass_beyond_its_knots(workloads, tmp_path, monkeypatch):
    # one pass per mixture, at its knots: one knot per 2 rho sigma of the brackets' span, so every level lies
    # within rho sigma of a knot; this instance spans about 13 sigma, below the 112 sigma of 512 knots
    inputs = workloads.exact_inputs(1, str(tmp_path))
    px, py = workloads.projections(inputs["OX"], inputs["OY"], inputs["oracle"].seed, 0)
    levels = (np.arange(workloads.ORACLE_GRID) + 0.5) / workloads.ORACLE_GRID
    z = ndtri(levels[[0, -1]])

    def sized(v):
        span = (v.max() + z[1]) - (v.min() + z[0])
        return math.ceil(span / (2 * divergences._TAYLOR_RADIUS)) + 1

    _, passes = oracle_passes(workloads, monkeypatch, px, py, 1.0)
    assert passes == [(px.size, sized(px)), (py.size, sized(py))]
    assert [t for _, t in passes] == [58, 59]


def test_oracle_span_past_the_knots_keeps_512_and_matches_the_reference(workloads, tmp_path, monkeypatch):
    # at sigma 0.05 the same projections span about 126 sigma, past the 112 sigma of 512 knots: each mixture
    # tabulates all 512 knots, some levels re-centre with passes of their own, and the value still holds against
    # the reference
    import reference

    inputs = workloads.exact_inputs(1, str(tmp_path))
    px, py = workloads.projections(inputs["OX"], inputs["OY"], inputs["oracle"].seed, 0)
    got, passes = oracle_passes(workloads, monkeypatch, px, py, 0.05)
    assert [t for v, t in passes if v == px.size][0] == [t for v, t in passes if v == py.size][0] == 512
    assert len(passes) > 2
    want = reference.smoothed_wasserstein(px, py, 0.05, workloads.P, workloads.ORACLE_GRID)
    assert got == pytest.approx(want, rel=1e-11, abs=0.0)


def test_exact_routes_job_passes_its_output_checks(workloads, tmp_path):
    inputs = workloads.exact_inputs(1, str(tmp_path))
    (print1, result), (print2, _) = (workloads.WORKLOADS["exact-routes"].job(inputs, w) for w in (1, 2))
    assert print1 == print2
    checks = workloads.exact_checks(inputs, result)
    assert checks and [(label, detail) for label, ok, detail in checks if not ok] == []


def test_swd_proj_job_is_worker_invariant_and_passes_its_output_checks(workloads, tmp_path):
    # with 2 workers the second block starts mid-tile, so its tile edges differ from those of 1 worker
    inputs = workloads.swd_inputs(1, str(tmp_path))
    (print1, result), (print2, _) = (workloads.WORKLOADS["swd-proj"].job(inputs, w) for w in (1, 2))
    assert print1 == print2
    checks = workloads.swd_checks(inputs, result)
    assert checks and [(label, detail) for label, ok, detail in checks if not ok] == []


def test_sweep_mmd_job_is_worker_invariant_and_passes_its_output_checks(workloads, tmp_path):
    inputs = workloads.sweep_inputs(1, str(tmp_path))
    (print1, result), (print2, _) = (workloads.WORKLOADS["sweep-mmd"].job(inputs, w) for w in (1, 2))
    assert print1 == print2
    checks = workloads.sweep_checks(inputs, result)
    assert checks and [(label, detail) for label, ok, detail in checks if not ok] == []


def longdouble_mmd_sq(x, y, bw, rows=128):
    """The V-statistic s^T K s summed in long double, a block of rows at a time."""
    v = np.concatenate([x, y]).astype(np.longdouble)
    s = np.concatenate([np.full(x.size, 1 / np.longdouble(x.size)), np.full(y.size, -1 / np.longdouble(y.size))])
    total = np.longdouble(0.0)
    for i in range(0, v.size, rows):
        z = (v[i : i + rows, None] - v) / np.longdouble(bw)
        total += s[i : i + rows] @ (np.exp(-0.5 * z * z) @ s)
    return total


def test_exact_mmd_route_holds_on_a_small_value(workloads, tmp_path, monkeypatch):
    # sweep-mmd seed 1, sigma 15, slice 3: MMD^2 is 4.3e-5, where (n + m)^2 kernel terms near 1 cancel
    inputs = workloads.sweep_inputs(1, str(tmp_path))
    tx, ty = workloads.slice_pair(inputs["X"], inputs["Y"], inputs["cfgs"]["mmd"].seed, 3, 15.0)
    bw = gssd.bandwidth_mean_pairwise(tx, ty)
    want = longdouble_mmd_sq(tx, ty, bw)
    assert float(want) == pytest.approx(4.337e-5, rel=1e-3)
    monkeypatch.setattr(divergences, "_quadrature_pair", lambda *args: (0.0, 1.0))  # the rules disagree
    got = gssd.mmd_sq(tx, ty, bw)
    assert float(abs(got - want)) <= 3e-13 * float(want)
