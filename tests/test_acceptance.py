"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from gssd.bounds import PointMass, gaussian_abs_moment, kummer_1f1, sample_bound, upsilon_constant, xi_constant
from gssd.cli import main as cli_main
from gssd.divergences import DivergenceSpec, mmd_sq, sinkhorn_div, wasserstein_pp
from gssd.estimator import GssdConfig, estimate, sweep_sigma, two_sigma_check
from gssd.experiments import ExperimentConfig, fit_loglog_slope, run_experiment
from gssd.rng import RngRoot
from gssd.slicing import SampleSet


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def gauss_set(seed, label, n, d, mean=0.0, scale=1.0):
    z = RngRoot(seed).stream(label, 0).normals(n * d).reshape(n, d)
    return SampleSet(mean + scale * z)


def curve_by_n(rows, d):
    means = {}
    for n in sorted({r.n for r in rows}):
        vals = [r.value for r in rows if r.n == n and r.d == d]
        means[n] = float(np.mean(vals))
    return means


def test_criterion_1_sample_complexity_rate():
    t0 = time.monotonic()
    cfg = ExperimentConfig(
        command="sample-complexity",
        dimensions=(50,),
        sample_sizes=(100, 400, 1600, 6400),
        sigmas=(3.0,),
        num_runs=20,
        divergences=("swd",),
        num_projections=50,
        seed=42,
    )
    rows = run_experiment(cfg)
    means = curve_by_n(rows, 50)
    # the O(n^{-1/2}) rate is exhibited by the estimated distance; the squared
    # estimate between same-distribution sets decays strictly faster
    slope = fit_loglog_slope([(n, math.sqrt(v)) for n, v in means.items()])
    elapsed = time.monotonic() - t0
    ok = -0.65 <= slope <= -0.35 and elapsed < 300
    report("1 sample-complexity-rate", ok, f"root-scale slope {slope:.3f} in [-0.65,-0.35], {elapsed:.0f}s < 300s")


def test_criterion_2_dimension_independence():
    t0 = time.monotonic()
    cfg = ExperimentConfig(
        command="sample-complexity",
        dimensions=(10, 50, 100),
        sample_sizes=(100, 400, 1600, 6400),
        sigmas=(3.0,),
        num_runs=20,
        divergences=("swd",),
        num_projections=50,
        seed=42,
    )
    rows = run_experiment(cfg)
    curves = {d: curve_by_n(rows, d) for d in (10, 50, 100)}
    worst = 1.0
    for n in (100, 400, 1600, 6400):
        vals = [curves[d][n] for d in (10, 50, 100)]
        worst = max(worst, max(vals) / min(vals))
    elapsed = time.monotonic() - t0
    ok = worst <= 2.0 and elapsed < 300
    report("2 dimension-independence", ok, f"worst pointwise ratio {worst:.2f} <= 2, {elapsed:.0f}s < 300s")


def test_criterion_3_projection_complexity():
    t0 = time.monotonic()
    cfg = ExperimentConfig(
        command="projection-complexity",
        dimensions=(50,),
        sample_sizes=(500,),
        sigmas=(3.0,),
        num_runs=20,
        divergences=("swd",),
        num_projections=10_000,
        seed=42,
        l_grid=(50, 100, 200, 500, 1000),
    )
    rows = run_experiment(cfg)
    mean_err = {
        L: float(np.mean([r.value for r in rows if r.L == L])) for L in cfg.l_grid
    }
    ratio = mean_err[50] / mean_err[1000]
    slope = fit_loglog_slope(list(mean_err.items()))
    elapsed = time.monotonic() - t0
    ok = ratio <= 10.0 and -0.7 <= slope <= -0.3 and elapsed < 180
    report(
        "3 projection-complexity", ok,
        f"err(50)/err(1000) = {ratio:.2f} <= 10, slope {slope:.3f} in [-0.7,-0.3], {elapsed:.0f}s < 180s",
    )


def test_criterion_4_noise_monotonicity_and_continuity():
    X = gauss_set(42, "nm-x", 2000, 50)
    Y = gauss_set(42, "nm-y", 2000, 50, mean=1.0, scale=2.0)
    cfg = GssdConfig(
        sigma=0.0, num_projections=200,
        divergence=DivergenceSpec("wasserstein", p=2), seed=RngRoot(42),
    )
    ests = sweep_sigma(X, Y, [0.0, 1.0, 3.0, 5.0], cfg)
    violations = []
    for lo, hi in zip(ests, ests[1:]):
        excess = hi.mean_pow - lo.mean_pow
        if excess > 2 * (lo.std_error + hi.std_error):
            violations.append(excess)
    e0, e_eps = sweep_sigma(X, Y, [0.0, 1e-3], cfg)
    cont_gap = abs(e_eps.mean_pow - e0.mean_pow)
    cont_tol = 3 * (e0.std_error + e_eps.std_error) + 1e-3
    ok = not violations and cont_gap < cont_tol
    vals = ", ".join(f"{e.config.sigma:g}:{e.mean_pow:.4f}" for e in ests)
    report(
        "4 noise-monotonicity", ok,
        f"means [{vals}] non-increasing within 2*stderr; |sigma=1e-3 - sigma=0| = {cont_gap:.2e} < {cont_tol:.2e}",
    )


def test_criterion_5_two_sigma_inequality():
    held = 0
    for inst in range(20):
        prm = RngRoot(202).stream("ts-params", inst).normals(6)
        m2 = float(prm[0])
        s1, s2 = 0.5 + abs(float(prm[1])), 0.5 + abs(float(prm[2]))
        sig1 = abs(float(prm[3]))
        sig2 = sig1 + abs(float(prm[4])) + 0.1
        X = gauss_set(300 + inst, "ts-x", 500, 8, mean=0.0, scale=s1)
        Y = gauss_set(300 + inst, "ts-y", 500, 8, mean=m2, scale=s2)
        cfg = GssdConfig(
            sigma=sig1, num_projections=100,
            divergence=DivergenceSpec("wasserstein", p=2), seed=RngRoot(400 + inst),
        )
        rep = two_sigma_check(X, Y, sig1, sig2, cfg)
        held += rep.holds
    ok = held == 20
    report("5 two-sigma-inequality", ok, f"{held}/20 random Gaussian instances hold with 3*stderr slack")


def test_criterion_6_displacement_argmin():
    cfg = ExperimentConfig(
        command="displacement",
        dimensions=(50,),
        sample_sizes=(64,),
        sigmas=(3.0,),
        num_runs=3,
        divergences=("swd", "mmd", "skd"),
        num_projections=16,
        seed=42,
        sinkhorn_max_iter=150,
        s_grid=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
    )
    rows = run_experiment(cfg)
    argmins = {}
    for name in cfg.divergences:
        curve = {}
        for r in rows:
            if r.divergence != name:
                continue
            s = float(r.experiment.split("s=")[1].rstrip("]"))
            curve.setdefault(s, []).append(r.value)
        means = {s: float(np.mean(v)) for s, v in curve.items()}
        argmins[name] = min(means, key=means.get)
    ok = all(abs(a - 2.0) <= 0.5 for a in argmins.values())
    report("6 displacement-argmin", ok, f"argmins {argmins} all within 2.0 +/- 0.5")


def test_criterion_7_exact_oracles():
    # (a) permutation brute force, n <= 6
    rng = np.random.default_rng(1)
    ok_a = True
    for n in (2, 3, 4, 5, 6):
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        for p in (1, 2):
            brute = min(
                float(np.mean(np.abs(x - y[list(perm)]) ** p))
                for perm in itertools.permutations(range(n))
            )
            ok_a &= abs(wasserstein_pp(x, y, p) - brute) <= 1e-12

    # (b) Gaussian closed form at n = 1e5
    n = 10**5
    x = 0.0 + 1.0 * RngRoot(7).stream("c7b-x", 0).normals(n)
    y = 1.0 + 2.0 * RngRoot(7).stream("c7b-y", 0).normals(n)
    w2 = math.sqrt(wasserstein_pp(x, y, 2))
    target = math.sqrt(1.0**2 + 1.0**2)
    ok_b = abs(w2 - target) / target <= 0.02

    # (c) point-mass smoothed value in oracle mode at L = 1e4
    d, p = 3, 1
    x0 = np.array([[0.3, -1.2, 0.7]])
    y0 = np.array([[1.1, 0.4, -0.2]])
    delta = float(np.linalg.norm(x0 - y0))
    m_p = math.exp(gammaln(d / 2) + gammaln((p + 1) / 2) - 0.5 * math.log(math.pi) - gammaln((d + p) / 2))
    cfg = GssdConfig(
        sigma=1.0, num_projections=10_000,
        divergence=DivergenceSpec("wasserstein", p=p),
        seed=RngRoot(42), mode="mixture_oracle", oracle_grid=1000,
    )
    est = estimate(SampleSet(x0), SampleSet(y0), cfg)
    ok_c = abs(est.mean_pow - delta * m_p) / (delta * m_p) <= 0.02

    # (d) two-atom MMD closed form
    ok_d = abs(mmd_sq([0.0], [1.0], 1.0) - 2.0 * (1.0 - math.exp(-0.5))) <= 1e-12

    # (e) self Sinkhorn divergence
    xs = np.random.default_rng(2).normal(size=40)
    ok_e = abs(sinkhorn_div(xs, xs, DivergenceSpec("sinkhorn", p=2)).value) <= 1e-6

    ok = ok_a and ok_b and ok_c and ok_d and ok_e
    report(
        "7 exact-oracles", ok,
        f"a:{ok_a} b:{ok_b} (W2 {w2:.4f} vs {target:.4f}) c:{ok_c} ({est.mean_pow:.4f} vs {delta * m_p:.4f}) d:{ok_d} e:{ok_e}",
    )


def test_criterion_8_bound_machinery():
    # quadrature agreement at 1e-8 relative
    ok_moment = True
    for q, s in ((1.0, 1.0), (2.5, 0.7), (4.0, 2.0)):
        dens = lambda t: abs(t) ** q * math.exp(-0.5 * (t / s) ** 2) / (s * math.sqrt(2 * math.pi))
        want, _ = quad(dens, -np.inf, np.inf, limit=200)
        ok_moment &= abs(gaussian_abs_moment(q, s) - want) / want <= 1e-8

    ok_kummer = kummer_1f1(-1, 0.5, 1.0) == -1.0
    ok_upsilon = abs(upsilon_constant(1, 1.0, PointMass(1.0), 1.0) - 2.0) <= 1e-12

    vals = [sample_bound(n, 1.3, 0.7) for n in range(3, 500)]
    ok_bound = all(a > b for a, b in zip(vals, vals[1:]))

    ok_guard = False
    try:
        xi_constant(2, 1.0, 1.2, PointMass())
    except ValueError:
        ok_guard = True

    ok = ok_moment and ok_kummer and ok_upsilon and ok_bound and ok_guard
    report(
        "8 bound-machinery", ok,
        f"moment-quadrature:{ok_moment} kummer:{ok_kummer} upsilon:{ok_upsilon} "
        f"decreasing:{ok_bound} vartheta-guard:{ok_guard}",
    )


def test_criterion_9_determinism(tmp_path):
    args = [
        "noise-sweep", "--dim", "8", "--sizes", "64", "--sigmas", "0,1",
        "--runs", "1", "--projections", "8", "--div", "swd,mmd,skd",
        "--sinkhorn-max-iter", "120", "--seed", "42",
    ]
    paths = {
        "w1a": tmp_path / "w1a.csv",
        "w1b": tmp_path / "w1b.csv",
        "w8": tmp_path / "w8.csv",
    }
    assert cli_main(args + ["--workers", "1", "--out", str(paths["w1a"])]) == 0
    assert cli_main(args + ["--workers", "1", "--out", str(paths["w1b"])]) == 0
    assert cli_main(args + ["--workers", "8", "--out", str(paths["w8"])]) == 0

    def value_columns(path):
        # everything except the wall-clock column; workers echo differs in the
        # config line, so compare from the column header on
        lines = path.read_text().splitlines()
        start = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        return [",".join(ln.split(",")[:-1]) for ln in lines[start:]]

    rerun_ok = value_columns(paths["w1a"]) == value_columns(paths["w1b"])
    workers_ok = value_columns(paths["w1a"]) == value_columns(paths["w8"])
    ok = rerun_ok and workers_ok
    report("9 determinism", ok, f"rerun identical:{rerun_ok}, 1-vs-8 workers identical:{workers_ok}")
