"""The benchmark's three fixed workloads over gssd's public API.

A workload makes its inputs from the seed (numpy's Philox generator for the
data, ``RngRoot(seed)`` for gssd's streams), runs one fixed job at a given
worker count, and checks a job's result against slow references.  A job is a
sequence of parts, each one call (or one sweep) into gssd, which the
untraced run times one by one.  The timed
job calls only ``estimate``, ``sweep_sigma``, ``compare``, ``GssdConfig``,
``DivergenceSpec``, ``RngRoot``, ``SampleSet`` and ``ExperimentConfig``; the
checks also rebuild slices through ``sample_direction``, ``project`` and
``smooth_double``.  Functions are looked up on the ``gssd`` module at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gssd
import reference

P = 2.0  # order of every divergence in the benchmark
SIGMAS = (0.0, 1.0, 3.0, 5.0, 15.0)  # the noise-sweep grid of the README


def config(**fields) -> gssd.GssdConfig:
    """A GssdConfig, passing ``order`` only while that field exists."""
    if "order" in {f.name for f in dataclasses.fields(gssd.GssdConfig)}:
        fields["order"] = fields["divergence"].p
    return gssd.GssdConfig(**fields)


def gaussian(rng: np.random.Generator, n: int, d: int, shift: float = 0.0) -> np.ndarray:
    return rng.standard_normal((n, d)) + shift


def slice_pair(X, Y, root, l: int, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed slices of projection l, rebuilt from the same keyed streams as ``estimate``."""
    u = gssd.sample_direction(X.d, root.stream("proj", l))
    out = []
    for S, label in ((X, "noisex"), (Y, "noisey")):
        smoothed = gssd.smooth_double(gssd.project(S, u), sigma, root.stream(label, l))
        out.append(np.asarray(getattr(smoothed, "values", smoothed)))
    return out[0], out[1]


def projections(X, Y, root, l: int) -> tuple[np.ndarray, np.ndarray]:
    u = gssd.sample_direction(X.d, root.stream("proj", l))
    return np.asarray(gssd.project(X, u)), np.asarray(gssd.project(Y, u))


def close(got: float, want: float, rtol: float, atol: float) -> tuple[bool, str]:
    err = abs(got - want)
    return bool(err <= rtol * abs(want) + atol), f"got {got!r}, reference {want!r}, |diff| {err:.2e}"


def fingerprint(*estimates) -> bytes:
    """Bytes that are equal exactly when the per-projection values are bit-identical."""
    return b"".join(np.ascontiguousarray(e.per_projection).tobytes() for e in estimates)


def check_indices(seed: int, L: int, k: int) -> list[int]:
    """k distinct projection indices to rebuild, drawn from the seed."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 99])))
    return sorted(int(i) for i in rng.choice(L, size=min(k, L), replace=False))


@dataclass
class Workload:
    make_inputs: Callable[[int, str], dict]  # (seed, work directory) -> inputs
    parts: dict  # name -> (inputs, workers) -> (fingerprint bytes, result); the job runs them in order
    checks: Callable[[dict, dict], list]  # (inputs, {part: result}) -> [(label, ok, detail)]
    kinds: tuple  # divergence kinds the job uses; the warm-up touches each

    def job(self, inputs: dict, workers: int) -> tuple[bytes, dict]:
        """The whole job: every part in order; returns the joined fingerprints and {part: result}."""
        prints, results = b"", {}
        for name, part in self.parts.items():
            fp, results[name] = part(inputs, workers)
            prints += fp
        return prints, results


def warm_up(inputs: dict, kinds: tuple) -> None:
    """One small call per divergence kind, so lazy imports and set-up are paid before timing.

    Sinkhorn is capped at a few iterations, so the warm-up costs the same on every seed.
    """
    X = gssd.SampleSet(inputs["X"].data[:32])
    Y = gssd.SampleSet(inputs["Y"].data[:24])
    for kind in kinds:
        mode = "mixture_oracle" if kind == "oracle" else "double_empirical"
        spec = gssd.DivergenceSpec("wasserstein" if kind == "oracle" else kind, p=P, sinkhorn_max_iter=10)
        cfg = config(sigma=1.0, num_projections=2, divergence=spec, seed=gssd.RngRoot(0), mode=mode, oracle_grid=1000)
        gssd.estimate(X, Y, cfg, workers=1)


# --- swd-proj ---------------------------------------------------------------
# The reference job of `projection-complexity` and acceptance test 3:
# Wasserstein p = 2, n = m = 500, d = 50, sigma = 1, L = 10^4.  Equal sizes run
# the vectorised block path, where about 70% of the time is in `rng` (three
# stream constructions and three `normals` calls per projection) and the only
# divergence work is the batched sort.  It loads `rng` and `slicing`, bypasses
# the base divergences, and is where worker scaling (`speedup_w2`) shows.

SWD_L = 10_000


def swd_inputs(seed: int, workdir: str) -> dict:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 1])))
    X = gssd.SampleSet(gaussian(rng, 500, 50))
    Y = gssd.SampleSet(gaussian(rng, 500, 50, shift=0.3))
    spec = gssd.DivergenceSpec("wasserstein", p=P)
    cfg = config(sigma=1.0, num_projections=SWD_L, divergence=spec, seed=gssd.RngRoot(seed))
    return {"seed": seed, "X": X, "Y": Y, "cfg": cfg}


def swd_estimate(inp: dict, workers: int):
    est = gssd.estimate(inp["X"], inp["Y"], inp["cfg"], workers=workers)
    return fingerprint(est), est


def swd_checks(inp: dict, result: dict) -> list:
    out = []
    est = result["estimate"]
    root, X, Y = inp["cfg"].seed, inp["X"], inp["Y"]
    for l in check_indices(inp["seed"], SWD_L, 16):
        tx, ty = slice_pair(X, Y, root, l, 1.0)
        ok, detail = close(float(est.per_projection[l]), gssd.wasserstein_pp(tx, ty, P), 1e-9, 1e-12)
        out.append((f"swd slice {l} vs wasserstein_pp", ok, detail))
    return out


# --- sweep-mmd --------------------------------------------------------------
# `sweep_sigma` over sigma = 0, 1, 3, 5, 15 with unequal sizes n = 2000,
# m = 1600, d = 50, mean shift 0.3: Wasserstein at L = 200, then MMD with the
# mean-pairwise bandwidth at L = 4.  Unequal sizes force the generic
# per-projection path, so `estimator` and `slicing` run differently from
# swd-proj; the sweep re-draws every stream for each sigma (the redundant work
# of ROADMAP item 3); and the O(n^2) `mmd_sq` does most of the work (the target
# of ROADMAP item 4).

SWEEP_L = {"wasserstein": 200, "mmd": 4}


def sweep_inputs(seed: int, workdir: str) -> dict:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 2])))
    X = gssd.SampleSet(gaussian(rng, 2000, 50))
    Y = gssd.SampleSet(gaussian(rng, 1600, 50, shift=0.3))
    cfgs = {
        kind: config(sigma=0.0, num_projections=L, divergence=gssd.DivergenceSpec(kind, p=P), seed=gssd.RngRoot(seed))
        for kind, L in SWEEP_L.items()
    }
    return {"seed": seed, "X": X, "Y": Y, "cfgs": cfgs}


def sweep(kind: str):
    def part(inp: dict, workers: int):
        ests = gssd.sweep_sigma(inp["X"], inp["Y"], SIGMAS, inp["cfgs"][kind], workers=workers)
        return fingerprint(*ests), ests

    return part


def sweep_checks(inp: dict, result) -> list:
    out = []
    X, Y, root = inp["X"], inp["Y"], inp["cfgs"]["wasserstein"].seed
    for s, est in zip(SIGMAS, result["wasserstein"]):
        for l in check_indices(inp["seed"], SWEEP_L["wasserstein"], 2):
            tx, ty = slice_pair(X, Y, root, l, s)
            ok, detail = close(float(est.per_projection[l]), gssd.wasserstein_pp(tx, ty, P), 1e-9, 1e-12)
            out.append((f"swd sigma={s:g} slice {l} vs wasserstein_pp", ok, detail))
    for s, est in zip(SIGMAS, result["mmd"]):
        if s not in (1.0, 15.0):
            continue
        for l in (0, SWEEP_L["mmd"] - 1):
            tx, ty = slice_pair(X, Y, root, l, s)
            want = max(reference.mmd_sq(tx, ty, reference.mean_pairwise_distance(tx, ty)), 0.0) ** (P / 2)
            ok, detail = close(float(est.per_projection[l]), want, 1e-8, 1e-10)
            out.append((f"mmd sigma={s:g} slice {l} vs dense MMD^2", ok, detail))
    return out


# --- exact-routes -----------------------------------------------------------
# The slow routes that fast paths must fall back on or be checked against:
#   * debiased Sinkhorn (eps = 0.1, sigma = 1, n = m = 200, d = 10, L = 2) run
#     through `compare()` on CSV files written at set-up, which also covers
#     `experiments.read_matrix_csv`;
#   * the `mixture_oracle` at n = 1000, m = 800, grid 1000, L = 1, on samples
#     of its own (at n = 2000 one slice took 2.2 s and left room for only
#     two or three timed jobs in a run);
#   * MMD at a fixed narrow bandwidth of 0.1 (n = 2000, m = 1600, L = 2), where
#     ROADMAP item 4's quadrature must fall back to the exact sum.
# It barely touches `rng`: ROADMAP items 3 and 4 should leave it unchanged,
# items 2 (Sinkhorn) and 5 (oracle) should move it.
#
# The Sinkhorn instance is the one of SKD_SEED, whatever --seed is.  A slice
# takes 1400 to 3000 iterations depending on its data, which made wall_s on
# this workload spread by 15-28% across seeds; one fixed instance keeps that
# work the same in every run.  It is measured as it stands: one of its two
# slices stops unconverged at the 1000-iteration cap at this commit.

SKD_SEED = 0
EXACT_SKD_L = 2
EXACT_MMD_L = 2
EXACT_MMD_BANDWIDTH = 0.1
ORACLE_GRID = 1000
ORACLE_SIZES = (1000, 800)


def write_csv(path: str, data: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"c{j}" for j in range(data.shape[1])) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in data.tolist())


def exact_inputs(seed: int, workdir: str) -> dict:
    skd_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([SKD_SEED, 3])))
    paths = {}
    skd = {}
    for name, shift in (("x", 0.0), ("y", 0.3)):
        skd[name] = gaussian(skd_rng, 200, 10, shift)
        paths[name] = os.path.join(workdir, f"exact-routes-{name}.csv")
        write_csv(paths[name], skd[name])
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 3])))
    X = gssd.SampleSet(gaussian(rng, 2000, 10))
    Y = gssd.SampleSet(gaussian(rng, 1600, 10, shift=0.3))
    OX = gssd.SampleSet(gaussian(rng, ORACLE_SIZES[0], 10))
    OY = gssd.SampleSet(gaussian(rng, ORACLE_SIZES[1], 10, shift=0.3))
    root = gssd.RngRoot(seed)
    wasserstein = gssd.DivergenceSpec("wasserstein", p=P)
    return {
        "seed": seed,
        "X": X,
        "Y": Y,
        "OX": OX,
        "OY": OY,
        "skd": skd,
        "paths": paths,
        "oracle": config(sigma=1.0, num_projections=1, divergence=wasserstein, seed=root,
                         mode="mixture_oracle", oracle_grid=ORACLE_GRID),
        "mmd": config(sigma=1.0, num_projections=EXACT_MMD_L,
                      divergence=gssd.DivergenceSpec("mmd", p=P, bandwidth=EXACT_MMD_BANDWIDTH), seed=root),
    }


def exact_sinkhorn(inp: dict, workers: int):
    cfg = gssd.ExperimentConfig(
        command="compare", divergences=("skd",), sigmas=(1.0,), num_projections=EXACT_SKD_L,
        epsilon=0.1, seed=SKD_SEED, workers=workers,
    )
    report = gssd.compare(inp["paths"]["x"], inp["paths"]["y"], cfg)
    summary = np.array([report["mean_pow"], report["std_error"], report.get("unconverged_projections", -1)])
    return summary.tobytes(), report


def exact_oracle(inp: dict, workers: int):
    est = gssd.estimate(inp["OX"], inp["OY"], inp["oracle"], workers=workers)
    return fingerprint(est), est


def exact_mmd(inp: dict, workers: int):
    est = gssd.estimate(inp["X"], inp["Y"], inp["mmd"], workers=workers)
    return fingerprint(est), est


def exact_checks(inp: dict, result) -> list:
    out = []
    X, Y = inp["X"], inp["Y"]
    # compare() keys its streams by RngRoot(seed).child("compare", 0)
    root = gssd.RngRoot(SKD_SEED).child("compare", 0)
    Xs, Ys = gssd.SampleSet(inp["skd"]["x"]), gssd.SampleSet(inp["skd"]["y"])
    want = np.mean([reference.sinkhorn_div(*slice_pair(Xs, Ys, root, l, 1.0), P, 0.1) for l in range(EXACT_SKD_L)])
    # the unconverged slice stops at a marginal error of 5e-6 and 6e-8 off in relative value
    ok, detail = close(float(result["sinkhorn"]["mean_pow"]), float(want), 1e-4, 1e-9)
    out.append(("sinkhorn compare() mean vs converged reference", ok, detail))
    root = inp["oracle"].seed
    px, py = projections(inp["OX"], inp["OY"], root, 0)
    want = reference.smoothed_wasserstein(px, py, 1.0, P, ORACLE_GRID)
    ok, detail = close(float(result["oracle"].per_projection[0]), want, 1e-6, 1e-10)
    out.append(("mixture oracle vs Newton quantiles", ok, detail))
    for l in range(EXACT_MMD_L):
        tx, ty = slice_pair(X, Y, root, l, 1.0)
        want = max(reference.mmd_sq(tx, ty, EXACT_MMD_BANDWIDTH), 0.0) ** (P / 2)
        ok, detail = close(float(result["mmd"].per_projection[l]), want, 1e-8, 1e-10)
        out.append((f"mmd h=0.1 slice {l} vs dense MMD^2", ok, detail))
    return out


WORKLOADS = {
    "swd-proj": Workload(swd_inputs, {"estimate": swd_estimate}, swd_checks, ("wasserstein",)),
    "sweep-mmd": Workload(sweep_inputs, {kind: sweep(kind) for kind in SWEEP_L}, sweep_checks, ("wasserstein", "mmd")),
    "exact-routes": Workload(exact_inputs, {"sinkhorn": exact_sinkhorn, "oracle": exact_oracle, "mmd": exact_mmd},
                             exact_checks, ("sinkhorn", "oracle", "mmd")),
}
