"""Desk-scale benchmark experiments with reproducible CSV/JSON output.

Each experiment writes long-format CSV: one row per (grid point, divergence,
run), with a ``#``-prefixed header block echoing the seed and the full
configuration.  All values are pure functions of the seed, so re-running a
command reproduces every column except the wall-clock timing one.

Experiments:

* ``sample-complexity``   -- estimate between fresh same-distribution Gaussian
  sets over a grid of sample sizes (optionally several dimensions).
* ``projection-complexity`` -- |estimate(L) - estimate(L_ref)| over a grid of
  projection counts, against a large-L reference.
* ``noise-sweep``         -- sigma sweep with common random numbers per run.
* ``displacement``        -- divergence between N(2*1, I) and N(s*1, I) over a
  grid of displacements s.
* ``compare``             -- one estimate between two CSV matrices, as JSON.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .divergences import DivergenceSpec
from .estimator import GssdConfig, estimate, sweep_sigma
from .rng import RngRoot
from .slicing import SampleSet

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "run_sample_complexity",
    "run_projection_complexity",
    "run_noise_sweep",
    "run_displacement",
    "compare",
    "fit_loglog_slope",
    "read_matrix_csv",
    "rows_csv",
    "DIVERGENCE_ALIASES",
]

DIVERGENCE_ALIASES = {"swd": "wasserstein", "mmd": "mmd", "skd": "sinkhorn"}

# unconverged is the count of projections of the estimate behind a row whose
# Sinkhorn solve did not converge; wall_ms is that estimate's time.  Rows that
# share one estimate (the projection-complexity reference run over its L grid)
# carry its count; one timed call that yields several rows (that reference run,
# a noise-sweep cell over its sigmas) has its time split evenly over them.
# Theory-bound rows carry 0 in both.  wall_ms stays the last column.
CSV_COLUMNS = (
    "experiment", "divergence", "d", "n", "sigma", "L", "run", "value", "std_error", "unconverged", "wall_ms"
)

PAIR_MODES = ("same", "shifted", "scaled")


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid and hyperparameters for one benchmark command."""

    command: str
    dimensions: tuple = (50,)
    sample_sizes: tuple = (100, 400, 1600, 6400)
    sigmas: tuple = (3.0,)
    num_runs: int = 20
    divergences: tuple = ("swd",)
    num_projections: int = 50
    order: float = 2.0
    epsilon: float = 0.1
    bandwidth: float | None = None
    sinkhorn_tol: float = 1e-9
    sinkhorn_max_iter: int = 1000
    seed: int = 42
    out: str | None = None
    workers: int = 1
    l_ref: int = 10_000
    l_grid: tuple = (50, 100, 200, 500, 1000)
    s_grid: tuple = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
    pair: str = "same"
    emit_bound: bool = False
    vartheta: float = 2.0
    c_p: float = 1.0

    def __post_init__(self) -> None:
        for name in ("dimensions", "sample_sizes", "sigmas", "divergences", "l_grid", "s_grid"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be non-empty")
        if self.num_runs < 1:
            raise ValueError("num_runs must be >= 1")
        if self.pair not in PAIR_MODES:
            raise ValueError(f"pair must be one of {PAIR_MODES}")
        bad = [d for d in self.divergences if d not in DIVERGENCE_ALIASES]
        if bad:
            raise ValueError(f"unknown divergence names {bad}; expected swd, mmd or skd")

    def divergence_spec(self, name: str) -> DivergenceSpec:
        return DivergenceSpec(
            kind=DIVERGENCE_ALIASES[name],
            p=self.order,
            epsilon=self.epsilon,
            bandwidth=self.bandwidth,
            sinkhorn_tol=self.sinkhorn_tol,
            sinkhorn_max_iter=self.sinkhorn_max_iter,
        )

    def echo(self) -> dict:
        """The configuration as written to output headers: every field but ``out`` and ``emit_bound``."""
        return {k: v for k, v in asdict(self).items() if k not in ("out", "emit_bound")}


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    divergence: str
    d: int
    n: int
    sigma: float
    L: int
    run: int
    value: float
    std_error: float
    unconverged: int
    wall_ms: float

    def as_csv(self) -> str:
        return ",".join(
            [
                self.experiment,
                self.divergence,
                repr(self.d),
                repr(self.n),
                repr(float(self.sigma)),
                repr(self.L),
                repr(self.run),
                repr(float(self.value)),
                repr(float(self.std_error)),
                repr(self.unconverged),
                f"{self.wall_ms:.3f}",
            ]
        )


def rows_csv(cfg: ExperimentConfig, rows: list[ResultRow]) -> str:
    """Long-format CSV text with a deterministic config header block, for a file or stdout."""
    lines = [
        f"# seed = {cfg.seed}",
        f"# version = {__version__}",
        f"# config = {json.dumps(cfg.echo(), sort_keys=True)}",
        ",".join(CSV_COLUMNS),
    ]
    lines.extend(r.as_csv() for r in rows)
    return "\n".join(lines) + "\n"


def gaussian_set(root: RngRoot, label: str, run: int, n: int, d: int, mean=0.0, scale=1.0) -> SampleSet:
    """n x d draws from N(mean, scale^2 I); mean/scale may be scalars or vectors."""
    z = root.child(label, run).stream("data", 0).normals(n * d).reshape(n, d)
    return SampleSet(np.asarray(mean) + np.asarray(scale) * z)


def _pair_for_run(cfg: ExperimentConfig, root: RngRoot, tag: str, run: int, n: int, d: int):
    """Draw the (X, Y) pair for one run according to the configured pair mode."""
    X = gaussian_set(root, f"{tag}/x", run, n, d)
    if cfg.pair == "same":
        Y = gaussian_set(root, f"{tag}/y", run, n, d)
    elif cfg.pair == "shifted":
        Y = gaussian_set(root, f"{tag}/y", run, n, d, mean=2.0)
    else:
        Y = gaussian_set(root, f"{tag}/y", run, n, d, mean=1.0, scale=2.0)
    return X, Y


def _estimator_config(cfg: ExperimentConfig, div_name: str, sigma: float, L: int, run_root: RngRoot) -> GssdConfig:
    return GssdConfig(
        sigma=float(sigma),
        num_projections=int(L),
        divergence=cfg.divergence_spec(div_name),
        seed=run_root,
    )


def run_sample_complexity(cfg: ExperimentConfig) -> list[ResultRow]:
    """Estimates between fresh same-distribution N(0, I_d) sets per (d, n, run)."""
    root = RngRoot(cfg.seed)
    sigma = cfg.sigmas[0]
    rows: list[ResultRow] = []
    for d in cfg.dimensions:
        for n in cfg.sample_sizes:
            for run in range(cfg.num_runs):
                tag = f"sc/d{d}/n{n}"
                X = gaussian_set(root, f"{tag}/x", run, n, d)
                Y = gaussian_set(root, f"{tag}/y", run, n, d)
                run_root = root.child(tag, run)
                for name in cfg.divergences:
                    t0 = time.perf_counter()
                    est = estimate(X, Y, _estimator_config(cfg, name, sigma, cfg.num_projections, run_root), workers=cfg.workers)
                    wall = (time.perf_counter() - t0) * 1e3
                    rows.append(
                        ResultRow(
                            "sample-complexity", name, d, n, sigma, cfg.num_projections, run,
                            est.mean_pow, est.std_error, est.unconverged, wall,
                        )
                    )
    if cfg.emit_bound:
        rows.extend(_bound_rows(cfg))
    return rows


def _bound_rows(cfg: ExperimentConfig) -> list[ResultRow]:
    """Theory envelope rows in the same schema, for overlay plotting."""
    from .bounds import TheoryBound, moments_spherical_gaussian, tail_spherical_gaussian

    sigma = cfg.sigmas[0]
    p = int(cfg.order)
    rows = []
    for d in cfg.dimensions:
        tb = TheoryBound.evaluate(
            p=p,
            sigma=sigma,
            tail_fn=tail_spherical_gaussian(d),
            moments=moments_spherical_gaussian(d),
            vartheta=cfg.vartheta,
            c_p=cfg.c_p,
        )
        for n in cfg.sample_sizes:
            rows.append(
                ResultRow("sample-complexity", "theory-bound", d, n, sigma, cfg.num_projections, 0, tb.at(n), 0.0, 0, 0.0)
            )
    return rows


def run_projection_complexity(cfg: ExperimentConfig) -> list[ResultRow]:
    """|estimate(L) - estimate(L_ref)| per L, sharing the projection prefix.

    Streams are keyed by projection index, so the L-projection estimate equals
    the mean of the first L per-projection values of the reference run; one
    reference evaluation per (divergence, run) yields the whole L grid.
    """
    root = RngRoot(cfg.seed)
    sigma = cfg.sigmas[0]
    d = cfg.dimensions[0]
    n = cfg.sample_sizes[0]
    if any(L > cfg.l_ref for L in cfg.l_grid):
        raise ValueError("projection grid entries must not exceed l_ref")
    rows: list[ResultRow] = []
    for run in range(cfg.num_runs):
        tag = f"pc/d{d}/n{n}"
        X = gaussian_set(root, f"{tag}/x", run, n, d)
        Y = gaussian_set(root, f"{tag}/y", run, n, d)
        run_root = root.child(tag, run)
        for name in cfg.divergences:
            t0 = time.perf_counter()
            ref = estimate(X, Y, _estimator_config(cfg, name, sigma, cfg.l_ref, run_root), workers=cfg.workers)
            wall = (time.perf_counter() - t0) * 1e3 / len(cfg.l_grid)
            for L in cfg.l_grid:
                prefix = ref.per_projection[:L]
                err = abs(float(np.mean(prefix)) - ref.mean_pow)
                se = float(np.std(prefix, ddof=1) / np.sqrt(L)) if L > 1 else 0.0
                rows.append(ResultRow("projection-complexity", name, d, n, sigma, L, run, err, se, ref.unconverged, wall))
    return rows


def run_noise_sweep(cfg: ExperimentConfig) -> list[ResultRow]:
    """Sample-complexity-style grid with a sigma sweep at every point.

    Within one (n, run) cell all sigma values share directions and standard
    noise draws (common random numbers), so sigma effects are paired.
    """
    root = RngRoot(cfg.seed)
    d = cfg.dimensions[0]
    rows: list[ResultRow] = []
    for n in cfg.sample_sizes:
        for run in range(cfg.num_runs):
            tag = f"ns/d{d}/n{n}/{cfg.pair}"
            X, Y = _pair_for_run(cfg, root, tag, run, n, d)
            run_root = root.child(tag, run)
            for name in cfg.divergences:
                base = _estimator_config(cfg, name, cfg.sigmas[0], cfg.num_projections, run_root)
                t0 = time.perf_counter()
                ests = sweep_sigma(X, Y, list(cfg.sigmas), base, workers=cfg.workers)
                wall = (time.perf_counter() - t0) * 1e3 / len(ests)
                for sigma, est in zip(cfg.sigmas, ests):
                    rows.append(
                        ResultRow(
                            "noise-sweep", name, d, n, sigma, cfg.num_projections, run,
                            est.mean_pow, est.std_error, est.unconverged, wall,
                        )
                    )
    return rows


def run_displacement(cfg: ExperimentConfig) -> list[ResultRow]:
    """Divergence between N(2*1_d, I) and N(s*1_d, I) over the displacement grid.

    The Gaussian residuals and all streams are shared across the grid within a
    run, so the curve in s is smooth and its minimum is a meaningful argmin.
    """
    root = RngRoot(cfg.seed)
    sigma = cfg.sigmas[0]
    d = cfg.dimensions[0]
    n = cfg.sample_sizes[0]
    rows: list[ResultRow] = []
    for run in range(cfg.num_runs):
        tag = f"disp/d{d}/n{n}"
        GX = gaussian_set(root, f"{tag}/x", run, n, d)
        GY = gaussian_set(root, f"{tag}/y", run, n, d)
        X = SampleSet(GX.data + 2.0)
        run_root = root.child(tag, run)
        for s in cfg.s_grid:
            Y = SampleSet(GY.data + float(s))
            for name in cfg.divergences:
                t0 = time.perf_counter()
                est = estimate(X, Y, _estimator_config(cfg, name, sigma, cfg.num_projections, run_root), workers=cfg.workers)
                wall = (time.perf_counter() - t0) * 1e3
                rows.append(
                    ResultRow(
                        f"displacement[s={s:g}]", name, d, n, sigma, cfg.num_projections, run,
                        est.mean_pow, est.std_error, est.unconverged, wall,
                    )
                )
    return rows


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read_matrix_csv(path: str) -> np.ndarray:
    """Parse a numeric n x d matrix; one optional header line; strict validation.

    The first line is a header only when none of its cells is a number;
    otherwise it is data.  Raises ValueError naming the offending row/column
    for ragged rows or non-numeric cells; no partial output.
    """
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            cells = [c.strip() for c in text.split(",")]
            if width is None:
                width = len(cells)  # the first line fixes the column count
                if not any(_is_number(c) for c in cells):
                    continue  # a header: no cell is a number
            if len(cells) != width:
                raise ValueError(f"{path}: row {lineno} has {len(cells)} columns, expected {width}")
            parsed = []
            for col, cell in enumerate(cells, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(f"{path}: non-numeric cell at row {lineno}, column {col}: {cell!r}") from None
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no numeric rows found")
    arr = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"{path}: non-finite value at data row {bad[0] + 1}, column {bad[1] + 1}")
    return arr


def compare(file_x: str, file_y: str, cfg: ExperimentConfig) -> dict:
    """One estimate between two CSV matrices; returns a flat JSON-ready report."""
    mx = read_matrix_csv(file_x)
    my = read_matrix_csv(file_y)
    if mx.shape[1] != my.shape[1]:
        raise ValueError(f"dimension mismatch: {file_x} has d={mx.shape[1]}, {file_y} has d={my.shape[1]}")
    X, Y = SampleSet(mx), SampleSet(my)
    root = RngRoot(cfg.seed).child("compare", 0)
    name = cfg.divergences[0]
    est = estimate(
        X, Y, _estimator_config(cfg, name, cfg.sigmas[0], cfg.num_projections, root), workers=cfg.workers
    )
    report = est.summary()
    report["n_x"] = X.n
    report["n_y"] = Y.n
    report["d"] = X.d
    report["divergence"] = name
    return report


def fit_loglog_slope(points) -> float:
    """Least-squares slope of log y on log x; requires >= 2 strictly positive points."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValueError("need at least 2 points")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("log-log fit requires strictly positive coordinates")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)


RUNNERS = {
    "sample-complexity": run_sample_complexity,
    "projection-complexity": run_projection_complexity,
    "noise-sweep": run_noise_sweep,
    "displacement": run_displacement,
}
