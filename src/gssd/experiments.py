"""Desk-scale benchmark experiments with reproducible CSV/JSON output.

Each experiment writes long-format CSV: one row per (grid point, divergence,
run), with a ``#``-prefixed header block echoing the seed and the full
configuration.  All values are pure functions of the seed, so re-running a
command reproduces every column except the wall-clock timing one.

``run_experiment`` runs every experiment through one loop over the full grid
``dimensions x sample_sizes x num_runs``.  Each (d, n, run) cell draws X and
Y from streams under the command's tag and makes one ``sweep_sigma`` call per
divergence over all of ``sigmas``, so every row is bit-identical to the row of
a run whose grid holds only its own point.  The commands differ only in their
tag, their Y draw and the rows they take from each estimate:

* ``sample-complexity``   -- the estimate between X ~ N(0, I_d) and Y drawn by
  the ``pair`` mode (the default ``same``: Y ~ N(0, I_d) too).
* ``projection-complexity`` -- the same pair; |estimate(L) - estimate(L_ref)|
  for each L of the ``l_grid``, from the prefixes of one reference estimate
  over L_ref = ``num_projections`` projections.
* ``noise-sweep``         -- the rows of sample-complexity, under a stream tag
  that carries the ``pair`` mode.
* ``displacement``        -- divergence between N(2*1, I) and N(s*1, I) for
  each s of the displacement grid; all s share the Gaussian residuals, and
  ``pair`` does not apply.
* ``compare``             -- one estimate between two CSV matrices, as JSON;
  it takes one divergence and one sigma.

``emit_bound`` adds one theory-envelope row per (d, sigma, n).
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from ._checks import _check_choice, _check_count, _check_real
from .bounds import _SQRT2, C_P, VARTHETA, SphericalGaussian, TheoryBound
from .divergences import DivergenceSpec
from .estimator import GssdConfig, GssdEstimate, estimate, sweep_sigma
from .rng import RngRoot
from .slicing import SampleSet

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "run_experiment",
    "compare",
    "fit_loglog_slope",
    "read_matrix_csv",
    "rows_csv",
    "DIVERGENCE_ALIASES",
]

DIVERGENCE_ALIASES = {"swd": "wasserstein", "mmd": "mmd", "skd": "sinkhorn"}

# (mean, scale) of Y ~ N(mean, scale^2 I) against X ~ N(0, I), per pair mode
PAIR_MODES = {"same": (0.0, 1.0), "shifted": (2.0, 1.0), "scaled": (1.0, 2.0)}

# the stream tag of each grid command's (d, n) cell
_TAGS = {
    "sample-complexity": "sc/d{d}/n{n}",
    "projection-complexity": "pc/d{d}/n{n}",
    "noise-sweep": "ns/d{d}/n{n}/{pair}",
    "displacement": "disp/d{d}/n{n}",
}
COMMANDS = (*_TAGS, "compare")

# the values of the grid fields that ExperimentConfig leaves at None: the command's own, else those of "*"
_GRID_DEFAULTS = {
    "*": {"sample_sizes": (100, 400, 1600, 6400), "sigmas": (3.0,), "num_projections": 50},
    "projection-complexity": {"sample_sizes": (500,), "num_projections": 10_000},
    "noise-sweep": {"sigmas": (0.0, 1.0, 3.0, 5.0, 15.0)},
    "displacement": {"sample_sizes": (500,)},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid and hyperparameters for one benchmark command; grid fields left at None take the command's defaults."""

    command: str
    dimensions: tuple = (50,)
    sample_sizes: tuple | None = None
    sigmas: tuple | None = None
    num_runs: int = 20
    divergences: tuple = ("swd",)
    num_projections: int | None = None
    order: float = DivergenceSpec.p
    epsilon: float = DivergenceSpec.epsilon
    bandwidth: float | None = DivergenceSpec.bandwidth
    sinkhorn_tol: float = DivergenceSpec.sinkhorn_tol
    sinkhorn_max_iter: int = DivergenceSpec.sinkhorn_max_iter
    seed: int = 42
    out: str | None = None
    workers: int = 1
    l_grid: tuple = (50, 100, 200, 500, 1000)
    s_grid: tuple = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
    pair: str = "same"
    emit_bound: bool = False
    vartheta: float = VARTHETA
    c_p: float = C_P

    def __post_init__(self) -> None:
        _check_choice("command", self.command, COMMANDS)
        for name, value in {**_GRID_DEFAULTS["*"], **_GRID_DEFAULTS.get(self.command, {})}.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        for name in ("dimensions", "sample_sizes", "sigmas", "divergences", "l_grid", "s_grid"):
            _check_count(f"number of {name}", len(getattr(self, name)))
        for name in ("num_runs", "num_projections", "workers"):
            _check_count(name, getattr(self, name))
        RngRoot(self.seed)  # checks the seed
        _check_choice("pair", self.pair, PAIR_MODES)
        for name in self.divergences:
            _check_choice("each entry of divergences", name, DIVERGENCE_ALIASES)
            self.divergence_spec(name)  # checks order, epsilon, bandwidth and the Sinkhorn settings
        if self.command == "compare" and (len(self.divergences) > 1 or len(self.sigmas) > 1):
            raise ValueError("compare takes one divergence and one sigma")
        for name, low in (("sigmas", 0.0), ("s_grid", -math.inf)):
            for value in getattr(self, name):
                _check_real(f"each entry of {name}", value, low)
        _check_real("vartheta", self.vartheta, _SQRT2, strict=True)
        _check_real("c_p", self.c_p)
        for name in ("dimensions", "sample_sizes", "l_grid"):
            for value in getattr(self, name):
                _check_count(f"each entry of {name}", value)
        if self.command == "projection-complexity" and max(self.l_grid) > self.num_projections:
            bound = f"[1, num_projections = {self.num_projections}]"
            raise ValueError(f"each entry of l_grid must lie in {bound}, got {max(self.l_grid)!r}")

    def divergence_spec(self, name: str) -> DivergenceSpec:
        return DivergenceSpec(
            kind=DIVERGENCE_ALIASES[name],
            p=self.order,
            epsilon=self.epsilon,
            bandwidth=self.bandwidth,
            sinkhorn_tol=self.sinkhorn_tol,
            sinkhorn_max_iter=self.sinkhorn_max_iter,
        )

    def estimator_config(self, name: str, seed: RngRoot) -> GssdConfig:
        """The estimator settings of divergence ``name`` at ``sigmas[0]``, keyed by ``seed``."""
        spec = self.divergence_spec(name)
        return GssdConfig(sigma=float(self.sigmas[0]), num_projections=self.num_projections, divergence=spec, seed=seed)

    def echo(self) -> dict:
        """The configuration as written to output headers: every field but ``out`` and ``emit_bound``, with
        numpy scalars as the Python numbers they hold."""
        return {k: _plain(v) for k, v in asdict(self).items() if k not in ("out", "emit_bound")}


def _plain(value):
    """value with each numpy scalar, also inside a tuple, replaced by its Python number."""
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    return value.item() if isinstance(value, np.generic) else value


# CSV text of each column, by its declared type (annotations are postponed, so the type is its name)
_FORMATS = {"str": str, "int": lambda v: repr(int(v)), "float": lambda v: repr(float(v))}


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
    wall_ms: float = field(metadata={"format": "{:.3f}".format})

    def as_csv(self) -> str:
        return ",".join(f.metadata.get("format", _FORMATS[f.type])(getattr(self, f.name)) for f in fields(self))


# unconverged is the count of projections of the estimate behind a row whose
# Sinkhorn solve did not converge; wall_ms is that estimate's time.  Rows that
# share one estimate (the projection-complexity reference run over its L grid)
# carry its count; one timed call that yields several rows (a cell's sweep over
# its sigmas, and for projection-complexity over the L grid of each) has its
# time split evenly over them.  Theory-bound rows carry 0 in both.  wall_ms
# stays the last column.
CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


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


def _draws(cfg: ExperimentConfig, root: RngRoot, tag: str, run: int, n: int, d: int):
    """X and the (experiment label, Y) pairs of one run of a cell."""
    if cfg.command == "displacement":
        X = gaussian_set(root, f"{tag}/x", run, n, d, mean=2.0)
        GY = gaussian_set(root, f"{tag}/y", run, n, d)
        return X, [(f"displacement[s={s:g}]", SampleSet(GY.data + float(s))) for s in cfg.s_grid]
    X = gaussian_set(root, f"{tag}/x", run, n, d)
    return X, [(cfg.command, gaussian_set(root, f"{tag}/y", run, n, d, *PAIR_MODES[cfg.pair]))]


def _row_values(cfg: ExperimentConfig, est: GssdEstimate) -> list[tuple[int, float, float]]:
    """(L, value, std_error) of each row one estimate yields.

    Streams are keyed by projection index, so the L-projection estimate of
    projection-complexity is the estimate from the first L per-projection values
    of the reference run; one reference estimate yields the whole L grid.
    """
    if cfg.command != "projection-complexity":
        return [(cfg.num_projections, est.mean_pow, est.std_error)]
    prefixes = [GssdEstimate.from_values(est.per_projection[:L], replace(est.config, num_projections=L))
                for L in cfg.l_grid]
    return [(L, abs(pre.mean_pow - est.mean_pow), pre.std_error) for L, pre in zip(cfg.l_grid, prefixes)]


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """The rows of ``cfg.command`` over its full grid, ordered by d, n, run, Y, divergence, sigma (and L),
    then the theory-bound rows."""
    if cfg.command not in _TAGS:
        raise ValueError(f"{cfg.command!r} has no grid; call compare()")
    root = RngRoot(cfg.seed)
    bound = _bound_rows(cfg) if cfg.emit_bound else []  # first: an order without an envelope fails before any estimate
    rows: list[ResultRow] = []
    for d, n, run in itertools.product(cfg.dimensions, cfg.sample_sizes, range(cfg.num_runs)):
        tag = _TAGS[cfg.command].format(d=d, n=n, pair=cfg.pair)
        X, ys = _draws(cfg, root, tag, run, n, d)
        run_root = root.child(tag, run)
        for label, Y in ys:
            for name in cfg.divergences:
                t0 = time.perf_counter()
                ests = sweep_sigma(X, Y, cfg.sigmas, cfg.estimator_config(name, run_root), workers=cfg.workers)
                wall = (time.perf_counter() - t0) * 1e3
                cell = [(s, est, row) for s, est in zip(cfg.sigmas, ests) for row in _row_values(cfg, est)]
                rows.extend(
                    ResultRow(label, name, d, n, s, L, run, value, se, est.unconverged, wall / len(cell))
                    for s, est, (L, value, se) in cell
                )
    return rows + bound


def _bound_rows(cfg: ExperimentConfig) -> list[ResultRow]:
    """Theory envelope rows in the same schema, one per (d, sigma, n), for overlay plotting."""
    rows = []
    for d, sigma in itertools.product(cfg.dimensions, cfg.sigmas):
        tb = TheoryBound.evaluate(cfg.order, sigma, SphericalGaussian(d), vartheta=cfg.vartheta, c_p=cfg.c_p)
        rows.extend(
            ResultRow(cfg.command, "theory-bound", d, n, sigma, cfg.num_projections, 0, tb.at(n), 0.0, 0, 0.0)
            for n in cfg.sample_sizes
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
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            cells = text.split(",")
            if width is None:
                width = len(cells)  # the first line fixes the column count
                if not any(_is_number(c.strip()) for c in cells):
                    continue  # a header: no cell is a number
            if len(cells) != width:
                raise ValueError(f"{path}: row {lineno} has {len(cells)} columns, expected {width}")
            try:  # float() strips spaces, tabs and newlines itself; str.strip() also strips \x1c-\x1f
                rows.append(list(map(float, cells)))
            except ValueError:
                cells = [c.strip() for c in cells]
                for col, cell in enumerate(cells, start=1):
                    if not _is_number(cell):
                        raise ValueError(f"{path}: non-numeric cell at row {lineno}, column {col}: {cell!r}") from None
                rows.append(list(map(float, cells)))
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
    (name,) = cfg.divergences
    est_cfg = cfg.estimator_config(name, RngRoot(cfg.seed).child("compare", 0))
    est = estimate(X, Y, est_cfg, workers=cfg.workers)
    return {**est.summary(), "n_x": X.n, "n_y": Y.n, "d": X.d, "divergence": name}


def fit_loglog_slope(points) -> float:
    """Least-squares slope of log y on log x; requires >= 2 strictly positive points."""
    pts = list(points)
    _check_count("number of points", len(pts), 2)
    for x, y in pts:
        _check_real("each point's x", x, strict=True)
        _check_real("each point's y", y, strict=True)
    lx = np.log([float(x) for x, _ in pts])
    ly = np.log([float(y) for _, y in pts])
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)

