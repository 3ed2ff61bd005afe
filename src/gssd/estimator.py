"""Monte Carlo estimation of smoothed sliced divergences over random directions.

For each projection index l the estimator draws a direction from stream
("proj", l), projects both sample sets, smooths each slice with its own noise
stream ("noisex", l) / ("noisey", l), and evaluates the base divergence's
order-p value on the pair.  The estimate is the arithmetic mean over the L
per-projection values.

One slice pipeline serves every base divergence and mode: ``_slice_tile``
draws the keyed streams of up to ``_TILE`` projections at once and returns
directions, both projections and the *standard* noise, each row bit-identical
to ``sample_direction``, ``project`` and ``smooth_double`` on the same
streams.  Base divergences consume whole rows.

Because every projection is keyed by its index, the result is a pure function
of (seed, data, config): independent of evaluation order, worker count and of
the number of projections that follow it.  Streams do not depend on sigma, so
``sweep_sigma`` draws each tile once and forms P + s * Z for every sigma s
(common random numbers); ``estimate`` is a sweep over a single sigma.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .divergences import DivergenceSpec, power_value, smoothed_wasserstein_oracle, wasserstein_pp_rows
from .rng import RngRoot, keyed_normals
from .slicing import SampleSet, sample_direction

__all__ = ["GssdConfig", "GssdEstimate", "TwoSigmaReport", "estimate", "sweep_sigma", "two_sigma_check"]

MODES = ("double_empirical", "mixture_oracle")


@dataclass(frozen=True)
class GssdConfig:
    """Estimator settings: noise level, projection budget, base divergence (which carries the order p)."""

    sigma: float
    num_projections: int
    divergence: DivergenceSpec
    seed: RngRoot
    mode: str = "double_empirical"
    oracle_grid: int = 2000

    def __post_init__(self) -> None:
        if not 0 <= self.sigma < np.inf:
            raise ValueError("sigma must be finite and non-negative")
        if self.num_projections < 1:
            raise ValueError("num_projections must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.mode == "mixture_oracle":
            if self.divergence.kind != "wasserstein":
                raise ValueError("mixture_oracle mode requires the Wasserstein base divergence")
            if self.sigma <= 0:
                raise ValueError("mixture_oracle mode requires sigma > 0")


@dataclass(frozen=True)
class GssdEstimate:
    """Monte Carlo estimate of the order-p smoothed sliced divergence."""

    mean_pow: float
    root: float
    per_projection: np.ndarray
    sample_std: float
    std_error: float
    config: GssdConfig
    unconverged: int = 0

    def summary(self) -> dict:
        spec = self.config.divergence
        return {
            "mean_pow": self.mean_pow,
            "root": self.root,
            "sample_std": self.sample_std,
            "std_error": self.std_error,
            "num_projections": self.config.num_projections,
            "sigma": self.config.sigma,
            "order": spec.p,
            "divergence": spec.kind,
            "epsilon": spec.epsilon,
            "bandwidth": spec.bandwidth,
            "mode": self.config.mode,
            "seed": self.config.seed.seed,
            "unconverged_projections": self.unconverged,
        }


_TILE = 64  # projections whose streams are drawn together; tiles start at its multiples


def _slice_tile(X: SampleSet, Y: SampleSet, root: RngRoot, ls: range, noise: bool):
    """Directions, projections of X and Y, and their standard noise (None unless
    ``noise``) for the projections in ``ls``, one row per projection."""
    d, n, m = X.d, X.n, Y.n
    streams = [("proj", d)] + ([("noisex", n), ("noisey", m)] if noise else [])
    G = keyed_normals(root, streams, ls)
    U = np.empty((len(ls), d))
    px = np.empty((len(ls), n))
    py = np.empty((len(ls), m))
    for k, l in enumerate(ls):
        # sample_direction and project row by row: a norm and a matrix-vector
        # product per direction keep each row bit-identical to those functions
        z = G[k, :d]
        norm = float(np.linalg.norm(z))
        if norm > 1e-150:
            np.divide(z, norm, out=U[k])
        else:  # a zero draw: sample_direction redraws from the stream
            U[k] = sample_direction(d, root.stream("proj", l)).coords
        np.matmul(X.data, U[k], out=px[k])
        np.matmul(Y.data, U[k], out=py[k])
    zx, zy = (G[:, d : d + n], G[:, d + n :]) if noise else (None, None)
    return U, px, py, zx, zy


def _tile_values(px, py, zx, zy, cfg: GssdConfig) -> tuple[np.ndarray, int]:
    """Order-p values of a tile's projections at ``cfg.sigma``, and how many did not converge."""
    spec = cfg.divergence
    if cfg.mode == "mixture_oracle":
        vals = [smoothed_wasserstein_oracle(x, y, cfg.sigma, spec.p, cfg.oracle_grid) for x, y in zip(px, py)]
        return np.array(vals), 0
    tx = px if cfg.sigma == 0 else px + cfg.sigma * zx
    ty = py if cfg.sigma == 0 else py + cfg.sigma * zy
    if spec.kind == "wasserstein":
        return wasserstein_pp_rows(tx, ty, spec.p), 0
    pairs = [power_value(x, y, spec) for x, y in zip(tx, ty)]
    return np.array([v for v, _ in pairs]), sum(not ok for _, ok in pairs)


def _chunks(L: int, parts: int) -> list[range]:
    parts = min(parts, L)
    bounds = np.linspace(0, L, parts + 1).astype(int)
    return [range(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _sweep(X: SampleSet, Y: SampleSet, cfgs: list[GssdConfig], workers: int) -> list[GssdEstimate]:
    """One estimate per config; the configs differ only in sigma and share every draw.

    Per-projection values land in an array indexed by projection, and each
    reduction over it is a single fixed pairwise sum, so 1 worker and N
    workers produce bit-identical results.
    """
    if X.d != Y.d:
        raise ValueError(f"dimension mismatch: X has d={X.d}, Y has d={Y.d}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    first = cfgs[0]
    L = first.num_projections
    vals = np.empty((len(cfgs), L))
    noise = first.mode == "double_empirical" and any(c.sigma > 0 for c in cfgs)

    def run_block(ls: range) -> np.ndarray:
        bad = np.zeros(len(cfgs), dtype=np.int64)
        edges = [ls.start, *range((ls.start // _TILE + 1) * _TILE, ls.stop, _TILE), ls.stop]
        for a, b in zip(edges, edges[1:]):
            _, *tile = _slice_tile(X, Y, first.seed, range(a, b), noise)
            for k, cfg in enumerate(cfgs):
                vals[k, a:b], n_bad = _tile_values(*tile, cfg)
                bad[k] += n_bad
        return bad

    blocks = _chunks(L, workers)
    if len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            unconverged = sum(pool.map(run_block, blocks))
    else:
        unconverged = run_block(blocks[0])

    out = []
    for cfg, v, bad in zip(cfgs, vals, unconverged):
        mean_pow = float(np.mean(v))
        sample_std = float(np.std(v, ddof=1)) if L > 1 else 0.0
        root = float(max(mean_pow, 0.0) ** (1.0 / cfg.divergence.p))
        out.append(GssdEstimate(mean_pow, root, v, sample_std, float(sample_std / np.sqrt(L)), cfg, int(bad)))
    return out


def estimate(X: SampleSet, Y: SampleSet, cfg: GssdConfig, workers: int = 1) -> GssdEstimate:
    """Estimate the order-p smoothed sliced divergence between X and Y.

    Deterministic given ``cfg.seed``: bit-identical across re-runs, worker
    counts and L-prefixes (the first L values of a longer run).
    """
    return _sweep(X, Y, [cfg], workers)[0]


def sweep_sigma(
    X: SampleSet, Y: SampleSet, sigmas: Sequence[float], cfg: GssdConfig, workers: int = 1
) -> list[GssdEstimate]:
    """One estimate per noise level, sharing direction and base-noise draws.

    Streams are keyed only by (seed, label, index), never by sigma, so every
    tile is drawn once and all sweep points see the same directions and the
    same standard normal draws scaled by their own sigma -- common random
    numbers across the sweep.  Each point is bit-identical to ``estimate`` at
    its sigma.
    """
    if len(sigmas) == 0:
        raise ValueError("sigmas must be non-empty")
    if not all(0 <= s < np.inf for s in sigmas):
        raise ValueError("all sigmas must be finite and non-negative")
    return _sweep(X, Y, [replace(cfg, sigma=float(s)) for s in sigmas], workers)


@dataclass(frozen=True)
class TwoSigmaReport:
    """Empirical check of the two-noise-level inequality for the Wasserstein base."""

    lhs: float
    rhs: float
    gap: float
    slack: float
    holds: bool
    low: GssdEstimate | None = field(repr=False, default=None)
    high: GssdEstimate | None = field(repr=False, default=None)


def two_sigma_check(
    X: SampleSet,
    Y: SampleSet,
    sigma1: float,
    sigma2: float,
    cfg: GssdConfig,
    workers: int = 1,
) -> TwoSigmaReport:
    """Check estimate(sigma1) <= 2^{p-1} estimate(sigma2) + 2^{5p/2}(s2^2-s1^2)^p.

    Both sides share directions (common random numbers); ``holds`` allows a
    3x combined standard error slack on top of the right-hand side.
    """
    if cfg.divergence.kind != "wasserstein":
        raise ValueError("the two-noise-level inequality applies to the Wasserstein base")
    if not 0 <= sigma1 <= sigma2:
        raise ValueError("need 0 <= sigma1 <= sigma2")
    p = cfg.divergence.p
    est_low, est_high = sweep_sigma(X, Y, [sigma1, sigma2], cfg, workers=workers)
    gap = 2.0 ** (2.5 * p) * (sigma2**2 - sigma1**2) ** p
    rhs = 2.0 ** (p - 1) * est_high.mean_pow + gap
    slack = 3.0 * (est_low.std_error + 2.0 ** (p - 1) * est_high.std_error)
    return TwoSigmaReport(
        lhs=est_low.mean_pow,
        rhs=rhs,
        gap=gap,
        slack=slack,
        holds=est_low.mean_pow <= rhs + slack,
        low=est_low,
        high=est_high,
    )
