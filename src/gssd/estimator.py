"""Monte Carlo estimation of smoothed sliced divergences over random directions.

For each projection index l the estimator draws a direction from stream
("proj", l), projects both sample sets, smooths each slice with its own noise
stream ("noisex", l) / ("noisey", l), and evaluates the base divergence's
order-p value on the pair (``divergences._slice_values``).  The estimate is the
mean of the L per-projection values, with its Monte Carlo error (``GssdEstimate.from_values``).

One slice pipeline serves every base divergence and mode: each worker cuts
its block of projections into tiles of ``_TILE`` rows, and ``_slice_tile``
draws a tile's directions, both projections and the *standard* noise, each
row bit-identical to ``sample_direction``, ``project`` and ``smooth_double``
on the same streams.  No row depends on the others of its tile, so tile edges
move no bit.  ``_sweep``'s loop then takes the tile through every sigma: the
oracle reads the projections, every other mode forms the smoothed slices and
hands them to the base divergence, which consumes whole rows.  A worker
allocates every tile buffer once (``_tile_work``) and reuses it for each tile
of its block, and the Wasserstein rows are sorted and reduced in place in the
smoothed buffers.

Because every projection is keyed by its index, the result is a pure function
of (seed, data, config): independent of evaluation order, worker count and of
the number of projections that follow it.  Streams do not depend on sigma, so
``sweep_sigma`` draws each tile once and forms P + s * Z for every sigma s
(common random numbers); ``estimate`` is a sweep over a single sigma.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ._checks import _check_choice, _check_count, _check_real
from .bounds import _SIGMA_MIN, mc_error_bound
from .divergences import _ORACLE_MIN_GRID, ORACLE_GRID, DivergenceSpec, _slice_values, smoothed_wasserstein_oracle
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
    oracle_grid: int = ORACLE_GRID

    def __post_init__(self) -> None:
        _check_choice("mode", self.mode, MODES)
        oracle = self.mode == "mixture_oracle"
        _check_real("sigma in mixture_oracle mode" if oracle else "sigma", self.sigma, _SIGMA_MIN if oracle else 0.0)
        _check_count("num_projections", self.num_projections)
        if oracle:
            if self.divergence.kind != "wasserstein":
                raise ValueError("mixture_oracle mode requires the Wasserstein base divergence")
            _check_count("oracle quantile grid", self.oracle_grid, _ORACLE_MIN_GRID)


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

    @classmethod
    def from_values(cls, values: np.ndarray, config: GssdConfig, unconverged: int = 0) -> GssdEstimate:
        """The estimate from its per-projection values: their mean, its order-p root, their sample std
        and the Monte Carlo error ``mc_error_bound`` (both 0.0 for a single projection)."""
        mean_pow = float(np.mean(values))
        root = float(max(mean_pow, 0.0) ** (1.0 / config.divergence.p))
        std, err = (float(np.std(values, ddof=1)), mc_error_bound(values)) if values.size > 1 else (0.0, 0.0)
        return cls(mean_pow, root, values, std, err, config, unconverged)

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


_TILE = 64  # projections whose streams are drawn together


def _tile_work(rows: int, X: SampleSet, Y: SampleSet, noise: bool) -> tuple[np.ndarray, ...]:
    """Every buffer of a tile of up to ``rows`` projections, one row per projection: the keyed normals, the
    directions, the projections of X and Y, and their smoothed copies."""
    width = X.d + (X.n + Y.n if noise else 0)
    return tuple(np.empty((rows, k)) for k in (width, X.d, X.n, Y.n, X.n, Y.n))


def _slice_tile(X: SampleSet, Y: SampleSet, root: RngRoot, ls: range, noise: bool, work: tuple[np.ndarray, ...]):
    """Directions, projections of X and Y, and their standard noise (None unless ``noise``) for the
    projections in ``ls``, one row per projection, each bit-identical to ``sample_direction``,
    ``project`` and the noise of ``smooth_double`` on that projection's keyed streams.

    The rows are views of ``work``, a ``_tile_work`` of at least len(ls) rows, which a
    worker allocates once and reuses from tile to tile.
    """
    d, n, m = X.d, X.n, Y.n
    G, U, px, py = (buf[: len(ls)] for buf in work[:4])
    streams = [("proj", d)] + ([("noisex", n), ("noisey", m)] if noise else [])
    keyed_normals(root, streams, ls, G)
    # stacked matmuls make one BLAS call per row with the arguments of sample_direction's
    # z.dot(z) and project's X.data @ u (a ddot, then two dgemv), so every row keeps their
    # bits; one GEMM per tile would not, as its rows' bits depend on the tile's height
    Z = G[:, :d]
    norms = np.sqrt(np.matmul(Z[:, None, :], Z[:, :, None])[:, 0, 0])
    zero = np.flatnonzero(~(norms > 1e-150))
    norms[zero] = 1.0  # so that the divide below does not warn on a zero row
    np.divide(Z, norms[:, None], out=U)
    for k in zero:  # a zero draw: sample_direction redraws from the stream
        U[k] = sample_direction(d, root.stream("proj", ls[k]))
    np.matmul(X.data, U[:, :, None], out=px[:, :, None])
    np.matmul(Y.data, U[:, :, None], out=py[:, :, None])
    zx, zy = (G[:, d : d + n], G[:, d + n :]) if noise else (None, None)
    return U, px, py, zx, zy


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
    _check_count("workers", workers)
    first = cfgs[0]
    L = first.num_projections
    vals = np.empty((len(cfgs), L))
    noise = first.mode == "double_empirical" and any(c.sigma > 0 for c in cfgs)

    def run_block(ls: range) -> np.ndarray:
        # one workspace per block, reused by every tile: tile-sized arrays, each above glibc's mmap
        # threshold, would map and fault in fresh pages on every tile
        work = _tile_work(min(_TILE, len(ls)), X, Y, noise)
        bad = np.zeros(len(cfgs), dtype=np.int64)
        for a in range(ls.start, ls.stop, _TILE):
            b = min(a + _TILE, ls.stop)
            _, px, py, zx, zy = _slice_tile(X, Y, first.seed, range(a, b), noise, work)
            tx, ty = (buf[: b - a] for buf in work[4:])
            for k, cfg in enumerate(cfgs):
                if cfg.mode == "mixture_oracle":
                    vals[k, a:b] = [
                        smoothed_wasserstein_oracle(x, y, cfg.sigma, cfg.divergence.p, cfg.oracle_grid)
                        for x, y in zip(px, py)
                    ]
                    continue
                for t, v, z in ((tx, px, zx), (ty, py, zy)):
                    if cfg.sigma == 0:  # a copy: the base divergence may overwrite it, and the next sigma reads P
                        np.copyto(t, v)
                    else:  # the two roundings of v + sigma * z
                        np.add(v, np.multiply(z, cfg.sigma, out=t), out=t)
                vals[k, a:b], n_bad = _slice_values(tx, ty, cfg.divergence)
                bad[k] += n_bad
        return bad

    blocks = _chunks(L, workers)
    if len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            unconverged = sum(pool.map(run_block, blocks))
    else:
        unconverged = run_block(blocks[0])

    return [GssdEstimate.from_values(v, cfg, int(bad)) for cfg, v, bad in zip(cfgs, vals, unconverged)]


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
    _check_count("number of sigmas", len(sigmas))
    return _sweep(X, Y, [replace(cfg, sigma=s) for s in sigmas], workers)


@dataclass(frozen=True)
class TwoSigmaReport:
    """Empirical check of the two-noise-level inequality for the Wasserstein base."""

    lhs: float
    rhs: float
    gap: float
    slack: float
    holds: bool


def two_sigma_check(
    X: SampleSet, Y: SampleSet, sigma1: float, sigma2: float, cfg: GssdConfig, workers: int = 1
) -> TwoSigmaReport:
    """Check estimate(sigma1) <= 2^{p-1} estimate(sigma2) + 2^{5p/2}(s2^2-s1^2)^p.

    Both sides share directions (common random numbers); ``holds`` allows a
    3x combined standard error slack on top of the right-hand side.
    """
    if cfg.divergence.kind != "wasserstein":
        raise ValueError("the two-noise-level inequality applies to the Wasserstein base")
    _check_real("sigma1", sigma1)
    _check_real("sigma2", sigma2, sigma1)
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
    )
