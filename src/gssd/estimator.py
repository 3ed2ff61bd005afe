"""Monte Carlo estimation of smoothed sliced divergences over random directions.

For each projection index l the estimator draws a direction from stream
("proj", l), projects both sample sets, smooths each slice with its own noise
stream ("noisex", l) / ("noisey", l), and evaluates the base divergence's
order-p value on the pair (``divergences._slice_values``).  The estimate is the
mean of the L per-projection values, with its Monte Carlo error (``GssdEstimate.from_values``).

One slice pipeline serves every base divergence and mode: ``sweep_sigma`` splits
the L projections into one block per worker, and ``_tiles`` cuts a block into
tiles of ``_TILE`` rows and draws each tile's directions, pooled projections P
(X's n values, then Y's m) and *standard* noise Z in P's layout, each row
bit-identical to ``sample_direction``, ``project`` and ``smooth_double`` on the
same streams, so tile edges move no bit.  For every sigma the oracle reads P,
and every other mode forms P + s * Z in one buffer, reused for each tile, where
the base divergence consumes whole rows.  The base divergence alone decides
which slices it takes: one it refuses with ValueError gets a nan value, and a
value that is not finite stops the estimate with a ValueError naming its
projection, sigma and kind.  Each block runs under its own numpy error state,
which ignores overflow and invalid operations, so no RuntimeWarning comes first.

Because every projection is keyed by its index, the result is a pure function
of (seed, data, config): independent of evaluation order, worker count and of
the number of projections that follow it.  Streams do not depend on sigma, so
``sweep_sigma`` draws each tile once and forms P + s * Z for every sigma s
(common random numbers); ``estimate`` is a sweep over a single sigma.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ._checks import _check_choice, _check_count, _check_real, _check_type
from .bounds import _SIGMA_MIN, mc_error_bound
from .divergences import _ORACLE_MIN_GRID, ORACLE_GRID, DivergenceSpec, _slice_values, smoothed_wasserstein_oracle
from .rng import RngRoot, keyed_normals
from .slicing import _ZERO_NORM, SampleSet, sample_direction

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
        _check_type("divergence", self.divergence, DivergenceSpec)
        _check_type("seed", self.seed, RngRoot)
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
        and the Monte Carlo error ``mc_error_bound`` (both 0.0 for a single projection).  Raises ValueError
        where the mean or the sample std of the values is past the double range."""
        with np.errstate(over="ignore", invalid="ignore"):  # a sum or square past the range is refused below
            mean_pow = float(np.mean(values))
            std, err = (float(np.std(values, ddof=1)), mc_error_bound(values)) if values.size > 1 else (0.0, 0.0)
        if not (math.isfinite(mean_pow) and math.isfinite(std)):
            raise ValueError(
                f"the {config.divergence.kind} values at sigma {config.sigma} have a mean or sample std past the"
                " double range"
            )
        root = float(max(mean_pow, 0.0) ** (1.0 / config.divergence.p))
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


def _tiles(X: SampleSet, Y: SampleSet, root: RngRoot, ls: range, noise: bool):
    """Yield each tile of up to ``_TILE`` projections of the block ``ls`` as (a, b, U, P, Z): for projections
    a..b-1, one row per projection, the directions, the pooled projections (X's n values, then Y's m) and
    their standard noise in the same layout (no columns unless ``noise``), each row bit-identical to
    ``sample_direction``, ``project`` and the noise of ``smooth_double`` on that projection's keyed streams.

    The rows are views of buffers allocated once per block and overwritten by the next tile: tile-sized
    arrays, each above glibc's mmap threshold, would map and fault in fresh pages on every tile.
    """
    d, n, m = X.d, X.n, Y.n
    streams = [("proj", d)] + ([("noisex", n), ("noisey", m)] if noise else [])
    work = [np.empty((min(_TILE, len(ls)), k)) for k in (sum(c for _, c in streams), d, n + m)]
    for a in range(ls.start, ls.stop, _TILE):
        b = min(a + _TILE, ls.stop)
        G, U, P = (buf[: b - a] for buf in work)
        keyed_normals(root, streams, range(a, b), G)
        # stacked matmuls make one BLAS call per row with the arguments of sample_direction's
        # z.dot(z) and project's X.data @ u (a ddot, then two dgemv), so every row keeps their
        # bits; one GEMM per tile would not, as its rows' bits depend on the tile's height
        D = G[:, :d]
        norms = np.sqrt(np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0])
        zero = np.flatnonzero(~(norms > _ZERO_NORM))
        norms[zero] = 1.0  # so that the divide below does not warn on a zero row
        np.divide(D, norms[:, None], out=U)
        for k in zero.tolist():  # a zero draw: sample_direction redraws from the stream
            U[k] = sample_direction(d, root.stream("proj", a + k))
        np.matmul(X.data, U[:, :, None], out=P[:, :n, None])
        np.matmul(Y.data, U[:, :, None], out=P[:, n:, None])
        yield a, b, U, P, G[:, d:]


def estimate(X: SampleSet, Y: SampleSet, cfg: GssdConfig, workers: int = 1) -> GssdEstimate:
    """Estimate the order-p smoothed sliced divergence between X and Y.

    Deterministic given ``cfg.seed``: bit-identical across re-runs, worker
    counts and L-prefixes (the first L values of a longer run).
    """
    return sweep_sigma(X, Y, [cfg.sigma], cfg, workers)[0]


def sweep_sigma(
    X: SampleSet, Y: SampleSet, sigmas: Sequence[float], cfg: GssdConfig, workers: int = 1
) -> list[GssdEstimate]:
    """One estimate per noise level, sharing direction and base-noise draws.

    Streams are keyed only by (seed, label, index), never by sigma, so every
    tile is drawn once and all sweep points see the same directions and the
    same standard normal draws scaled by their own sigma -- common random
    numbers across the sweep.  Each point is bit-identical to ``estimate`` at
    its sigma.  Per-projection values land in an array indexed by projection,
    and each reduction over it is a single fixed pairwise sum, so 1 worker and
    N workers produce bit-identical results.  Raises ValueError for a
    per-projection value that is not finite, and for finite values whose
    mean or sample std is not.
    """
    _check_type("X", X, SampleSet)
    _check_type("Y", Y, SampleSet)
    _check_count("number of sigmas", len(sigmas))
    cfgs = [replace(cfg, sigma=s) for s in sigmas]  # checks each sigma against the mode
    if X.d != Y.d:
        raise ValueError(f"dimension mismatch: X has d={X.d}, Y has d={Y.d}")
    _check_count("workers", workers)
    L, spec, oracle = cfg.num_projections, cfg.divergence, cfg.mode == "mixture_oracle"
    vals = np.empty((len(cfgs), L))
    noise = not oracle and any(s > 0 for s in sigmas)

    def oracle_value(x: np.ndarray, y: np.ndarray, s: float) -> float:
        try:
            return smoothed_wasserstein_oracle(x, y, s, spec.p, cfg.oracle_grid)
        except ValueError:  # a slice the oracle refuses: its nan value is named below
            return np.nan

    def run_block(ls: range) -> np.ndarray:
        # the smoothed slices, allocated once per block for the reason _tiles' buffers are
        smoothed = np.empty((min(_TILE, len(ls)), X.n + Y.n))
        bad = np.zeros(len(cfgs), dtype=np.int64)
        with np.errstate(over="ignore", invalid="ignore"):  # per block: numpy keeps it per thread
            for a, b, _, P, Z in _tiles(X, Y, cfg.seed, ls, noise):
                V = smoothed[: b - a]
                for k, s in enumerate(sigmas):
                    if oracle:
                        vals[k, a:b] = [oracle_value(x, y, s) for x, y in zip(P[:, : X.n], P[:, X.n :])]
                    else:
                        if s == 0:  # a copy: the base divergence may overwrite it, and the next sigma reads P
                            np.copyto(V, P)
                        else:  # the two roundings of P + sigma * Z
                            np.add(P, np.multiply(Z, s, out=V), out=V)
                        vals[k, a:b], n_bad = _slice_values(V, X.n, spec)
                        bad[k] += n_bad
                    off = np.flatnonzero(~np.isfinite(vals[k, a:b]))
                    if off.size:
                        raise ValueError(f"projection {a + off[0]} at sigma {s} has a non-finite {spec.kind} value")
        return bad

    parts = min(workers, L)
    blocks = [range(L * i // parts, L * (i + 1) // parts) for i in range(parts)]
    if len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            unconverged = sum(pool.map(run_block, blocks))
    else:
        unconverged = run_block(blocks[0])
    return [GssdEstimate.from_values(v, c, int(n_bad)) for c, v, n_bad in zip(cfgs, vals, unconverged)]


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
