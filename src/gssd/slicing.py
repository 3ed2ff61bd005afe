"""Sphere directions, 1D projections, and Gaussian smoothing of slices.

A slice of an empirical measure is the vector of projections u'X_i onto a unit
direction u.  Smoothing adds one independent N(0, sigma^2) draw per projected
sample, which is exactly one sample from the Gaussian mixture that the
convolved slice is in law: conditionally on the data, the smoothed slice has
density (1/n) * sum_i phi_sigma(t - u'X_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import _check_count, _check_real
from .rng import RngRoot, RngStream, keyed_normals

__all__ = ["SampleSet", "sample_direction", "project", "smooth_double"]

_UNIT_NORM_TOL = 1e-12
_MAX_DIRECTION_RETRIES = 8


@dataclass(frozen=True)
class SampleSet:
    """n observations in R^d as an (n, d) float matrix; immutable by convention."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"sample matrix must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"sample matrix must be at least 1x1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample matrix contains non-finite entries")
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


def sample_direction(d: int, stream: RngStream) -> np.ndarray:
    """Uniform unit vector on S^{d-1}: a standard Gaussian vector over its norm."""
    _check_count("dimension d", d)
    for _ in range(_MAX_DIRECTION_RETRIES):
        z = stream.normals(d)
        norm = math.sqrt(z.dot(z))  # np.linalg.norm's arithmetic on a 1-D vector, without its call overhead
        if norm > 1e-150:
            return z / norm
    raise RuntimeError("degenerate Gaussian draw persisted; cannot sample a direction")


def project(samples: SampleSet, u: np.ndarray) -> np.ndarray:
    """Radon slice: entry i is u'X_i, for a unit vector u of shape (d,)."""
    u = np.ascontiguousarray(u, dtype=np.float64)
    if u.shape != (samples.d,):
        raise ValueError(f"direction must have shape ({samples.d},), got {u.shape}")
    # written so that a non-finite norm fails too
    if not abs(float(np.linalg.norm(u)) - 1.0) <= _UNIT_NORM_TOL:
        raise ValueError("direction is not a finite unit-norm vector within 1e-12")
    return samples.data @ u


def smooth_double(values: np.ndarray, sigma: float, stream: RngStream) -> np.ndarray:
    """The smoothed slice t_i = v_i + z_i, z_i ~ N(0, sigma^2) from ``stream``; sigma = 0 returns the values."""
    _check_real("sigma", sigma)
    vals = np.ascontiguousarray(values, dtype=np.float64)
    if vals.ndim != 1 or vals.size < 1 or not np.isfinite(vals).all():
        raise ValueError("slice values must be a non-empty 1-D vector of finite values")
    if sigma > 0:
        vals = vals + sigma * stream.normals(vals.size)
    return vals


def _tile_work(rows: int, X: SampleSet, Y: SampleSet, noise: bool) -> tuple[np.ndarray, ...]:
    """Buffers for ``_slice_tile`` on tiles of up to ``rows`` projections: the keyed normals, the
    directions and the projections of X and Y, one row per projection."""
    width = X.d + (X.n + Y.n if noise else 0)
    return np.empty((rows, width)), np.empty((rows, X.d)), np.empty((rows, X.n)), np.empty((rows, Y.n))


def _slice_tile(X: SampleSet, Y: SampleSet, root: RngRoot, ls: range, noise: bool, work: tuple[np.ndarray, ...]):
    """Directions, projections of X and Y, and their standard noise (None unless ``noise``) for the
    projections in ``ls``, one row per projection, each bit-identical to ``sample_direction``,
    ``project`` and the noise of ``smooth_double`` on that projection's keyed streams.

    The rows are views of ``work``, a ``_tile_work`` of at least len(ls) rows, which a
    worker allocates once and reuses from tile to tile.
    """
    d, n, m = X.d, X.n, Y.n
    G, U, px, py = (buf[: len(ls)] for buf in work)
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

