"""Sphere directions, 1D projections, and Gaussian smoothing of slices.

A slice of an empirical measure is the vector of projections u'X_i onto a unit
direction u.  Smoothing adds one independent N(0, sigma^2) draw per projected
sample, which is exactly one sample from the Gaussian mixture that the
convolved slice is in law: conditionally on the data, the smoothed slice has
density (1/n) * sum_i phi_sigma(t - u'X_i), exposed here as ``mixture_pdf``
for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergences import _mixture_cdf_pdf
from .rng import RngStream

__all__ = [
    "SampleSet",
    "Direction",
    "sample_direction",
    "project",
    "smooth_double",
    "mixture_pdf",
]

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


@dataclass(frozen=True)
class Direction:
    """Unit vector on S^{d-1}."""

    coords: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.coords, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("direction must be a non-empty 1-D vector")
        if abs(float(np.linalg.norm(arr)) - 1.0) > _UNIT_NORM_TOL:
            raise ValueError("direction is not unit-norm within 1e-12")
        object.__setattr__(self, "coords", arr)

    @property
    def d(self) -> int:
        return self.coords.size


def sample_direction(d: int, stream: RngStream) -> Direction:
    """Uniform direction on S^{d-1} by normalizing a standard Gaussian vector."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    for _ in range(_MAX_DIRECTION_RETRIES):
        z = stream.normals(d)
        norm = float(np.linalg.norm(z))
        if norm > 1e-150:
            return Direction(z / norm)
    raise RuntimeError("degenerate Gaussian draw persisted; cannot sample a direction")


def project(samples: SampleSet, u: Direction) -> np.ndarray:
    """Radon slice: entry i is u'X_i."""
    if u.d != samples.d:
        raise ValueError(f"direction dimension {u.d} != sample dimension {samples.d}")
    return samples.data @ u.coords


def smooth_double(values: np.ndarray, sigma: float, stream: RngStream) -> np.ndarray:
    """The smoothed slice t_i = v_i + z_i, z_i ~ N(0, sigma^2) from ``stream``; sigma = 0 returns the values."""
    if not 0 <= sigma < np.inf:
        raise ValueError("sigma must be finite and non-negative")
    vals = np.ascontiguousarray(values, dtype=np.float64)
    if vals.ndim != 1 or vals.size < 1 or not np.isfinite(vals).all():
        raise ValueError("slice values must be a non-empty 1-D vector of finite values")
    if sigma > 0:
        vals = vals + sigma * stream.normals(vals.size)
    return vals


def mixture_pdf(values: np.ndarray, sigma: float, t):
    """Density of the exact smoothed slice, (1/n) * sum_i N(v_i, sigma^2) at t.

    Accepts scalar or array ``t``; requires sigma > 0 (the sigma = 0 slice is
    purely atomic and has no density).  The density is the mixture oracle's,
    evaluated a block of points at a time, so memory does not grow with t.size * n.
    """
    if not 0 < sigma < np.inf:
        raise ValueError("sigma must be finite and positive for the mixture density")
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 1 or not np.isfinite(v).all():
        raise ValueError("values must be a non-empty 1-D vector of finite values")
    t_arr = np.asarray(t, dtype=np.float64)
    dens = _mixture_cdf_pdf(v, sigma, t_arr.ravel())[1].reshape(t_arr.shape)
    return float(dens) if np.isscalar(t) or t_arr.ndim == 0 else dens
