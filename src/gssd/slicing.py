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
from .rng import RngStream

__all__ = ["SampleSet", "sample_direction", "project", "smooth_double"]

_UNIT_NORM_TOL = 1e-12
_MAX_DIRECTION_RETRIES = 8
_ZERO_NORM = 1e-150  # a Gaussian draw whose norm is not above this gives no direction and is redrawn


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
        if norm > _ZERO_NORM:
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

