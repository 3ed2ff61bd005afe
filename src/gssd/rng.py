"""Deterministic, splittable random streams on a counter-based generator.

Streams are keyed by (seed, label, index) through a 128-bit hash, so the same
triple reproduces the same draw sequence regardless of creation order, worker
count, or platform.  Deriving a stream is O(1) and consumes nothing from any
other stream.

Normal variates use the inverse-CDF transform of fixed-width uniforms: exactly
one 64-bit word per variate, so the counter advance never depends on the values
drawn (no rejection loops).  ``Generator.random`` writes k * 2^-53, k a word's
top 53 bits, straight into the output, and adding 2^-54 (``_open_interval``)
makes it (k + 0.5) * 2^-53, in the open interval (0, 1) once the highest words
are clamped below 1.

``keyed_normals`` is the only path from a stream key to variates, and
``RngStream`` reads through it.  Philox is counter-based, so one generator
re-keyed per stream yields the words of a generator built per stream, without
the OS entropy each build pulls.  Each label's hash prefix is fed once and
copied per index.  The re-keying loop holds the interpreter lock between calls
that release it for microseconds, so threads that run it at once mostly trade
the lock; ``_KEYING`` lets one thread key at a time while the others run code
that releases the lock for longer.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

from ._checks import _check_count

__all__ = ["RngRoot", "RngStream", "keyed_normals"]

_BELOW_ONE = np.nextafter(1.0, 0.0)
_INDEX = struct.Struct("<Q")
_KEYING = threading.Lock()  # held by the thread running keyed_normals' re-keying loop, the only user of:
_BITGEN = Philox(0)  # a fixed seed skips the OS entropy; every stream sets its own key
_FILL = Generator(_BITGEN).random
_STATE = _BITGEN.state  # counter 0 and an empty buffer (buffer_pos 4), as a new Philox has
_STATE["state"]["counter"] = _STATE["buffer"] = [0, 0, 0, 0]  # lists load faster than arrays


def _key_prefix(seed: int, label: str):
    """blake2b fed with a stream key's message up to the index: the seed, the label's UTF-8 byte length
    and the label.  A copy finished with the packed index gives the key of (seed, label, index)."""
    raw = label.encode("utf-8")
    return hashlib.blake2b(struct.pack("<QI", seed, len(raw)) + raw, digest_size=16)


def _index_bytes(index: int, name: str = "stream index") -> bytes:
    """``index`` packed as the last 8 bytes of a key's hash message; ValueError unless struct packs it as an
    unsigned 64-bit integer.  A bool packs as 0 or 1: callers that take one from a user rule it out first."""
    try:
        return _INDEX.pack(index)
    except struct.error:
        raise ValueError(f"{name} must be an integer >= 0 and < 2**64, got {index!r}") from None


def _stream_key(seed: int, label: str, index: int) -> tuple[int, int]:
    """128-bit Philox key as a pure function of (seed, label, index); index is an unsigned 64-bit integer."""
    _check_count("stream index", index, 0)
    h = _key_prefix(seed, label)
    h.update(_index_bytes(index))
    return struct.unpack("<QQ", h.digest())


@dataclass(frozen=True)
class RngRoot:
    """Master seed for a whole experiment; immutable and freely shareable."""

    seed: int

    def __post_init__(self) -> None:
        _check_count("seed", self.seed, 0)
        _index_bytes(self.seed, "seed")

    def child(self, label: str, index: int = 0) -> RngRoot:
        """Derive a sub-root (e.g. one per run) without consuming draws."""
        return RngRoot(_stream_key(self.seed, label, index)[0])

    def stream(self, label: str, index: int) -> RngStream:
        """The stream identified by (self, label, index); equal arguments give equal sequences."""
        return RngStream(self, label, index)


class RngStream:
    """A cursor over one stream's variates, owned by a single consumer at a time.

    Variate j is a pure function of (root seed, label, index, j), read through ``keyed_normals``.
    """

    def __init__(self, root: RngRoot, label: str, index: int):
        _check_count("stream index", index, 0)  # the checks of _stream_key, with no hash
        _index_bytes(index)
        self.root = root
        self.label = label
        self.index = index
        self.drawn = 0
        self._ahead = np.empty(0)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(seed={self.root.seed}, label={self.label!r}, index={self.index})"

    def normals(self, n: int) -> np.ndarray:
        """The next n i.i.d. standard normal draws of the stream."""
        _check_count("n", n, 0)
        start, self.drawn = self.drawn, self.drawn + n
        if self.drawn > self._ahead.size:  # redrawn at least doubled, so k variates in chunks cost O(k)
            self._ahead = keyed_normals(self.root, [(self.label, max(self.drawn, 2 * start))], [self.index])[0]
        return self._ahead[start : self.drawn]


def _open_interval(u: np.ndarray) -> np.ndarray:
    """Map ``Generator.random``'s k * 2^-53, k a word's top 53 bits, to (k + 0.5) * 2^-53 in place.

    Scaling by a power of two is exact, so adding 2^-54 rounds as k + 0.5 does.  For
    k >= 2^52 that sum rounds to an even integer, so the 2^11 highest words would give
    1.0 (ndtri: +inf); they are clamped to the largest double below 1.
    """
    u += 2.0**-54
    return np.minimum(u, _BELOW_ONE, out=u)


def keyed_normals(
    root: RngRoot, streams: Sequence[tuple[str, int]], indices: Sequence[int], out: np.ndarray | None = None
) -> np.ndarray:
    """Leading standard normals of many streams, one row per index, into ``out`` if given.

    Row k holds, side by side for each (label, count) in ``streams``, the first ``count``
    variates of stream (root, label, indices[k]); ``RngStream.normals`` reads them from here.
    The process's one Philox is re-keyed for each stream (counter 0, empty buffer) instead of
    built, and its generator writes the uniforms straight into the row.
    """
    for label, count in streams:
        _check_count(f"count of stream {label!r}", count, 0)
    width = sum(count for _, count in streams)
    if out is None:
        out = np.empty((len(indices), width))
    prefixes = [(_key_prefix(root.seed, label), count) for label, count in streams]
    with _KEYING:
        for k, index in enumerate(indices):
            packed = _index_bytes(index)
            col = 0
            for prefix, count in prefixes:
                h = prefix.copy()  # _stream_key's hash, with the prefix fed once per label
                h.update(packed)
                _STATE["state"]["key"] = struct.unpack("<QQ", h.digest())
                _BITGEN.state = _STATE
                _FILL(out=out[k, col : col + count])
                col += count
    u = _open_interval(out)
    return ndtri(u, out=u)
