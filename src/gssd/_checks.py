"""The four argument rules every module applies: ``_check_count`` for integer counts (and, as "number of
<name>", for sizes), ``_check_real`` for real-valued settings, ``_check_choice`` for named options and
``_check_type`` for settings of one of the package's types.  Each raises ValueError that reads
"<name> must be ..., got <value>"."""

import math
import numbers

import numpy as np


def _check_count(name: str, value, least: int = 1) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_real(name: str, value, low: float = 0.0, strict: bool = False) -> None:
    """Raise ValueError unless ``value`` is a finite real number (not a bool) of at least ``low``, or above
    ``low`` when ``strict``; with ``low = -inf`` any finite real passes."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        abs(value) < math.inf and (value > low if strict else value >= low)
    ):
        if low == 0:
            rule = " and positive" if strict else " and non-negative"
        else:
            rule = f" and {'>' if strict else '>='} {low!r}" if low > -math.inf else ""
        raise ValueError(f"{name} must be finite{rule}, got {value!r}")


def _check_choice(name: str, value, choices) -> None:
    """Raise ValueError unless ``value`` is one of ``choices``."""
    if value not in tuple(choices):
        raise ValueError(f"{name} must be one of {tuple(choices)}, got {value!r}")


def _check_type(name: str, value, kind: type) -> None:
    """Raise ValueError unless ``value`` is an instance of ``kind``."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
