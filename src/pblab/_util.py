"""Small numeric helpers used across modules."""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

# log(k!) for k = 0..20 is math.log of the exact integer math.factorial(k);
# lgamma covers the rest.
_LOG_FACT_TABLE: tuple[float, ...] = tuple(
    math.log(math.factorial(k)) if k else 0.0 for k in range(21)
)


def log_factorial(k: int) -> float:
    """Return log(k!) for integer k >= 0."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k <= 20:
        return _LOG_FACT_TABLE[k]
    return math.lgamma(k + 1.0)


def neumaier_sum(terms) -> tuple[float, float]:
    """Compensated sum of an iterable of floats.

    Returns (sum, sum_of_absolute_values).  The second value feeds the
    cancellation estimate for alternating series: eps * sum_abs bounds the
    rounding noise of the compensated sum, so comparing it against the
    magnitude of the result tells whether the result is trustworthy.
    """
    total = 0.0
    comp = 0.0
    total_abs = 0.0
    for t in terms:
        total_abs += abs(t)
        s = total + t
        if abs(total) >= abs(t):
            comp += (total - s) + t
        else:
            comp += (t - s) + total
        total = s
    return total + comp, total_abs


def frozen_row(values, what: str) -> np.ndarray:
    """A new read-only 1-D float64 copy of values; the caller checks entries."""
    try:
        row = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be a row of numbers: {exc}") from exc
    if row.ndim != 1:
        raise ValidationError(f"{what} must be one-dimensional, got shape {row.shape}")
    row.flags.writeable = False
    return row
