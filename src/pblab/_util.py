"""Small numeric helpers used across modules."""

from __future__ import annotations

import json
import math
import operator
from itertools import chain

import numpy as np

from .errors import ValidationError

# log(k!) for k = 0..20 is math.log of the exact integer math.factorial(k).
_LOG_FACT_TABLE = tuple(math.log(math.factorial(k)) for k in range(21))

SUM_BLOCK = 1 << 13  # entries per block of exact_sum (64 KiB): its temporaries stay in cache


def exact_sum(values) -> float:
    """math.fsum of a float64 array, or of an iterable of arrays, bit for bit.

    ExtractVector (Rump, Ogita & Oishi, "Accurate floating-point summation
    part I", SIAM J. Sci. Comput. 31 (2008)) on blocks r of at most SUM_BLOCK
    entries.  With 2^e <= max|r| < 2^(e+1), sigma = 2^(e + ceil(log2(len + 2)) + 1)
    is at least (len + 2) 2^(e+1), so each q = (sigma + r) - sigma and each
    partial sum of the q is a multiple of 2^-53 sigma below sigma in size, a
    float: q.sum() is exact in any order, as is r - q.  After up to three passes
    (about 38 bits each), math.fsum of the pass sums and nonzero leftovers,
    whose exact sum is the values', rounds as fsum of the values does.  From a
    block with inf or nan, or whose sigma brings the blocks' sigmas (a bound on
    every partial sum) to 2^1023, fsum takes the values as they are (inf, nan, errors).
    """
    blocks = (chunk[i:i + SUM_BLOCK]
              for chunk in ([values] if isinstance(values, np.ndarray) else values)
              for i in range(0, len(chunk), SUM_BLOCK))
    pieces, bound = [], 0.0
    for r in blocks:
        top = float(np.abs(r).max())  # max propagates NaN
        shift = (len(r) + 1).bit_length()  # ceil(log2(len + 2)); frexp's exponent is e + 1
        bound += math.ldexp(1.0, min(math.frexp(top)[1] + shift, 1023))
        if not (math.isfinite(top) and bound < 2.0 ** 1023):
            rest = chain.from_iterable(map(memoryview, chain([r], blocks)))
            return math.fsum(chain(pieces, rest))
        for _ in range(3):
            sigma = math.ldexp(1.0, math.frexp(top)[1] + shift)
            q = (sigma + r) - sigma
            pieces.append(float(q.sum()))
            r = r - q
            top = float(np.abs(r).max())
            if top == 0.0:
                break
        pieces.extend(r[r != 0.0].tolist())
    return math.fsum(pieces)


def log_factorials(ks: np.ndarray) -> np.ndarray:
    """log(k!) at each entry of an int array of k >= 0: the table to 20, libm's lgamma above."""
    small = ks <= 20
    out = np.empty(ks.shape)
    out[small] = np.take(_LOG_FACT_TABLE, ks[small])
    out[~small] = libm_map(math.lgamma, ks[~small] + 1.0)
    return out


def libm_map(fn, values) -> np.ndarray:
    """fn of each entry of values, one Python float at a time, as a float64 array of values' shape.

    For libm's exp and lgamma: np.exp can differ in the last bit.  (libm's pow is np.float_power.)
    """
    values = np.asarray(values, dtype=np.float64)
    return np.array(list(map(fn, values.ravel().tolist()))).reshape(values.shape)


def libm_exp(values) -> np.ndarray:
    """libm's exp of each entry of values, as libm_map gives it, with inf where it overflows."""
    return libm_map(_exp_or_inf, values)


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def as_count(value, what: str) -> int:
    """value as an int through operator.index: ints and numpy ints pass, a bool or float does not."""
    try:
        if isinstance(value, bool):  # operator.index takes True as 1; numpy's bool it refuses
            raise TypeError
        return operator.index(value)
    except TypeError as exc:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from exc


def as_counts(values, what: str) -> np.ndarray:
    """values as an int array of entries >= 0; a float, bool or object dtype is refused."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise ValidationError(f"{what} must be integers, got dtype {arr.dtype}")
    if (arr < 0).any():
        raise ValidationError(f"{what} must be nonnegative")
    return arr


def spec_number(x: float) -> str:
    """x as a spec-string token: its %g form when that reads back as x, else repr."""
    token = format(x, "g")
    return token if float(token) == x else repr(float(x))


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


def frozen_row(values, what: str, dtype=np.float64) -> np.ndarray:
    """A new read-only 1-D copy of values (float64 unless dtype says); the caller checks entries."""
    try:
        row = np.array(values, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be a row of numbers: {exc}") from exc
    if row.ndim != 1:
        raise ValidationError(f"{what} must be one-dimensional, got shape {row.shape}")
    row.flags.writeable = False
    return row


def read_json(path: str, what: str):
    """The JSON value in the file at path.

    A read, decode or parse error names the file, and so does a key
    repeated in one object, which json would otherwise let the last value win.
    """

    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValidationError(f"{path}: repeated key {key!r} in {what} file")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {what} file is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
