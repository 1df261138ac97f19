"""Probability profiles, parametric families, and summary scalars.

A profile is one row b(1),...,b(n) of success probabilities for independent
(or comparison) Bernoulli variables.  Families generate profiles for any
requested n, which lets grid sweeps study how the summary scalars move as n
grows.  Everything here is immutable and pure.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from ._util import SUM_BLOCK, as_count, exact_sum, frozen_row, spec_number
from .errors import HypothesisError, SizeError, ValidationError

# kind -> number of parameters: the one vocabulary of each spec format, read
# by the type's constructor, its parse and its spec_string.
FAMILY_KINDS = {"constant_total": 1, "constant_p": 1, "row_power": 2, "index_power": 2}
WINDOW_KINDS = {"power": 2, "power_of_lambda": 2, "constant": 1}


def _first_outside(row: np.ndarray) -> int | None:
    """Index of the first entry of row outside [0, 1), or None."""
    # min and max propagate NaN, and a NaN fails either comparison.
    if not len(row) or (0.0 <= row.min() and row.max() < 1.0):
        return None
    return int(np.flatnonzero(~((row >= 0.0) & (row < 1.0)))[0])


@dataclass(frozen=True, eq=False)
class BernoulliProfile:
    """One row of success probabilities, each in [0, 1).

    probs is a 1-D read-only float64 array, copied from the input at
    construction, so later changes to the caller's data do not reach it.
    Profiles compare by identity (compare probs to compare rows).

    Entries equal to 1 are rejected: they make the odds sum and the log
    survival sum infinite, and every downstream bound assumes 1-p > 0.
    Zero entries are allowed; they are inert in every formula.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = frozen_row(self.probs, "profile")
        if not len(probs):
            raise ValidationError("profile needs at least one entry")
        i = _first_outside(probs)
        if i is not None:
            raise ValidationError(f"profile entry {i} is {float(probs[i])!r}, must lie in [0, 1)")
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return len(self.probs)

    @cached_property
    def summary(self) -> ProfileSummary:
        """The row's ProfileSummary, made on first use and kept: probs is read-only."""
        return ProfileSummary(self.probs)


def _chunks(probs: np.ndarray):
    """The row as views of SUM_BLOCK entries, so no summand array is as long as the row."""
    return (probs[i:i + SUM_BLOCK] for i in range(0, len(probs), SUM_BLOCK))


class ProfileSummary:
    """The summary scalars of one read-only row, each computed when first read.

    n        = the number of entries
    lambda_n = sum b_i            (mean of the count)
    m_n      = max b_i
    alpha_n  = sum ln(1 - b_i)    (log of the zero-count probability)
    beta_n   = sum b_i / (1-b_i)  (odds sum)
    sum_sq   = sum b_i^2
    var_n    = sum b_i (1-b_i)    (variance of the count)

    Each scalar is computed once, the first time a report reads it, so a
    report pays for the sums it reads and no others.  Summaries are equal
    when their seven fields are; as_dict gives the fields in FIELDS order.

    Every sum is correctly rounded, so each scalar depends only on the set
    of its summands: a summary is permutation-invariant bit for bit, and
    summing a chunk at a time gives the same bits as summing the whole row.
    All but alpha_n are summed by _util.exact_sum, with math.fsum's bits.
    The summands are numpy's +, -, * and / of the row, which round as IEEE
    requires and so match the Python float arithmetic entry for entry.
    alpha_n maps libm's log1p over the row one entry at a time, as
    index_power rows map libm's pow (see generate), rather than calling
    numpy's log1p and power ufuncs: those are numpy's own SIMD kernels, not
    libm.  On an AVX-512 host with numpy 2.4.6, numpy's log1p is one ulp off
    libm on 18,323 of the 10^6 entries of index_power:0.5,0.5 and on 51,016
    of 10^6 uniform(0, 0.3) entries, and its power on 48,562 to 51,299 of
    the 10^6 indices for exponents -0.3, -0.5 and -0.75.  Either would move
    alpha_n and the profile bits, and with them the emitted bytes.
    log1p(-p) keeps alpha_n accurate when entries are as small as 1e-12.
    """

    FIELDS = ("n", "lambda_n", "m_n", "alpha_n", "beta_n", "sum_sq", "var_n")

    def __init__(self, probs: np.ndarray) -> None:
        self._probs = probs

    @property
    def n(self) -> int:
        return len(self._probs)

    @cached_property
    def lambda_n(self) -> float:
        return exact_sum(self._probs)

    @cached_property
    def m_n(self) -> float:
        return float(self._probs.max())

    @cached_property
    def alpha_n(self) -> float:
        logs = (map(math.log1p, memoryview(-p)) for p in _chunks(self._probs))
        return math.fsum(chain.from_iterable(logs))

    @cached_property
    def beta_n(self) -> float:
        return exact_sum(p / (1.0 - p) for p in _chunks(self._probs))

    @cached_property
    def sum_sq(self) -> float:
        return exact_sum(p * p for p in _chunks(self._probs))

    @cached_property
    def var_n(self) -> float:
        return exact_sum(p * (1.0 - p) for p in _chunks(self._probs))

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProfileSummary):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return f"ProfileSummary({', '.join(f'{k}={v!r}' for k, v in self.as_dict().items())})"


@dataclass(frozen=True)
class ProfileFamily:
    """A rule that produces one profile per row size n.

    Kinds:
      constant_total(c)  entries c/n       (fixed mean c)
      constant_p(p)      entries p         (classical binomial row)
      row_power(c, a)    entries c * n^-a  (flat row, shrinking with n)
      index_power(c, a)  entries c * i^-a  for i = 1..n
    """

    kind: str
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise ValidationError(f"unknown family kind {self.kind!r}")
        arity = FAMILY_KINDS[self.kind]
        coerced = tuple(float(x) for x in self.params)
        if len(coerced) != arity:
            raise ValidationError(
                f"family {self.kind} takes {arity} parameter(s), got {len(coerced)}"
            )
        object.__setattr__(self, "params", coerced)

    @classmethod
    def parse(cls, spec: str) -> "ProfileFamily":
        """The family a spec string kind:p1[,p2] names; the inverse of spec_string."""
        kind, _, rest = spec.partition(":")
        if kind not in FAMILY_KINDS:
            raise ValidationError(f"unknown family kind {kind!r}")
        if not rest:
            raise ValidationError(f"family spec {spec!r} needs parameters after ':'")
        try:
            params = tuple(float(x) for x in rest.split(","))
        except ValueError as exc:
            raise ValidationError(f"cannot parse family parameters in {spec!r}") from exc
        return cls(kind, params)

    def spec_string(self) -> str:
        inner = ",".join(map(spec_number, self.params))
        return f"{self.kind}:{inner}"


def _pow_or_inf(x: float, y: float) -> float:
    """x ** y, with inf where Python raises OverflowError (libm's pow returns inf there)."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


def generate(family: ProfileFamily, n: int) -> BernoulliProfile:
    """Produce the family's profile for row size n.

    Parameter validation happens here, per n: a family can be fine for one
    row size and out of range for another (constant_total(2) at n=2 would
    need entries equal to 1).  Deterministic: same family and n give the
    bitwise-identical profile.  Every entry is the Python float expression
    the kind names: index_power takes libm's pow of each index (as float **
    does, see ProfileSummary) and scales the row by c.  A row numpy cannot index,
    or one the host cannot allocate, raises SizeError naming n.
    """
    if n < 1:
        raise ValidationError("row size n must be >= 1")
    if 8 * n > np.iinfo(np.intp).max:  # numpy indexes no larger array
        raise SizeError(f"row size n={n} needs more than {np.iinfo(np.intp).max} bytes of float64")
    kind = family.kind
    try:  # numpy fails at once to allocate a row no host can hold
        if kind == "index_power":
            c, a = family.params
            idx = np.ones(n)  # 1..n as exact sums; arange would take its length from a float
            np.cumsum(idx, out=idx)
            try:
                row = np.fromiter(map(operator.pow, memoryview(idx), repeat(-a)), np.float64, n)
            except OverflowError:
                # A power past the float range is inf, as libm's pow gives; only a
                # row that then fails the range check pays a Python call per entry.
                row = np.fromiter(map(_pow_or_inf, memoryview(idx), repeat(-a)), np.float64, n)
            del idx  # before the profile copies the row
            # A product past the float range is inf, as in Python, and fails the range check.
            with np.errstate(over="ignore", invalid="ignore"):
                row *= c
            i = _first_outside(row)
        else:
            if kind == "constant_total":
                value = family.params[0] / n
            elif kind == "constant_p":
                value = family.params[0]
            else:
                c, a = family.params
                value = c * _pow_or_inf(float(n), -a)
            # A view: the profile's own copy is the one full row.  Its one value is checked.
            row = np.broadcast_to(value, n)
            i = None if 0.0 <= value < 1.0 else 0
        if i is not None:
            raise ValidationError(
                f"family {family.spec_string()} yields entry {float(row[i])!r} at index {i} "
                f"for n={n}, outside [0, 1)"
            )
        return BernoulliProfile(row)
    except MemoryError as exc:
        raise SizeError(f"row size n={n} cannot be allocated: {exc}") from exc


def _raise_first_bad_line(path: str, lines: list[str]) -> None:
    """Walk the lines of a bad profile file and name its first bad one."""
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        try:
            value = float(text)
        except ValueError as exc:
            raise ValidationError(
                f"{path}:{lineno}: cannot parse {text!r} as a probability"
            ) from exc
        if not 0.0 <= value < 1.0:
            raise ValidationError(f"{path}:{lineno}: value {text} outside [0, 1)")


def load_profile(path: str) -> BernoulliProfile:
    """Read a profile file: one decimal per line, '#' comments, blanks skipped.

    Lines are those of readlines in text mode: they end at LF, CR-LF or a
    lone CR, not at the form feeds and other separators that str.splitlines
    also splits on.  The values parse in one pass and are range-checked as
    one array; only a bad file is walked line by line, to name its first
    bad line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValidationError(f"cannot read profile file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: profile file is not UTF-8: {exc}") from exc
    # A generator, so no second list of the lines' text is held.
    texts = (t for t in map(str.strip, lines) if t and t[0] != "#")
    try:
        row = np.fromiter(map(float, texts), np.float64)
    except ValueError:
        row = None
    if row is None or _first_outside(row) is not None:
        _raise_first_bad_line(path, lines)
    if not len(row):
        raise ValidationError(f"profile file {path} contains no values")
    return BernoulliProfile(row)


@dataclass(frozen=True)
class GrowthWindow:
    """A positive scalar function of n used to bound the k-range k^2 <= phi(n).

    Kinds: power(c, a) -> c*n^a; power_of_lambda(c, a) -> c*lambda_n^a;
    constant(c) -> c, whose a stays None.  c must be finite and positive,
    and a a number, so phi is never NaN (inf * 0 would be).  A power past
    the float range is inf, and a may be infinite.
    """

    kind: str
    c: float
    a: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in WINDOW_KINDS:
            raise ValidationError(f"unknown window kind {self.kind!r}")
        arity, given = WINDOW_KINDS[self.kind], 1 + (self.a is not None)
        if given != arity:
            raise ValidationError(f"window {self.kind} takes {arity} parameter(s), got {given}")
        c = float(self.c)
        if not c > 0:
            raise ValidationError("window scale c must be > 0")
        if c == math.inf:
            raise ValidationError("window scale c must be finite")
        object.__setattr__(self, "c", c)
        if self.a is not None:
            a = float(self.a)
            if math.isnan(a):
                raise ValidationError("window exponent a must not be NaN")
            object.__setattr__(self, "a", a)

    @classmethod
    def parse(cls, spec: str) -> "GrowthWindow":
        """The window a spec string kind:c[,a] names; the inverse of spec_string."""
        kind, _, rest = spec.partition(":")
        try:
            params = tuple(float(x) for x in rest.split(",")) if rest else ()
        except ValueError as exc:
            raise ValidationError(f"cannot parse window parameters in {spec!r}") from exc
        if WINDOW_KINDS.get(kind) != len(params):
            forms = " or ".join(f"{k}:{','.join('ca'[:arity])}"
                                for k, arity in WINDOW_KINDS.items())
            raise ValidationError(f"window spec {spec!r} must be {forms}")
        return cls(kind, *params)

    def value(self, n: int, lambda_n: float | None = None) -> float:
        if self.kind == "constant":
            return self.c
        if self.kind == "power":
            base = float(n)
        elif lambda_n is None or lambda_n <= 0.0:
            raise HypothesisError(
                "power_of_lambda window needs lambda_n > 0"
            )
        else:
            base = lambda_n
        return self.c * _pow_or_inf(base, self.a)

    def spec_string(self) -> str:
        params = (self.c, self.a)[:WINDOW_KINDS[self.kind]]
        return f"{self.kind}:{','.join(map(spec_number, params))}"


@dataclass(frozen=True)
class TrendVerdict:
    """Empirical trend of one scalar across the grid.

    decreasing means strictly smaller at the last grid point than the first;
    below_threshold means the final value sits under the smallness cutoff.
    Both are finite-sample observations, not limit statements.
    """

    decreasing: bool
    final: float
    below_threshold: bool


@dataclass(frozen=True)
class ConditionRow:
    """The measured scalars of one grid point; phi_m and phi_over_lambda are properties."""

    n: int
    m_n: float
    lambda_n: float
    sum_sq: float
    phi: float

    @property
    def phi_m(self) -> float:
        return self.phi * self.m_n

    @property
    def phi_over_lambda(self) -> float:
        return (self.phi / self.lambda_n) if self.lambda_n > 0 else math.inf


def _trend(values: list[float], threshold: float) -> TrendVerdict:
    return TrendVerdict(
        decreasing=values[-1] < values[0],
        final=values[-1],
        below_threshold=values[-1] < threshold,
    )


@dataclass(frozen=True)
class ConditionReport:
    """Per-n rows of the smallness quantities; the grid and verdicts are properties.

    Stores the rows, the threshold and the window spec.  Read-only
    properties of the rows: a1 tracks m_n, a4 tracks sum b^2, window_m
    tracks phi*m_n and window_over_lambda tracks phi/lambda_n; lambda_trend
    labels the raw mean as 'increasing', 'decreasing' or 'stable' across
    the grid and lambda_last is the final grid value, the best finite proxy
    for the limiting mean.
    """

    rows: tuple[ConditionRow, ...]
    threshold: float
    window: str = ""

    @property
    def grid(self) -> tuple[int, ...]:
        return tuple(r.n for r in self.rows)

    @property
    def a1(self) -> TrendVerdict:
        return _trend([r.m_n for r in self.rows], self.threshold)

    @property
    def a4(self) -> TrendVerdict:
        return _trend([r.sum_sq for r in self.rows], self.threshold)

    @property
    def window_m(self) -> TrendVerdict:
        return _trend([r.phi_m for r in self.rows], self.threshold)

    @property
    def window_over_lambda(self) -> TrendVerdict:
        return _trend([r.phi_over_lambda for r in self.rows], self.threshold)

    @property
    def lambda_trend(self) -> str:
        first, last = self.rows[0].lambda_n, self.rows[-1].lambda_n
        if math.isclose(last, first, rel_tol=1e-9, abs_tol=1e-300):
            return "stable"
        return "increasing" if last > first else "decreasing"

    @property
    def lambda_last(self) -> float:
        return self.rows[-1].lambda_n


def check_grid(grid) -> tuple[int, ...]:
    """The grid of n as a tuple of ints; it needs two or more, strictly increasing."""
    grid = tuple(as_count(n, "grid point") for n in grid)
    if len(grid) < 2:
        raise ValidationError("grid needs at least two points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("grid must be strictly increasing")
    return grid


def check_threshold(threshold: float) -> None:
    """The smallness cutoff check_conditions reads must be > 0 (written so NaN fails too)."""
    if not threshold > 0.0:
        raise ValidationError("threshold must be > 0")


def check_conditions(
    family: ProfileFamily,
    grid,
    window: GrowthWindow,
    threshold: float = 0.1,
) -> ConditionReport:
    """Tabulate the smallness quantities for a family along a grid of n.

    Each grid point's summary computes only the three scalars its row
    stores: m_n, lambda_n and sum b^2.

    The verdicts say only what the finite grid shows.  A 'decreasing' a1 with
    a tiny final value is evidence in favour of max-entry smallness, never a
    proof of the limit.
    """
    check_threshold(threshold)
    rows = []
    for n in check_grid(grid):
        s = generate(family, n).summary
        rows.append(ConditionRow(n, s.m_n, s.lambda_n, s.sum_sq, window.value(n, s.lambda_n)))
    return ConditionReport(tuple(rows), threshold, window.spec_string())
