"""Probability profiles, parametric families, and summary scalars.

A profile is one row b(1),...,b(n) of success probabilities for independent
(or comparison) Bernoulli variables.  Families generate profiles for any
requested n, which lets grid sweeps study how the summary scalars move as n
grows.  Everything here is immutable and pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import frozen_row
from .errors import HypothesisError, ValidationError

FAMILY_KINDS = ("constant_total", "constant_p", "row_power", "index_power", "from_file")
WINDOW_KINDS = ("power", "power_of_lambda", "constant")


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
        # min and max propagate NaN, and a NaN fails either comparison.
        if not (0.0 <= probs.min() and probs.max() < 1.0):
            i = int(np.flatnonzero(~((probs >= 0.0) & (probs < 1.0)))[0])
            raise ValidationError(f"profile entry {i} is {float(probs[i])!r}, must lie in [0, 1)")
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class ProfileSummary:
    """Derived scalars of one profile.

    lambda_n = sum b_i            (mean of the count)
    m_n      = max b_i
    alpha_n  = sum ln(1 - b_i)    (log of the zero-count probability)
    beta_n   = sum b_i / (1-b_i)  (odds sum)
    sum_sq   = sum b_i^2
    var_n    = sum b_i (1-b_i)    (variance of the count)
    """

    n: int
    lambda_n: float
    m_n: float
    alpha_n: float
    beta_n: float
    sum_sq: float
    var_n: float


def summarize(profile: BernoulliProfile) -> ProfileSummary:
    """Compute all six summary scalars with exactly-rounded sums.

    math.fsum keeps each scalar independent of entry order, which makes
    summarize permutation-invariant bit for bit.  log1p(-p) keeps alpha_n
    accurate when entries are as small as 1e-12.  The sums read the row
    through a memoryview, one Python float at a time: an n-long list would
    hold n float objects at once.
    """
    ps = memoryview(profile.probs)
    return ProfileSummary(
        n=len(ps),
        lambda_n=math.fsum(ps),
        m_n=float(profile.probs.max()),
        alpha_n=math.fsum(math.log1p(-p) for p in ps),
        beta_n=math.fsum(p / (1.0 - p) for p in ps),
        sum_sq=math.fsum(p * p for p in ps),
        var_n=math.fsum(p * (1.0 - p) for p in ps),
    )


@dataclass(frozen=True)
class ProfileFamily:
    """A rule that produces one profile per row size n.

    Kinds:
      constant_total(c)  entries c/n       (fixed mean c)
      constant_p(p)      entries p         (classical binomial row)
      row_power(c, a)    entries c * n^-a  (flat row, shrinking with n)
      index_power(c, a)  entries c * i^-a  for i = 1..n
      from_file(path)    entries read from a text file; n must match
    """

    kind: str
    params: tuple[float, ...] = ()
    path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise ValidationError(f"unknown family kind {self.kind!r}")
        arity = {"constant_total": 1, "constant_p": 1, "row_power": 2,
                 "index_power": 2, "from_file": 0}[self.kind]
        coerced = tuple(float(x) for x in self.params)
        if len(coerced) != arity:
            raise ValidationError(
                f"family {self.kind} takes {arity} parameter(s), got {len(coerced)}"
            )
        if self.kind == "from_file" and not self.path:
            raise ValidationError("from_file family needs a path")
        if self.kind != "from_file" and self.path is not None:
            raise ValidationError(f"family {self.kind} takes no path")
        object.__setattr__(self, "params", coerced)

    @classmethod
    def constant_total(cls, c: float) -> "ProfileFamily":
        return cls("constant_total", (c,))

    @classmethod
    def constant_p(cls, p: float) -> "ProfileFamily":
        return cls("constant_p", (p,))

    @classmethod
    def row_power(cls, c: float, a: float) -> "ProfileFamily":
        return cls("row_power", (c, a))

    @classmethod
    def index_power(cls, c: float, a: float) -> "ProfileFamily":
        return cls("index_power", (c, a))

    @classmethod
    def from_file(cls, path: str) -> "ProfileFamily":
        return cls("from_file", (), path)

    def spec_string(self) -> str:
        if self.kind == "from_file":
            return f"from_file:{self.path}"
        inner = ",".join(format(x, "g") for x in self.params)
        return f"{self.kind}:{inner}"


def generate(family: ProfileFamily, n: int) -> BernoulliProfile:
    """Produce the family's profile for row size n.

    Parameter validation happens here, per n: a family can be fine for one
    row size and out of range for another (constant_total(2) at n=2 would
    need entries equal to 1).  Deterministic: same family and n give the
    bitwise-identical profile.
    """
    if n < 1:
        raise ValidationError("row size n must be >= 1")
    kind = family.kind
    if kind == "constant_total":
        values = [family.params[0] / n] * n
    elif kind == "constant_p":
        values = [family.params[0]] * n
    elif kind == "row_power":
        c, a = family.params
        values = [c * float(n) ** -a] * n
    elif kind == "index_power":
        c, a = family.params
        values = [c * float(i) ** -a for i in range(1, n + 1)]
    else:
        prof = load_profile(family.path or "")
        if prof.n != n:
            raise ValidationError(
                f"profile file {family.path} has {prof.n} entries, expected n={n}"
            )
        return prof
    try:
        return BernoulliProfile(values)
    except ValidationError:
        # Walk the row only to name the first offending entry.
        for i, v in enumerate(values):
            if not 0.0 <= v < 1.0:
                raise ValidationError(
                    f"family {family.spec_string()} yields entry {v!r} at index {i} "
                    f"for n={n}, outside [0, 1)"
                ) from None
        raise


def load_profile(path: str) -> BernoulliProfile:
    """Read a profile file: one decimal per line, '#' comments, blanks skipped."""
    values: list[float] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValidationError(f"cannot read profile file {path}: {exc}") from exc
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
            raise ValidationError(
                f"{path}:{lineno}: value {text} outside [0, 1)"
            )
        values.append(value)
    if not values:
        raise ValidationError(f"profile file {path} contains no values")
    return BernoulliProfile(values)


@dataclass(frozen=True)
class GrowthWindow:
    """A positive scalar function of n used to bound the k-range k^2 <= phi(n).

    Kinds: power(c, a) -> c*n^a; power_of_lambda(c, a) -> c*lambda_n^a;
    constant(c) -> c.  c must be positive so phi stays positive.
    """

    kind: str
    c: float
    a: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in WINDOW_KINDS:
            raise ValidationError(f"unknown window kind {self.kind!r}")
        if not self.c > 0:
            raise ValidationError("window scale c must be > 0")
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "a", float(self.a))

    @classmethod
    def power(cls, c: float, a: float) -> "GrowthWindow":
        return cls("power", c, a)

    @classmethod
    def power_of_lambda(cls, c: float, a: float) -> "GrowthWindow":
        return cls("power_of_lambda", c, a)

    @classmethod
    def constant(cls, c: float) -> "GrowthWindow":
        return cls("constant", c)

    def value(self, n: int, lambda_n: float | None = None) -> float:
        if self.kind == "constant":
            return self.c
        if self.kind == "power":
            return self.c * float(n) ** self.a
        if lambda_n is None or lambda_n <= 0.0:
            raise HypothesisError(
                "power_of_lambda window needs lambda_n > 0"
            )
        return self.c * lambda_n ** self.a

    def spec_string(self) -> str:
        if self.kind == "constant":
            return f"constant:{self.c:g}"
        return f"{self.kind}:{self.c:g},{self.a:g}"


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
    n: int
    m_n: float
    lambda_n: float
    sum_sq: float
    phi: float
    phi_m: float
    phi_over_lambda: float


@dataclass(frozen=True)
class ConditionReport:
    """Per-n summaries plus trend verdicts for the smallness hypotheses.

    a1 tracks m_n, a4 tracks sum b^2, window_m tracks phi*m_n and
    window_over_lambda tracks phi/lambda_n.  lambda_trend labels the raw
    mean as 'increasing', 'decreasing' or 'stable' across the grid and
    lambda_last is the final grid value, the best finite proxy for the
    limiting mean.
    """

    grid: tuple[int, ...]
    rows: tuple[ConditionRow, ...]
    a1: TrendVerdict
    a4: TrendVerdict
    window_m: TrendVerdict
    window_over_lambda: TrendVerdict
    lambda_trend: str
    lambda_last: float
    threshold: float
    window: str = field(default="")


def _trend(values: list[float], threshold: float) -> TrendVerdict:
    return TrendVerdict(
        decreasing=values[-1] < values[0],
        final=values[-1],
        below_threshold=values[-1] < threshold,
    )


def verdicts_from_rows(
    rows: tuple[ConditionRow, ...], threshold: float
) -> dict[str, object]:
    """Recompute all verdicts from the per-n rows (pure, used by reports)."""
    m = [r.m_n for r in rows]
    ss = [r.sum_sq for r in rows]
    pm = [r.phi_m for r in rows]
    pl = [r.phi_over_lambda for r in rows]
    lam = [r.lambda_n for r in rows]
    if math.isclose(lam[-1], lam[0], rel_tol=1e-9, abs_tol=1e-300):
        lam_trend = "stable"
    elif lam[-1] > lam[0]:
        lam_trend = "increasing"
    else:
        lam_trend = "decreasing"
    return {
        "a1": _trend(m, threshold),
        "a4": _trend(ss, threshold),
        "window_m": _trend(pm, threshold),
        "window_over_lambda": _trend(pl, threshold),
        "lambda_trend": lam_trend,
        "lambda_last": lam[-1],
    }


def check_conditions(
    family: ProfileFamily,
    grid,
    window: GrowthWindow,
    threshold: float = 0.1,
) -> ConditionReport:
    """Tabulate the smallness quantities for a family along a grid of n.

    The verdicts say only what the finite grid shows.  A 'decreasing' a1 with
    a tiny final value is evidence in favour of max-entry smallness, never a
    proof of the limit.
    """
    grid = tuple(int(n) for n in grid)
    if len(grid) < 2:
        raise ValidationError("grid needs at least two points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("grid must be strictly increasing")
    rows = []
    for n in grid:
        s = summarize(generate(family, n))
        phi = window.value(n, s.lambda_n)
        rows.append(
            ConditionRow(
                n=n,
                m_n=s.m_n,
                lambda_n=s.lambda_n,
                sum_sq=s.sum_sq,
                phi=phi,
                phi_m=phi * s.m_n,
                phi_over_lambda=(phi / s.lambda_n) if s.lambda_n > 0 else math.inf,
            )
        )
    rows = tuple(rows)
    v = verdicts_from_rows(rows, threshold)
    return ConditionReport(
        grid=grid,
        rows=rows,
        a1=v["a1"],
        a4=v["a4"],
        window_m=v["window_m"],
        window_over_lambda=v["window_over_lambda"],
        lambda_trend=v["lambda_trend"],
        lambda_last=v["lambda_last"],
        threshold=threshold,
        window=window.spec_string(),
    )
