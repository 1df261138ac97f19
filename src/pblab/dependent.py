"""Dependent Bernoulli schemes checked against an independent comparison row.

A dependent model exposes joint success probabilities over index sets
(0-based).  The k-fold sums of those joints drive the same inclusion-
exclusion PMF formula as the independent case.  The scheme diagnostics
quantify, per k, how far the model sits from the comparison row:

* B1: worst relative deviation of a joint from the matching product of
  comparison entries, over tuples outside the declared rare set.
* B2: full k-fold joint sum over its non-rare part.
* B3: the same ratio for the independent comparison row.

All three sit near 1 (or 0 for B1) exactly when the dependence is confined
to the rare sets, which is the regime where the dependent count inherits
the independent row's Poisson-type behavior.
"""

from __future__ import annotations

import itertools
import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._util import as_count, frozen_row, libm_map, read_json
from .errors import SizeError, ValidationError
from .exact import (
    Pmf,
    SymmetricSums,
    _check_k_max,
    elementary_symmetric,
    pmf_inclusion_exclusion,
    pmf_tree,
)
from .profiles import BernoulliProfile

# Generic joint enumeration walks all k-subsets; hard-guarded like brute force.
_GENERIC_MAX_N = 25
# Exhaustive B1 sweeps when the tuple count stays within this; it also caps
# the sample budget.
_EXHAUSTIVE_MAX = 10**6
# B1 and the generic sums evaluate at most this many tuples per array pass,
# which bounds their memory.
_B1_CHUNK = 1 << 12


class DependentModel(ABC):
    """Joint-probability evaluator over index sets {0..n-1}.

    A subclass writes one evaluator, joint_many; joint and marginals are
    its one-row and one-column cases, so they cannot disagree with it.  The
    joint of no index must be 1, and adding an index must never increase
    the value.  fast_sums may give closed-form k-fold sums instead of the
    subset enumeration.
    """

    @property
    @abstractmethod
    def n(self) -> int: ...

    @abstractmethod
    def joint_many(self, idx: np.ndarray) -> np.ndarray:
        """P(all variables at a row's distinct 0-based indices equal 1).

        One float64 entry per row of the int array idx of shape (m, k).
        """

    def joint(self, indices) -> float:
        """joint_many of the one row of distinct 0-based indices (any iterable)."""
        return float(self.joint_many(np.array([list(indices)], dtype=np.intp))[0])

    @property
    def marginals(self) -> np.ndarray:
        """P(variable i equals 1) for i = 0..n-1, as float64."""
        return self.joint_many(np.arange(self.n)[:, None])

    def fast_sums(self, k_max: int, high_precision: bool = False) -> list | None:
        """Closed-form S_0..S_k_max, or None to make s_tilde enumerate subsets.

        Floats by default; with high_precision, the exact rationals over the
        binary float inputs (s_tilde rounds them for the float column).
        """
        return None

    @abstractmethod
    def restrict(self, keep) -> "DependentModel":
        """The model of the subvector at the kept indices (ascending order)."""


def _gather_prod(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Product of values over each row of idx.

    Multiplies from 1.0 one column at a time, left to right, which is
    math.prod's order, so every entry equals math.prod of the row's values
    bit for bit.
    """
    out = np.ones(len(idx))
    for j in range(idx.shape[1]):
        out *= values[idx[:, j]]
    return out


def _index_chunks(tuples, k: int):
    """The k-tuples (k >= 1) as int arrays of at most _B1_CHUNK rows, in order."""
    flat = itertools.chain.from_iterable(tuples)
    while True:
        idx = np.fromiter(itertools.islice(flat, _B1_CHUNK * k), dtype=np.intp).reshape(-1, k)
        if not len(idx):
            return
        yield idx


def _check_keep(keep, n: int) -> list[int]:
    kept = sorted(set(int(i) for i in keep))
    if not kept:
        raise ValidationError("restriction needs at least one index")
    if any(i < 0 or i >= n for i in kept):
        raise ValidationError(f"restricted indices must lie in 0..{n - 1}")
    return kept


@dataclass(frozen=True)
class ProductModel(DependentModel):
    """Independent product model; the degenerate scheme with no dependence."""

    profile: BernoulliProfile

    @property
    def n(self) -> int:
        return self.profile.n

    def joint_many(self, idx: np.ndarray) -> np.ndarray:
        return _gather_prod(self.profile.probs, idx)

    def fast_sums(self, k_max: int, high_precision: bool = False) -> list:
        sums = elementary_symmetric(self.profile.probs, k_max, high_precision)
        return list(sums.high_precision_values) if high_precision else sums.values.tolist()

    def restrict(self, keep) -> "ProductModel":
        kept = _check_keep(keep, self.n)
        return ProductModel(BernoulliProfile(self.profile.probs[kept]))


@dataclass(frozen=True)
class MixtureModel(DependentModel):
    """Two-component mixture of product rows: an exchangeable-dependence toy.

    With probability 1-eps the row behaves as the p profile, with
    probability eps as the q profile.  Joints, k-fold sums, and the full PMF
    all have closed forms, which makes the model an end-to-end oracle for
    the inclusion-exclusion route.
    """

    eps: float
    p_profile: BernoulliProfile
    q_profile: BernoulliProfile

    def __post_init__(self) -> None:
        try:
            eps = float(self.eps)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"mixture weight must be a number, got {self.eps!r}") from exc
        if not 0.0 <= eps <= 1.0:
            raise ValidationError(f"mixture weight must lie in [0, 1], got {eps!r}")
        if self.p_profile.n != self.q_profile.n:
            raise ValidationError("mixture components must have equal length")
        object.__setattr__(self, "eps", eps)

    @property
    def n(self) -> int:
        return self.p_profile.n

    def joint_many(self, idx: np.ndarray) -> np.ndarray:
        ps = _gather_prod(self.p_profile.probs, idx)
        qs = _gather_prod(self.q_profile.probs, idx)
        return (1.0 - self.eps) * ps + self.eps * qs

    def fast_sums(self, k_max: int, high_precision: bool = False) -> list:
        w = Fraction(self.eps) if high_precision else self.eps
        ep = ProductModel(self.p_profile).fast_sums(k_max, high_precision)
        eq = ProductModel(self.q_profile).fast_sums(k_max, high_precision)
        return [(1 - w) * a + w * b for a, b in zip(ep, eq)]

    def closed_form_pmf(self) -> Pmf:
        """Exact PMF as the eps-weighted mixture of the two product PMFs."""
        lp = pmf_tree(self.p_profile).log_probs
        lq = pmf_tree(self.q_profile).log_probs
        if self.eps == 0.0:
            mixed = lp
        elif self.eps == 1.0:
            mixed = lq
        else:
            mixed = np.minimum(
                np.logaddexp(math.log1p(-self.eps) + lp, math.log(self.eps) + lq), 0.0
            )
        return Pmf(mixed, self.n, "mixture_closed_form")

    def restrict(self, keep) -> "MixtureModel":
        kept = _check_keep(keep, self.n)
        return MixtureModel(
            self.eps,
            BernoulliProfile(self.p_profile.probs[kept]),
            BernoulliProfile(self.q_profile.probs[kept]),
        )


class CallableModel(DependentModel):
    """Wrap a plain function of a frozen index set as a model (no fast path).

    joint_many calls fn once per row, on the row's indices as a frozenset.
    Wrapping another model's joint costs about 6x per subset, since each
    call builds a one-row array, so pass that model itself instead.
    """

    def __init__(self, n: int, fn):
        if n < 1:
            raise ValidationError("model needs n >= 1")
        self._n = int(n)
        self._fn = fn

    @property
    def n(self) -> int:
        return self._n

    def joint_many(self, idx: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (self._fn(frozenset(row)) for row in idx.tolist()), dtype=float, count=len(idx)
        )

    def restrict(self, keep) -> "CallableModel":
        kept = _check_keep(keep, self._n)
        fn = self._fn

        def sub_fn(local_set):
            return fn(frozenset(kept[i] for i in local_set))

        return CallableModel(len(kept), sub_fn)


# rare-set kind -> the field it reads
_RARE_KINDS = {"empty": None, "contains_any": "indices", "explicit": "tuples"}


@dataclass(frozen=True)
class RareSetSpec:
    """Which k-tuples are exempt from the closeness conditions.

    kinds: empty (no exemptions); contains_any (tuples touching the
    index set `indices`); explicit (the literal list `tuples`, small n
    only).  A kind given the field it does not read is refused.  is_rare
    is the one-row case of rare_mask.  Indices are 0-based.
    """

    kind: str
    indices: frozenset = frozenset()
    tuples: frozenset = frozenset()

    def __post_init__(self) -> None:
        if self.kind not in _RARE_KINDS:
            raise ValidationError(f"unknown rare-set kind {self.kind!r}")
        object.__setattr__(self, "indices", frozenset(int(i) for i in self.indices))
        object.__setattr__(
            self,
            "tuples",
            frozenset(tuple(sorted(int(i) for i in t)) for t in self.tuples),
        )
        for name in ("indices", "tuples"):
            if getattr(self, name) and name != _RARE_KINDS[self.kind]:
                raise ValidationError(f"rare-set kind {self.kind} takes no {name}")

    def is_rare(self, t) -> bool:
        """rare_mask of the one row t (any iterable of indices)."""
        return bool(self.rare_mask(np.array([list(t)], dtype=np.intp))[0])

    def rare_mask(self, idx: np.ndarray) -> np.ndarray:
        """Whether each row of an int array of shape (m, k) is a rare tuple."""
        if self.kind == "empty":
            return np.zeros(len(idx), dtype=bool)
        if self.kind == "contains_any":
            return np.isin(idx, sorted(self.indices)).any(axis=1)
        return np.fromiter(
            (tuple(sorted(t)) in self.tuples for t in idx.tolist()), dtype=bool, count=len(idx)
        )

    def spec_string(self) -> str:
        if self.kind == "empty":
            return "empty"
        if self.kind == "contains_any":
            inner = ",".join(str(i) for i in sorted(self.indices))
            return f"contains_any:{inner}"
        inner = ";".join(",".join(str(i) for i in t) for t in sorted(self.tuples))
        return f"explicit:{inner}"


def _guard_generic(n: int) -> None:
    if n > _GENERIC_MAX_N:
        raise SizeError(
            f"generic subset enumeration is guarded at n <= {_GENERIC_MAX_N}, got {n}"
        )


def _fraction_sum(values) -> Fraction:
    return sum(map(Fraction, values), Fraction(0))


def _round_fraction(x: Fraction) -> float:
    """float(x), or inf with x's sign when x lies past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _subset_joints(model: DependentModel, k: int):
    """The joint of every k-subset of 0..n-1, in combinations order."""
    if k == 0:
        return [model.joint(())]
    chunks = _index_chunks(itertools.combinations(range(model.n), k), k)
    return itertools.chain.from_iterable(model.joint_many(idx).tolist() for idx in chunks)


def s_tilde(
    model: DependentModel, k_max: int, high_precision: bool = False
) -> SymmetricSums:
    """k-fold joint sums S_0..S_k_max of the model.

    Uses the model's fast_sums closed form when it has one; otherwise sums
    the joint over every k-subset (guarded at n <= 25) with math.fsum.  In
    high-precision mode either route gives exact rationals over the binary
    float joints, and the float column is their correctly rounded image.
    """
    k_max = _check_k_max(k_max, model.n)
    vals = model.fast_sums(k_max, high_precision)
    if vals is None:
        _guard_generic(model.n)
        total = _fraction_sum if high_precision else math.fsum
        vals = [total(_subset_joints(model, k)) for k in range(k_max + 1)]
    if high_precision:
        return SymmetricSums([_round_fraction(x) for x in vals], vals)
    return SymmetricSums(vals)


def pmf_dependent(model: DependentModel, k: int, high_precision: bool = False) -> float:
    """P(count = k) for the dependent model via inclusion-exclusion.

    Same alternating-sum contract as the independent case: compensated
    summation with a conditioning guard, or exact rationals on request.
    Each call rebuilds the sums; batch via s_tilde + pmf_inclusion_exclusion
    when evaluating many k.
    """
    sums = s_tilde(model, model.n, high_precision)
    return pmf_inclusion_exclusion(sums, k, model.n)


@dataclass(frozen=True)
class RatioReport:
    """Dependent and independent PMF values for k = 0..k_max; the ratios are properties.

    Stores the two measured columns as read-only float64 arrays.  Read-only
    properties of them: ratios divides them at each k, nan where the
    independent probability is not positive (exactly zero, or its exp
    underflowed to 0.0); entries lists (k, ratio) at the other k, omitted_k
    the k skipped, and max_abs_dev the sup of |ratio - 1| over the entries.
    """

    dep_probs: np.ndarray
    indep_probs: np.ndarray

    def __post_init__(self) -> None:
        for name in ("dep_probs", "indep_probs"):
            object.__setattr__(self, name, frozen_row(getattr(self, name), name))

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(len(self.dep_probs))

    @property
    def ratios(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # a subnormal denominator: inf, as a Python float gives
            return np.divide(self.dep_probs, self.indep_probs, where=self.indep_probs > 0.0,
                             out=np.full(len(self.dep_probs), math.nan))

    @property
    def entries(self) -> tuple[tuple[int, float], ...]:
        kept = self.indep_probs > 0.0
        return tuple(zip(np.flatnonzero(kept).tolist(), self.ratios[kept].tolist()))

    @property
    def omitted_k(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(~(self.indep_probs > 0.0)).tolist())

    @property
    def max_abs_dev(self) -> float:
        return float(np.fmax.reduce(np.abs(self.ratios - 1.0), initial=0.0))  # fmax skips nan


def ratio_report(
    model: DependentModel,
    indep: BernoulliProfile,
    k_max: int,
    high_precision: bool = False,
) -> RatioReport:
    """Compare the dependent PMF to the independent comparison row entrywise."""
    if indep.n != model.n:
        raise ValidationError(
            f"comparison row has n={indep.n}, model has n={model.n}"
        )
    k_max = _check_k_max(k_max, model.n)
    sums = s_tilde(model, model.n, high_precision)
    dep = [pmf_inclusion_exclusion(sums, k, model.n) for k in range(k_max + 1)]
    return RatioReport(dep, libm_map(math.exp, pmf_tree(indep, k_max).log_probs))


@dataclass(frozen=True)
class SchemeDiagnostics:
    """Per-k closeness diagnostics of a model to its comparison row.

    b1_max_dev[j] is the worst |joint/product - 1| seen at k = k_values[j]
    over non-rare tuples (inf when a product vanished under a positive
    joint; zero_product flags those k).  b2_ratio divides the model's full
    k-fold sums by their non-rare parts, computed exactly from restriction
    identities, and b3_ratio is the same for the comparison row as a
    product model; both are exactly 1.0 for empty rare sets.
    modes records whether B1 swept every tuple or a seeded sample.
    """

    k_values: tuple[int, ...]
    b1_max_dev: tuple[float, ...]
    b2_ratio: tuple[float, ...]
    b3_ratio: tuple[float, ...]
    modes: tuple[str, ...]
    checked_counts: tuple[int, ...]
    zero_product: tuple[bool, ...]
    seed: int
    sample_budget: int
    rare: str

    @property
    def b1_overall(self) -> float:
        return max(self.b1_max_dev, default=0.0)

    @property
    def b2_max_dev(self) -> float:
        return max((abs(r - 1.0) for r in self.b2_ratio), default=0.0)

    @property
    def b3_max_dev(self) -> float:
        return max((abs(r - 1.0) for r in self.b3_ratio), default=0.0)


def _ratio_or_inf(num: float, den: float) -> float:
    if den > 0.0:
        return num / den
    return 1.0 if num == 0.0 else math.inf


def _nonrare_ratios(model: DependentModel, rare: RareSetSpec, k_max: int) -> list[float]:
    """Full k-fold sum over its non-rare part, for k = 1..k_max, exactly.

    empty: 1.0 for every k, with no sums computed.  contains_any(J):
    non-rare tuples avoid J entirely, so the part IS the k-fold sum of the
    model restricted to the complement.  explicit: subtract the joints of
    listed tuples of size <= k_max; a part that rounds to <= 0 reads as empty.
    """
    if rare.kind == "empty":
        return [1.0] * k_max
    full = s_tilde(model, k_max).values.tolist()
    if rare.kind == "contains_any":
        comp = [i for i in range(model.n) if i not in rare.indices]
        part = [1.0] + [0.0] * k_max
        if comp:
            cap = min(k_max, len(comp))
            part[: cap + 1] = s_tilde(model.restrict(comp), cap).values.tolist()
    else:
        part = list(full)
        for t in rare.tuples:
            if 1 <= len(t) <= k_max:
                part[len(t)] -= model.joint(t)
    return [_ratio_or_inf(full[k], part[k]) for k in range(1, k_max + 1)]


def validate_sample_budget(sample_budget: int) -> None:
    """Reject a B1 sample budget outside 1..10^6.

    Above the cap, a budget larger than the number of distinct tuples makes
    the sampler retry 20 times the budget before it gives up.
    """
    if sample_budget < 1:
        raise ValidationError("sample_budget must be >= 1")
    if sample_budget > _EXHAUSTIVE_MAX:
        raise SizeError(
            f"sample_budget must be <= {_EXHAUSTIVE_MAX}, got {sample_budget}"
        )


def _b1_tuples(n: int, k: int, sample_budget: int, seed: int):
    """The k-tuples B1 checks, in ascending order, and the mode that chose them."""
    if math.comb(n, k) <= _EXHAUSTIVE_MAX:
        return itertools.combinations(range(n), k), "exhaustive"
    rng = random.Random(f"{seed}:{k}")
    seen = set()
    attempts = 0
    while len(seen) < sample_budget and attempts < 20 * sample_budget:
        seen.add(tuple(sorted(rng.sample(range(n), k))))
        attempts += 1
    return sorted(seen), "sampled"


def _b1_sweep(
    model: DependentModel, probs: np.ndarray, rare: RareSetSpec, tuples, k: int
) -> tuple[float, int, bool]:
    """B1 at one k: the worst deviation, the tuples checked, the zero flag.

    Reads the tuples in chunks of at most _B1_CHUNK rows.  A vanished
    product under a positive joint makes the worst deviation inf and sets
    the flag; a NaN deviation is skipped.
    """
    worst = 0.0
    checked = 0
    zero_hit = False
    for idx in _index_chunks(tuples, k):
        if rare.kind != "empty":
            idx = idx[~rare.rare_mask(idx)]
        checked += len(idx)
        bt = model.joint_many(idx)
        pb = _gather_prod(probs, idx)
        zero = pb == 0.0
        if np.any(bt[zero] > 0.0):
            worst = math.inf
            zero_hit = True
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dev = np.abs(bt / pb - 1.0)
        dev = dev[~zero & ~np.isnan(dev)]
        if len(dev):
            worst = max(worst, float(dev.max()))
    return worst, checked, zero_hit


def check_scheme(
    model: DependentModel,
    indep: BernoulliProfile,
    rare: RareSetSpec,
    k_max: int,
    sample_budget: int = 2000,
    seed: int = 0,
) -> SchemeDiagnostics:
    """Measure, per k = 1..k_max, how close the model is to the comparison row.

    B1 enumerates every non-rare k-tuple when there are at most 10^6 of
    them, otherwise draws sample_budget (at most 10^6) distinct tuples with
    a per-k seed derived from the given one (deterministic run to run).  It
    reads the tuples in int arrays of at most 4096 rows and evaluates them
    with model.joint_many and the comparison products with the same column
    gather, so each deviation is the one a scalar loop over the tuples
    would compute.  B2 and B3 use closed restriction identities rather than
    sampling, so they carry no Monte Carlo noise at all; B3 is B2 of the
    comparison row as a ProductModel.  Rare indices outside 0..n-1, or an
    explicit tuple that repeats one, raise ValidationError.
    """
    if indep.n != model.n:
        raise ValidationError(f"comparison row has n={indep.n}, model has n={model.n}")
    k_max, sample_budget, seed = (as_count(v, name) for v, name in (
        (k_max, "k_max"), (sample_budget, "sample_budget"), (seed, "seed")))
    if not 1 <= k_max <= model.n:
        raise ValidationError(f"k_max={k_max} outside 1..{model.n}")
    validate_sample_budget(sample_budget)
    if any(i < 0 or i >= model.n for i in rare.indices.union(*rare.tuples)):
        raise ValidationError(f"rare indices must lie in 0..{model.n - 1}")
    if any(len(set(t)) < len(t) for t in rare.tuples):
        raise ValidationError("rare tuples must not repeat an index")
    b2 = _nonrare_ratios(model, rare, k_max)
    b3 = _nonrare_ratios(ProductModel(indep), rare, k_max)
    rows = []
    for k in range(1, k_max + 1):
        tuples, mode = _b1_tuples(model.n, k, sample_budget, seed)
        rows.append((*_b1_sweep(model, indep.probs, rare, tuples, k), mode))
    b1, counts, zero_flags, modes = zip(*rows)
    return SchemeDiagnostics(
        k_values=tuple(range(1, k_max + 1)),
        b1_max_dev=b1,
        b2_ratio=tuple(b2),
        b3_ratio=tuple(b3),
        modes=modes,
        checked_counts=counts,
        zero_product=zero_flags,
        seed=seed,
        sample_budget=sample_budget,
        rare=rare.spec_string(),
    )


_MODEL_KEYS = {
    "mixture": {"kind", "eps", "p", "q"},
    "product": {"kind", "p"},
}


def _is_number(value) -> bool:
    # A JSON true is a Python int, and a JSON string is not a number.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_numbers(data: dict, key: str) -> None:
    row = data[key]
    if not isinstance(row, list):
        raise ValidationError(f"model key {key!r} must be a list of numbers, got {row!r}")
    bad = next((i for i, v in enumerate(row) if not _is_number(v)), None)
    if bad is not None:
        raise ValidationError(f"model key {key!r} entry {bad} must be a number, got {row[bad]!r}")


def model_from_dict(data: dict) -> DependentModel:
    """Build a model from its JSON form.

    {"kind": "mixture", "eps": e, "p": [...], "q": [...]} or
    {"kind": "product", "p": [...]}.  Unknown kinds and stray keys are
    rejected so a typo cannot silently change the model, and so is any
    eps or p/q entry that is not a JSON number (true, "0.5", null).
    """
    if not isinstance(data, dict):
        raise ValidationError("model spec must be a JSON object")
    kind = data.get("kind")
    if kind not in _MODEL_KEYS:
        raise ValidationError(f"unknown model kind {kind!r}")
    extra = set(data) - _MODEL_KEYS[kind]
    if extra:
        raise ValidationError(f"unknown model keys {sorted(extra)}")
    missing = _MODEL_KEYS[kind] - set(data)
    if missing:
        raise ValidationError(f"model spec missing keys {sorted(missing)}")
    if kind == "mixture" and not _is_number(data["eps"]):
        raise ValidationError(f"model key 'eps' must be a number, got {data['eps']!r}")
    for key in sorted(_MODEL_KEYS[kind] - {"kind", "eps"}):
        _check_numbers(data, key)
    if kind == "product":
        return ProductModel(BernoulliProfile(data["p"]))
    return MixtureModel(
        data["eps"], BernoulliProfile(data["p"]), BernoulliProfile(data["q"])
    )


def load_model(path: str) -> DependentModel:
    """Read a model spec JSON file."""
    return model_from_dict(read_json(path, "model"))
