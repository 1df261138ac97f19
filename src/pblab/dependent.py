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
import json
import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SizeError, ValidationError
from .exact import (
    Pmf,
    SymmetricSums,
    elementary_symmetric,
    pmf_dp,
    pmf_inclusion_exclusion,
)
from .profiles import BernoulliProfile

# Generic joint enumeration walks all k-subsets; hard-guarded like brute force.
_GENERIC_MAX_N = 25
# Exhaustive B1 sweeps when the tuple count stays within this; it also caps
# the sample budget.
_EXHAUSTIVE_MAX = 10**6
# B1 checks at most this many tuples per array pass, which bounds its memory.
_B1_CHUNK = 1 << 12


class DependentModel(ABC):
    """Joint-probability evaluator over index sets {0..n-1}.

    joint(()) must be 1 and adding an index must never increase the value;
    set-valued input keeps it symmetric by construction.  Subclasses may
    provide closed-form k-fold sums through fast_sums to dodge the subset
    enumeration, and a vector joint_many that evaluates many index tuples
    in one array pass.
    """

    @property
    @abstractmethod
    def n(self) -> int: ...

    @abstractmethod
    def joint(self, indices) -> float:
        """P(all variables at the given distinct 0-based indices equal 1)."""

    def joint_many(self, idx: np.ndarray) -> np.ndarray:
        """joint of every row of an int array of shape (m, k), as float64.

        Entry i is joint(tuple(idx[i])), in row order and bit for bit; an
        override must keep both.  The default calls joint once per row.
        """
        return np.fromiter(
            (self.joint(tuple(t)) for t in idx.tolist()), dtype=float, count=len(idx)
        )

    @property
    def marginals(self) -> np.ndarray | tuple[float, ...]:
        return tuple(self.joint((i,)) for i in range(self.n))

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
    math.prod's order, so every entry equals the scalar product bit for bit.
    """
    out = np.ones(len(idx))
    for j in range(idx.shape[1]):
        out *= values[idx[:, j]]
    return out


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

    def joint(self, indices) -> float:
        return math.prod(self.profile.probs[list(indices)].tolist())

    def joint_many(self, idx: np.ndarray) -> np.ndarray:
        return _gather_prod(self.profile.probs, idx)

    @property
    def marginals(self) -> np.ndarray:
        return self.profile.probs

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

    def joint(self, indices) -> float:
        idx = list(indices)
        ps = self.p_profile.probs[idx].tolist()
        qs = self.q_profile.probs[idx].tolist()
        return (1.0 - self.eps) * math.prod(ps) + self.eps * math.prod(qs)

    def joint_many(self, idx: np.ndarray) -> np.ndarray:
        ps = _gather_prod(self.p_profile.probs, idx)
        qs = _gather_prod(self.q_profile.probs, idx)
        return (1.0 - self.eps) * ps + self.eps * qs

    @property
    def marginals(self) -> np.ndarray:
        return (1.0 - self.eps) * self.p_profile.probs + self.eps * self.q_profile.probs

    def fast_sums(self, k_max: int, high_precision: bool = False) -> list:
        w = Fraction(self.eps) if high_precision else self.eps
        ep = ProductModel(self.p_profile).fast_sums(k_max, high_precision)
        eq = ProductModel(self.q_profile).fast_sums(k_max, high_precision)
        return [(1 - w) * a + w * b for a, b in zip(ep, eq)]

    def closed_form_pmf(self) -> Pmf:
        """Exact PMF as the eps-weighted mixture of the two product PMFs."""
        lp = pmf_dp(self.p_profile).log_probs
        lq = pmf_dp(self.q_profile).log_probs
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
    """Wrap a plain function of a frozen index set as a model (no fast path)."""

    def __init__(self, n: int, fn, marginals=None):
        if n < 1:
            raise ValidationError("model needs n >= 1")
        self._n = int(n)
        self._fn = fn
        self._marginals = (
            tuple(float(x) for x in marginals) if marginals is not None else None
        )

    @property
    def n(self) -> int:
        return self._n

    def joint(self, indices) -> float:
        return float(self._fn(frozenset(indices)))

    @property
    def marginals(self) -> tuple[float, ...]:
        if self._marginals is not None:
            return self._marginals
        return tuple(self.joint((i,)) for i in range(self._n))

    def restrict(self, keep) -> "CallableModel":
        kept = _check_keep(keep, self._n)
        fn = self._fn

        def sub_fn(local_set):
            return fn(frozenset(kept[i] for i in local_set))

        return CallableModel(len(kept), sub_fn)


@dataclass(frozen=True)
class RareSetSpec:
    """Which k-tuples are exempt from the closeness conditions.

    kinds: empty (no exemptions); contains_any (tuples touching a fixed
    index set J); explicit (a literal list of tuples, small n only).
    Membership costs O(k) per tuple.  Indices are 0-based.
    """

    kind: str
    indices: frozenset = frozenset()
    tuples: frozenset = frozenset()

    def __post_init__(self) -> None:
        if self.kind not in ("empty", "contains_any", "explicit"):
            raise ValidationError(f"unknown rare-set kind {self.kind!r}")
        object.__setattr__(self, "indices", frozenset(int(i) for i in self.indices))
        object.__setattr__(
            self,
            "tuples",
            frozenset(tuple(sorted(int(i) for i in t)) for t in self.tuples),
        )

    @classmethod
    def empty(cls) -> "RareSetSpec":
        return cls("empty")

    @classmethod
    def contains_any(cls, indices) -> "RareSetSpec":
        return cls("contains_any", indices=frozenset(indices))

    @classmethod
    def explicit(cls, tuples) -> "RareSetSpec":
        return cls("explicit", tuples=frozenset(tuple(t) for t in tuples))

    def is_rare(self, t) -> bool:
        if self.kind == "empty":
            return False
        if self.kind == "contains_any":
            return any(i in self.indices for i in t)
        return tuple(sorted(t)) in self.tuples

    def rare_mask(self, idx: np.ndarray) -> np.ndarray:
        """is_rare of every row of an int array of shape (m, k)."""
        if self.kind == "empty":
            return np.zeros(len(idx), dtype=bool)
        if self.kind == "contains_any":
            return np.isin(idx, sorted(self.indices)).any(axis=1)
        return np.fromiter(
            (self.is_rare(t) for t in idx.tolist()), dtype=bool, count=len(idx)
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


def s_tilde(
    model: DependentModel, k_max: int, high_precision: bool = False
) -> SymmetricSums:
    """k-fold joint sums S_0..S_k_max of the model.

    Uses the model's fast_sums closed form when it has one; otherwise sums
    the joint over every k-subset (guarded at n <= 25) with math.fsum.  In
    high-precision mode either route gives exact rationals over the binary
    float joints, and the float column is their correctly rounded image.
    """
    if not 0 <= k_max <= model.n:
        raise ValidationError(f"k_max={k_max} outside 0..{model.n}")
    vals = model.fast_sums(k_max, high_precision)
    if vals is None:
        _guard_generic(model.n)
        total = _fraction_sum if high_precision else math.fsum
        vals = [
            total(model.joint(c) for c in itertools.combinations(range(model.n), k))
            for k in range(k_max + 1)
        ]
    if high_precision:
        return SymmetricSums([float(x) for x in vals], vals)
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
    """Dependent-over-independent PMF ratios for k = 0..k_max.

    entries lists (k, ratio) where the independent probability is positive;
    omitted_k lists the k skipped for a zero denominator, whether the
    probability is exactly zero or its exp underflows to 0.0.
    """

    k_values: tuple[int, ...]
    dep_probs: tuple[float, ...]
    indep_probs: tuple[float, ...]
    entries: tuple[tuple[int, float], ...]
    omitted_k: tuple[int, ...]

    @property
    def max_abs_dev(self) -> float:
        return max((abs(r - 1.0) for _, r in self.entries), default=0.0)


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
    if not 0 <= k_max <= model.n:
        raise ValidationError(f"k_max={k_max} outside 0..{model.n}")
    sums = s_tilde(model, model.n, high_precision)
    dep = tuple(
        pmf_inclusion_exclusion(sums, k, model.n) for k in range(k_max + 1)
    )
    ind_pmf = pmf_dp(indep, k_max)
    ind = tuple(math.exp(lp) for lp in ind_pmf.log_probs.tolist())
    entries = []
    omitted = []
    for k in range(k_max + 1):
        if ind[k] > 0.0:
            entries.append((k, dep[k] / ind[k]))
        else:
            omitted.append(k)
    return RatioReport(
        k_values=tuple(range(k_max + 1)),
        dep_probs=dep,
        indep_probs=ind,
        entries=tuple(entries),
        omitted_k=tuple(omitted),
    )


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
    model restricted to the complement.  explicit: subtract the listed
    tuples' joints.
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
            if 1 <= len(t) <= k_max and len(set(t)) == len(t) and all(0 <= i < model.n for i in t):
                part[len(t)] = max(0.0, part[len(t)] - model.joint(t))
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
    flat = itertools.chain.from_iterable(tuples)
    while True:
        idx = np.fromiter(
            itertools.islice(flat, _B1_CHUNK * k), dtype=np.intp
        ).reshape(-1, k)
        if not len(idx):
            return worst, checked, zero_hit
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
    reads the tuples in int arrays of at most 4096 rows, evaluates them with
    model.joint_many and the comparison products with the same column
    gather, so each deviation is the one a scalar loop over the tuples
    would compute.  B2 and B3 use closed restriction identities rather than
    sampling, so they carry no Monte Carlo noise at all; B3 is B2 of the
    comparison row as a ProductModel.
    """
    if indep.n != model.n:
        raise ValidationError(f"comparison row has n={indep.n}, model has n={model.n}")
    if not 1 <= k_max <= model.n:
        raise ValidationError(f"k_max={k_max} outside 1..{model.n}")
    validate_sample_budget(sample_budget)
    if rare.kind == "contains_any" and any(i < 0 or i >= model.n for i in rare.indices):
        raise ValidationError(f"rare indices must lie in 0..{model.n - 1}")
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


def model_from_dict(data: dict) -> DependentModel:
    """Build a model from its JSON form.

    {"kind": "mixture", "eps": e, "p": [...], "q": [...]} or
    {"kind": "product", "p": [...]}.  Unknown kinds and stray keys are
    rejected so a typo cannot silently change the model.
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
    if kind == "product":
        return ProductModel(BernoulliProfile(data["p"]))
    return MixtureModel(
        data["eps"], BernoulliProfile(data["p"]), BernoulliProfile(data["q"])
    )


def load_model(path: str) -> DependentModel:
    """Read a model spec JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    return model_from_dict(data)
