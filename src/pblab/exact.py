"""Exact distribution engines for sums of independent Bernoulli variables.

Four mutually checking routes to the same PMF:

* pmf_dp: the convolution recurrence in log domain, exact under truncation.
* pmf_dc: divide-and-conquer polynomial multiplication, subquadratic: every
  leaf is expanded in one batched pass, then the leaves are multiplied up a
  fixed tree of pairs (direct convolution, rfft for long products).
* pmf_bruteforce: literal sum over all 2^n outcomes, the oracle (n <= 25).
* pmf_inclusion_exclusion: the alternating symmetric-sum formula, with a
  conditioning contract and an exact-rational mode.

Plus the k-fold symmetric sums, the log zero-probability, a truncated
Poisson reference, and the sup-of-CDF-differences distance to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._util import frozen_row, log_factorial, neumaier_sum
from .errors import ConditioningError, HypothesisError, SizeError, ValidationError
from .profiles import BernoulliProfile

PROVENANCES = (
    "dp",
    "divide_conquer",
    "brute_force",
    "inclusion_exclusion",
    "mixture_closed_form",
)

# Direct quadratic convolution below this length; split and multiply above.
_DC_BASE = 64
# np.convolve up to this output length; FFT beyond it.
_FFT_MIN = 4096
# Hard guard for the 2^n enumeration.
_BRUTE_MAX_N = 25
# Relative cancellation allowed in the alternating sum before giving up.
_IE_COND_LIMIT = 1e-6

_EPS = 2.220446049250313e-16
# exp() of anything below this is exactly 0.0: the smallest subnormal is
# e^-744.44, and exp rounds to zero below about -745.13.
_LOG_UNDERFLOW = -746.0


@dataclass(frozen=True, eq=False)
class Pmf:
    """Distribution of the count, stored as log probabilities.

    log_probs[k] = log P(V = k) for k = 0..support_max, with -inf marking
    exact zeros.  Log storage keeps tails usable where linear probabilities
    underflow (a zero-probability anchor near e^-745 is still a number we
    can divide by).  log_probs is a 1-D read-only float64 array, copied
    from the input at construction; Pmfs compare by identity.
    """

    log_probs: np.ndarray
    n: int
    provenance: str

    def __post_init__(self) -> None:
        lp = frozen_row(self.log_probs, "log_probs")
        if not len(lp):
            raise ValidationError("pmf needs at least the k=0 entry")
        if len(lp) - 1 > self.n:
            raise ValidationError("pmf support exceeds n")
        if self.provenance not in PROVENANCES:
            raise ValidationError(f"unknown provenance {self.provenance!r}")
        # max propagates NaN, and a NaN fails the comparison.
        if not lp.max() <= 0.0:
            k = int(np.flatnonzero(~(lp <= 0.0))[0])
            raise ValidationError(f"log_probs[{k}] = {float(lp[k])!r} is not a log probability")
        object.__setattr__(self, "log_probs", lp)

    @property
    def support_max(self) -> int:
        return len(self.log_probs) - 1

    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    def prob(self, k: int) -> float:
        return math.exp(self.log_probs[k])

    def log_prob(self, k: int) -> float:
        return float(self.log_probs[k])

    def total_mass(self) -> float:
        return float(math.fsum(self.probs().tolist()))


def _finish_log(log_f: np.ndarray, n: int, provenance: str) -> Pmf:
    # Rounding can push a log probability a hair above 0; the invariant says <= 0.
    np.minimum(log_f, 0.0, out=log_f)
    return Pmf(log_f, n, provenance)


def pmf_dp(profile: BernoulliProfile, k_max: int | None = None) -> Pmf:
    """Convolution recurrence f_i(k) = f_{i-1}(k)(1-p_i) + f_{i-1}(k-1)p_i.

    Runs in log domain, so it stays exact-to-rounding even when the
    probabilities underflow linearly.  Truncation at k_max is exact: the
    recurrence never reads entries above k, so the prefix equals the prefix
    of the full run bit for bit.
    """
    n = profile.n
    if k_max is None:
        k_max = n
    if not 0 <= k_max <= n:
        raise ValidationError(f"k_max={k_max} outside 0..{n}")
    size = k_max + 1
    log_f = np.full(size, -np.inf)
    log_f[0] = 0.0
    stay = np.empty(size)
    shift = np.empty(size)
    hi = 0  # highest attainable count so far, bounds the active slice
    for p in memoryview(profile.probs):
        if p == 0.0:
            continue
        hi = min(hi + 1, k_max)
        s = hi + 1
        lq = math.log1p(-p)
        lp = math.log(p)
        np.add(log_f[: s - 1], lp, out=shift[1:s])
        shift[0] = -np.inf
        np.add(log_f[:s], lq, out=stay[:s])
        np.logaddexp(stay[:s], shift[:s], out=log_f[:s])
    return _finish_log(log_f, n, "dp")


def _leaf_sizes(n: int) -> list[int]:
    """Leaf lengths of the merge tree, left to right.

    A segment longer than _DC_BASE splits at half its length (the left
    half takes the floor), so the tree depends on n alone; _merge walks
    the same tree.
    """
    if n <= _DC_BASE:
        return [n]
    half = n // 2
    return _leaf_sizes(half) + _leaf_sizes(n - half)


def _leaf_coeffs(p: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    """PMF coefficients of every leaf, by one quadratic recurrence over all rows.

    Row r holds leaf r's probabilities, padded with zeros to the longest
    leaf.  A padded step computes x*1.0 + y*0.0, which is exactly x, so
    each row's first size+1 coefficients are bit for bit those of the
    leaf run on its own, and the rest are exact zeros that are dropped.
    """
    lens = np.array(sizes)
    rows, width = len(sizes), int(lens.max())
    # Column-major, so every step below works on contiguous column blocks.
    prob = np.zeros((rows, width), order="F")
    prob[np.arange(width) < lens[:, None]] = p
    comp = 1.0 - prob
    coeffs = np.zeros((rows, width + 1), order="F")
    coeffs[:, 0] = 1.0
    shift = np.empty((rows, width), order="F")
    for i in range(width):
        # Each row c: c[1:i+2] = c[1:i+2] * (1 - p_i) + c[:i+1] * p_i.
        np.multiply(coeffs[:, : i + 1], prob[:, i : i + 1], out=shift[:, : i + 1])
        coeffs[:, 1 : i + 2] *= comp[:, i : i + 1]
        coeffs[:, 1 : i + 2] += shift[:, : i + 1]
        coeffs[:, 0] *= comp[:, i]
    coeffs = np.ascontiguousarray(coeffs)
    return [coeffs[r, : size + 1] for r, size in enumerate(sizes)]


def _conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m = len(a) + len(b) - 1
    if m < _FFT_MIN:
        return np.convolve(a, b)
    size = 1 << (m - 1).bit_length()
    out = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:m]
    # FFT round-off can produce tiny negatives where the true value is ~0.
    np.clip(out, 0.0, None, out=out)
    return out


def _merge(n: int, leaves) -> np.ndarray:
    """Product of the leaves under a segment of length n (the tree of _leaf_sizes).

    leaves is an iterator over the leaf coefficients in tree order; each
    call consumes exactly the leaves under its segment.
    """
    if n <= _DC_BASE:
        return next(leaves)
    half = n // 2
    return _conv(_merge(half, leaves), _merge(n - half, leaves))


def _product_coeffs(p: np.ndarray) -> np.ndarray:
    """Coefficients of the product of (1 - p_i) + p_i z over the whole profile."""
    leaves = _leaf_coeffs(p, _leaf_sizes(len(p)))
    return _merge(len(p), iter(leaves))


def pmf_dc(profile: BernoulliProfile) -> Pmf:
    """Divide-and-conquer product of the per-variable polynomials (1-p) + p z.

    The profile is halved down to leaves of at most _DC_BASE entries.  All
    leaves are expanded at once by the quadratic recurrence, run over a
    batch of rows; the leaf polynomials are then multiplied pairwise up
    the same tree, with direct convolution for short products and rfft
    for long ones.  The tree is fixed by n, so results are reproducible
    run to run, and subquadratic for large n thanks to the FFT merges at
    the top.
    """
    coeffs = _product_coeffs(profile.probs)
    with np.errstate(divide="ignore"):
        log_f = np.log(coeffs)
    return _finish_log(log_f, profile.n, "divide_conquer")


def pmf_bruteforce(profile: BernoulliProfile) -> Pmf:
    """Literal sum over all 2^n outcomes; the oracle everything else faces.

    Vectorized over chunks of bitmasks, but still exponential: guarded at
    n <= 25 where it costs tens of millions of multiplies at most.
    """
    n = profile.n
    if n > _BRUTE_MAX_N:
        raise SizeError(f"brute force is guarded at n <= {_BRUTE_MAX_N}, got {n}")
    p = profile.probs
    q = 1.0 - p
    acc = np.zeros(n + 1)
    chunk = 1 << 16
    bit_cols = np.arange(n, dtype=np.int64)
    for start in range(0, 1 << n, chunk):
        masks = np.arange(start, min(start + chunk, 1 << n), dtype=np.int64)
        bits = (masks[:, None] >> bit_cols) & 1
        weights = np.where(bits == 1, p, q).prod(axis=1)
        acc += np.bincount(bits.sum(axis=1), weights=weights, minlength=n + 1)
    with np.errstate(divide="ignore"):
        log_f = np.log(acc)
    return _finish_log(log_f, n, "brute_force")


@dataclass(frozen=True, eq=False)
class SymmetricSums:
    """The k-fold sums S_0..S_K over all k-subsets of a value sequence.

    S_0 = 1 by the empty-product convention.  values is a 1-D read-only
    float64 array, copied from the input at construction; sums compare by
    identity.  high_precision_values, when present, mirrors values as exact
    rationals computed from the same (binary) inputs; it feeds the exact
    inclusion-exclusion path.
    """

    values: np.ndarray
    high_precision_values: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        vals = frozen_row(self.values, "symmetric sums")
        if not len(vals) or vals[0] != 1.0:
            raise ValidationError("symmetric sums must start with S_0 = 1")
        # min propagates NaN, and a NaN fails the comparison.
        if not vals.min() >= 0.0:
            k = int(np.flatnonzero(~(vals >= 0.0))[0])
            raise ValidationError(f"S_{k} = {float(vals[k])!r} must be a nonnegative real")
        if self.high_precision_values is not None:
            hp = tuple(Fraction(x) for x in self.high_precision_values)
            if len(hp) != len(vals):
                raise ValidationError("rational mirror must match values in length")
            object.__setattr__(self, "high_precision_values", hp)
        object.__setattr__(self, "values", vals)

    @property
    def k_max(self) -> int:
        return len(self.values) - 1


def elementary_symmetric(
    values, k_max: int, high_precision: bool = False
) -> SymmetricSums:
    """Elementary symmetric polynomials e_0..e_{k_max} of the given values.

    Newton-triangle recurrence E_i(k) = E_{i-1}(k) + v_i E_{i-1}(k-1).  The
    first-order sum is overwritten with the exactly-rounded fsum so it agrees
    bit for bit with the profile mean computed elsewhere.  With
    high_precision the whole triangle is mirrored in exact rationals over
    the same binary inputs.  Every double is an integer over a power of two,
    so the mirror scales all values to their largest denominator 2^D, runs
    the triangle in Python ints, and returns e_k as the fraction
    E_k / 2^(D k), which is the exact rational value.
    """
    vals = np.array(values, dtype=np.float64)
    if not np.all(vals >= 0.0):  # a NaN fails the comparison too
        raise ValidationError("symmetric sums need nonnegative values")
    if not 0 <= k_max <= len(vals):
        raise ValidationError(f"k_max={k_max} outside 0..{len(vals)}")
    e = np.zeros(k_max + 1)
    e[0] = 1.0
    for i, v in enumerate(vals):
        top = min(i + 1, k_max)
        if top >= 1:
            e[1 : top + 1] = e[1 : top + 1] + v * e[:top]
    if k_max >= 1:
        e[1] = math.fsum(vals)
    hp: tuple[Fraction, ...] | None = None
    if high_precision:
        ratios = [v.as_integer_ratio() for v in vals.tolist()]
        # Denominators are powers of two: 2^D is the largest one.
        d = max((den.bit_length() for _, den in ratios), default=1) - 1
        big = [0] * (k_max + 1)
        big[0] = 1
        for i, (num, den) in enumerate(ratios):
            scaled = num << (d + 1 - den.bit_length())
            for k in range(min(i + 1, k_max), 0, -1):
                big[k] += scaled * big[k - 1]
        hp = tuple(Fraction(x, 1 << (d * k)) for k, x in enumerate(big))
    return SymmetricSums(e, hp)


def pmf_inclusion_exclusion(sums: SymmetricSums, k: int, n: int) -> float:
    """P(V = k) = sum over l of (-1)^l C(k+l, k) S_{k+l}.

    Alternating sums of huge binomial-weighted terms cancel catastrophically
    as n grows, so the float path tracks its own rounding noise (machine
    epsilon times the sum of absolute terms) and refuses to return a value
    whose noise exceeds 1e-6 of its magnitude.  The rational path is exact
    and rounds once at the end.  Use beyond n of about 25 is an oracle-only
    affair; the dp and divide-and-conquer engines are the production routes.
    """
    if not 0 <= k <= n:
        raise ValidationError(f"k={k} outside 0..{n}")
    if sums.k_max < n:
        raise ValidationError(
            f"sums cover k <= {sums.k_max}, need the full range up to n={n}"
        )
    if sums.high_precision_values is not None:
        total = Fraction(0)
        for l in range(0, n - k + 1):
            term = math.comb(k + l, k) * sums.high_precision_values[k + l]
            total += -term if l & 1 else term
        return min(1.0, max(0.0, float(total)))
    values = sums.values.tolist()

    def terms():
        for l in range(0, n - k + 1):
            c = math.comb(k + l, k)
            try:
                t = float(c) * values[k + l]
            except OverflowError as exc:
                raise ConditioningError(
                    f"binomial weight C({k + l},{k}) overflows float range"
                ) from exc
            yield -t if l & 1 else t

    total, total_abs = neumaier_sum(terms())
    noise = _EPS * total_abs
    if noise > _IE_COND_LIMIT * abs(total):
        raise ConditioningError(
            f"alternating sum at k={k} lost too much precision "
            f"(noise estimate {noise:.3g} vs magnitude {abs(total):.3g}); "
            "use the rational mode or a convolution engine"
        )
    return min(1.0, max(0.0, total))


def prob_zero_log(profile: BernoulliProfile) -> float:
    """log P(V = 0) = sum of log(1 - p_i), the exactly-rounded log1p sum."""
    return math.fsum(math.log1p(-p) for p in memoryview(profile.probs))


@dataclass(frozen=True)
class PoissonRef:
    """Poisson reference with log-domain evaluation and tail truncation.

    truncation_k finds where the remaining tail mass drops below a given
    cap, certified by the geometric-ratio tail bound rather than by summing
    to machine-limited cumulative values.
    """

    lam: float

    def __post_init__(self) -> None:
        lam = float(self.lam)
        if not (math.isfinite(lam) and lam > 0.0):
            raise HypothesisError(f"Poisson reference needs lambda > 0, got {lam!r}")
        object.__setattr__(self, "lam", lam)

    def log_pmf(self, k: int) -> float:
        if k < 0:
            raise ValidationError("k must be nonnegative")
        return -self.lam + k * math.log(self.lam) - log_factorial(k)

    def truncation_k(self, tail_mass: float) -> int:
        """Smallest K (up to stride) with certified tail mass below tail_mass.

        For K+1 > lam the terms decay at least geometrically with ratio
        lam/(K+1), so tail(K) <= pmf(K) / (1 - lam/(K+1)).
        """
        if not 0.0 < tail_mass < 1.0:
            raise ValidationError("tail_mass must lie in (0, 1)")
        lam = self.lam
        k = int(math.ceil(lam + 10.0 * math.sqrt(lam) + 20.0))
        log_cap = math.log(tail_mass)
        while True:
            ratio = lam / (k + 1.0)
            bound = self.log_pmf(k) - math.log1p(-ratio)
            if bound < log_cap:
                return k
            k = int(k * 1.25) + 10

    def pmf_points(self, k_hi: int) -> np.ndarray:
        """Probabilities at k = 0..k_hi.

        Past the mode the terms only fall, so from the first k > lam whose
        log term is below _LOG_UNDERFLOW on, every entry is exp of
        something below it: exactly 0.0.  Those entries are zero-filled
        rather than evaluated.
        """
        lam = self.lam
        log_lam = math.log(lam)
        log_fact = []
        for k in range(k_hi + 1):
            log_fact.append(log_factorial(k))
            if k > lam and -lam + k * log_lam - log_fact[-1] < _LOG_UNDERFLOW:
                break
        ks = np.arange(len(log_fact), dtype=np.float64)
        out = np.zeros(k_hi + 1)
        out[: len(log_fact)] = np.exp(-lam + ks * log_lam - np.array(log_fact))
        return out

    def cdf_points(self, k_hi: int) -> np.ndarray:
        return np.cumsum(self.pmf_points(k_hi))


def sup_cdf_distance(pmf: Pmf, ref: PoissonRef) -> float:
    """sup over k >= 0 of |CDF(pmf)(k) - CDF(ref)(k)|.

    The supremum is evaluated out to where both CDFs provably exceed
    1 - 1e-12; beyond that the difference is below reporting precision.
    The pmf must carry essentially all of its mass: full support, or a
    truncated support whose cumulative mass reaches 1 - 1e-12.
    """
    probs = pmf.probs()
    cdf_v = np.cumsum(probs)
    total = float(cdf_v[-1])
    if pmf.support_max < pmf.n and total < 1.0 - 1e-12:
        raise ValidationError(
            f"pmf covers mass {total:.17g} on 0..{pmf.support_max}; "
            "need full support or cumulative mass >= 1 - 1e-12"
        )
    k_hi = max(pmf.support_max, ref.truncation_k(1e-12))
    cdf_t = ref.cdf_points(k_hi)
    if k_hi > pmf.support_max:
        pad = np.full(k_hi - pmf.support_max, cdf_v[-1])
        cdf_v = np.concatenate([cdf_v, pad])
    return float(np.max(np.abs(cdf_v - cdf_t)))


def tv_distance(pmf: Pmf, ref: PoissonRef) -> float:
    """Total-variation distance (1/2) sum over k of |pmf(k) - ref(k)|.

    Evaluated out to where the reference tail is certified below 1e-12,
    so the omitted contribution is below reporting precision.  Same mass
    requirement on the pmf as sup_cdf_distance.
    """
    probs = pmf.probs()
    total = float(probs.sum())
    if pmf.support_max < pmf.n and total < 1.0 - 1e-12:
        raise ValidationError(
            f"pmf covers mass {total:.17g} on 0..{pmf.support_max}; "
            "need full support or cumulative mass >= 1 - 1e-12"
        )
    k_hi = max(pmf.support_max, ref.truncation_k(1e-12))
    terms = ref.pmf_points(k_hi)
    padded = np.zeros(k_hi + 1)
    padded[: pmf.support_max + 1] = probs
    return 0.5 * float(np.abs(padded - terms).sum())
