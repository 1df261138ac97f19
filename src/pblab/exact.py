"""Exact distribution engines for sums of independent Bernoulli variables.

Five mutually checking routes to the same PMF.  Every engine has the one
signature engine(profile, k_max=None) -> Pmf: it returns log P(V = k) for
k = 0..k_max (None means n), and a truncated run is bit for bit the prefix
of the full run.

* pmf_tree: the production engine.  A product tree of the factors
  (1 - p) + p z, merged level by level in log domain over all pairs at
  once, truncated at k_max; no entry can underflow to a false -inf.
* pmf_dp: the convolution recurrence in log domain, exact under truncation,
  one entry at a time; kept as the log-domain oracle for pmf_tree.
* pmf_dc: divide-and-conquer polynomial multiplication, subquadratic: one
  description of a fixed tree of pairs (_degree_caps) drives the batched
  leaf expansion and every product up the tree, a direct convolution of
  nonnegative rows.  Every node keeps only a certified band lo..D of its
  coefficients, whose Chernoff tail bounds on each side are at most
  e^-745, below the smallest subnormal 2^-1074: the caps move no entry by
  more than 2n * 2^-1074, and every entry that is a normal double carries
  a small relative error.  The same product at a looser bound is the
  distances' route (dehpfeif_report).  It runs on the calling thread.
* pmf_bruteforce: literal sum over all 2^n outcomes, the oracle (n <= 25).
* pmf_ie: the alternating symmetric-sum formula (pmf_inclusion_exclusion
  per k), with a conditioning contract and an exact-rational mode.

Plus the k-fold symmetric sums, the log zero-probability, a truncated
Poisson reference, and poisson_distances, which tabulates a band of linear
probabilities against it once, with no padded copy, for both the
sup-of-CDF and the total-variation distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._util import as_count, exact_sum, frozen_row, libm_exp, log_factorials, neumaier_sum
from .errors import ConditioningError, HypothesisError, SizeError, ValidationError
from .profiles import BernoulliProfile, alpha_n

PROVENANCES = (
    "product_tree",
    "dp",
    "divide_conquer",
    "brute_force",
    "inclusion_exclusion",
    "mixture_closed_form",
)

# Direct quadratic convolution below this length; split and multiply above.
_DC_BASE = 64
# Leaves are expanded _SUBTREE // _DC_BASE at a time.
_SUBTREE = 1 << 14
# Every node of pmf_dc's tree keeps its coefficients in a band lo..D whose
# two Chernoff tail bounds are at most e^-_CAP_LOG: below 2^-1074 = e^-744.44,
# the smallest subnormal, with room for the rounding of the bounds themselves.
_CAP_LOG = 745.0
# Newton's method for the caps stops once no step exceeds _NEWTON_TOL, or
# after _NEWTON_STEPS steps; any iterate after the first step is a valid cap.
_NEWTON_STEPS = 64
_NEWTON_TOL = 1e-3
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
        return libm_exp(self.log_probs)  # as prob(k) gives each entry; np.exp may differ

    def prob(self, k: int) -> float:
        return math.exp(self.log_prob(k))

    def log_prob(self, k: int) -> float:
        k = as_count(k, "k")
        if not 0 <= k <= self.support_max:
            raise ValidationError(f"k={k} outside 0..{self.support_max}")
        return float(self.log_probs[k])

    def total_mass(self) -> float:
        return exact_sum(self.probs())


def _check_k_max(k_max: int | None, n: int) -> int:
    """The top k an engine returns: n when k_max is None, else k_max in 0..n."""
    if k_max is None:
        return n
    k_max = as_count(k_max, "k_max")
    if not 0 <= k_max <= n:
        raise ValidationError(f"k_max={k_max} outside 0..{n}")
    return k_max


def _finish_log(log_f: np.ndarray, n: int, provenance: str, k_max: int) -> Pmf:
    """The Pmf of log_f's prefix through k_max."""
    log_f = log_f[: k_max + 1]
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
    k_max = _check_k_max(k_max, profile.n)
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
    return _finish_log(log_f, profile.n, "dp", k_max)


def pmf_tree(profile: BernoulliProfile, k_max: int | None = None) -> Pmf:
    """Product tree of the factors (1 - p) + p z, multiplied in log domain.

    Every nonzero entry p is a leaf [log1p(-p), log(p)].  Adjacent nodes are
    merged in pairs, one level at a time; an odd node out moves up a level
    unchanged, which is bit for bit what pairing it with the identity
    [0, -inf, ...] gives.  A merge is the log-domain convolution
    C[k] = logaddexp over j of A[j] + B[k - j], one np.add and one
    np.logaddexp per j over all pairs of the level.  Each side keeps the
    coefficients up to its degree (the leaves below it) and k_max.  No value
    leaves log domain, so none underflows: log P(V = k) is -inf exactly for
    k above the number of nonzero entries.  The tree's shape depends on the
    row alone and C[k] never reads above k, so a truncated run is a
    bit-for-bit prefix of the full run, as for pmf_dp.
    """
    k_max = _check_k_max(k_max, profile.n)
    size = k_max + 1
    p = profile.probs[profile.probs > 0.0]
    # Row k of a level holds coefficient k of every node; a row without
    # nonzero entries is the identity alone.
    level = np.vstack([np.log1p(-p), np.log(p)])[:size] if len(p) else np.zeros((1, 1))
    degree = np.ones(level.shape[1], dtype=np.int64)
    while level.shape[1] > 1:
        pairs = level.shape[1] // 2
        deg_a, deg_b = degree[0 : 2 * pairs : 2], degree[1 : 2 * pairs : 2]
        width_a = min(int(deg_a.max()) + 1, size)
        width_b = min(int(deg_b.max()) + 1, size)
        width = min(width_a + width_b - 1, size)
        # numpy loops fastest over the axis laid out contiguously: keep the
        # longer of pairs and coefficients innermost.
        order = "C" if pairs >= width else "F"
        a = np.array(level[:width_a, 0 : 2 * pairs : 2], order=order)
        b = np.array(level[:width_b, 1 : 2 * pairs : 2], order=order)
        merged = np.empty((width, pairs), order=order)
        np.add(a[0], b, out=merged[:width_b])
        merged[width_b:] = -np.inf
        term = np.empty_like(b)
        for j in range(1, width_a):
            top = min(width_b, width - j)
            np.add(a[j], b[:top], out=term[:top])
            np.logaddexp(merged[j : j + top], term[:top], out=merged[j : j + top])
        if level.shape[1] % 2:
            odd = np.full((width, 1), -np.inf)
            odd[: len(level), 0] = level[:, -1]
            merged = np.hstack([merged, odd])
        level = merged
        degree = np.concatenate([deg_a + deg_b, degree[2 * pairs :]])
    log_f = np.full(size, -np.inf)
    log_f[: len(level)] = level[:, 0]
    return _finish_log(log_f, profile.n, "product_tree", k_max)


def _leaf_coeffs(p: np.ndarray, sizes: list[int], top: int) -> list[np.ndarray]:
    """PMF coefficients 0..top of every leaf, by one quadratic recurrence over all rows.

    Row r holds leaf r's probabilities, padded with zeros to the longest
    leaf.  A padded step computes x*1.0 + y*0.0, which is exactly x, and a
    step's coefficient k reads only k and k - 1, so each row's first
    min(size, top)+1 coefficients are bit for bit those of the leaf run on
    its own to the end, and the rest are exact zeros that are dropped.
    """
    lens = np.array(sizes)
    rows, width = len(sizes), int(lens.max())
    # Column-major, so every step below works on contiguous column blocks.
    prob = np.zeros((rows, width), order="F")
    prob[np.arange(width) < lens[:, None]] = p
    comp = 1.0 - prob
    coeffs = np.zeros((rows, top + 1), order="F")
    coeffs[:, 0] = 1.0
    shift = np.empty((rows, top), order="F")
    for i in range(width):
        # Each row c: c[1:j+1] = c[1:j+1] * (1 - p_i) + c[:j] * p_i.
        j = min(i + 1, top)
        np.multiply(coeffs[:, :j], prob[:, i : i + 1], out=shift[:, :j])
        coeffs[:, 1 : j + 1] *= comp[:, i : i + 1]
        coeffs[:, 1 : j + 1] += shift[:, :j]
        coeffs[:, 0] *= comp[:, i]
    coeffs = np.ascontiguousarray(coeffs)
    return [coeffs[r, : size + 1] for r, size in enumerate(sizes)]


def _degree_caps(p: np.ndarray, tail_log: float) -> tuple[list[list[int]], np.ndarray]:
    """pmf_dc's tree over p: lists leaf (a bool), lo and D of its nodes in _merge's order; its leaves.

    A segment longer than _DC_BASE splits at half its length (the left half
    takes the floor), so the tree depends on len(p) alone.  It is built a
    level at a time; a segment of at most _DC_BASE entries passes down
    unchanged, so every level tiles the row, and the deepest one gives the
    leaves' int rows length, lo and D, left to right.  (lo, D) is a node's
    certified band (_band_edges).  Each mean sums its node's children, never
    a difference of prefix sums, which would read 0 for a light segment.
    """
    starts, lens = [np.zeros(1, dtype=np.int64)], [np.array([len(p)], dtype=np.int64)]
    children = []  # per level, the index of each node's first child one level down
    while lens[-1].max() > _DC_BASE:
        s, l = starts[-1], lens[-1]
        split = l > _DC_BASE
        count = split + 1
        children.append(np.cumsum(count) - count)
        half = np.where(split, l // 2, l)
        keep = np.column_stack([np.ones_like(split), split])
        starts.append(np.column_stack([s, s + half])[keep])
        lens.append(np.column_stack([half, l - half])[keep])
    l, mu = np.concatenate(lens), [np.add.reduceat(p, starts[-1])]
    # Sorted by start, and by length down within a start, a node comes before its subtree.
    order = np.unique(np.concatenate(starts) * (len(p) + 1) + len(p) - l, return_index=True)[1]
    del starts, lens  # a lower traced peak
    for first in reversed(children):  # every level's means, each node's from its children's
        mu.append(np.add.reduceat(mu[-1], first))
    leaf, mu = len(l) - len(mu[0]), np.concatenate(mu[::-1])  # leaf: the deepest level's first node
    lo, hi = _band_edges(l, mu, tail_log)
    leaves = np.stack([l[leaf:], lo[leaf:], hi[leaf:]]).astype(np.int16)  # each at most _DC_BASE
    return [row[order].tolist() for row in (l <= _DC_BASE, lo, hi)], leaves


def _band_edges(l: np.ndarray, mu: np.ndarray, tail_log: float) -> tuple[np.ndarray, np.ndarray]:
    """Band (lo, D) of each segment of length l and mean mu: its tails are at most e^-tail_log.

    The Chernoff bounds P(S <= a) <= e^-mu (e mu / a)^a at a = lo - 1 < mu
    and P(S > D) <= e^-mu (e mu / (D + 1))^(D + 1) are at most e^-tail_log
    wherever they cut.  Where the failures are the fewer (nu = l - mu < mu),
    they bound the failures l - S too, and S keeps the tighter of its band
    and that one's mirror.  Each bound takes the mean that only loosens it:
    up by a relative 1e-9 (far above the rounding of its sums) and the
    smallest subnormal for an upper cap, down by 1e-9 for a lower one.

    Every cap solves f(x) = x log(x / (e m)) + m - tail_log = 0 at its mean
    m, convex, falling below m and rising above it: D + 1 is the root above
    m, lo - 1 the floor of the one below.  Newton's method runs on all at
    once, from x = l + 1 above and from x = m - sqrt(2 m tail_log) below
    (f >= 0 there, as f(m (1 - y)) >= m y^2 / 2 - tail_log), or from a tiny
    x if that is not positive; by convexity every later iterate is a cap.
    A solve whose f(l + 1) < 0, or whose m <= tail_log, is skipped.
    """
    heavy = np.flatnonzero(l - mu * (1.0 + 1e-9) < mu)
    l, n = np.concatenate([l, l[heavy]]), len(l)
    mu_up = np.concatenate([mu, l[heavy] - mu[heavy] * (1.0 - 1e-9)]) * (1.0 + 1e-9) + 5e-324
    down = np.concatenate([mu, l[heavy] - mu_up[heavy]]) * (1.0 - 1e-9)
    upper = (l + 1.0) * (np.log(l + 1.0) - np.log(mu_up) - 1.0) + mu_up >= tail_log
    lower = down > tail_log
    below = down[lower] - np.sqrt(2.0 * tail_log * down[lower])
    m = np.concatenate([mu_up[upper], down[lower]])
    x = np.concatenate([l[upper] + 1.0, np.maximum(below, 1e-300)])
    log_m, slope, step = np.log(m), np.empty_like(x), np.empty_like(x)
    for _ in range(_NEWTON_STEPS):
        np.subtract(np.log(x, out=slope), log_m, out=slope)
        np.multiply(x, np.subtract(slope, 1.0, out=step), out=step)
        step += m
        step -= tail_log
        x -= np.divide(step, slope, out=step)
        if not np.abs(step, out=step).max(initial=0.0) > _NEWTON_TOL:
            break
    del m, log_m, slope, step  # a lower traced peak
    lo, hi, tops = np.zeros_like(l), l.copy(), np.count_nonzero(upper)
    hi[upper] = np.ceil(x[:tops]) - 1
    lo[lower] = np.floor(x[tops:]) + 1
    lo[heavy] = np.maximum(lo[heavy], l[n:] - hi[n:])
    hi[heavy] = np.minimum(hi[heavy], l[n:] - lo[n:])
    return lo[:n], hi[:n]


def _leaf_bands(p: np.ndarray, leaves: np.ndarray):
    """Coefficients lo..D of every leaf, left to right, from the leaves' rows of _degree_caps.

    _leaf_coeffs expands them _SUBTREE // _DC_BASE at a time, each batch
    stopped at its own highest D and released before the next is expanded.
    """
    step = _SUBTREE // _DC_BASE
    for b in range(0, leaves.shape[1], step):
        sizes, lo, hi = leaves[:, b : b + step].tolist()
        rows, p = np.split(p, [sum(sizes)])
        yield from (c[l : h + 1] for c, l, h in zip(_leaf_coeffs(rows, sizes, max(hi)), lo, hi))


def _merge(bands, leaves) -> tuple[int, np.ndarray]:
    """(lo, coefficients lo..D) of the product over the next node of pmf_dc's tree.

    bands iterates over the nodes' (leaf, lo, D) and leaves over their
    _leaf_bands, both in this walk's order: a node, its left subtree, its
    right one.  A product is one np.convolve of two bands, trimmed to its own.
    """
    leaf, lo, hi = next(bands)
    if leaf:
        return lo, next(leaves)
    lo_a, a = _merge(bands, leaves)
    lo_b, b = _merge(bands, leaves)
    off = lo_a + lo_b
    return max(lo, off), np.convolve(a, b)[max(lo - off, 0) : hi + 1 - off]


def _product_coeffs(p: np.ndarray, tail_log: float) -> tuple[int, np.ndarray]:
    """(lo, coefficients lo..D) of the product of (1 - p_i) + p_i z, every node in its band.

    The bands are _degree_caps(p, tail_log); (lo, D) is the root's.
    """
    bands, leaves = _degree_caps(p, tail_log)
    return _merge(zip(*bands), _leaf_bands(p, leaves))


def pmf_dc(profile: BernoulliProfile, k_max: int | None = None) -> Pmf:
    """Divide-and-conquer product of the per-variable polynomials (1-p) + p z.

    The profile is halved down to leaves of at most _DC_BASE entries
    (_degree_caps).  The leaves are expanded _SUBTREE // _DC_BASE at a time
    by the quadratic recurrence, run over a batch of rows; the leaf
    polynomials are then multiplied pairwise up the same tree, each product
    one np.convolve.  The tree is fixed by n, so results are reproducible.

    Every node of the tree keeps only its coefficients lo..D, after its
    leaf expansion or its product, where (lo, D) is its certified band
    (_degree_caps): the node's true mass below lo and above D is at most
    e^-745 each, below the smallest subnormal 2^-1074.  The tree has fewer
    than 2n nodes, so the caps move no entry by more than 2n * 2^-1074, and
    none above that becomes -inf; the entries outside the root's band are
    exact zeros.  A node with mean below 745 keeps its whole lower tail; a
    heavier one holds about 2 sqrt(2 * 745 * m) coefficients around its
    mean, m the lesser of its successes' and failures' means.  A direct
    product of nonnegative rows does not cancel (Higham 2002, ch. 3), so
    each coefficient's rounding error is relative to the coefficient
    itself, not to the largest one as an FFT product's is: every entry
    that is a normal double carries a small relative error.

    The whole product is computed on the calling thread, and k_max keeps
    its prefix.
    """
    k_max = _check_k_max(k_max, profile.n)
    lo, coeffs = _product_coeffs(profile.probs, _CAP_LOG)
    log_f = np.full(profile.n + 1, -np.inf)
    with np.errstate(divide="ignore"):
        np.log(coeffs, out=log_f[lo : lo + len(coeffs)])
    return _finish_log(log_f, profile.n, "divide_conquer", k_max)


def pmf_bruteforce(profile: BernoulliProfile, k_max: int | None = None) -> Pmf:
    """Literal sum over all 2^n outcomes; the oracle everything else faces.

    Vectorized over chunks of bitmasks, but still exponential: guarded at
    n <= 25 where it costs tens of millions of multiplies at most.  Every
    count is tallied, and k_max keeps the prefix.
    """
    n = profile.n
    k_max = _check_k_max(k_max, n)
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
    return _finish_log(log_f, n, "brute_force", k_max)


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
    values, k_max: int | None, high_precision: bool = False
) -> SymmetricSums:
    """Elementary symmetric polynomials e_0..e_{k_max} of the given values.

    Newton-triangle recurrence E_i(k) = E_{i-1}(k) + v_i E_{i-1}(k-1).  The
    first-order sum is overwritten with the exactly-rounded exact_sum so it
    agrees bit for bit with the profile mean computed elsewhere.  With
    high_precision the whole triangle is mirrored in exact rationals over
    the same binary inputs.  Every double is an integer over a power of two,
    so the mirror scales all values to their largest denominator 2^D, runs
    the triangle in Python ints, and returns e_k as the fraction
    E_k / 2^(D k), which is the exact rational value.
    """
    vals = np.array(values, dtype=np.float64)
    if not np.all(vals >= 0.0):  # a NaN fails the comparison too
        raise ValidationError("symmetric sums need nonnegative values")
    k_max = _check_k_max(k_max, len(vals))
    e = np.zeros(k_max + 1)
    e[0] = 1.0
    # Sums past the float range become inf.  Zero entries change nothing,
    # and skipping them keeps 0 * inf from turning a sum into NaN.
    with np.errstate(over="ignore"):
        for i, v in enumerate(vals[vals > 0.0]):
            top = min(i + 1, k_max)
            if top >= 1:
                e[1 : top + 1] = e[1 : top + 1] + v * e[:top]
    if k_max >= 1:
        e[1] = exact_sum(vals)
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
    whose noise exceeds 1e-6 of its magnitude, or a NaN from sums past the
    float range.  The rational path is exact and rounds once at the end.
    Use beyond n of about 25 is an oracle-only affair; the product-tree and
    divide-and-conquer engines are the production routes.
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
    # "not <=" so that a NaN total (inf - inf, sums past the float range) fails too.
    if not noise <= _IE_COND_LIMIT * abs(total):
        raise ConditioningError(
            f"alternating sum at k={k} lost too much precision "
            f"(noise estimate {noise:.3g} vs magnitude {abs(total):.3g}); "
            "use the rational mode or a convolution engine"
        )
    return min(1.0, max(0.0, total))


def pmf_ie(
    profile: BernoulliProfile, k_max: int | None = None, high_precision: bool = False
) -> Pmf:
    """pmf_inclusion_exclusion at k = 0..k_max over the profile's full symmetric sums.

    Raises ConditioningError at the first k whose float sum is untrustworthy;
    high_precision takes the exact rational path instead.  Each log is libm's.
    """
    n = profile.n
    k_max = _check_k_max(k_max, n)
    sums = elementary_symmetric(profile.probs, n, high_precision)
    probs = (pmf_inclusion_exclusion(sums, k, n) for k in range(k_max + 1))
    log_f = np.array([math.log(p) if p > 0.0 else -math.inf for p in probs])
    return _finish_log(log_f, n, "inclusion_exclusion", k_max)


def prob_zero_log(profile: BernoulliProfile) -> float:
    """log P(V = 0) = sum of log(1 - p_i), the exactly-rounded log1p sum."""
    return alpha_n(profile.probs)


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
        k = as_count(k, "k")
        if k < 0:
            raise ValidationError("k must be nonnegative")
        return -self.lam + k * math.log(self.lam) - float(log_factorials(np.asarray(k)))

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

        Bernstein's inequality for the Poisson tail gives
        log P(lam + x) <= -x^2 / (2 (lam + x/3)), which is below
        _LOG_UNDERFLOW = -u once x >= u/3 + sqrt((u/3)^2 + 2 u lam), and
        log P(X <= lam - x) <= -x^2 / (2 lam) is once x >= sqrt(2 u lam).
        Every term past either point is exp of something below -745.13:
        exactly 0.0.  Those entries are zero-filled rather than evaluated.
        """
        if k_hi < 0:
            raise ValidationError(f"k_hi={k_hi} must be nonnegative")
        lam, c = self.lam, -_LOG_UNDERFLOW / 3.0
        top = min(k_hi, math.ceil(lam + c + math.sqrt(c * c - 2.0 * _LOG_UNDERFLOW * lam)))
        bottom = max(0, math.floor(lam - math.sqrt(-2.0 * _LOG_UNDERFLOW * lam)))
        ks = np.arange(bottom, top + 1)
        out = np.zeros(k_hi + 1)
        out[bottom : top + 1] = np.exp(-lam + ks * math.log(lam) - log_factorials(ks))
        return out


def poisson_distances(lo: int, probs, ref: PoissonRef, complete=False) -> tuple[float, float]:
    """(sup_cdf, tv) from ref of the V with P(V = lo + j) = probs[j], 0 off that band.

    sup_cdf = sup_k |CDF(V)(k) - CDF(ref)(k)|; tv = (1/2) sum_k |P(V = k) - ref(k)|,
    tabulated once at k = 0..k_hi, where k_hi covers the band and reaches
    where ref's tail is certified below 1e-12.  Unless complete (V's whole
    mass but rounding: the rounding of 1 - p moves a full run's mass by up
    to n * 2^-54), the band must carry mass >= 1 - 1e-12.  Off the band the
    differences, -t and -c below it and total - c above, are exact and go
    straight into the one buffer: no padded copy is made.  A Pmf's run is
    the band 0, pmf.probs().
    """
    top = lo + len(probs)
    k_hi = max(top - 1, ref.truncation_k(1e-12))
    terms = ref.pmf_points(k_hi)
    diff = np.negative(terms)
    diff[lo:top] += probs
    tv = 0.5 * float(np.abs(diff, out=diff).sum())
    own = np.cumsum(probs)
    total = float(own[-1])
    if not complete and total < 1.0 - 1e-12:
        raise ValidationError(
            f"pmf covers mass {total:.17g} on {lo}..{top - 1}; "
            "need full support or cumulative mass >= 1 - 1e-12"
        )
    np.cumsum(terms, out=terms)
    np.negative(terms[:lo], out=diff[:lo])
    np.subtract(own, terms[lo:top], out=diff[lo:top])
    np.subtract(total, terms[top:], out=diff[top:])
    return float(np.abs(diff, out=diff).max()), tv
