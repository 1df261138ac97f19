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
* pmf_dc: divide-and-conquer polynomial multiplication, subquadratic: the
  leaves are expanded in one batched pass per subtree of at most _SUBTREE
  entries and multiplied up a fixed tree of pairs (direct convolution, rfft
  for long products).  Every node keeps its coefficients up to a certified
  cap D: with mu the sum of the node's p, the Chernoff bound
  P(S > D) <= e^-mu (e mu / (D + 1))^(D + 1) is at most e^-745, below the
  smallest subnormal 2^-1074, so the caps move no entry by more than
  2n * 2^-1074.  Products and FFT sizes follow the capped lengths.  A row
  longer than _SPLIT computes the two halves of its root on two threads,
  with the same bits as on one: the tree and its caps are fixed by the
  row, the worker's segments take their caps from the same table, and
  each array is made and read by one thread until it is handed over whole.
* pmf_bruteforce: literal sum over all 2^n outcomes, the oracle (n <= 25).
* pmf_ie: the alternating symmetric-sum formula (pmf_inclusion_exclusion
  per k), with a conditioning contract and an exact-rational mode.

Plus the k-fold symmetric sums, the log zero-probability, a truncated
Poisson reference, and the sup-of-CDF and total-variation distances to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._util import frozen_row, log_factorial, neumaier_sum
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
# np.convolve up to this output length; FFT beyond it.
_FFT_MIN = 4096
# Leaves are expanded one batch per subtree of at most this many entries.
_SUBTREE = 1 << 14
# A longer row computes the two halves of its root on two threads.  Up to 2^16
# the thread costs more than it saves (n = 3e4: 34 ms on two threads, 25 ms on
# one); at 2^17 it saves a quarter (168 against 220 ms; 2-core host, in process).
_SPLIT = 1 << 16
# The worker thread computes the left half as segments of at most 1/_PARTS of
# the row, so the large arrays of the merges near the root all belong to the
# calling thread.
_PARTS = 16
# Every node of pmf_dc's tree keeps its coefficients up to a degree D whose
# Chernoff tail bound is at most e^-_CAP_LOG: below 2^-1074 = e^-744.44, the
# smallest subnormal, with room for the rounding of the bound itself.
_CAP_LOG = 745.0
# Newton's method for the caps stops once no step exceeds _NEWTON_TOL, or
# after _NEWTON_STEPS steps; any iterate is a valid cap.
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
        return np.exp(self.log_probs)

    def prob(self, k: int) -> float:
        return math.exp(self.log_probs[k])

    def log_prob(self, k: int) -> float:
        return float(self.log_probs[k])

    def total_mass(self) -> float:
        return float(math.fsum(self.probs().tolist()))


def _check_k_max(k_max: int | None, n: int) -> int:
    """The top k an engine returns: n when k_max is None, else k_max in 0..n."""
    if k_max is None:
        return n
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


def _leaf_sizes(n: int, base: int = _DC_BASE) -> list[int]:
    """Lengths of the segments of at most base entries that the tree stops at, left to right.

    A segment longer than base splits at half its length (the left half
    takes the floor), so the tree depends on n alone; _merge walks the
    same tree.
    """
    if n <= base:
        return [n]
    half = n // 2
    return _leaf_sizes(half, base) + _leaf_sizes(n - half, base)


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


def _degree_caps(p: np.ndarray) -> dict[tuple[int, int], int]:
    """Certified top degree D of the nodes of pmf_dc's tree over the row p.

    Keyed by the (start, length) of the node's segment of p; a node that is
    not a key keeps all its length + 1 coefficients.  With mu the node's
    mean (the sum of its p), the Chernoff bound
    P(S > D) <= e^-mu (e mu / (D + 1))^(D + 1) of every key is at most
    e^-_CAP_LOG, below the smallest subnormal.

    The tree is _leaf_sizes's, built top down one level at a time; a
    segment of at most _DC_BASE entries passes to the next level unchanged,
    so every level tiles the row.  mu is summed bottom up: the deepest
    level's segments each sum their own entries, and every node above sums
    its one or two children.  No mu is a difference of prefix sums, which
    at a large total would cancel and read 0 for a light segment.  mu is
    rounded up by a relative 1e-9, far above the rounding of its sums, and
    by the smallest subnormal, so that it is positive; a larger mu only
    raises the bound.  D + 1 is the root of
    g(t) = t log(t / (e mu)) + mu - _CAP_LOG, found by Newton's method from
    t = length + 1 for all nodes at once.  g is convex and increasing past
    mu, so every iterate from above is a root or above one, and a cap.  A
    node with g(length + 1) < 0 is shorter than its cap and skips the solve.
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
    mus = [np.add.reduceat(p, starts[-1])]
    for first in reversed(children):
        mus.append(np.add.reduceat(mus[-1], first))
    s, l = np.concatenate(starts), np.concatenate(lens)
    mu = np.concatenate(mus[::-1]) * (1.0 + 1e-9) + 5e-324
    t = l + 1.0
    log_mu = np.log(mu)
    cut = t * (np.log(t) - log_mu - 1.0) + mu >= _CAP_LOG
    s, l, t, mu, log_mu = s[cut], l[cut], t[cut], mu[cut], log_mu[cut]
    for _ in range(_NEWTON_STEPS):
        slope = np.log(t) - log_mu
        step = (t * (slope - 1.0) + mu - _CAP_LOG) / slope
        t -= step
        if not step.max(initial=0.0) > _NEWTON_TOL:
            break
    return dict(zip(zip(s.tolist(), l.tolist()), (np.ceil(t).astype(np.int64) - 1).tolist()))


def _join(halves: list) -> np.ndarray:
    """Product of halves = [left, right], two coefficient rows.

    The sizes follow the rows' own lengths: a product shorter than
    _FFT_MIN is a direct convolution.  A longer one pops each half off the
    list to take its rfft spectrum, so the half is dropped as soon as its
    spectrum exists, and multiplies the spectra in place.
    """
    m = len(halves[0]) + len(halves[1]) - 1
    if m < _FFT_MIN:
        return np.convolve(*halves)
    size = 1 << (m - 1).bit_length()
    spec = np.fft.rfft(halves.pop(0), size)
    spec_right = np.fft.rfft(halves.pop(), size)
    spec *= spec_right
    del spec_right
    out = np.fft.irfft(spec, size)[:m]
    # FFT round-off can produce tiny negatives where the true value is ~0.
    np.clip(out, 0.0, None, out=out)
    return out


def _merge(p: np.ndarray, caps: dict, start: int = 0, leaves=None,
           base: int = _DC_BASE) -> np.ndarray:
    """Coefficients 0..D of the product of (1 - p_i) + p_i z over the segment p.

    p starts at entry start of the row whose _degree_caps are caps, and D
    is the segment's cap (its length where it has none).  Walks the tree of
    _leaf_sizes(len(p), base).  leaves is an iterator over the products of
    that tree's leaves in order, and each call consumes exactly the leaves
    under its segment.  Without one, a segment of at most _SUBTREE entries
    expands its own leaves in one _leaf_coeffs batch.
    """
    n = len(p)
    top = caps.get((start, n), n) + 1
    if leaves is None and n <= _SUBTREE:
        leaves = iter(_leaf_coeffs(p, _leaf_sizes(n)))
    if n <= base:
        return next(leaves)[:top]
    half = n // 2
    halves = [_merge(p[:half], caps, start, leaves, base),
              _merge(p[half:], caps, start + half, leaves, base)]
    return _join(halves)[:top]


def _product_coeffs(p: np.ndarray) -> np.ndarray:
    """Coefficients 0..D of the product of (1 - p_i) + p_i z over the whole profile.

    D is the root's cap from _degree_caps (n where it has none).  A row
    longer than _SPLIT computes the two halves of its root on two threads;
    np.convolve and numpy's FFT release the GIL while they work.  A worker
    thread computes the left half as segments of at most 1/_PARTS of the
    row, one after another, while this thread computes the right half;
    this thread then merges the segments up the left half and joins the
    two halves.  Every segment is a node of the one tree and takes its cap
    from the same dict, so the bits do not depend on the split.  Each
    thread allocates from its own malloc arena; a worker that merged the
    whole left half itself would hold large freed arrays in its arena, and
    the peak RSS of `distance` at n = 10^6 then varied by up to 10 MB from
    run to run.
    """
    n = len(p)
    caps = _degree_caps(p)
    if n <= _SPLIT:
        return _merge(p, caps)
    # Imported here, so that a run whose rows never pass _SPLIT does not load it.
    from concurrent.futures import ThreadPoolExecutor

    half, base = n // 2, -(-n // _PARTS)
    ends = np.cumsum(_leaf_sizes(half, base)).tolist()
    pool = ThreadPoolExecutor(max_workers=1)
    try:
        jobs = [pool.submit(_merge, p[a:b], caps, a) for a, b in zip([0, *ends], ends)]
        # Each future is dropped once read, so the merge above it owns its segment.
        parts = (jobs.pop(0).result() for _ in range(len(jobs)))
        # The right half first, while the worker computes the left half's segments.
        halves = [None, _merge(p[half:], caps, half)]
        halves[0] = _merge(p[:half], caps, 0, parts, base)
        return _join(halves)[: caps.get((0, n), n) + 1]
    finally:
        # Joins the worker; after a failure it starts no further segment.
        pool.shutdown(cancel_futures=True)


def pmf_dc(profile: BernoulliProfile, k_max: int | None = None) -> Pmf:
    """Divide-and-conquer product of the per-variable polynomials (1-p) + p z.

    The profile is halved down to leaves of at most _DC_BASE entries.  The
    leaves of each subtree of at most _SUBTREE entries are expanded at
    once by the quadratic recurrence, run over a batch of rows; the leaf
    polynomials are then multiplied pairwise up the same tree, with direct
    convolution for short products and rfft for long ones.  Each FFT merge
    drops a half once its spectrum is taken, so the traced peak of a 10^6
    row stays below 3.5 float64 copies of the row.  The tree is fixed by n,
    so results are reproducible run to run, and subquadratic for large n
    thanks to the FFT merges at the top.

    Every node of the tree keeps only its coefficients 0..D, after its leaf
    expansion or its join, where D is its certified cap (_degree_caps): by
    the Chernoff bound, the node's true mass above D is at most e^-745,
    below the smallest subnormal 2^-1074.  The tree has fewer than 2n
    nodes, so the caps move no entry by more than 2n * 2^-1074, and none
    above that becomes -inf; the entries above the root's cap are exact
    zeros.  (The shorter products also round in their own order, a few
    ulps apart from uncapped ones.)  The direct-or-FFT choice and the FFT
    size follow the capped lengths, so a light row (mean far below n) runs
    no FFT of the row's length, and the FFT noise that products of that
    length left in the tails is gone.

    A row longer than _SPLIT computes the two halves of its root at once
    (see _product_coeffs).  The bits are those of a one-thread run: every
    merge is the same call on the same inputs with the same cap, since the
    tree and its caps are fixed by the row, and each array is made and
    read by one thread until it is handed over whole.  The whole product is
    computed, and k_max keeps its prefix.
    """
    k_max = _check_k_max(k_max, profile.n)
    coeffs = _product_coeffs(profile.probs)
    log_f = np.full(profile.n + 1, -np.inf)
    with np.errstate(divide="ignore"):
        np.log(coeffs, out=log_f[: len(coeffs)])
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


def _against_poisson(pmf: Pmf, ref: PoissonRef) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pmf's probabilities and CDF and the reference's probabilities at k = 0..k_hi.

    The pmf's rows are zero-padded past its support, and its CDF holds its
    last value there, which is what a cumulative sum over the padded row
    gives bit for bit.  k_hi covers the pmf's support and reaches where the
    reference's tail is certified below 1e-12, so the omitted contribution
    is below reporting precision.  The pmf must carry essentially all of
    its mass: full support, or a truncated support whose cumulative mass
    reaches 1 - 1e-12.
    """
    probs = pmf.probs()
    cdf = np.cumsum(probs)
    total = float(cdf[-1])
    if pmf.support_max < pmf.n and total < 1.0 - 1e-12:
        raise ValidationError(
            f"pmf covers mass {total:.17g} on 0..{pmf.support_max}; "
            "need full support or cumulative mass >= 1 - 1e-12"
        )
    k_hi = max(pmf.support_max, ref.truncation_k(1e-12))
    pad = (0, k_hi - pmf.support_max)
    return np.pad(probs, pad), np.pad(cdf, pad, mode="edge"), ref.pmf_points(k_hi)


def poisson_distances(pmf: Pmf, ref: PoissonRef) -> tuple[float, float]:
    """(sup_cdf_distance, tv_distance) of pmf from ref, off one _against_poisson tabulation."""
    own, own_cdf, terms = _against_poisson(pmf, ref)
    sup_cdf = float(np.max(np.abs(own_cdf - np.cumsum(terms))))
    return sup_cdf, 0.5 * float(np.abs(own - terms).sum())


def sup_cdf_distance(pmf: Pmf, ref: PoissonRef) -> float:
    """sup over k >= 0 of |CDF(pmf)(k) - CDF(ref)(k)|, on _against_poisson's window."""
    return poisson_distances(pmf, ref)[0]


def tv_distance(pmf: Pmf, ref: PoissonRef) -> float:
    """Total-variation distance (1/2) sum over k of |pmf(k) - ref(k)|, on _against_poisson's window."""
    return poisson_distances(pmf, ref)[1]
