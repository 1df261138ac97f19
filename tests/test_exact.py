"""Exact engines, symmetric sums, inclusion-exclusion, Poisson reference."""

import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pblab import exact
from pblab.errors import (
    ConditioningError,
    HypothesisError,
    SizeError,
    ValidationError,
)
from pblab.exact import (
    Pmf,
    PoissonRef,
    elementary_symmetric,
    pmf_bruteforce,
    pmf_dc,
    pmf_dp,
    pmf_ie,
    pmf_inclusion_exclusion,
    pmf_tree,
    poisson_distances,
    prob_zero_log,
)
from pblab.profiles import BernoulliProfile, GrowthWindow, ProfileFamily, check_conditions, generate

WORKED = BernoulliProfile((0.1, 0.2, 0.3))
WORKED_PMF = (0.504, 0.398, 0.092, 0.006)

small_profiles = st.lists(
    st.floats(min_value=0.0, max_value=0.95, allow_nan=False),
    min_size=1,
    max_size=12,
).map(lambda xs: BernoulliProfile(tuple(xs)))

open_profiles = st.lists(
    st.floats(min_value=1e-3, max_value=0.999, allow_nan=False),
    min_size=1,
    max_size=12,
).map(lambda xs: BernoulliProfile(tuple(xs)))


def binom_pmf(n, p, k):
    return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)


# ----------------------------------------------------------------------
# Pmf container
# ----------------------------------------------------------------------


def test_pmf_rejects_support_beyond_n():
    with pytest.raises(ValidationError):
        Pmf((0.0, -1.0, -2.0), n=1, provenance="dp")


def test_pmf_rejects_positive_log_prob():
    with pytest.raises(ValidationError):
        Pmf((0.1,), n=1, provenance="dp")


def test_pmf_rejects_nan():
    with pytest.raises(ValidationError):
        Pmf((float("nan"),), n=1, provenance="dp")


def test_pmf_error_names_first_bad_entry():
    nan = float("nan")
    with pytest.raises(ValidationError, match=r"^log_probs\[2\] = nan is not"):
        Pmf((-1.0, -2.0, nan, 0.5), n=3, provenance="dp")
    with pytest.raises(ValidationError, match=r"^log_probs\[1\] = 0.5 is not"):
        Pmf((-1.0, 0.5, nan), n=3, provenance="dp")


def test_pmf_rejects_unknown_provenance():
    with pytest.raises(ValidationError):
        Pmf((-0.5,), n=1, provenance="magic")


def test_pmf_log_probs_are_a_read_only_float64_row():
    src = np.log([0.5, 0.25, 0.25])
    pmf = Pmf(src, n=2, provenance="dp")
    src[0] = -9.0
    assert pmf.log_probs.dtype == np.float64
    assert pmf.log_probs.ndim == 1
    assert pmf.log_probs.tolist() == np.log([0.5, 0.25, 0.25]).tolist()
    with pytest.raises(ValueError, match="read-only"):
        pmf.log_probs[0] = 0.0
    for engine in (pmf_tree, pmf_dp, pmf_dc, pmf_bruteforce):
        assert not engine(WORKED).log_probs.flags.writeable
    assert pmf != Pmf(pmf.log_probs, n=2, provenance="dp")


@pytest.mark.parametrize("bad", [-0.5, [[-0.5, -1.0]], np.zeros((1, 1))])
def test_pmf_rejects_input_that_is_not_one_row(bad):
    with pytest.raises(ValidationError, match="one-dimensional"):
        Pmf(bad, n=2, provenance="dp")


def test_pmf_accessors():
    pmf = pmf_dp(WORKED)
    assert pmf.support_max == 3
    assert pmf.prob(1) == pytest.approx(0.398, abs=1e-15)
    assert pmf.log_prob(0) == pytest.approx(math.log(0.504), abs=1e-14)
    assert type(pmf.prob(1)) is float and type(pmf.log_prob(0)) is float
    assert pmf.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert pmf.provenance == "dp"


@pytest.mark.parametrize("k", [-1, 4, 10])
def test_pmf_accessors_refuse_k_outside_the_support(k):
    """A negative k does not wrap to the far end of the row, and a k past
    support_max is no bare IndexError."""
    pmf = pmf_tree(WORKED)
    for accessor in (pmf.prob, pmf.log_prob):
        with pytest.raises(ValidationError, match=rf"^k={k} outside 0\.\.3$"):
            accessor(k)


# ----------------------------------------------------------------------
# the five engines on worked examples, and their one contract
# ----------------------------------------------------------------------

ENGINES = [pmf_tree, pmf_dp, pmf_dc, pmf_bruteforce, pmf_ie]


@pytest.mark.parametrize("engine", ENGINES)
def test_engines_match_worked_example(engine):
    """All engines reproduce the eight-outcome hand computation."""
    got = engine(WORKED).probs()
    assert got == pytest.approx(WORKED_PMF, abs=1e-14)


@pytest.mark.parametrize("engine", ENGINES)
def test_engines_match_binomial_closed_form(engine):
    n, p = 12, 0.37
    got = engine(BernoulliProfile((p,) * n)).probs()
    expected = [binom_pmf(n, p, k) for k in range(n + 1)]
    assert got == pytest.approx(expected, abs=1e-13)


def _pmf_ie_rational(profile, k_max=None):
    return pmf_ie(profile, k_max, high_precision=True)


@pytest.mark.parametrize("engine", [*ENGINES, _pmf_ie_rational])
def test_engine_truncation_is_prefix_of_full_run(engine):
    """engine(p, k) is engine(p)'s prefix through k, bit for bit, with its n and provenance."""
    prof = BernoulliProfile((0.0, 0.05, 0.3, 0.45, 0.2, 0.15, 0.0, 0.6, 0.33, 0.01))
    full = engine(prof)
    assert full.support_max == prof.n
    for k_max in (0, 3, prof.n):
        head = engine(prof, k_max)
        assert head.log_probs.tobytes() == full.log_probs[: k_max + 1].tobytes()
        assert (head.n, head.provenance) == (full.n, full.provenance)


@pytest.mark.parametrize("engine", ENGINES)
def test_engines_share_the_k_max_rule(engine):
    for k_max in (-1, WORKED.n + 1):
        with pytest.raises(ValidationError) as info:
            engine(WORKED, k_max)
        assert str(info.value) == f"k_max={k_max} outside 0..3"


@pytest.mark.parametrize("engine", ENGINES)
def test_engines_take_k_max_as_a_count(engine):
    """A numpy int is a count; a float, 2.0 included, is refused as the CLI refuses it."""
    assert engine(WORKED, np.int64(2)).log_probs.tobytes() == engine(WORKED, 2).log_probs.tobytes()
    for k_max in (2.0, 2.5):
        with pytest.raises(ValidationError) as info:
            engine(WORKED, k_max)
        assert str(info.value) == f"k_max must be an integer, got {k_max!r}"


def test_dp_truncation_is_prefix_of_full_run():
    """The recurrence never reads above k, so truncation is bitwise exact."""
    prof = BernoulliProfile(tuple((i % 7 + 1) / 10 for i in range(40)))
    full = pmf_dp(prof)
    head = pmf_dp(prof, k_max=5)
    assert head.log_probs.tobytes() == full.log_probs[:6].tobytes()


def test_dp_handles_zero_entries():
    prof = BernoulliProfile((0.0, 0.3, 0.0, 0.6, 0.0))
    assert pmf_dp(prof).probs() == pytest.approx(
        pmf_bruteforce(prof).probs(), abs=1e-15
    )


def test_dp_log_domain_survives_underflow():
    # 600 entries of 0.9: P(V=0) = 0.1^600, far below linear-domain range.
    prof = BernoulliProfile((0.9,) * 600)
    pmf = pmf_dp(prof)
    assert pmf.log_probs[0] == pytest.approx(600 * math.log(0.1), rel=1e-13)
    assert pmf.total_mass() == pytest.approx(1.0, abs=1e-9)


# ----------------------------------------------------------------------
# the product tree against the dp oracle
# ----------------------------------------------------------------------


def _tree_rows():
    rng = np.random.default_rng(2018)
    zeros = rng.uniform(0.0, 0.9, 301)
    zeros[::4] = 0.0
    tiny = rng.uniform(0.0, 0.5, 257)
    tiny[::5] = 5e-324
    tiny[3::11] = 0.0
    # lambda near 940 > 745: P(V = 0) alone is far below the smallest double.
    heavy = rng.uniform(0.1, 0.5, 4096)
    heavy[::7] = 5e-324
    heavy[::11] = 0.0
    return {"zeros": zeros, "tiny": tiny, "heavy": heavy, "all_zero": np.zeros(9),
            "one": np.array([0.25])}


@pytest.mark.parametrize("name", ["zeros", "tiny", "heavy", "all_zero", "one"])
def test_tree_matches_dp_in_log_with_the_same_zero_set(name):
    prof = BernoulliProfile(_tree_rows()[name])
    nnz = int(np.count_nonzero(prof.probs))
    for k_max in sorted({0, 1, min(31, prof.n), prof.n}):
        tree = pmf_tree(prof, k_max)
        dp = pmf_dp(prof, k_max)
        assert tree.provenance == "product_tree" and tree.support_max == k_max
        got, want = np.array(tree.log_probs), np.array(dp.log_probs)
        impossible = np.arange(k_max + 1) > nnz
        assert np.array_equal(np.isneginf(got), impossible)
        assert np.array_equal(np.isneginf(want), impossible)
        ok = ~impossible
        assert np.all(np.abs(got[ok] - want[ok]) <= 1e-12 * np.abs(want[ok]))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 301, 4097])
def test_tree_truncation_is_prefix_of_full_run(n):
    rng = np.random.default_rng(n)
    p = rng.uniform(0.0, 0.9, n)
    p[::5] = 0.0
    prof = BernoulliProfile(p)
    full = pmf_tree(prof).log_probs
    for k_max in sorted({0, min(1, n), min(2, n), min(5, n), min(31, n), n // 2, n}):
        head = pmf_tree(prof, k_max).log_probs
        assert head.tobytes() == full[: k_max + 1].tobytes()


def test_tree_is_accurate_to_rounding_on_a_constant_row_at_scale():
    """row_power:1.2,0.65 at n = 10^5 has lambda near 67.5; pmf_dp is 9e-11 off here."""
    n = 10**5
    v = 1.2 * n**-0.65
    got = pmf_tree(BernoulliProfile(np.full(n, v)), 40).log_probs
    want = [
        math.log(math.comb(n, k)) + k * math.log(v) + (n - k) * math.log1p(-v)
        for k in range(41)
    ]
    assert np.max(np.abs(got - np.array(want))) < 1e-12


def test_dc_crosses_merge_thresholds():
    """n past the direct-convolution base exercises the split/merge path."""
    prof = BernoulliProfile(tuple((i % 9 + 1) / 11 for i in range(257)))
    diff = np.abs(pmf_dc(prof).probs() - pmf_dp(prof).probs())
    assert float(diff.max()) < 1e-12


def _binomial_log_pmf(n, v):
    """log P(k) of Binomial(n, v) at k = 0..n: log of the exact integer C(n, k), plus k log v + (n - k) log1p(-v)."""
    out = np.empty(n + 1)
    lv, lq = math.log(v), math.log1p(-v)
    c = 1
    for k in range(n + 1):
        out[k] = math.log(c) + k * lv + (n - k) * lq
        c = c * (n - k) // (k + 1)
    return out


def _assert_relatively_accurate(got, want):
    """Every entry whose reference is above e^-700 is finite and within 1e-9 of it, relative."""
    above = want > -700.0
    assert not np.any(np.isneginf(got[above]))
    assert np.all(np.abs(np.expm1(got[above] - want[above])) <= 1e-9)


def test_dc_is_relatively_accurate_on_a_heavy_binomial_row():
    """constant_p:0.3 at n = 10^4 (mean 3000): every one of the 3372
    entries above e^-700 is within 1e-9 of the exact binomial, relative.
    With an rfft product at the top, 1460 of them printed -inf.

    constant_p:0.9 at n = 10^5, whose failures are the fewer: the root
    keeps at most 8000 coefficients (21,330 when only the successes'
    bounds cut it), and every entry above e^-700 is as accurate."""
    n = 10**4
    want = _binomial_log_pmf(n, 0.3)
    got = pmf_dc(generate(ProfileFamily("constant_p", (0.3,)), n)).log_probs
    assert int(np.count_nonzero(want > -700.0)) == 3372
    _assert_relatively_accurate(got, want)
    n = 10**5
    prof = generate(ProfileFamily("constant_p", (0.9,)), n)
    assert len(exact._product_coeffs(prof.probs, exact._CAP_LOG)[1]) <= 8000
    _assert_relatively_accurate(pmf_dc(prof).log_probs, _binomial_log_pmf(n, 0.9))


def test_dc_is_relatively_accurate_on_a_heavy_uniform_row():
    """A seeded uniform(0, 0.3) row at n = 3 * 10^4 (mean near 4500), the
    shape of the full_support pmf row: every entry whose tree value is
    above e^-700 is within 1e-9 of it, relative.  The tree is truncated at
    K = 7000, a bit-for-bit prefix of its full run; the PMF is log-concave
    and its mode lies below K, so every entry past K is below the one at K,
    itself below e^-700."""
    n, top = 3 * 10**4, 7000
    prof = BernoulliProfile(np.random.default_rng(1).uniform(0.0, 0.3, n))
    tree = pmf_tree(prof, top).log_probs
    assert np.argmax(tree) < top and tree[top] < -700.0
    dc = pmf_dc(prof).log_probs
    assert np.all(dc[top + 1 :] < -700.0)
    _assert_relatively_accurate(dc[: top + 1], tree)


def _poly_direct_reference(p):
    """The per-leaf recurrence of the recursive engine, kept as the reference."""
    out = np.zeros(len(p) + 1)
    out[0] = 1.0
    for i, pi in enumerate(p):
        out[1 : i + 2] = out[1 : i + 2] * (1.0 - pi) + out[: i + 1] * pi
        out[0] *= 1.0 - pi
    return out


def _split_row(n):
    """A seeded row of n entries in [0, 0.6), every 7th one an exact zero."""
    p = np.random.default_rng(n).uniform(0.0, 0.6, n)
    p[::7] = 0.0
    return p


def _segments(n, start=0):
    """(start, length) of every node of pmf_dc's tree over n entries, in _merge's order."""
    yield start, n
    if n > exact._DC_BASE:
        yield from _segments(n // 2, start)
        yield from _segments(n - n // 2, start + n // 2)


def _caps_table(p, tail_log=exact._CAP_LOG):
    """_degree_caps(p, tail_log) as {(start, length): (lo, D)} over every node."""
    (_, lo, hi), _ = exact._degree_caps(p, tail_log)
    return dict(zip(_segments(len(p)), zip(lo, hi)))


def _dc_coeffs_reference(p, caps, start=0):
    """The recursive engine: one leaf at a time, merged on the way back up.

    Returns (lo, coefficients lo..D).  Every node keeps its band (lo, D) in
    caps, keyed by the node's (start, length) in the row, as pmf_dc does;
    every merge is one np.convolve.
    """
    lo, hi = caps.get((start, len(p)), (0, len(p)))
    if len(p) <= exact._DC_BASE:
        return lo, _poly_direct_reference(p)[lo : hi + 1]
    mid = len(p) // 2
    lo_a, left = _dc_coeffs_reference(p[:mid], caps, start)
    lo_b, right = _dc_coeffs_reference(p[mid:], caps, start + mid)
    off = lo_a + lo_b
    return max(lo, off), np.convolve(left, right)[max(lo - off, 0) : hi + 1 - off]


@pytest.mark.parametrize("n, bound", [
    pytest.param(n, bound, id=str(n) if bound == "cap" else f"{n}-distance")
    for bound in ("cap", "distance")
    for n in (1, 63, 64, 65, 129, 257, 4097, 4200, 16383, 16384, 16385, 20000, 32769,
              65536, 65537, 200003)
])
def test_dc_batched_leaves_bit_identical_to_recursive(n, bound):
    """Batched leaves, the merge tree and the caps reproduce the recursive engine bit for bit.

    Covers a lone short leaf, uneven leaves and odd splits, rows light
    enough to keep every lower tail and rows heavy enough (mean near
    0.26 n) to cut them, and rows of one leaf batch and of several; at
    16385, 32769 and 65537 the last batch is a partial one, a single leaf
    whose sibling ends the batch before it.  Every 7th entry is an exact
    zero.  The reference applies the bands of _degree_caps at every node,
    as the engine does, at pmf_dc's bound _CAP_LOG and at the distances'
    c(n) = log 4n + 64 log 2.
    """
    p = _split_row(n)
    tail_log = exact._CAP_LOG if bound == "cap" else _distance_tail_log(n)
    lo, expected = _dc_coeffs_reference(p, _caps_table(p, tail_log))
    got_lo, got = exact._product_coeffs(p, tail_log)
    assert got_lo == lo
    assert got.tobytes() == expected.tobytes()
    if bound == "cap":  # pmf_dc's own run
        expected_log = np.full(n + 1, -np.inf)
        with np.errstate(divide="ignore"):
            expected_log[lo : lo + len(expected)] = np.minimum(np.log(expected), 0.0)
        log_probs = np.array(pmf_dc(BernoulliProfile(tuple(p.tolist()))).log_probs)
        assert log_probs.tobytes() == expected_log.tobytes()


_LOG_SUBNORMAL = -1074 * math.log(2.0)  # log of the smallest subnormal, 2^-1074


def _chernoff_log(mu, d):
    """log of the Chernoff bound e^-mu (e mu / (d + 1))^(d + 1) on P(S > d); -inf at mu = 0."""
    t = d + 1.0
    return -mu + t * (1.0 + math.log(mu) - math.log(t)) if mu > 0.0 else -math.inf


def _chernoff_lower_log(mu, a):
    """log of the Chernoff bound e^-mu (e mu / a)^a on P(S <= a), for 0 <= a <= mu; -mu at a = 0."""
    return -mu + a * (1.0 + math.log(mu) - math.log(a)) if a > 0 else -mu


def _least_cap(mu, length):
    """The least d >= mu whose Chernoff bound is at most e^-745, or length if none below it is.

    The bound holds for d + 1 > mu only.
    """
    d = int(mu)
    while d < length and _chernoff_log(mu, d) > -745.0:
        d += 1
    return d


def _greatest_floor(mu):
    """The greatest a < mu whose lower Chernoff bound is at most e^-745, or -1 if none is."""
    a = -1
    while a + 1 < mu and _chernoff_lower_log(mu, a + 1) <= -745.0:
        a += 1
    return a


def _mixed_binomial_log_mass(ones, rest, p, lo, hi):
    """log P(lo <= S <= hi) for S = ones + Binomial(rest, p), by lgamma sums; -inf if impossible."""
    j0, j1 = max(0, lo - ones), min(rest, hi - ones)
    if j0 > j1:
        return -math.inf
    j = np.arange(j0, j1 + 1, dtype=np.float64)
    lgamma = np.vectorize(math.lgamma)
    logs = (math.lgamma(rest + 1.0) - lgamma(j + 1.0) - lgamma(rest - j + 1.0)
            + j * math.log(p) + (rest - j) * math.log1p(-p))
    top = float(logs.max())
    return top + math.log(math.fsum(np.exp(logs - top).tolist()))


@pytest.mark.parametrize("p, length, ones_every", [
    (0.0, 5000, 0),      # mu = 0: every segment is the identity
    (1e-303, 1000, 0),   # mu near 1e-300 for the whole row
    (5e-324, 300, 0),    # the smallest subnormal
    (1e-12, 4096, 0),
    (0.003, 5000, 0),
    (0.3, 5000, 0),      # mu = 1500: the root cuts below
    (0.01, 3000, 5),     # every 5th entry is p = 1
    (0.1, 5000, 4),      # mu = 1625: the root cuts below
    (0.5, 700, 1),       # every entry is p = 1: mu = length, nothing is cut
    (0.5, 1500, 0),      # mu = 750, just past 745: the lower solve starts at a tiny x
    (0.9, 3000, 0),      # mu = 2700: the lower solve starts at mu - sqrt(2 mu 745)
])
def test_dc_caps_certify_the_exact_binomial_tail(p, length, ones_every):
    """Every node's band (lo, D) leaves at most 2^-1074 on each side: the
    exact tails P(S > D) and P(S < lo) of the node's segment, a shifted
    binomial summed in log by lgamma, are each at most 2^-1074.  D is also
    within one of the least degree whose Chernoff bound is at most e^-745,
    and lo at least the greatest such degree below the mean, and within
    one past it unless the failures are the fewer.  Where they are, the
    failures' own band, mirrored, holds D and lo within one of its caps.
    So the caps do cut: above on every row whose bound allows a degree
    below its length, or whose failures are the fewer with a mean above
    745 (the p = 0.5 row of 1500; not the all-ones row, nor the p = 0.9
    row), below on every row whose mean is above 745 or whose failures are
    the fewer (the all-ones row: its band is its one count)."""
    row = np.full(length, p)
    if ones_every:
        row[::ones_every] = 1.0
    caps = _caps_table(row)
    cut = cut_below = 0
    for (start, size), (lo, d) in caps.items():
        seg = row[start : start + size]
        ones = int(np.count_nonzero(seg == 1.0))
        rest = size - ones
        assert 0 <= lo <= d <= size
        if p > 0.0:
            assert _mixed_binomial_log_mass(ones, rest, p, d + 1, size) <= _LOG_SUBNORMAL
            assert _mixed_binomial_log_mass(ones, rest, p, 0, lo - 1) <= _LOG_SUBNORMAL
        else:
            assert lo <= ones <= d
        mu = math.fsum(seg.tolist())
        assert d <= _least_cap(mu, size) + 1
        assert _greatest_floor(mu) <= lo
        if size - mu <= mu:
            # The failures' mean, bounded through mu's own 1e-9 slack as the caps bound it.
            nu_down = (size - mu * (1 + 1e-9)) * (1 - 1e-9)
            nu_up = (size - mu * (1 - 1e-9)) * (1 + 1e-9)
            assert d <= size - _greatest_floor(nu_down)
            assert lo >= size - _least_cap(nu_up, size) - 1
        else:
            assert lo <= _greatest_floor(mu) + 1
        cut += d < size
        cut_below += lo > 0
    mu = math.fsum(row.tolist())
    assert (cut > 0) == (_least_cap(mu, length) < length or 745.0 < length - mu <= mu)
    assert (cut_below > 0) == (mu > 745.0 or length - mu <= mu)


@pytest.mark.parametrize("n", [700, 2047, 4094])
def test_dc_caps_move_direct_rows_by_at_most_2n_subnormals(n):
    """On rows whose merges are all direct convolutions, the caps move no
    entry by more than 2n * 2^-1074, and no entry above that becomes 0.

    The shorter products also round differently: np.convolve's dot
    products sum in an order that depends on their lengths, which moves
    entries by a few ulps (4.4e-16 relative at most on these rows).  That
    share is allowed as 1e-14 of the entry.
    """
    rng = np.random.default_rng(n)
    p = rng.uniform(0.0, 0.05, n)
    p[::5] = 0.0
    p[1::7] = 5e-324
    p[2::11] = 1.0
    lo, capped = exact._product_coeffs(p, exact._CAP_LOG)
    _, uncapped = exact._product_coeffs(p, math.inf)  # no bound is e^-inf: no node is cut
    assert lo == 0  # mean below 745: no node cuts below
    assert len(capped) < len(uncapped) == n + 1
    full = np.zeros(n + 1)
    full[: len(capped)] = capped
    assert np.all(np.abs(full - uncapped) <= 2 * n * 5e-324 + 1e-14 * uncapped)
    assert not np.any((full == 0.0) & (uncapped > 2 * n * 5e-324))


def test_dc_caps_keep_light_segments_behind_a_heavy_prefix():
    """A row with lambda near 10^5 followed by entries of 1e-12: every cap
    that cuts, above or below, holds under its Chernoff bound at the
    segment's exactly rounded mean; D under the tighter of the bound on
    the successes and the lower one on the failures.
    A mean read as a difference of prefix sums is 0 for the light
    segments, since 1e-12 is below half an ulp of 10^5, and a cap from it
    would drop all their mass above 0."""
    heavy, light = 200_000, 8192
    row = np.concatenate([np.full(heavy, 0.5), np.full(light, 1e-12)])
    prefix = np.concatenate([[0.0], np.cumsum(row)])
    caps = _caps_table(row)
    light_nodes = 0
    for (start, size), (lo, d) in caps.items():
        mu = math.fsum(row[start : start + size].tolist())
        if d < size:
            fails = _chernoff_lower_log(size - mu, size - d - 1) if d + 1 >= mu else 0.0
            assert min(_chernoff_log(mu, d), fails) <= -745.0 + 1e-9
        if lo:
            assert _chernoff_lower_log(mu, lo - 1) <= -745.0 + 1e-9
        if start >= heavy:
            light_nodes += 1
            assert prefix[start + size] - prefix[start] == 0.0
            assert d >= 1
    assert light_nodes > 0


def test_dc_runs_no_fft(monkeypatch):
    """Every product is a direct convolution: with every np.fft entry point
    raising, _product_coeffs still runs a heavy row (mean near 0.26 n) at
    n = 200003, whose root band holds some 10^4 coefficients."""

    def refuse(*args, **kwargs):
        raise AssertionError("np.fft called")

    for name in np.fft.__all__:
        monkeypatch.setattr(np.fft, name, refuse)
    lo, coeffs = exact._product_coeffs(_split_row(200003), exact._CAP_LOG)
    assert lo > 0 and len(coeffs) > 10**4


@pytest.mark.parametrize("c, a", [(0.5, 0.5), (0.9, 0.3)])
def test_dc_fft_sizes_follow_the_caps(monkeypatch, c, a):
    """On a light row at n = 2^17 (lambda near 361 and 4900), no rfft runs,
    and no np.convolve product is longer than twice the root's band
    (lo, D), which itself spans far less than the row."""
    n = 1 << 17
    p = generate(ProfileFamily("index_power", (c, a)), n).probs
    lo, hi = _caps_table(p)[(0, n)]
    ffts, sizes = [], []
    real_rfft, real_convolve = np.fft.rfft, np.convolve

    def spy_rfft(x, *args, **kwargs):
        ffts.append(len(x))
        return real_rfft(x, *args, **kwargs)

    def spy_convolve(x, y, *args, **kwargs):
        sizes.append(len(x) + len(y) - 1)
        return real_convolve(x, y, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", spy_rfft)
    monkeypatch.setattr(np, "convolve", spy_convolve)
    exact._product_coeffs(p, exact._CAP_LOG)
    assert ffts == []
    assert 0 < max(sizes) <= 2 * (hi + 1 - lo) and 2 * (hi + 1) < n


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    st.lists(st.integers(1, exact._DC_BASE), min_size=1, max_size=6).flatmap(
        lambda sizes: st.tuples(
            st.just(sizes),
            st.lists(st.floats(0.0, 1.0), min_size=sum(sizes), max_size=sum(sizes)),
            st.integers(0, max(sizes)),
        )
    )
)
def test_truncated_leaves_are_bit_identical_to_full_ones(case):
    """_leaf_coeffs stopped at any top keeps each leaf's coefficients 0..top bit for bit."""
    sizes, p, top = case
    p = np.array(p)
    full = exact._leaf_coeffs(p, sizes, max(sizes))
    cut = exact._leaf_coeffs(p, sizes, top)
    for size, a, b in zip(sizes, full, cut):
        assert len(b) == min(size, top) + 1
        assert b.tobytes() == a[: len(b)].tobytes()


def _distance_tail_log(n):
    return math.log(4.0 * n) + 64.0 * math.log(2.0)


def _distance_rows():
    yield generate(ProfileFamily("constant_total", (2.0,)), 20)
    for n in (10**4, 10**5):
        yield generate(ProfileFamily("index_power", (0.5, 0.5)), n)
        yield generate(ProfileFamily("constant_p", (0.3,)), n)
    yield BernoulliProfile(np.random.default_rng(7).uniform(0.0, 0.3, 3 * 10**4))


def test_distance_band_matches_the_full_pmf_dc_route():
    """The distances from the loosely capped band are within 1e-14 of those
    from pmf_dc's full run tabulated over 0..n, its linear probabilities
    as exp of its log ones."""
    for prof in _distance_rows():
        ref = PoissonRef(prof.summary.lambda_n)
        lo, band = exact._product_coeffs(prof.probs, _distance_tail_log(prof.n))
        assert lo + len(band) <= prof.n + 1
        got = poisson_distances(lo, band, ref, complete=True)
        want = poisson_distances(0, pmf_dc(prof).probs(), ref, complete=True)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-14, prof.n


def _log_cut_bounds(mu, size, lo, d):
    """log of the least valid Chernoff bound on each cut tail of a segment
    of that length and mean: on P(S < lo) where lo > 0 and on P(S > d)
    where d < size, by the successes' own bound or the failures' mirrored one."""
    nu = size - mu
    bounds = []
    if lo > 0:
        forms = [_chernoff_log(nu, size - lo)] if size - lo + 1 > nu else []
        forms += [_chernoff_lower_log(mu, lo - 1)] if lo - 1 <= mu else []
        bounds.append(min(forms))
    if d < size:
        forms = [_chernoff_log(mu, d)] if d + 1 > mu else []
        forms += [_chernoff_lower_log(nu, size - d - 1)] if size - d - 1 <= nu else []
        bounds.append(min(forms))
    return bounds


@pytest.mark.parametrize("n", [20, 1000, 10**6])
def test_distance_caps_drop_at_most_2_to_the_minus_64(n):
    """With the distances' bound e^-c, c = log 4n + 64 log 2, every cut's
    Chernoff bound is at most e^-c, and their sum over every node and both
    sides at most 2^-64, on a light row and on one whose failures are the
    fewer."""
    c = _distance_tail_log(n)
    for family in (("index_power", (0.5, 0.5)), ("constant_p", (0.9,))):
        p = generate(ProfileFamily(*family), n).probs
        (_, lo, hi), _ = exact._degree_caps(p, c)
        logs = []
        for (start, size), a, d in zip(_segments(n), lo, hi):
            logs += _log_cut_bounds(float(np.sum(p[start : start + size])), size, a, d)
        assert (len(logs) > 0) == (n > 20)  # at n = 20 no bound reaches e^-c below the length
        assert max(logs, default=-math.inf) <= -c + 1e-9
        assert math.fsum(math.exp(x) for x in logs) <= 2.0**-64


def test_dc_matches_tree_in_log_on_a_light_row():
    """index_power:0.5,0.5 at n = 5000: no entry whose tree value is above
    1e-300 is -inf (uncapped, 213 were), and at least 4 times the 99
    entries the uncapped engine got within 1e-9 of the tree in log are."""
    prof = generate(ProfileFamily("index_power", (0.5, 0.5)), 5000)
    dc = np.array(pmf_dc(prof).log_probs)
    tree = np.array(pmf_tree(prof).log_probs)
    assert not np.any(np.isneginf(dc) & (tree > math.log(1e-300)))
    assert int(np.count_nonzero(np.abs(dc - tree) <= 1e-9)) >= 4 * 99


def test_bruteforce_guard():
    with pytest.raises(SizeError):
        pmf_bruteforce(BernoulliProfile((0.5,) * 26))


# ----------------------------------------------------------------------
# symmetric sums and inclusion-exclusion
# ----------------------------------------------------------------------


def test_elementary_symmetric_worked_example():
    sums = elementary_symmetric(WORKED.probs, 3)
    assert sums.values[0] == 1.0
    assert sums.values[1] == pytest.approx(0.6, abs=1e-16)
    assert sums.values[2] == pytest.approx(0.11, abs=1e-15)
    assert sums.values[3] == pytest.approx(0.006, abs=1e-16)


def test_first_symmetric_sum_equals_mean_exactly():
    """S_1 uses the same exactly-rounded sum as the profile summary."""
    from pblab.profiles import summarize

    probs = tuple((i % 13 + 1) / 17 for i in range(50))
    sums = elementary_symmetric(probs, 3)
    assert sums.values[1] == summarize(BernoulliProfile(probs)).lambda_n


def test_symmetric_sums_maclaurin_bound():
    sums = elementary_symmetric((0.3, 0.7, 0.9, 0.2), 2)
    assert sums.values[2] <= sums.values[1] ** 2 / 2 + 1e-15


def test_rational_mirror_is_exact():
    # Dyadic inputs make the expected rationals easy to state exactly.
    sums = elementary_symmetric((0.5, 0.25, 0.125), 3, high_precision=True)
    hp = sums.high_precision_values
    assert hp[1] == Fraction(7, 8)
    assert hp[2] == Fraction(1, 8) + Fraction(1, 16) + Fraction(1, 32)
    assert hp[3] == Fraction(1, 64)


def _fraction_triangle_reference(values, k_max):
    """The rational mirror built from Fraction values, kept as the reference."""
    he = [Fraction(0)] * (k_max + 1)
    he[0] = Fraction(1)
    for i, v in enumerate(values):
        fv = Fraction(v)
        for k in range(min(i + 1, k_max), 0, -1):
            he[k] += fv * he[k - 1]
    return tuple(he)


_EXTREMES = (0.0, 5e-324, 1 - 2**-53, 2.0**-1022, 1.0, 0.75, 1.3 * 2.0**-60, 1e-10)


@pytest.mark.parametrize(
    "values, k_max",
    [
        ((), 0),
        ((0.0,) * 4, 4),
        ((1.0,) * 3, 3),
        (_EXTREMES, len(_EXTREMES)),
        # n = 200, every 7th entry extreme, the rest spread over 2^0..2^-39.
        (
            tuple(
                _EXTREMES[(i // 7) % len(_EXTREMES)]
                if i % 7 == 0
                else ((i * 7919) % 1009) / 1009 * 2.0 ** -(i % 40)
                for i in range(200)
            ),
            24,
        ),
        # n = 200 and the full triangle, on entries like the benchmark's.
        (tuple(0.005 + 0.045 * ((i * 7919) % 1009) / 1009 for i in range(200)), 200),
    ],
    ids=["empty", "zeros", "ones", "extremes", "n200_mixed_exponents", "n200_full"],
)
def test_rational_mirror_matches_fraction_reference(values, k_max):
    got = elementary_symmetric(values, k_max, high_precision=True).high_precision_values
    assert got == _fraction_triangle_reference(values, k_max)


def test_poisson_truncation_takes_its_cap():
    ref = PoissonRef(3.0)
    with pytest.raises(TypeError):
        ref.truncation_k()
    with pytest.raises(TypeError):
        PoissonRef(3.0, 1e-15)
    for bad in (0.0, 1.0, -1e-3, math.nan):
        with pytest.raises(ValidationError):
            ref.truncation_k(bad)
    assert ref.truncation_k(1e-15) >= ref.truncation_k(1e-12)


def test_elementary_symmetric_validation():
    with pytest.raises(ValidationError):
        elementary_symmetric((0.1, -0.2), 1)
    # The engines' k_max rule: None means every value.
    with pytest.raises(ValidationError, match=r"^k_max=2 outside 0\.\.1$"):
        elementary_symmetric((0.1,), 2)
    assert elementary_symmetric((0.1, 0.2), None).k_max == 2


def test_symmetric_sums_type_validation():
    from pblab.exact import SymmetricSums

    with pytest.raises(ValidationError):
        SymmetricSums((0.9, 0.5))  # S_0 must be 1
    with pytest.raises(ValidationError):
        SymmetricSums((1.0, -0.5))
    with pytest.raises(ValidationError):
        SymmetricSums((1.0, 0.5), (Fraction(1),))


def test_symmetric_sums_values_are_a_read_only_float64_row():
    from pblab.exact import SymmetricSums

    src = [1.0, 0.5, 0.0625]
    sums = SymmetricSums(src)
    assert sums.values.dtype == np.float64
    assert sums.values.ndim == 1
    assert not sums.values.flags.writeable
    src[1] = 0.25
    assert sums.values.tolist() == [1.0, 0.5, 0.0625]
    assert sums == sums
    assert sums != SymmetricSums([1.0, 0.5, 0.0625])
    assert not elementary_symmetric((0.5, 0.25), 2).values.flags.writeable


@pytest.mark.parametrize(
    "values, message",
    [
        ((1.0, 0.5, math.nan, -1.0), "S_2 = nan must be a nonnegative real"),
        ((1.0, 0.5, -1.0, math.nan), "S_2 = -1.0 must be a nonnegative real"),
        ((1.0, -0.0, -5e-324), "S_2 = -5e-324 must be a nonnegative real"),
        ((), "symmetric sums must start with S_0 = 1"),
        ((1.0, "a"), "symmetric sums must be a row of numbers"),
        (((1.0, 0.5),), "symmetric sums must be one-dimensional"),
    ],
    ids=["nan_first", "negative_first", "negative_zero_ok", "empty", "not_numbers", "2d"],
)
def test_symmetric_sums_name_the_first_offending_entry(values, message):
    from pblab.exact import SymmetricSums

    with pytest.raises(ValidationError) as info:
        SymmetricSums(values)
    assert str(info.value).startswith(message)

def test_inclusion_exclusion_worked_example():
    sums = elementary_symmetric(WORKED.probs, 3)
    assert pmf_inclusion_exclusion(sums, 0, 3) == pytest.approx(0.504, abs=1e-14)
    assert pmf_inclusion_exclusion(sums, 1, 3) == pytest.approx(0.398, abs=1e-14)
    assert pmf_inclusion_exclusion(sums, 2, 3) == pytest.approx(0.092, abs=1e-14)
    assert pmf_inclusion_exclusion(sums, 3, 3) == pytest.approx(0.006, abs=1e-14)


def test_inclusion_exclusion_rational_matches_brute():
    probs = tuple((i % 11 + 1) / 13 for i in range(12))
    sums = elementary_symmetric(probs, 12, high_precision=True)
    brute = pmf_bruteforce(BernoulliProfile(probs)).probs()
    got = [pmf_inclusion_exclusion(sums, k, 12) for k in range(13)]
    assert got == pytest.approx(list(brute), abs=1e-14)


def test_inclusion_exclusion_conditioning_guard():
    """Alternating cancellation at p=0.9, n=20 wipes out the float path."""
    probs = (0.9,) * 20
    sums = elementary_symmetric(probs, 20)
    with pytest.raises(ConditioningError):
        pmf_inclusion_exclusion(sums, 0, 20)
    # The rational path survives where the float path refuses.
    hp = elementary_symmetric(probs, 20, high_precision=True)
    exact = pmf_inclusion_exclusion(hp, 0, 20)
    assert exact == pytest.approx(0.1**20, rel=1e-12)


def test_pmf_ie_is_the_log_of_each_alternating_sum():
    prof = BernoulliProfile((0.9,) * 20)
    with pytest.raises(ConditioningError):
        pmf_ie(prof)
    hp = elementary_symmetric(prof.probs, 20, high_precision=True)
    got = pmf_ie(prof, 5, high_precision=True)
    assert got.provenance == "inclusion_exclusion"
    assert got.log_probs.tolist() == [
        math.log(pmf_inclusion_exclusion(hp, k, 20)) for k in range(6)
    ]


def test_elementary_symmetric_skips_zero_entries_bit_for_bit():
    vals = [0.1, 0.0, 0.3, 0.0, 0.25, 0.7, 0.0]
    ref = np.zeros(len(vals) + 1)
    ref[0] = 1.0
    for i, v in enumerate(vals):
        top = min(i + 1, len(vals))
        ref[1 : top + 1] = ref[1 : top + 1] + v * ref[:top]
    ref[1] = math.fsum(vals)
    assert elementary_symmetric(vals, len(vals)).values.tobytes() == ref.tobytes()


def test_sums_past_the_float_range_are_refused_not_zero():
    # C(1100, 550) 0.99^550 is past the float range; a zero entry after
    # the overflow must not turn the triangle into NaN through 0 * inf.
    vals = [0.99] * 1100 + [0.0]
    sums = elementary_symmetric(vals, len(vals))
    e = sums.values
    assert not np.isnan(e).any()
    assert e[550] == math.inf
    assert e[:-1].tobytes() == elementary_symmetric(vals[:-1], 1100).values.tobytes()
    with pytest.raises(ConditioningError):
        pmf_inclusion_exclusion(sums, 0, len(vals))


def test_inclusion_exclusion_needs_full_sums():
    sums = elementary_symmetric(WORKED.probs, 2)
    with pytest.raises(ValidationError):
        pmf_inclusion_exclusion(sums, 0, 3)
    with pytest.raises(ValidationError):
        pmf_inclusion_exclusion(elementary_symmetric(WORKED.probs, 3), 4, 3)


def test_prob_zero_log_matches_dp():
    prof = BernoulliProfile(tuple((i % 6 + 1) / 8 for i in range(30)))
    assert prob_zero_log(prof) == pytest.approx(
        pmf_dp(prof, k_max=0).log_probs[0], rel=1e-13
    )


# ----------------------------------------------------------------------
# Poisson reference and distances
# ----------------------------------------------------------------------


def test_poisson_ref_log_pmf():
    ref = PoissonRef(2.5)
    for k in (0, 1, 7, 40):
        expected = math.exp(-2.5) * 2.5**k / math.factorial(k)
        assert math.exp(ref.log_pmf(k)) == pytest.approx(expected, rel=1e-13)


def test_poisson_ref_validation():
    with pytest.raises(HypothesisError):
        PoissonRef(0.0)
    with pytest.raises(HypothesisError):
        PoissonRef(-1.0)
    with pytest.raises(ValidationError):
        PoissonRef(1.0).log_pmf(-1)


def test_point_lookups_take_counts_not_floats():
    """A non-integer k is refused by name, not evaluated off the lattice or indexed."""
    ref = PoissonRef(2.0)
    pmf = pmf_tree(BernoulliProfile((0.3, 0.4, 0.2)))
    for lookup in (ref.log_pmf, pmf.log_prob, pmf.prob):
        for k in (25.5, 2.5, 2.0):
            with pytest.raises(ValidationError, match=f"^k must be an integer, got {k}$"):
                lookup(k)
    assert ref.log_pmf(np.int64(3)) == ref.log_pmf(3)
    assert pmf.log_prob(np.int64(2)) == pmf.log_prob(2)


def test_counts_refuse_a_python_bool():
    """True is not the count 1, as numpy's bool, a bool dtype and a JSON true are not."""
    pmf = pmf_tree(BernoulliProfile((0.3, 0.4, 0.2)))
    calls = [
        (lambda: pmf_tree(BernoulliProfile((0.3, 0.4)), True), "k_max"),
        (lambda: pmf.log_prob(True), "k"),
        (lambda: PoissonRef(2.0).log_pmf(True), "k"),
        (lambda: check_conditions(ProfileFamily("constant_p", (0.3,)), [True, 2],
                                  GrowthWindow("power", 1, 0.5)), "grid point"),
    ]
    for call, what in calls:
        with pytest.raises(ValidationError, match=f"^{what} must be an integer, got True$"):
            call()


def test_poisson_ref_truncation_certifies_tail():
    for lam in (0.5, 3.0, 100.0):
        ref = PoissonRef(lam)
        k = ref.truncation_k(1e-12)
        mass = float(np.cumsum(ref.pmf_points(k))[-1])
        assert 1.0 - mass < 1e-12


def test_poisson_ref_cdf_monotone():
    cdf = np.cumsum(PoissonRef(4.0).pmf_points(60))
    assert np.all(np.diff(cdf) >= 0)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-12)


def _poisson_log_terms_reference(lam, k_hi):
    """Every Poisson log term up to k_hi, with no underflow cutoff."""
    ks = np.arange(k_hi + 1, dtype=np.float64)
    log_fact = np.array([math.log(math.factorial(k)) if k <= 20 else math.lgamma(k + 1.0)
                         for k in range(k_hi + 1)])
    return -lam + ks * math.log(lam) - log_fact


@pytest.mark.parametrize("lam", [1e-3, 0.5, 30.0, 999.27, 3e5])
def test_poisson_ref_underflow_cutoff_is_bitwise_exact(lam):
    """Both zero-filled tails hold exact zeros: the terms past the upper
    cutoff, and at lam = 3e5 (the heavy 10^6 row's) those below the lower
    one, where the first 278,844 terms are zero-filled."""
    far = max(10**5, int(1.2 * lam))
    log_terms = _poisson_log_terms_reference(lam, far)
    full = np.exp(log_terms)
    # The first k past the mode whose log term is below -746.
    cutoff = int(np.argmax((np.arange(far + 1) > lam) & (log_terms < -746.0)))
    assert cutoff > lam
    assert not np.any(full[cutoff:])
    # The last k below the mode whose log term is below -746, -1 if none is.
    below = np.flatnonzero((np.arange(far + 1) < lam) & (log_terms < -746.0))
    low = int(below[-1]) if len(below) else -1
    assert (low >= 0) == (lam > 746.0)  # log P(0) = -lam
    assert not np.any(full[: low + 1])
    ref = PoissonRef(lam)
    lows = [k for k in (low - 1, low, low + 1) if k >= 0]
    for k_hi in (int(lam), cutoff - 1, cutoff, cutoff + 1, far, *lows):
        assert ref.pmf_points(k_hi).tobytes() == full[: k_hi + 1].tobytes()
        expected_cdf = np.cumsum(full[: k_hi + 1])
        assert np.cumsum(ref.pmf_points(k_hi)).tobytes() == expected_cdf.tobytes()


def test_poisson_ref_pmf_points_skip_the_zero_lower_tail(monkeypatch):
    """At lam = 3e5 pmf_points evaluates no log factorial below lam - sqrt(1492 lam)."""
    lam, seen = 3e5, []
    real = exact.log_factorials

    def spy(ks):
        seen.append(int(ks.min()))
        return real(ks)

    monkeypatch.setattr(exact, "log_factorials", spy)
    PoissonRef(lam).pmf_points(int(lam))
    assert seen == [math.floor(lam - math.sqrt(1492.0 * lam))]


def test_poisson_ref_pmf_points_refuse_a_negative_top():
    with pytest.raises(ValidationError, match=r"^k_hi=-3 must be nonnegative$"):
        PoissonRef(2.0).pmf_points(-3)
    assert PoissonRef(2.0).pmf_points(0).tolist() == [math.exp(-2.0)]


def test_dc_starts_no_thread(monkeypatch):
    """pmf_dc and _product_coeffs run on the calling thread, past 2^16 entries too."""

    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    pmf_dc(BernoulliProfile(_split_row(70001)))
    exact._product_coeffs(_split_row(200003), exact._CAP_LOG)


def test_dc_traced_peak_stays_below_one_and_a_half_rows():
    """Batched leaves and the two-sided bands keep the traced peak of a
    heavy 10^6 row (mean near 2.6 * 10^5, root band near 4 * 10^4
    coefficients) under 1.5 float64 copies of the row (12 MB): the measured
    0.37 copies plus a margin of one."""
    n = 10**6
    p = _split_row(n)
    tracemalloc.start()
    try:
        exact._product_coeffs(p, exact._CAP_LOG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n


def test_poisson_distances_tabulate_once_for_both():
    """poisson_distances gives both distances' direct formulas bit for bit, from one window.

    The rows: a full support; a full support the reference runs past
    (k_hi > n); a truncated tree pmf above the mass cap; a capped product's
    band, which starts past 0 and ends before n.
    """
    full = BernoulliProfile(tuple((i % 4 + 1) / 40 for i in range(3000)))
    short = generate(ProfileFamily("constant_p", (0.9,)), 20)
    light = generate(ProfileFamily("constant_total", (2.0,)), 1000)
    heavy = generate(ProfileFamily("constant_p", (0.3,)), 10**4)
    bands = [(0, pmf_dc(full).probs(), full), (0, pmf_dc(short).probs(), short),
             (0, pmf_tree(light, 60).probs(), light),
             (*exact._product_coeffs(heavy.probs, 50.0), heavy)]
    shapes = []  # (the reference runs past n, the band starts past 0, the band ends before n)
    for lo, probs, prof in bands:
        ref = PoissonRef(prof.summary.lambda_n)
        sup_cdf, tv = poisson_distances(lo, probs, ref, complete=lo > 0)
        top = lo + len(probs)
        k_hi = max(top - 1, ref.truncation_k(1e-12))
        own = np.pad(probs, (lo, k_hi + 1 - top))
        terms = ref.pmf_points(k_hi)
        assert sup_cdf == float(np.max(np.abs(np.cumsum(own) - np.cumsum(terms))))
        assert tv == 0.5 * float(np.abs(own - terms).sum())
        shapes.append((k_hi > prof.n, lo > 0, top <= prof.n))
    assert shapes == [(False, False, False), (True, False, False), (False, False, True),
                      (False, True, True)]


def test_poisson_distances_traced_peak_stays_below_three_and_a_half_rows():
    """The band's cumulative sums, the reference's terms and one buffer of
    differences are the only arrays of the row's length beyond the inputs."""
    n = 10**6
    probs = np.full(n + 1, 1.0 / (n + 1))
    tracemalloc.start()
    try:
        poisson_distances(0, probs, PoissonRef(999.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 8 * n


def test_sup_cdf_distance_two_term_example():
    """pmf of (0.5) against Poisson(ln 2): the CDFs agree at k=0 exactly,
    and the whole distance sits at k=1 where the pmf has ended but the
    Poisson still carries tail mass: D = 1 - (1/2)(1 + ln 2)."""
    pmf = pmf_dp(BernoulliProfile((0.5,)))
    dist = poisson_distances(0, pmf.probs(), PoissonRef(math.log(2.0)))[0]
    assert dist == pytest.approx(1.0 - 0.5 * (1.0 + math.log(2.0)), rel=1e-12)


def test_tv_distance_single_entry_oracle():
    pmf = pmf_dp(BernoulliProfile((0.5,)))
    lam = 0.5
    ref = PoissonRef(lam)
    po0 = math.exp(-lam)
    po1 = lam * math.exp(-lam)
    # mass beyond k=1 is 1 - po0 - po1, all of it excess over the pmf
    expected = 0.5 * (abs(0.5 - po0) + abs(0.5 - po1) + (1.0 - po0 - po1))
    assert poisson_distances(0, pmf.probs(), ref)[1] == pytest.approx(expected, rel=1e-10)


def test_distances_reject_truncated_low_mass_pmf():
    head = pmf_dp(BernoulliProfile((0.5, 0.5)), k_max=0)  # mass 0.25 only
    ref = PoissonRef(1.0)
    with pytest.raises(ValidationError):
        poisson_distances(0, head.probs(), ref)


def test_poisson_distances_accept_or_reject_a_truncated_pmf_on_the_mass_cap():
    """A truncated pmf is accepted exactly when its cumulative mass reaches 1 - 1e-12.

    The rows sit within rounding of the cap, so both outcomes occur.
    """
    rng = np.random.default_rng(0)
    ref = PoissonRef(1.0)
    outcomes = set()
    for _ in range(40):
        x = rng.uniform(0.01, 1.0, 12)
        pmf = Pmf(np.log(x / x.sum() * (1.0 - 1e-12)), 20, "dp")
        reaches = float(np.cumsum(pmf.probs())[-1]) >= 1.0 - 1e-12
        try:
            poisson_distances(0, pmf.probs(), ref)
            accepted = True
        except ValidationError:
            accepted = False
        assert accepted == reaches
        outcomes.add(accepted)
    assert outcomes == {True, False}


def test_tv_dominates_sup_cdf():
    # sup |F - G| <= (1/2) sum |p - q| always, with near-equality factor 2
    # in the smooth regime; here just the inequality.
    prof = BernoulliProfile(tuple((i % 4 + 1) / 40 for i in range(100)))
    pmf = pmf_dc(prof)
    lam = sum(prof.probs)
    ref = PoissonRef(lam)
    sup_cdf, tv = poisson_distances(0, pmf.probs(), ref)
    assert sup_cdf <= tv + 1e-15


# ----------------------------------------------------------------------
# property suites
# ----------------------------------------------------------------------


@settings(deadline=None, derandomize=True)
@given(small_profiles)
def test_property_engines_agree_with_brute(prof):
    brute = pmf_bruteforce(prof).probs()
    assert pmf_dp(prof).probs() == pytest.approx(list(brute), abs=1e-12)
    assert pmf_dc(prof).probs() == pytest.approx(list(brute), abs=1e-12)
    sums = elementary_symmetric(prof.probs, prof.n, high_precision=True)
    ie = [pmf_inclusion_exclusion(sums, k, prof.n) for k in range(prof.n + 1)]
    assert ie == pytest.approx(list(brute), abs=1e-12)


@settings(deadline=None, derandomize=True)
@given(small_profiles, st.randoms(use_true_random=False))
def test_property_permutation_symmetry(prof, rng):
    shuffled = list(prof.probs)
    rng.shuffle(shuffled)
    a = pmf_dp(prof).probs()
    b = pmf_dp(BernoulliProfile(tuple(shuffled))).probs()
    assert a == pytest.approx(list(b), abs=1e-14)


@settings(deadline=None, derandomize=True)
@given(open_profiles)
def test_property_complement_duality(prof):
    """Swapping every p with 1-p reverses the pmf."""
    flipped = BernoulliProfile(tuple(1.0 - p for p in prof.probs))
    a = pmf_dp(prof).probs()
    b = pmf_dp(flipped).probs()[::-1]
    assert a == pytest.approx(list(b), abs=1e-12)


@settings(deadline=None, derandomize=True)
@given(small_profiles)
def test_property_normalization(prof):
    assert pmf_dp(prof).total_mass() == pytest.approx(1.0, abs=1e-9)
    assert pmf_dc(prof).total_mass() == pytest.approx(1.0, abs=1e-9)


@settings(deadline=None, derandomize=True)
@given(small_profiles)
def test_property_zero_class_identity(prof):
    assert math.exp(prob_zero_log(prof)) == pytest.approx(
        pmf_dp(prof).prob(0), rel=1e-12
    )


twenty_entry_profiles = st.lists(
    st.floats(min_value=0.0, max_value=0.999, allow_nan=False),
    min_size=1,
    max_size=20,
).map(lambda xs: BernoulliProfile(tuple(xs)))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(twenty_entry_profiles, st.integers(min_value=0, max_value=20))
def test_property_tree_matches_brute(prof, k_max):
    k_max = min(k_max, prof.n)
    brute = pmf_bruteforce(prof).probs()[: k_max + 1]
    assert pmf_tree(prof, k_max).probs() == pytest.approx(list(brute), abs=1e-13)
