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
from pblab._util import log_factorial
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
    sup_cdf_distance,
    tv_distance,
)
from pblab.profiles import BernoulliProfile, ProfileFamily, generate

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


def test_dc_fft_merge_agrees_with_dp():
    # Output length above 4096 routes the top merge through the FFT.
    prof = BernoulliProfile(tuple((i % 5 + 1) / 13 for i in range(4200)))
    dc = pmf_dc(prof)
    dp = pmf_dp(prof)
    diff = np.abs(dc.probs() - dp.probs())
    assert float(diff.max()) < 1e-10
    assert dc.total_mass() == pytest.approx(1.0, abs=1e-9)


def _poly_direct_reference(p):
    """The per-leaf recurrence of the recursive engine, kept as the reference."""
    out = np.zeros(len(p) + 1)
    out[0] = 1.0
    for i, pi in enumerate(p):
        out[1 : i + 2] = out[1 : i + 2] * (1.0 - pi) + out[: i + 1] * pi
        out[0] *= 1.0 - pi
    return out


def _conv_reference(a, b):
    """One merge of the recursive engine: np.convolve, or an rfft product clipped at 0."""
    m = len(a) + len(b) - 1
    if m < exact._FFT_MIN:
        return np.convolve(a, b)
    size = 1 << (m - 1).bit_length()
    out = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:m]
    np.clip(out, 0.0, None, out=out)
    return out


def _split_row(n):
    """A seeded row of n entries in [0, 0.6), every 7th one an exact zero."""
    p = np.random.default_rng(n).uniform(0.0, 0.6, n)
    p[::7] = 0.0
    return p


def _dc_coeffs_reference(p, caps, start=0):
    """The recursive engine: one leaf at a time, merged on the way back up.

    Every node keeps its coefficients up to its cap in caps, keyed by the
    node's (start, length) in the row, as pmf_dc does.
    """
    top = caps.get((start, len(p)), len(p)) + 1
    if len(p) <= exact._DC_BASE:
        return _poly_direct_reference(p)[:top]
    mid = len(p) // 2
    left = _dc_coeffs_reference(p[:mid], caps, start)
    right = _dc_coeffs_reference(p[mid:], caps, start + mid)
    return _conv_reference(left, right)[:top]


@pytest.mark.parametrize(
    "n", [1, 63, 64, 65, 129, 257, 4097, 4200, 16383, 16384, 16385, 20000, 32769,
          65536, 65537, 200003]
)
def test_dc_batched_leaves_bit_identical_to_recursive(n):
    """Batched leaves, the merge tree and the caps reproduce the recursive engine bit for bit.

    Covers a lone short leaf, uneven leaves and odd splits, output lengths
    on both sides of the FFT merge threshold, and rows on both sides of
    the per-subtree leaf batches and the two-thread root split; every 7th
    entry is an exact zero.  The reference applies the caps of
    _degree_caps at every node, as the engine does.
    """
    p = _split_row(n)
    expected = _dc_coeffs_reference(p, exact._degree_caps(p))
    got = exact._product_coeffs(p)
    assert got.tobytes() == expected.tobytes()
    expected_log = np.full(n + 1, -np.inf)
    with np.errstate(divide="ignore"):
        expected_log[: len(expected)] = np.minimum(np.log(expected), 0.0)
    log_probs = np.array(pmf_dc(BernoulliProfile(tuple(p.tolist()))).log_probs)
    assert log_probs.tobytes() == expected_log.tobytes()


_LOG_SUBNORMAL = -1074 * math.log(2.0)  # log of the smallest subnormal, 2^-1074


def _chernoff_log(mu, d):
    """log of the Chernoff bound e^-mu (e mu / (d + 1))^(d + 1) on P(S > d); -inf at mu = 0."""
    t = d + 1.0
    return -mu + t * (1.0 + math.log(mu) - math.log(t)) if mu > 0.0 else -math.inf


def _least_cap(mu, length):
    """The least d >= mu whose Chernoff bound is at most e^-745, or length if none below it is.

    The bound holds for d + 1 > mu only.
    """
    d = int(mu)
    while d < length and _chernoff_log(mu, d) > -745.0:
        d += 1
    return d


def _mixed_binomial_tail_log(ones, rest, p, d):
    """log P(S > d) for S = ones + Binomial(rest, p), by lgamma sums; -inf if S > d is impossible."""
    j0 = max(0, d + 1 - ones)
    if j0 > rest:
        return -math.inf
    j = np.arange(j0, rest + 1, dtype=np.float64)
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
    (0.3, 5000, 0),
    (0.01, 3000, 5),     # every 5th entry is p = 1
    (0.1, 5000, 4),
    (0.5, 700, 1),       # every entry is p = 1: mu = length, nothing is cut
])
def test_dc_caps_certify_the_exact_binomial_tail(p, length, ones_every):
    """Every node's cap D leaves at most 2^-1074 above it: the exact tail
    P(S > D) of the node's segment, a shifted binomial summed in log by
    lgamma, is at most 2^-1074.  D is also within one of the least degree
    whose Chernoff bound is at most e^-745, so the caps do cut."""
    row = np.full(length, p)
    if ones_every:
        row[::ones_every] = 1.0
    caps = exact._degree_caps(row)
    cut = 0
    for (start, size), d in caps.items():
        seg = row[start : start + size]
        ones = int(np.count_nonzero(seg == 1.0))
        rest = size - ones
        assert 0 <= d <= size
        if p > 0.0:
            assert _mixed_binomial_tail_log(ones, rest, p, d) <= _LOG_SUBNORMAL
        else:
            assert d >= ones
        mu = math.fsum(seg.tolist())
        assert d <= _least_cap(mu, size) + 1
        cut += d < size
    assert (cut > 0) == (ones_every != 1)


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
    capped = exact._product_coeffs(p)
    uncapped = exact._merge(p, {})  # an empty table caps no node
    assert len(capped) < len(uncapped) == n + 1
    full = np.zeros(n + 1)
    full[: len(capped)] = capped
    assert np.all(np.abs(full - uncapped) <= 2 * n * 5e-324 + 1e-14 * uncapped)
    assert not np.any((full == 0.0) & (uncapped > 2 * n * 5e-324))


def test_dc_caps_keep_light_segments_behind_a_heavy_prefix():
    """A row with lambda near 10^5 followed by entries of 1e-12: every cap
    holds under the Chernoff bound at the segment's exactly rounded mean.
    A mean read as a difference of prefix sums is 0 for the light
    segments, since 1e-12 is below half an ulp of 10^5, and a cap from it
    would drop all their mass above 0."""
    heavy, light = 200_000, 8192
    row = np.concatenate([np.full(heavy, 0.5), np.full(light, 1e-12)])
    prefix = np.concatenate([[0.0], np.cumsum(row)])
    caps = exact._degree_caps(row)
    light_nodes = 0
    for (start, size), d in caps.items():
        mu = math.fsum(row[start : start + size].tolist())
        assert _chernoff_log(mu, d) <= -745.0 + 1e-9
        if start >= heavy:
            light_nodes += 1
            assert prefix[start + size] - prefix[start] == 0.0
            assert d >= 1
    assert light_nodes > 0


@pytest.mark.parametrize("c, a", [(0.5, 0.5), (0.9, 0.3)])
def test_dc_fft_sizes_follow_the_caps(monkeypatch, c, a):
    """On a light row at n = 2^17 (lambda near 361 and 4900), no rfft is
    longer than that of a product of two root-cap-length halves; the
    segment length would ask for 2^18.  The lighter row runs no rfft at
    all, the other some."""
    n = 1 << 17
    p = generate(ProfileFamily.index_power(c, a), n).probs
    root = exact._degree_caps(p)[(0, n)]
    sizes = []
    real = np.fft.rfft

    def spy(x, size=None, *args, **kwargs):
        sizes.append(len(x) if size is None else size)
        return real(x, size, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", spy)
    exact._product_coeffs(p)
    assert max(sizes, default=0) <= 1 << (2 * root).bit_length() < n
    assert bool(sizes) == (a < 0.5)


def test_dc_matches_tree_in_log_on_a_light_row():
    """index_power:0.5,0.5 at n = 5000: no entry whose tree value is above
    1e-300 is -inf (uncapped, 213 were), and at least 4 times the 99
    entries the uncapped engine got within 1e-9 of the tree in log are."""
    prof = generate(ProfileFamily.index_power(0.5, 0.5), 5000)
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


def test_poisson_ref_truncation_certifies_tail():
    for lam in (0.5, 3.0, 100.0):
        ref = PoissonRef(lam)
        k = ref.truncation_k(1e-12)
        mass = float(ref.cdf_points(k)[-1])
        assert 1.0 - mass < 1e-12


def test_poisson_ref_cdf_monotone():
    cdf = PoissonRef(4.0).cdf_points(60)
    assert np.all(np.diff(cdf) >= 0)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-12)


def _poisson_log_terms_reference(lam, k_hi):
    """Every Poisson log term up to k_hi, with no underflow cutoff."""
    ks = np.arange(k_hi + 1, dtype=np.float64)
    log_fact = np.array([log_factorial(k) for k in range(k_hi + 1)])
    return -lam + ks * math.log(lam) - log_fact


@pytest.mark.parametrize("lam", [1e-3, 0.5, 30.0, 999.27])
def test_poisson_ref_underflow_cutoff_is_bitwise_exact(lam):
    far = 10**5
    log_terms = _poisson_log_terms_reference(lam, far)
    full = np.exp(log_terms)
    # The first k past the mode whose log term is below -746.
    cutoff = int(np.argmax((np.arange(far + 1) > lam) & (log_terms < -746.0)))
    assert cutoff > lam
    assert not np.any(full[cutoff:])
    ref = PoissonRef(lam)
    for k_hi in (int(lam), cutoff - 1, cutoff, cutoff + 1, far):
        assert ref.pmf_points(k_hi).tobytes() == full[: k_hi + 1].tobytes()
        expected_cdf = np.cumsum(full[: k_hi + 1])
        assert ref.cdf_points(k_hi).tobytes() == expected_cdf.tobytes()


def test_dc_worker_failure_is_raised_and_its_thread_joined(monkeypatch):
    """A leaf expansion that fails on the worker thread (the left half) fails
    pmf_dc, within a time bound and without a leftover thread."""
    real = exact._leaf_coeffs
    prof = BernoulliProfile(_split_row(70001))
    raised = []

    def fail_off_caller(p, sizes):
        if threading.current_thread() is not caller:
            raise RuntimeError("left half failed")
        return real(p, sizes)

    def call():
        try:
            pmf_dc(prof)
        except RuntimeError as exc:
            raised.append(exc)

    monkeypatch.setattr(exact, "_leaf_coeffs", fail_off_caller)
    before = threading.active_count()
    caller = threading.Thread(target=call)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert [str(exc) for exc in raised] == ["left half failed"]
    assert threading.active_count() == before


def test_dc_root_split_leaves_no_thread_behind():
    prof = BernoulliProfile(_split_row(70001))
    before = threading.active_count()
    pmf_dc(prof)
    assert threading.active_count() == before


def test_dc_traced_peak_stays_below_three_and_a_half_rows():
    """Per-subtree leaves and early-freed merges keep the traced peak of a
    10^6 row under 3.5 float64 copies of the row (28 MB)."""
    n = 10**6
    p = _split_row(n)
    tracemalloc.start()
    try:
        exact._product_coeffs(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 8 * n


def test_poisson_distances_tabulate_once_for_both():
    """poisson_distances gives each public distance's value bit for bit, from one window."""
    prof = BernoulliProfile(tuple((i % 4 + 1) / 40 for i in range(3000)))
    pmf = pmf_dc(prof)
    ref = PoissonRef(prof.summary.lambda_n)
    sup_cdf, tv = poisson_distances(pmf, ref)
    assert (sup_cdf, tv) == (sup_cdf_distance(pmf, ref), tv_distance(pmf, ref))
    k_hi = max(pmf.support_max, ref.truncation_k(1e-12))
    own = np.pad(pmf.probs(), (0, k_hi - pmf.support_max))
    terms = ref.pmf_points(k_hi)
    assert sup_cdf == float(np.max(np.abs(np.cumsum(own) - np.cumsum(terms))))
    assert tv == 0.5 * float(np.abs(own - terms).sum())


def test_sup_cdf_distance_two_term_example():
    """pmf of (0.5) against Poisson(ln 2): the CDFs agree at k=0 exactly,
    and the whole distance sits at k=1 where the pmf has ended but the
    Poisson still carries tail mass: D = 1 - (1/2)(1 + ln 2)."""
    pmf = pmf_dp(BernoulliProfile((0.5,)))
    dist = sup_cdf_distance(pmf, PoissonRef(math.log(2.0)))
    assert dist == pytest.approx(1.0 - 0.5 * (1.0 + math.log(2.0)), rel=1e-12)


def test_tv_distance_single_entry_oracle():
    pmf = pmf_dp(BernoulliProfile((0.5,)))
    lam = 0.5
    ref = PoissonRef(lam)
    po0 = math.exp(-lam)
    po1 = lam * math.exp(-lam)
    # mass beyond k=1 is 1 - po0 - po1, all of it excess over the pmf
    expected = 0.5 * (abs(0.5 - po0) + abs(0.5 - po1) + (1.0 - po0 - po1))
    assert tv_distance(pmf, ref) == pytest.approx(expected, rel=1e-10)


def test_distances_reject_truncated_low_mass_pmf():
    head = pmf_dp(BernoulliProfile((0.5, 0.5)), k_max=0)  # mass 0.25 only
    ref = PoissonRef(1.0)
    with pytest.raises(ValidationError):
        sup_cdf_distance(head, ref)
    with pytest.raises(ValidationError):
        tv_distance(head, ref)


def test_distances_accept_or_reject_a_truncated_pmf_alike():
    """Both read the cumulative sum's last entry against 1 - 1e-12.

    numpy's pairwise sum and the cumulative sum round twelve entries
    differently, so a check on each would split rows this close to the cap.
    """
    rng = np.random.default_rng(0)
    ref = PoissonRef(1.0)
    outcomes = set()
    for _ in range(40):
        x = rng.uniform(0.01, 1.0, 12)
        pmf = Pmf(np.log(x / x.sum() * (1.0 - 1e-12)), 20, "dp")
        accepted = []
        for distance in (sup_cdf_distance, tv_distance):
            try:
                distance(pmf, ref)
                accepted.append(True)
            except ValidationError:
                accepted.append(False)
        assert accepted[0] == accepted[1]
        outcomes.add(accepted[0])
    assert outcomes == {True, False}


def test_tv_dominates_sup_cdf():
    # sup |F - G| <= (1/2) sum |p - q| always, with near-equality factor 2
    # in the smooth regime; here just the inequality.
    prof = BernoulliProfile(tuple((i % 4 + 1) / 40 for i in range(100)))
    pmf = pmf_dc(prof)
    lam = sum(prof.probs)
    ref = PoissonRef(lam)
    assert sup_cdf_distance(pmf, ref) <= tv_distance(pmf, ref) + 1e-15


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
