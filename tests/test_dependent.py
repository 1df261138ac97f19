"""Dependent models, joint sums, inclusion-exclusion PMF, scheme diagnostics."""

import dataclasses
import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pblab import dependent
from pblab.dependent import (
    CallableModel,
    DependentModel,
    MixtureModel,
    ProductModel,
    RareSetSpec,
    RatioReport,
    SchemeDiagnostics,
    check_scheme,
    load_model,
    model_from_dict,
    pmf_dependent,
    ratio_report,
    s_tilde,
)
from pblab.errors import SizeError, ValidationError
from pblab.exact import elementary_symmetric, pmf_bruteforce, pmf_dp
from pblab.profiles import BernoulliProfile

# The hand-worked mixture: eps=0.5, p=(0.2, 0.2), q=(0.4, 0.4).
# Joint sums (1 - e) e_k(p) + e e_k(q) = (1, 0.6, 0.10); PMF (0.5, 0.4, 0.1).
WORKED = MixtureModel(
    0.5, BernoulliProfile((0.2, 0.2)), BernoulliProfile((0.4, 0.4))
)
INDEP = BernoulliProfile((0.3, 0.3))


def mixture(eps, p, q, n):
    return MixtureModel(
        eps, BernoulliProfile((p,) * n), BernoulliProfile((q,) * n)
    )


# ----------------------------------------------------------------------
# models
# ----------------------------------------------------------------------


def test_product_model_joint_and_marginals():
    m = ProductModel(BernoulliProfile((0.2, 0.5, 0.8)))
    assert m.n == 3
    assert m.joint(()) == 1.0
    assert m.joint((0, 2)) == pytest.approx(0.16, abs=1e-16)
    assert m.marginals.tolist() == [0.2, 0.5, 0.8]


def test_mixture_joint_closed_form():
    assert WORKED.joint(()) == 1.0
    assert WORKED.joint((0,)) == pytest.approx(0.3, abs=1e-15)
    assert WORKED.joint((0, 1)) == pytest.approx(0.10, abs=1e-15)


def test_mixture_marginals():
    assert WORKED.marginals == pytest.approx((0.3, 0.3), abs=1e-15)


def test_mixture_validation():
    with pytest.raises(ValidationError):
        MixtureModel(1.5, BernoulliProfile((0.1,)), BernoulliProfile((0.2,)))
    with pytest.raises(ValidationError):
        MixtureModel(
            0.5, BernoulliProfile((0.1,)), BernoulliProfile((0.2, 0.3))
        )


def test_restrict_keeps_named_indices():
    m = MixtureModel(
        0.25, BernoulliProfile((0.1, 0.2, 0.3)), BernoulliProfile((0.4, 0.5, 0.6))
    )
    sub = m.restrict((0, 2))
    assert sub.n == 2
    assert sub.p_profile.probs.tolist() == [0.1, 0.3]
    assert sub.q_profile.probs.tolist() == [0.4, 0.6]
    with pytest.raises(ValidationError):
        m.restrict(())
    with pytest.raises(ValidationError):
        m.restrict((0, 3))


@pytest.mark.parametrize("model", [
    ProductModel(BernoulliProfile((0.1, 0.2))),
    MixtureModel(0.5, BernoulliProfile((0.1, 0.2)), BernoulliProfile((0.3, 0.4))),
    CallableModel(2, lambda s: 0.5 ** len(s)),
], ids=["product", "mixture", "callable"])
def test_restrict_rejects_empty_keep(model):
    with pytest.raises(ValidationError, match="^restriction needs at least one index$"):
        model.restrict(())
    with pytest.raises(ValidationError, match="must lie in 0..1"):
        model.restrict((0, 2))


def test_callable_model_wraps_function():
    inner = mixture(0.5, 0.2, 0.4, 4)
    wrapped = CallableModel(4, lambda s: inner.joint(s))
    assert wrapped.joint((1, 2)) == inner.joint((1, 2))
    assert wrapped.marginals == pytest.approx(inner.marginals, abs=1e-15)
    sub = wrapped.restrict((1, 3))
    assert sub.joint((0,)) == inner.joint((1,))
    assert sub.joint((0, 1)) == inner.joint((1, 3))


# ----------------------------------------------------------------------
# joint sums
# ----------------------------------------------------------------------


def test_joint_sums_worked_example():
    sums = s_tilde(WORKED, 2)
    assert sums.values[0] == 1.0
    assert sums.values[1] == pytest.approx(0.6, abs=1e-15)
    assert sums.values[2] == pytest.approx(0.10, abs=1e-15)


def test_joint_sums_k_max_zero():
    assert s_tilde(WORKED, 0).values.tolist() == [1.0]


def test_joint_sums_independent_reduction():
    p = BernoulliProfile((0.15, 0.25, 0.35))
    degenerate = MixtureModel(0.0, p, BernoulliProfile((0.9, 0.9, 0.9)))
    from pblab.exact import elementary_symmetric

    want = elementary_symmetric(p.probs, 3).values
    assert s_tilde(degenerate, 3).values.tobytes() == want.tobytes()


def test_joint_sums_generic_path_matches_fast_path():
    m = mixture(0.3, 0.15, 0.45, 8)
    wrapped = CallableModel(8, lambda s: m.joint(s))
    fast = s_tilde(m, 8).values
    generic = s_tilde(wrapped, 8).values
    assert generic == pytest.approx(fast, rel=1e-12)


def test_joint_sums_generic_guard():
    big = CallableModel(26, lambda s: 0.5 ** len(s))
    with pytest.raises(SizeError):
        s_tilde(big, 3)


def test_joint_sums_rational_mode_is_exact():
    sums = s_tilde(WORKED, 2, high_precision=True)
    half = Fraction(1, 2)
    p = Fraction(0.2)  # the binary float, taken exactly
    q = Fraction(0.4)
    assert sums.high_precision_values[1] == 2 * (half * p + half * q)
    assert sums.high_precision_values[2] == half * p * p + half * q * q


def test_fast_sums_is_one_hook_for_both_precisions():
    m = mixture(0.3, 0.15, 0.45, 8)
    p, q = m.p_profile.probs, m.q_profile.probs
    ep, eq = (elementary_symmetric(v, 5).values.tolist() for v in (p, q))
    assert m.fast_sums(5) == [(1.0 - 0.3) * a + 0.3 * b for a, b in zip(ep, eq)]
    hp, hq = (elementary_symmetric(v, 5, True).high_precision_values for v in (p, q))
    w = Fraction(0.3)
    assert m.fast_sums(5, True) == [(1 - w) * a + w * b for a, b in zip(hp, hq)]
    assert ProductModel(m.p_profile).fast_sums(5, True) == list(hp)
    assert not hasattr(DependentModel, "fast_sums_fraction")


@pytest.mark.parametrize("closed_form", [True, False], ids=["fast", "generic"])
def test_joint_sums_float_column_rounds_the_rational_mirror(closed_form):
    m = mixture(0.3, 0.15, 0.45, 8)
    model = m if closed_form else CallableModel(8, m.joint)
    sums = s_tilde(model, 6, high_precision=True)
    assert sums.values.tolist() == [float(x) for x in sums.high_precision_values]
    if not closed_form:
        want = [
            sum((Fraction(m.joint(c)) for c in itertools.combinations(range(8), k)), Fraction(0))
            for k in range(7)
        ]
        assert list(sums.high_precision_values) == want


def test_generic_sums_span_many_chunks():
    # C(16, 8) = 12870 subsets: four array passes at k = 8.
    assert math.comb(16, 8) > 3 * dependent._B1_CHUNK
    p = [0.01 * (i + 1) for i in range(16)]
    model = CallableModel(16, lambda s: math.prod(p[i] for i in sorted(s)))
    want = [
        math.fsum(math.prod(p[i] for i in c) for c in itertools.combinations(range(16), k))
        for k in range(10)
    ]
    assert s_tilde(model, 9).values.tolist() == want


class HugeSums(CallableModel):
    """A model whose rational S_1 lies past the float range."""

    def __init__(self):
        super().__init__(2, lambda s: 0.5 ** len(s))

    def fast_sums(self, k_max, high_precision=False):
        return [Fraction(1), Fraction(10**400), Fraction(1)][: k_max + 1]


def test_joint_sums_round_an_out_of_range_rational_to_inf():
    sums = s_tilde(HugeSums(), 2, high_precision=True)
    assert sums.values.tolist() == [1.0, math.inf, 1.0]
    assert sums.high_precision_values == (Fraction(1), Fraction(10**400), Fraction(1))


def test_joint_sums_k_max_validation():
    with pytest.raises(ValidationError):
        s_tilde(WORKED, 3)


# ----------------------------------------------------------------------
# dependent PMF
# ----------------------------------------------------------------------


def test_dependent_pmf_worked_example():
    """Alternating sums 1 - 0.6 + 0.10, 0.6 - 2(0.10), 0.10."""
    assert pmf_dependent(WORKED, 0) == pytest.approx(0.5, abs=1e-14)
    assert pmf_dependent(WORKED, 1) == pytest.approx(0.4, abs=1e-14)
    assert pmf_dependent(WORKED, 2) == pytest.approx(0.10, abs=1e-14)


def test_dependent_pmf_matches_mixture_closed_form():
    m = mixture(1.0 / 12.0, 0.3, 0.4, 12)
    closed = m.closed_form_pmf()
    assert closed.provenance == "mixture_closed_form"
    for k in range(13):
        assert pmf_dependent(m, k) == pytest.approx(closed.prob(k), abs=1e-9)
        assert pmf_dependent(m, k, high_precision=True) == pytest.approx(
            closed.prob(k), abs=1e-12
        )


def test_dependent_pmf_product_model_reduces_to_independent():
    p = BernoulliProfile((0.2, 0.5, 0.7, 0.1))
    m = ProductModel(p)
    brute = pmf_bruteforce(p).probs()
    for k in range(5):
        assert pmf_dependent(m, k) == pytest.approx(brute[k], abs=1e-12)


def test_closed_form_degenerate_weights():
    p = BernoulliProfile((0.2, 0.3))
    q = BernoulliProfile((0.6, 0.7))
    assert MixtureModel(0.0, p, q).closed_form_pmf().probs() == pytest.approx(
        pmf_dp(p).probs(), abs=1e-15
    )
    assert MixtureModel(1.0, p, q).closed_form_pmf().probs() == pytest.approx(
        pmf_dp(q).probs(), abs=1e-15
    )


# ----------------------------------------------------------------------
# ratio report
# ----------------------------------------------------------------------


def test_ratio_report_worked_example():
    report = ratio_report(WORKED, INDEP, 2)
    ratios = [r for _, r in report.entries]
    assert ratios == pytest.approx([0.5 / 0.49, 0.4 / 0.42, 0.10 / 0.09], rel=1e-10)
    assert report.omitted_k == ()
    assert report.max_abs_dev == pytest.approx(1.0 / 9.0, rel=1e-9)


def test_ratio_report_degenerate_mixture_is_flat():
    p = BernoulliProfile((0.25, 0.5, 0.3))
    m = MixtureModel(0.0, p, BernoulliProfile((0.9, 0.9, 0.9)))
    report = ratio_report(m, p, 3)
    for _, r in report.entries:
        assert r == pytest.approx(1.0, abs=1e-12)


def test_ratio_report_flags_zero_denominators():
    # Independent row with a sure failure at every entry beyond k=1.
    p = BernoulliProfile((0.5, 0.0))
    m = ProductModel(BernoulliProfile((0.5, 0.5)))
    report = ratio_report(m, p, 2)
    assert report.omitted_k == (2,)


def test_ratio_report_omits_underflowing_denominators():
    # log P(2) and log P(3) are finite, but their exp is 0.0.
    m = ProductModel(BernoulliProfile((1e-300,) * 3))
    report = ratio_report(m, BernoulliProfile(m.marginals), 3)
    assert report.omitted_k == (2, 3)
    assert [k for k, _ in report.entries] == [0, 1]


def test_ratio_report_reads_its_ratios_from_the_two_columns():
    # A hand-built report: the 0.0 denominator at k = 1 is omitted, not divided by.
    report = RatioReport(dep_probs=(0.5, 0.25, 0.125), indep_probs=(0.25, 0.0, 0.5))
    assert report.k_values.tolist() == [0, 1, 2]
    assert np.array_equal(report.ratios, [2.0, math.nan, 0.25], equal_nan=True)
    assert report.entries == ((0, 2.0), (2, 0.25))
    assert report.omitted_k == (1,)
    assert report.max_abs_dev == 1.0


def test_ratio_report_validation():
    with pytest.raises(ValidationError):
        ratio_report(WORKED, BernoulliProfile((0.3,)), 1)
    with pytest.raises(ValidationError):
        ratio_report(WORKED, INDEP, 5)


# ----------------------------------------------------------------------
# scheme diagnostics
# ----------------------------------------------------------------------


def test_diagnostics_self_comparison_is_exact():
    p = BernoulliProfile((0.2, 0.5, 0.8, 0.3))
    diag = check_scheme(ProductModel(p), p, RareSetSpec("empty"), 4)
    assert diag.b1_max_dev == (0.0, 0.0, 0.0, 0.0)
    assert diag.b2_ratio == (1.0, 1.0, 1.0, 1.0)
    assert diag.b3_ratio == (1.0, 1.0, 1.0, 1.0)
    assert set(diag.modes) == {"exhaustive"}
    assert not any(diag.zero_product)


def test_diagnostics_worked_mixture_deviation():
    diag = check_scheme(WORKED, INDEP, RareSetSpec("empty"), 2)
    assert diag.b1_max_dev[0] == pytest.approx(0.0, abs=1e-12)
    assert diag.b1_max_dev[1] == pytest.approx(1.0 / 9.0, rel=1e-9)
    assert diag.b1_overall == pytest.approx(1.0 / 9.0, rel=1e-9)
    assert diag.b2_max_dev == 0.0
    assert diag.b3_max_dev == 0.0


def test_diagnostics_contains_any_restriction():
    m = mixture(0.5, 0.2, 0.4, 3)
    indep = BernoulliProfile((0.3,) * 3)
    diag = check_scheme(m, indep, RareSetSpec("contains_any", indices=(0,)), 2)
    # Only the pair (1, 2) survives the filter at k=2.
    assert diag.checked_counts == (2, 1)
    # Joint sums: full S_1 = 3(0.3) = 0.9, non-rare part = 2(0.3) = 0.6.
    assert diag.b2_ratio[0] == pytest.approx(1.5, rel=1e-12)
    assert diag.b3_ratio[0] == pytest.approx(1.5, rel=1e-12)
    assert all(r >= 1.0 - 1e-12 for r in diag.b2_ratio + diag.b3_ratio)


def test_diagnostics_explicit_rare_tuples():
    m = mixture(0.5, 0.2, 0.4, 3)
    indep = BernoulliProfile((0.3,) * 3)
    rare = RareSetSpec("explicit", tuples=((0, 1),))
    diag = check_scheme(m, indep, rare, 2)
    assert diag.checked_counts == (3, 2)
    # S_2 = 3(0.10); removing the (0,1) joint leaves 0.20.
    assert diag.b2_ratio[1] == pytest.approx(0.30 / 0.20, rel=1e-12)
    assert diag.b3_ratio[1] == pytest.approx(0.27 / 0.18, rel=1e-12)


def test_diagnostics_zero_product_flag():
    m = ProductModel(BernoulliProfile((0.5, 0.5)))
    indep = BernoulliProfile((0.0, 0.5))
    diag = check_scheme(m, indep, RareSetSpec("empty"), 1)
    assert math.isinf(diag.b1_max_dev[0])
    assert diag.zero_product[0]


def test_diagnostics_sampled_mode_is_deterministic():
    # C(25, 12) is above the exhaustive cutoff, so k=12 samples tuples.
    p = BernoulliProfile((0.4,) * 25)
    m = ProductModel(p)
    a = check_scheme(m, p, RareSetSpec("empty"), 12, sample_budget=64, seed=7)
    b = check_scheme(m, p, RareSetSpec("empty"), 12, sample_budget=64, seed=7)
    assert a.modes[-1] == "sampled"
    assert a.b1_max_dev == b.b1_max_dev
    assert a.checked_counts == b.checked_counts
    assert a.modes[0] == "exhaustive"


def test_diagnostics_validation():
    with pytest.raises(ValidationError):
        check_scheme(WORKED, BernoulliProfile((0.3,)), RareSetSpec("empty"), 1)
    with pytest.raises(ValidationError):
        check_scheme(WORKED, INDEP, RareSetSpec("empty"), 0)
    with pytest.raises(ValidationError):
        check_scheme(WORKED, INDEP, RareSetSpec("empty"), 1, sample_budget=0)
    with pytest.raises(ValidationError):
        check_scheme(WORKED, INDEP, RareSetSpec("contains_any", indices=(9,)), 1)


@pytest.mark.parametrize("tuples, message", [
    ([(0, 99), (2, 2)], "rare indices must lie in 0..5"),
    ([(1, -1)], "rare indices must lie in 0..5"),
    ([(0, 1), (2, 2)], "rare tuples must not repeat an index"),
], ids=["out_of_range", "negative", "repeated"])
def test_diagnostics_reject_bad_explicit_tuples(tuples, message):
    half = ProductModel(BernoulliProfile((0.5,) * 6))
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        check_scheme(half, half.profile, RareSetSpec("explicit", tuples=tuples), 2)


@pytest.mark.parametrize("args, kwargs, name", [
    ((2.0,), {}, "k_max"),
    ((2,), {"sample_budget": 5.5}, "sample_budget"),
    ((2,), {"seed": 1.5}, "seed"),
], ids=["k_max", "sample_budget", "seed"])
def test_diagnostics_take_counts_not_floats(args, kwargs, name):
    """A float count is refused by name, not multiplied into a TypeError or stored."""
    with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
        check_scheme(WORKED, INDEP, RareSetSpec("empty"), *args, **kwargs)
    counts = {"sample_budget": np.int64(5), "seed": np.int64(1)}
    diag = check_scheme(WORKED, INDEP, RareSetSpec("empty"), np.int64(2), **counts)
    assert type(diag.sample_budget) is int and type(diag.seed) is int


def test_diagnostics_sample_budget_cap():
    # Above the cap the guard fires before any tuple is drawn; the cap itself
    # is accepted.
    with pytest.raises(SizeError):
        check_scheme(WORKED, INDEP, RareSetSpec("empty"), 2, sample_budget=10**6 + 1)
    diag = check_scheme(WORKED, INDEP, RareSetSpec("empty"), 2, sample_budget=10**6)
    assert diag.checked_counts == (2, 1)


# ----------------------------------------------------------------------
# array B1 against the scalar loop
# ----------------------------------------------------------------------


def nonrare_sums_reference(full, rare, k_max, n, joint_fn, restricted_sums):
    """Sum of joints over non-rare k-tuples, for k = 0..k_max.

    The B2/B3 helper that B3-as-B2-of-the-comparison-row replaced, kept as
    the reference: empty gives the full sums, contains_any the restricted
    sums passed in, explicit subtracts the listed tuples' joints.
    """
    if rare.kind == "empty":
        return list(full[: k_max + 1])
    if rare.kind == "contains_any":
        out = []
        for k in range(k_max + 1):
            if restricted_sums is not None and k < len(restricted_sums):
                out.append(restricted_sums[k])
            else:
                out.append(0.0)
        return out
    out = list(full[: k_max + 1])
    for t in rare.tuples:
        if 1 <= len(t) <= k_max and len(set(t)) == len(t) and all(0 <= i < n for i in t):
            out[len(t)] = max(0.0, out[len(t)] - joint_fn(t))
    return out


def check_scheme_reference(model, indep, rare, k_max, sample_budget=2000, seed=0):
    """check_scheme with B1 as one scalar joint and math.prod per tuple.

    This is the loop the array version replaced, kept as the reference,
    together with the separate B2 and B3 sums it used.
    """
    n = model.n
    probs = indep.probs.tolist()
    model_sums = s_tilde(model, k_max).values.tolist()
    indep_sums = elementary_symmetric(probs, k_max).values.tolist()
    restricted_model_sums = None
    restricted_indep_sums = None
    if rare.kind == "contains_any":
        comp = tuple(i for i in range(n) if i not in rare.indices)
        if comp:
            cap = min(k_max, len(comp))
            restricted_model_sums = s_tilde(model.restrict(comp), cap).values.tolist()
            restricted_indep_sums = elementary_symmetric(
                [probs[i] for i in comp], cap
            ).values.tolist()
        else:
            restricted_model_sums = (1.0,)
            restricted_indep_sums = (1.0,)
    b2_parts = nonrare_sums_reference(
        model_sums, rare, k_max, n, model.joint, restricted_model_sums
    )
    b3_parts = nonrare_sums_reference(
        indep_sums, rare, k_max, n, lambda t: math.prod(probs[i] for i in t),
        restricted_indep_sums,
    )
    rows = []
    for k in range(1, k_max + 1):
        if math.comb(n, k) <= 10**6:
            tuples = itertools.combinations(range(n), k)
            mode = "exhaustive"
        else:
            rng = random.Random(f"{seed}:{k}")
            seen = set()
            attempts = 0
            while len(seen) < sample_budget and attempts < 20 * sample_budget:
                seen.add(tuple(sorted(rng.sample(range(n), k))))
                attempts += 1
            tuples = sorted(seen)
            mode = "sampled"
        worst = 0.0
        checked = 0
        zero_hit = False
        for t in tuples:
            if rare.is_rare(t):
                continue
            checked += 1
            bt = model.joint(t)
            pb = math.prod(probs[i] for i in t)
            if pb == 0.0:
                if bt > 0.0:
                    worst = math.inf
                    zero_hit = True
                continue
            dev = abs(bt / pb - 1.0)
            if dev > worst:
                worst = dev
        if rare.kind == "empty":
            b2_k = b3_k = 1.0
        else:
            b2_k = dependent._ratio_or_inf(model_sums[k], b2_parts[k])
            b3_k = dependent._ratio_or_inf(indep_sums[k], b3_parts[k])
        rows.append((k, worst, b2_k, b3_k, mode, checked, zero_hit))
    columns = list(zip(*rows))
    return SchemeDiagnostics(
        k_values=columns[0], b1_max_dev=columns[1], b2_ratio=columns[2],
        b3_ratio=columns[3], modes=columns[4], checked_counts=columns[5],
        zero_product=columns[6], seed=seed, sample_budget=sample_budget,
        rare=rare.spec_string(),
    )


def spread_mixture(n, eps=0.05):
    p = tuple(0.005 + 0.045 * ((i * 7919) % 1009) / 1009 for i in range(n))
    q = tuple(0.005 + 0.045 * ((i * 104729) % 1013) / 1013 for i in range(n))
    return MixtureModel(eps, BernoulliProfile(p), BernoulliProfile(q))


class NanAtOneTuple(CallableModel):
    """A callable model whose joint is NaN on {1, 2}; its sums stay finite."""

    def __init__(self, inner):
        super().__init__(
            inner.n, lambda s: math.nan if s == {1, 2} else inner.joint(s)
        )
        self._inner = inner

    def fast_sums(self, k_max, high_precision=False):
        return self._inner.fast_sums(k_max, high_precision)


def _scheme_cases():
    m12 = spread_mixture(12)
    m200 = spread_mixture(200)
    half = ProductModel(BernoulliProfile((0.5,) * 6))
    yield "empty", m12, BernoulliProfile(m12.marginals), RareSetSpec("empty"), 4, {}
    yield "contains_any", m12, BernoulliProfile((0.02,) * 12), RareSetSpec(
        "contains_any", indices=(0, 5)), 4, {}
    yield "explicit", m12, BernoulliProfile(m12.marginals), RareSetSpec(
        "explicit", tuples=((0, 1), (2, 3, 4), (7,), (11, 3))), 3, {}
    # The complement holds 2 indices, fewer than k_max: no non-rare 3- or 4-tuples.
    yield "contains_most", m12, BernoulliProfile(m12.marginals), RareSetSpec(
        "contains_any", indices=range(10)), 4, {}
    yield "contains_all", half, BernoulliProfile((0.5,) * 6), RareSetSpec(
        "contains_any", indices=range(6)), 2, {}
    # Subtracting every pair's joint from S_2 rounds to a negative part.
    triple = ProductModel(BernoulliProfile((0.3, 0.2, 0.05)))
    yield "explicit_all_pairs", triple, triple.profile, RareSetSpec(
        "explicit", tuples=itertools.combinations(range(3), 2)), 2, {}
    yield "zero_product", half, BernoulliProfile((0.5, 0.5, 0.0, 0.5, 0.5, 0.5)), \
        RareSetSpec("empty"), 3, {}
    yield "sampled", m200, BernoulliProfile(m200.marginals), RareSetSpec("empty"), 3, {
        "sample_budget": 500, "seed": 11}
    yield "sampled_contains_any", m200, BernoulliProfile(m200.p_profile.probs), \
        RareSetSpec("contains_any", indices=(3, 50, 199)), 3, {"sample_budget": 300, "seed": 4}
    # 91,390 tuples at k = 4: many chunks.
    m40 = spread_mixture(40, eps=0.2)
    yield "many_chunks", m40, BernoulliProfile(m40.q_profile.probs), RareSetSpec("empty"), 4, {}
    m10 = spread_mixture(10, eps=0.3)
    yield "callable", CallableModel(10, m10.joint), BernoulliProfile(m10.marginals), \
        RareSetSpec("empty"), 4, {}
    yield "callable_nan", NanAtOneTuple(m10), BernoulliProfile(m10.marginals), \
        RareSetSpec("explicit", tuples=((0, 3), (5,))), 3, {}


SCHEME_CASES = {case[0]: case[1:] for case in _scheme_cases()}


@pytest.mark.parametrize("name", sorted(SCHEME_CASES))
def test_array_b1_matches_scalar_reference(name):
    model, indep, rare, k_max, kwargs = SCHEME_CASES[name]
    got = check_scheme(model, indep, rare, k_max, **kwargs)
    want = check_scheme_reference(model, indep, rare, k_max, **kwargs)
    for field in dataclasses.fields(SchemeDiagnostics):
        # repr tells 0.0 from -0.0 and matches NaN with NaN.
        assert repr(getattr(got, field.name)) == repr(getattr(want, field.name)), field.name


def test_diagnostics_generic_model_past_the_guard_with_empty_rare_set():
    # B2 = B3 = 1 needs no sums with an empty rare set, so a generic model
    # with n > 25 gets B1 diagnostics instead of a SizeError.
    m = spread_mixture(30)
    model = CallableModel(30, m.joint)
    indep = BernoulliProfile(m.marginals)
    diag = check_scheme(model, indep, RareSetSpec("empty"), 2)
    assert diag.b2_ratio == diag.b3_ratio == (1.0, 1.0)
    assert diag.checked_counts == (30, 435)
    assert repr(diag) == repr(check_scheme(m, indep, RareSetSpec("empty"), 2))
    # A rare set whose B2 needs the model's sums still hits the guard.
    with pytest.raises(SizeError):
        check_scheme(model, indep, RareSetSpec("contains_any", indices=(0,)), 2)


def test_array_b1_reference_cases_reach_their_branches():
    assert math.comb(40, 4) > 20 * dependent._B1_CHUNK
    diag = check_scheme(*SCHEME_CASES["zero_product"][:4])
    assert diag.zero_product == (True, True, True)
    diag = check_scheme(*SCHEME_CASES["sampled"][:4], **SCHEME_CASES["sampled"][4])
    assert diag.modes == ("exhaustive", "exhaustive", "sampled")
    nan_model = SCHEME_CASES["callable_nan"][0]
    assert math.isnan(nan_model.joint((1, 2)))
    diag = check_scheme(*SCHEME_CASES["contains_most"][:4])
    assert diag.b2_ratio[2:] == diag.b3_ratio[2:] == (math.inf, math.inf)
    diag = check_scheme(*SCHEME_CASES["contains_all"][:4])
    assert diag.checked_counts == (0, 0)
    assert diag.b2_ratio == diag.b3_ratio == (math.inf, math.inf)
    diag = check_scheme(*SCHEME_CASES["explicit_all_pairs"][:4])
    assert diag.b2_ratio[1] == diag.b3_ratio[1] == math.inf


def product_reference(probs):
    """The product model's joint and marginals, as scalar formulas."""
    p = probs.tolist()
    return (lambda t: math.prod(p[i] for i in t)), p


def mixture_reference(m):
    """(1 - eps)·prod p + eps·prod q and (1 - eps)·p + eps·q, as scalar formulas."""
    p, q, e = m.p_profile.probs.tolist(), m.q_profile.probs.tolist(), m.eps

    def joint(t):
        return (1.0 - e) * math.prod(p[i] for i in t) + e * math.prod(q[i] for i in t)

    return joint, [(1.0 - e) * a + e * b for a, b in zip(p, q)]


def _joint_cases():
    product = ProductModel(
        BernoulliProfile((0.2, 0.0, 5e-324, 1 - 2**-53, 0.7, 1e-200, 0.3, 0.99, 0.5))
    )
    yield "product", product, *product_reference(product.profile.probs)
    mixture9 = spread_mixture(9, eps=0.37)
    yield "mixture", mixture9, *mixture_reference(mixture9)
    extremes = MixtureModel(
        1e-3,
        BernoulliProfile((0.2, 0.0, 5e-324, 0.9, 0.7, 1e-200, 0.3, 1 - 2**-53, 0.5)),
        BernoulliProfile((0.6, 0.1, 0.4, 1e-300, 0.0, 0.8, 0.3, 0.25, 0.999)),
    )
    yield "mixture_extremes", extremes, *mixture_reference(extremes)
    # The wrapped function sees each tuple as a frozenset, in the set's order.
    inner = spread_mixture(9)
    joint, marginals = mixture_reference(inner)
    yield "callable", CallableModel(9, inner.joint), \
        (lambda t: joint(tuple(frozenset(t)))), marginals


JOINT_CASES = {case[0]: case[1:] for case in _joint_cases()}


@pytest.mark.parametrize("name", sorted(JOINT_CASES))
def test_joint_many_matches_the_closed_forms_bitwise(name):
    model, joint_ref, marginals_ref = JOINT_CASES[name]
    for k in (0, 1, 2, 4, 9):
        combos = list(itertools.combinations(range(model.n), k))
        idx = np.array(combos, dtype=np.intp).reshape(len(combos), k)
        got = model.joint_many(idx)
        assert got.dtype == np.float64
        want = np.array([joint_ref(t) for t in combos], dtype=float)
        assert got.tobytes() == want.tobytes(), k
    marginals = model.marginals
    assert marginals.dtype == np.float64
    assert marginals.tobytes() == np.array(marginals_ref).tobytes()
    if name == "product":
        assert marginals.tobytes() == model.profile.probs.tobytes()
    assert model.joint(()) == 1.0
    t = frozenset({7, 0, 4})
    assert model.joint(t) == joint_ref(tuple(t))


def test_joint_many_is_the_one_evaluator():
    assert DependentModel.__abstractmethods__ == {"n", "joint_many", "restrict"}
    for cls in (ProductModel, MixtureModel, CallableModel):
        assert cls.joint is DependentModel.joint
        assert cls.marginals is DependentModel.marginals
    with pytest.raises(TypeError):
        CallableModel(2, lambda s: 0.5 ** len(s), marginals=(0.5, 0.5))


# ----------------------------------------------------------------------
# rare-set spec
# ----------------------------------------------------------------------


def test_rare_set_membership():
    assert not RareSetSpec("empty").is_rare((0, 1))
    ca = RareSetSpec("contains_any", indices=(2, 5))
    assert ca.is_rare((1, 2))
    assert not ca.is_rare((0, 1))
    ex = RareSetSpec("explicit", tuples=((1, 0), (3,)))
    assert ex.is_rare((0, 1))  # order does not matter
    assert ex.is_rare((3,))
    assert not ex.is_rare((0, 3))


def test_rare_set_spec_strings():
    assert RareSetSpec("empty").spec_string() == "empty"
    assert RareSetSpec("contains_any", indices=(3, 1)).spec_string() == "contains_any:1,3"
    assert RareSetSpec("explicit", tuples=((2, 1),)).spec_string() == "explicit:1,2"


def test_rare_set_unknown_kind():
    with pytest.raises(ValidationError):
        RareSetSpec("weird")


@pytest.mark.parametrize("kind, field, value", [
    ("empty", "indices", {1, 2}),
    ("empty", "tuples", [(0, 1)]),
    ("contains_any", "tuples", [(0, 1)]),
    ("explicit", "indices", {1}),
])
def test_rare_set_refuses_the_field_its_kind_does_not_read(kind, field, value):
    with pytest.raises(ValidationError, match=f"^rare-set kind {kind} takes no {field}$"):
        RareSetSpec(kind, **{field: value})


# ----------------------------------------------------------------------
# model files
# ----------------------------------------------------------------------


def test_model_from_dict_round_trip():
    m = model_from_dict(
        {"kind": "mixture", "eps": 0.5, "p": [0.2, 0.2], "q": [0.4, 0.4]}
    )
    assert isinstance(m, MixtureModel)
    assert m.joint((0, 1)) == pytest.approx(0.10, abs=1e-15)
    prod = model_from_dict({"kind": "product", "p": [0.1, 0.9]})
    assert isinstance(prod, ProductModel)


def test_model_from_dict_rejects_bad_specs():
    with pytest.raises(ValidationError):
        model_from_dict({"kind": "markov", "p": [0.1]})
    with pytest.raises(ValidationError):
        model_from_dict({"kind": "product"})
    with pytest.raises(ValidationError):
        model_from_dict(
            {"kind": "product", "p": [0.1], "q": [0.2]}
        )
    with pytest.raises(ValidationError):
        model_from_dict(
            {"kind": "mixture", "eps": 2.0, "p": [0.1], "q": [0.2]}
        )
    with pytest.raises(ValidationError):
        model_from_dict([1, 2, 3])


def test_load_model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"kind": "product", "p": [0.25, 0.75]}')
    m = load_model(str(path))
    assert m.marginals.tolist() == [0.25, 0.75]
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load_model(str(bad))
    with pytest.raises(ValidationError):
        load_model(str(tmp_path / "missing.json"))


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------


@settings(deadline=None, derandomize=True)
@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=0.95),
            st.floats(min_value=0.0, max_value=0.95),
        ),
        min_size=1,
        max_size=8,
    ),
    st.data(),
)
def test_property_joint_monotone_under_inclusion(eps, rows, data):
    """Adding an index to the joint's argument cannot raise the probability."""
    model = MixtureModel(
        eps,
        BernoulliProfile(tuple(p for p, _ in rows)),
        BernoulliProfile(tuple(q for _, q in rows)),
    )
    n = model.n
    subset = data.draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), unique=True)
    )
    extension = data.draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), unique=True)
    )
    small = frozenset(subset)
    large = small | frozenset(extension)
    assert model.joint(small) >= model.joint(large) - 1e-15
