"""Approximants, envelopes, sandwich verification, distances, normal ratios."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pblab.asymptotics import (
    ApproxKind,
    approx_pmf,
    dehpfeif_ratio,
    dehpfeif_report,
    envelope_thm1,
    envelope_thm2,
    envelope_thm3,
    mmm_residual,
    normal_local_report,
    poisson_form_bracket,
    verify_sandwich,
)
from pblab.dependent import MixtureModel, RareSetSpec, check_scheme, ratio_report
from pblab.errors import HypothesisError, ValidationError
from pblab.exact import pmf_dp, prob_zero_log
from pblab.profiles import BernoulliProfile, GrowthWindow, summarize

positive_profiles = st.lists(
    st.floats(min_value=1e-4, max_value=0.45, allow_nan=False),
    min_size=1,
    max_size=30,
).map(lambda xs: BernoulliProfile(tuple(xs)))


def make_summary(probs):
    return summarize(BernoulliProfile(tuple(probs)))


# ----------------------------------------------------------------------
# ApproxKind
# ----------------------------------------------------------------------


def test_kind_constructors_and_spec_strings():
    assert ApproxKind.lambda_form().spec_string() == "lambda_form"
    assert ApproxKind.beta_form().spec_string() == "beta_form"
    assert ApproxKind.poisson_form().spec_string() == "poisson_form"
    assert ApproxKind.poisson_limit(2.5).spec_string() == "poisson_limit:2.5"
    assert ApproxKind.normal_local().spec_string() == "normal_local"


def test_kind_validation():
    with pytest.raises(ValidationError):
        ApproxKind("poisson_limit")
    with pytest.raises(ValidationError):
        ApproxKind("poisson_limit", -1.0)
    with pytest.raises(ValidationError):
        ApproxKind("lambda_form", 2.0)
    with pytest.raises(ValidationError):
        ApproxKind("nonsense")


# ----------------------------------------------------------------------
# approx_pmf
# ----------------------------------------------------------------------


def test_anchored_forms_return_anchor_at_zero():
    """The k=0 identity: anchored forms return p0_log itself, bit for bit."""
    s = make_summary((0.1, 0.2, 0.3))
    p0 = -0.685179
    assert approx_pmf(ApproxKind.lambda_form(), s, p0, 0) == p0
    assert approx_pmf(ApproxKind.beta_form(), s, p0, 0) == p0


def test_lambda_form_value():
    s = make_summary((0.1, 0.2, 0.3))
    p0 = prob_zero_log(BernoulliProfile((0.1, 0.2, 0.3)))
    got = approx_pmf(ApproxKind.lambda_form(), s, p0, 2)
    assert got == pytest.approx(p0 + 2 * math.log(0.6) - math.log(2.0), abs=1e-14)


def test_poisson_form_at_zero_is_minus_lambda():
    s = make_summary((0.25, 0.25))
    assert approx_pmf(ApproxKind.poisson_form(), s, -123.0, 0) == -0.5


def test_poisson_limit_ignores_profile_rate():
    s = make_summary((0.25, 0.25))
    got = approx_pmf(ApproxKind.poisson_limit(3.0), s, 0.0, 2)
    assert got == pytest.approx(-3.0 + 2 * math.log(3.0) - math.log(2.0), abs=1e-14)


def test_approx_pmf_domain_errors():
    s = make_summary((0.0, 0.0))
    with pytest.raises(HypothesisError):
        approx_pmf(ApproxKind.lambda_form(), s, 0.0, 1)
    with pytest.raises(HypothesisError):
        approx_pmf(ApproxKind.normal_local(), s, 0.0, 1)
    with pytest.raises(ValidationError):
        approx_pmf(ApproxKind.lambda_form(), make_summary((0.5,)), 0.0, -1)


# ----------------------------------------------------------------------
# envelopes
# ----------------------------------------------------------------------


def test_envelope_two_sided_worked_example():
    # k=2, m=0.01, lambda=10
    s = make_summary((0.01,) * 1000)
    eps1, eps2, valid = envelope_thm1(s, 2)
    assert eps1 == pytest.approx(0.004, rel=1e-12)
    assert eps2 == pytest.approx(0.02 / 0.98, rel=1e-12)
    assert valid


def test_envelope_two_sided_k_zero():
    s = make_summary((0.01,) * 1000)
    assert envelope_thm1(s, 0) == (0.0, 0.0, True)


def test_envelope_two_sided_side_condition():
    s = make_summary((0.01,) * 1000)
    eps1, eps2, valid = envelope_thm1(s, 200)  # k m = 2
    assert not valid
    assert math.isinf(eps2)


def test_envelope_one_sided_worked_example():
    # k=3, cap=0.5, lambda=100
    s = make_summary((0.05,) * 2000)
    eps, valid = envelope_thm2(s, 0.5, 3)
    assert eps == pytest.approx(0.09, rel=1e-12)
    assert valid
    assert envelope_thm2(s, 0.5, 0) == (0.0, True)


def test_envelope_one_sided_cap_rules():
    s = make_summary((0.3, 0.2))
    with pytest.raises(HypothesisError):
        envelope_thm2(s, 0.2, 1)  # below the largest entry
    with pytest.raises(HypothesisError):
        envelope_thm2(s, 1.0, 1)
    # A cap equal to the largest entry still dominates every entry.
    eps, _ = envelope_thm2(s, 0.3, 1)
    assert eps == pytest.approx(0.3 / (0.5 * 0.7), rel=1e-12)


def test_stated_display_worked_example():
    # lambda=10, m=1e-3, sum b^2 = 1e-2, k=3
    s = make_summary((1e-3,) * 10000)
    lower, upper, valid = envelope_thm3(s, 3)
    # eps1 = k^2 m / lambda = 9e-3 / 10 = 9e-4
    assert lower == pytest.approx(1.0 - 9e-4, rel=1e-12)
    assert upper == pytest.approx(math.exp(0.01) * (1.0 + 0.003 / 0.997), rel=1e-12)
    assert valid
    lo0, up0, _ = envelope_thm3(s, 0)
    assert lo0 == 1.0
    assert up0 == pytest.approx(math.exp(s.sum_sq), rel=1e-15)


def test_stated_display_requires_small_entries():
    with pytest.raises(HypothesisError):
        envelope_thm3(make_summary((0.6, 0.1)), 1)
    with pytest.raises(HypothesisError):
        poisson_form_bracket(make_summary((0.6, 0.1)), 1)


def test_provable_bracket_sits_below_stated_display():
    s = make_summary((0.1,) * 50)
    lo_display, up_display, _ = envelope_thm3(s, 2)
    lo_bracket, up_bracket, _ = poisson_form_bracket(s, 2)
    assert lo_bracket == pytest.approx(math.exp(-s.sum_sq) * lo_display, rel=1e-12)
    assert up_bracket == up_display


def test_stated_display_lower_edge_fails_at_zero():
    """The display's lower rail is 1 at k=0, but the true ratio there is
    exp(alpha + lambda) which is strictly below 1 whenever sum b^2 > 0.
    This pins the known gap that poisson_form_bracket exists to close."""
    prof = BernoulliProfile((0.1,) * 50)
    s = summarize(prof)
    ratio0 = math.exp(prob_zero_log(prof) + s.lambda_n)
    display_lower = envelope_thm3(s, 0)[0]
    bracket_lower = poisson_form_bracket(s, 0)[0]
    assert ratio0 < display_lower  # the stated rail is breached
    assert bracket_lower <= ratio0 <= 1.0  # the provable rail holds


@settings(deadline=None, derandomize=True)
@given(positive_profiles)
def test_property_zero_class_bracket(prof):
    """exp(-sum b^2) <= P(V=0) e^lambda <= 1, checked in log domain."""
    s = summarize(prof)
    a = prob_zero_log(prof)
    assert -s.sum_sq - 1e-12 <= a + s.lambda_n <= 1e-12


def test_log_inequality_grid():
    """-x - x^2 <= ln(1-x) <= -x on ten thousand points of (0, 1/2)."""
    for i in range(10000):
        x = (i + 0.5) / 20000.0
        lg = math.log1p(-x)
        assert -x - x * x <= lg <= -x


# ----------------------------------------------------------------------
# verify_sandwich
# ----------------------------------------------------------------------


def test_sandwich_worked_example():
    report = verify_sandwich(
        BernoulliProfile((0.1, 0.2, 0.3)),
        ApproxKind.lambda_form(),
        GrowthWindow.constant(1.0),
    )
    assert report.k_values == (0, 1)
    assert report.ratios[0] == 1.0
    assert report.ratios[1] == pytest.approx(0.398 / 0.3024, rel=1e-12)
    assert report.upper_env[1] == pytest.approx(1.0 + 0.3 / 0.7, rel=1e-12)
    assert report.lower_env[1] == pytest.approx(0.5, rel=1e-12)
    assert report.violations == 0
    assert report.max_abs_dev == pytest.approx(0.398 / 0.3024 - 1.0, rel=1e-10)


def test_sandwich_window_boundary_inclusive():
    report = verify_sandwich(
        BernoulliProfile((0.05,) * 100),
        ApproxKind.lambda_form(),
        GrowthWindow.constant(16.0),
    )
    assert report.k_values == (0, 1, 2, 3, 4)


def test_sandwich_beta_form_one_sided():
    report = verify_sandwich(
        BernoulliProfile((0.3,) * 40),
        ApproxKind.beta_form(),
        GrowthWindow.power(1, 0.5),
        beta_cap=0.5,
    )
    assert all(r <= 1.0 + 1e-9 for r in report.ratios)
    assert all(u == 1.0 for u in report.upper_env)
    assert report.violations == 0
    assert report.beta_cap == 0.5


def test_sandwich_beta_default_cap_halfway():
    report = verify_sandwich(
        BernoulliProfile((0.3,) * 40),
        ApproxKind.beta_form(),
        GrowthWindow.constant(4.0),
    )
    assert report.beta_cap == pytest.approx(0.65, rel=1e-15)


def test_sandwich_poisson_form_uses_provable_rails():
    prof = BernoulliProfile((0.01,) * 500)
    report = verify_sandwich(prof, ApproxKind.poisson_form(), GrowthWindow.power(1, 0.5))
    s = summarize(prof)
    lo0, up0, _ = poisson_form_bracket(s, 0)
    assert report.lower_env[0] == lo0
    assert report.upper_env[0] == up0
    assert report.violations == 0


def test_sandwich_input_rules():
    prof = BernoulliProfile((0.1, 0.2))
    w = GrowthWindow.constant(1.0)
    with pytest.raises(ValidationError):
        verify_sandwich(prof, ApproxKind.normal_local(), w)
    with pytest.raises(ValidationError):
        verify_sandwich(prof, ApproxKind.lambda_form(), w, beta_cap=0.5)
    with pytest.raises(HypothesisError):
        verify_sandwich(BernoulliProfile((0.0, 0.0)), ApproxKind.lambda_form(), w)
    with pytest.raises(HypothesisError):
        verify_sandwich(BernoulliProfile((0.7, 0.1)), ApproxKind.poisson_form(), w)


def test_sandwich_window_growth_never_shrinks_deviation():
    """k-sets nest as phi grows, so the sup of |ratio - 1| cannot drop."""
    prof = BernoulliProfile(tuple((i % 3 + 1) / 30 for i in range(60)))
    devs = [
        verify_sandwich(
            prof, ApproxKind.lambda_form(), GrowthWindow.constant(phi)
        ).max_abs_dev
        for phi in (1.0, 4.0, 9.0, 16.0, 25.0)
    ]
    assert devs == sorted(devs)


# ----------------------------------------------------------------------
# distance report
# ----------------------------------------------------------------------


def test_distance_report_fields_are_consistent():
    report = dehpfeif_report(BernoulliProfile((0.05,) * 200))
    assert report.ratio == report.tv / report.predicted
    assert report.predicted == pytest.approx(
        (report.summary.sum_sq / report.summary.lambda_n)
        / math.sqrt(2 * math.pi * math.e),
        rel=1e-15,
    )
    assert 0.0 < report.sup_cdf <= report.tv + 1e-15


def test_distance_single_entry_is_well_defined():
    report = dehpfeif_report(BernoulliProfile((0.5,)))
    assert math.isfinite(report.ratio)
    assert report.ratio > 0.0


def test_distance_zero_profile_rejected():
    with pytest.raises(HypothesisError):
        dehpfeif_ratio(BernoulliProfile((0.0, 0.0)))


def test_distance_flat_row_spot_value():
    # Flat thousand-entry row with entries n^{-1/3}: a fixed, fully
    # deterministic pipeline, pinned to guard against regressions.
    prof = BernoulliProfile((1000.0 ** (-1.0 / 3.0),) * 1000)
    report = dehpfeif_report(prof)
    assert report.ratio == pytest.approx(1.0541704063119948, rel=1e-10)
    assert report.sup_cdf == pytest.approx(0.013146977928321119, rel=1e-10)
    assert report.tv == pytest.approx(0.025507837698195316, rel=1e-10)


# ----------------------------------------------------------------------
# normal-local diagnostics
# ----------------------------------------------------------------------


def test_normal_residual_worked_example():
    prof = BernoulliProfile((0.5,) * 100)
    lhs, rhs, holds = mmm_residual(prof, 50, 1.0)
    assert rhs == pytest.approx(0.1, rel=1e-12)
    assert lhs == pytest.approx(9.96e-4, abs=2e-5)
    assert holds


def test_normal_residual_far_tail_is_finite():
    prof = BernoulliProfile((0.5,) * 100)
    lhs, rhs, holds = mmm_residual(prof, 9999, 1.0)
    assert math.isfinite(lhs) and math.isfinite(rhs)
    assert lhs == pytest.approx(0.0, abs=1e-12)


def test_normal_residual_single_entry():
    lhs, rhs, holds = mmm_residual(BernoulliProfile((0.5,)), 0, 1.0)
    assert math.isfinite(lhs) and rhs > 0.0


def test_normal_residual_validation():
    prof = BernoulliProfile((0.5,) * 4)
    with pytest.raises(ValidationError):
        mmm_residual(prof, 1, 0.0)
    with pytest.raises(HypothesisError):
        mmm_residual(BernoulliProfile((0.0, 0.0)), 0, 1.0)


def test_normal_local_spot_values():
    prof = BernoulliProfile((0.5,) * 100)
    pmf, ratios = normal_local_report(prof, (50,))
    assert pmf.prob(50) == pytest.approx(0.0795892, abs=1e-7)
    normal = math.exp(
        approx_pmf(ApproxKind.normal_local(), summarize(prof), 0.0, 50)
    )
    assert normal == pytest.approx(0.0797885, abs=1e-7)
    exact = math.comb(100, 50) / 2**100
    assert ratios[0] == pytest.approx(exact * math.sqrt(50 * math.pi), rel=1e-10)


# ----------------------------------------------------------------------
# report fields are Python floats, not numpy scalars
# ----------------------------------------------------------------------


def _float_leaves(obj):
    """Every float-like value in a report dataclass, tuples and nesting included."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _float_leaves(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _float_leaves(x)
    elif isinstance(obj, float):
        yield obj


def test_poisson_form_upper_rail_is_inf_once_exp_overflows():
    # sum b^2 = 810 > log(DBL_MAX) ~ 709.78: e^(sum b^2) is not a float.
    s = make_summary((0.45,) * 4000)
    assert s.sum_sq > 709.79
    assert envelope_thm3(s, 2)[1] == math.inf
    lower, upper, _ = poisson_form_bracket(s, 2)
    assert (lower, upper) == (0.0, math.inf)


def test_report_floats_are_python_floats():
    prof = BernoulliProfile([0.05, 0.1, 0.2, 0.15, 0.3, 0.25])
    model = MixtureModel(0.3, prof, BernoulliProfile([0.1, 0.2, 0.1, 0.2, 0.1, 0.2]))
    reports = [
        summarize(prof),
        dehpfeif_report(prof),
        verify_sandwich(prof, ApproxKind.lambda_form(), GrowthWindow.constant(4.0)),
        verify_sandwich(prof, ApproxKind.beta_form(), GrowthWindow.constant(4.0)),
        ratio_report(model, prof, 4),
        ratio_report(model, prof, 4, high_precision=True),
        check_scheme(model, prof, RareSetSpec.explicit([(0, 1), (2,)]), 3),
        check_scheme(model, prof, RareSetSpec.contains_any([1]), 3),
    ]
    for report in reports:
        leaves = list(_float_leaves(report))
        assert leaves
        assert all(type(x) is float for x in leaves), type(report).__name__
