"""Approximants, envelopes, sandwich verification, distances, normal ratios."""

import ast
import dataclasses
import json
import math
import pathlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pblab import asymptotics, cli, dependent, exact
from pblab.asymptotics import (
    ApproxKind,
    DistanceReport,
    EnvelopeReport,
    approx_pmf,
    dehpfeif_report,
    envelope_thm1,
    envelope_thm2,
    envelope_thm3,
    mmm_residual,
    normal_local_report,
    poisson_form_bracket,
    verify_sandwich,
)
from pblab.dependent import MixtureModel, RareSetSpec, RatioReport, check_scheme, ratio_report
from pblab.errors import HypothesisError, ValidationError
from pblab.exact import pmf_dp, prob_zero_log
from pblab.profiles import (
    BernoulliProfile,
    ConditionReport,
    ConditionRow,
    GrowthWindow,
    ProfileFamily,
    ProfileSummary,
    generate,
)

positive_profiles = st.lists(
    st.floats(min_value=1e-4, max_value=0.45, allow_nan=False),
    min_size=1,
    max_size=30,
).map(lambda xs: BernoulliProfile(tuple(xs)))


def make_summary(probs):
    return BernoulliProfile(tuple(probs)).summary


# ----------------------------------------------------------------------
# ApproxKind
# ----------------------------------------------------------------------


def test_kind_constructors_and_spec_strings():
    assert ApproxKind("lambda_form").spec_string() == "lambda_form"
    assert ApproxKind("beta_form").spec_string() == "beta_form"
    assert ApproxKind("poisson_form").spec_string() == "poisson_form"
    assert ApproxKind("poisson_limit", 2.5).spec_string() == "poisson_limit:2.5"
    assert ApproxKind("normal_local").spec_string() == "normal_local"


def test_kind_parse_maps_each_cli_name_to_its_tag():
    kinds = {
        "lambda": ApproxKind("lambda_form"),
        "beta": ApproxKind("beta_form"),
        "poisson": ApproxKind("poisson_form"),
        "poisson-limit:2.5": ApproxKind("poisson_limit", 2.5),
        "normal": ApproxKind("normal_local"),
    }
    assert [spec.partition(":")[0] for spec in kinds] == list(asymptotics.APPROX_NAMES)
    for spec, kind in kinds.items():
        assert ApproxKind.parse(spec) == kind


@pytest.mark.parametrize("spec, message", [
    ("lambda:", "approximation kind 'lambda:' takes no parameter"),
    ("normal:1", "approximation kind 'normal:1' takes no parameter"),
    ("foo", "unknown approximation kind 'foo'; use lambda|beta|poisson|poisson-limit:rate|normal"),
    ("foo:", "unknown approximation kind 'foo'; use lambda|beta|poisson|poisson-limit:rate|normal"),
    ("foo:1", "unknown approximation kind 'foo'; use lambda|beta|poisson|poisson-limit:rate|normal"),
    ("poisson_limit", "poisson-limit needs a rate, got 'poisson_limit'"),
    ("lambda_form:1", "approximation kind 'lambda_form:1' takes no parameter"),
    ("poisson-limit", "poisson-limit needs a rate, got 'poisson-limit'"),
    ("poisson-limit:", "poisson-limit needs a rate, got 'poisson-limit:'"),
    ("poisson-limit:-1", "poisson_limit rate must be finite > 0, got -1.0"),
])
def test_kind_parse_errors(spec, message):
    with pytest.raises(ValidationError) as info:
        ApproxKind.parse(spec)
    assert str(info.value) == message


def test_kind_parse_reads_back_every_spec_string():
    """A report's kind tag parses back to the kind that printed it, for every kind."""
    kinds = [ApproxKind(tag) for tag in asymptotics.APPROX_NAMES.values() if tag != "poisson_limit"]
    rates = (2.0, 2.5, 2.123456789, 0.1 + 0.2, 1e-300)
    kinds += [ApproxKind("poisson_limit", lam) for lam in rates]
    assert len(kinds) == len(asymptotics.APPROX_NAMES) + 4
    for kind in kinds:
        assert ApproxKind.parse(kind.spec_string()) == kind
    assert ApproxKind.parse("poisson_limit:2") == ApproxKind.parse("poisson-limit:2")


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
    assert approx_pmf(ApproxKind("lambda_form"), s, p0, 0) == p0
    assert approx_pmf(ApproxKind("beta_form"), s, p0, 0) == p0


def test_lambda_form_value():
    s = make_summary((0.1, 0.2, 0.3))
    p0 = prob_zero_log(BernoulliProfile((0.1, 0.2, 0.3)))
    got = approx_pmf(ApproxKind("lambda_form"), s, p0, 2)
    assert got == pytest.approx(p0 + 2 * math.log(0.6) - math.log(2.0), abs=1e-14)


def test_poisson_form_at_zero_is_minus_lambda():
    s = make_summary((0.25, 0.25))
    assert approx_pmf(ApproxKind("poisson_form"), s, -123.0, 0) == -0.5


def test_poisson_limit_ignores_profile_rate():
    s = make_summary((0.25, 0.25))
    got = approx_pmf(ApproxKind("poisson_limit", 3.0), s, 0.0, 2)
    assert got == pytest.approx(-3.0 + 2 * math.log(3.0) - math.log(2.0), abs=1e-14)


def test_approx_pmf_domain_errors():
    s = make_summary((0.0, 0.0))
    with pytest.raises(HypothesisError):
        approx_pmf(ApproxKind("lambda_form"), s, 0.0, 1)
    with pytest.raises(HypothesisError):
        approx_pmf(ApproxKind("normal_local"), s, 0.0, 1)
    with pytest.raises(ValidationError):
        approx_pmf(ApproxKind("lambda_form"), make_summary((0.5,)), 0.0, -1)


@pytest.mark.parametrize(
    "call",
    [
        lambda k: approx_pmf(ApproxKind("lambda_form"), make_summary((0.1, 0.2)), 0.0, k),
        lambda k: approx_pmf(ApproxKind("normal_local"), make_summary((0.1, 0.2)), 0.0, k),
        lambda k: envelope_thm1(make_summary((0.1, 0.2)), k),
        lambda k: envelope_thm2(make_summary((0.1, 0.2)), 0.5, k),
        lambda k: envelope_thm3(make_summary((0.1, 0.2)), k),
        lambda k: poisson_form_bracket(make_summary((0.1, 0.2)), k),
    ],
    ids=["approx_pmf", "approx_pmf_normal", "thm1", "thm2", "thm3", "bracket"],
)
def test_array_entry_points_refuse_float_and_negative_k(call):
    for k in (np.array([1.0, 2.0]), [1, 2.5], 2.0, True):
        with pytest.raises(ValidationError, match="^k must be integers, got dtype "):
            call(k)
    for k in (np.array([2, -1]), -1):
        with pytest.raises(ValidationError, match="^k must be nonnegative$"):
            call(k)


# ----------------------------------------------------------------------
# the array path against the scalar formulas, bit for bit
# ----------------------------------------------------------------------
#
# The reference is the per-k math-module code the array path replaced.
# k runs past 20 (the lgamma branch) to 2000 and beyond; np.exp in place
# of math.exp, or numpy's d * d in place of Python's d ** 2, changes the
# last bit of hundreds of these entries.


def _ref_log_factorial(k):
    return math.log(math.factorial(k)) if k <= 20 else math.lgamma(k + 1.0)


def _ref_approx(kind, s, p0, k):
    if kind.tag == "normal_local":
        var = s.var_n
        return -0.5 * math.log(2.0 * math.pi * var) - (k - s.lambda_n) ** 2 / (2.0 * var)
    if kind.tag == "poisson_limit":
        anchor, rate = -kind.lam, kind.lam
    else:
        anchor, rate = {"lambda_form": (p0, s.lambda_n), "beta_form": (p0, s.beta_n),
                        "poisson_form": (-s.lambda_n, s.lambda_n)}[kind.tag]
    return anchor if k == 0 else anchor + k * math.log(rate) - _ref_log_factorial(k)


def _ref_thm1(s, k):
    if k == 0:
        return 0.0, 0.0, True
    eps1, km = k * k * s.m_n / s.lambda_n, k * s.m_n
    return eps1, km / (1.0 - km) if km < 1.0 else math.inf, km < 1.0 and eps1 < 1.0


def _ref_thm3(s, k):
    eps1, eps2, valid = _ref_thm1(s, k)
    try:
        upper = math.exp(s.sum_sq) * (1.0 + eps2)
    except OverflowError:
        upper = math.inf
    return 1.0 - eps1, upper, valid


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


_BIT_ROWS = {
    # lambda_n ~ 50, so k up to n = 4000 runs far past it; every entry below 1/2.
    "index_power": (generate(ProfileFamily("index_power", (0.4, 0.5)), 4000), 4000),
    # sum b^2 = 810 > 709.78: e^(sum b^2) overflows and the upper rail is inf.
    "constant_p": (generate(ProfileFamily("constant_p", (0.45,)), 4000), 2500),
}


@pytest.mark.parametrize("row", list(_BIT_ROWS))
def test_array_path_matches_the_scalar_formulas_bit_for_bit(row):
    prof, k_hi = _BIT_ROWS[row]
    s = prof.summary
    ks = np.arange(k_hi + 1)
    lps = exact.pmf_tree(prof, k_hi).log_probs
    p0 = float(lps[0])
    for kind in map(ApproxKind.parse, ("lambda", "beta", "poisson", "poisson-limit:2.5", "normal")):
        got = approx_pmf(kind, s, p0, ks)
        assert _bits(got) == _bits([_ref_approx(kind, s, p0, k) for k in range(k_hi + 1)])
        assert approx_pmf(kind, s, p0, 2000) == got[2000]
    for got, want in zip(envelope_thm1(s, ks), zip(*(_ref_thm1(s, k) for k in range(k_hi + 1)))):
        assert _bits(got) == _bits(want)
    cap = (s.m_n + 1.0) / 2.0
    eps, _ = envelope_thm2(s, cap, ks)
    assert _bits(eps) == _bits([k * k * cap / (s.lambda_n * (1.0 - cap)) for k in range(k_hi + 1)])
    display = [_ref_thm3(s, k) for k in range(k_hi + 1)]
    lower, upper, valid = poisson_form_bracket(s, ks)
    assert _bits(envelope_thm3(s, ks)[1]) == _bits(upper) == _bits([u for _, u, _ in display])
    assert _bits(lower) == _bits([math.exp(-s.sum_sq) * lo for lo, _, _ in display])
    assert valid.tolist() == [v for _, _, v in display]
    assert (row == "constant_p") == math.isinf(upper[0])
    # The ratio columns: the sandwich report's over the whole row, and the normal ones.
    report = verify_sandwich(prof, ApproxKind("lambda_form"), GrowthWindow("constant", k_hi**2))
    want = [math.exp(le - _ref_approx(ApproxKind("lambda_form"), s, p0, k))
            for k, le in enumerate(lps.tolist())]
    assert _bits(report.ratios) == _bits(want)
    # Far in the tails the normal ratio leaves the float range, and math.exp raises.
    normal = ApproxKind("normal_local")
    logs = {k: le - _ref_approx(normal, s, p0, k) for k, le in enumerate(lps.tolist())}
    finite = [k for k, x in logs.items() if x < 700.0]
    assert len(finite) > 200
    _, ratios = normal_local_report(prof, finite)
    assert _bits(ratios) == _bits([math.exp(logs[k]) for k in finite])


def test_reports_call_the_approximant_and_the_rails_once(monkeypatch, capsys):
    """One array call per report, not one call per k."""
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(asymptotics, "approx_pmf", counted("approx", approx_pmf))
    monkeypatch.setattr(asymptotics, "_sandwich_rails",
                        counted("rails", asymptotics._sandwich_rails))
    monkeypatch.setattr(cli, "approx_pmf", counted("cli approx", approx_pmf))
    prof = generate(ProfileFamily("index_power", (0.45, 0.5)), 400)
    for name in ("lambda", "beta", "poisson"):
        calls.clear()
        report = verify_sandwich(prof, ApproxKind.parse(name), GrowthWindow("power", 1, 1))
        assert len(report.k_values) == 21
        assert calls == {"approx": 1, "rails": 1}, name
    calls.clear()
    assert len(normal_local_report(prof, range(0, 40, 2))[1]) == 20
    assert calls == {"approx": 1}
    calls.clear()
    argv = ["approx", "--kind", "normal", "--family", "index_power:0.5,0.5", "--n", "400"]
    assert cli.main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)["rows"]) == 401
    assert calls == {"cli approx": 1}


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
    s = prof.summary
    ratio0 = math.exp(prob_zero_log(prof) + s.lambda_n)
    display_lower = envelope_thm3(s, 0)[0]
    bracket_lower = poisson_form_bracket(s, 0)[0]
    assert ratio0 < display_lower  # the stated rail is breached
    assert bracket_lower <= ratio0 <= 1.0  # the provable rail holds


@settings(deadline=None, derandomize=True)
@given(positive_profiles)
def test_property_zero_class_bracket(prof):
    """exp(-sum b^2) <= P(V=0) e^lambda <= 1, checked in log domain."""
    s = prof.summary
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
        ApproxKind("lambda_form"),
        GrowthWindow("constant", 1.0),
    )
    assert report.k_values.tolist() == [0, 1]
    assert report.ratios[0] == 1.0
    assert report.ratios[1] == pytest.approx(0.398 / 0.3024, rel=1e-12)
    assert report.upper_env[1] == pytest.approx(1.0 + 0.3 / 0.7, rel=1e-12)
    assert report.lower_env[1] == pytest.approx(0.5, rel=1e-12)
    assert report.violations == 0
    assert report.max_abs_dev == pytest.approx(0.398 / 0.3024 - 1.0, rel=1e-10)


def test_sandwich_window_boundary_inclusive():
    report = verify_sandwich(
        BernoulliProfile((0.05,) * 100),
        ApproxKind("lambda_form"),
        GrowthWindow("constant", 16.0),
    )
    assert report.k_values.tolist() == [0, 1, 2, 3, 4]


def test_sandwich_beta_form_one_sided():
    report = verify_sandwich(
        BernoulliProfile((0.3,) * 40),
        ApproxKind("beta_form"),
        GrowthWindow("power", 1, 0.5),
        beta_cap=0.5,
    )
    assert all(r <= 1.0 + 1e-9 for r in report.ratios)
    assert all(u == 1.0 for u in report.upper_env)
    assert report.violations == 0
    assert report.beta_cap == 0.5


def test_sandwich_beta_default_cap_halfway():
    report = verify_sandwich(
        BernoulliProfile((0.3,) * 40),
        ApproxKind("beta_form"),
        GrowthWindow("constant", 4.0),
    )
    assert report.beta_cap == pytest.approx(0.65, rel=1e-15)


def test_sandwich_poisson_form_uses_provable_rails():
    prof = BernoulliProfile((0.01,) * 500)
    report = verify_sandwich(prof, ApproxKind("poisson_form"), GrowthWindow("power", 1, 0.5))
    s = prof.summary
    lo0, up0, _ = poisson_form_bracket(s, 0)
    assert report.lower_env[0] == lo0
    assert report.upper_env[0] == up0
    assert report.violations == 0


def test_sandwich_input_rules():
    prof = BernoulliProfile((0.1, 0.2))
    w = GrowthWindow("constant", 1.0)
    with pytest.raises(ValidationError):
        verify_sandwich(prof, ApproxKind("normal_local"), w)
    with pytest.raises(ValidationError):
        verify_sandwich(prof, ApproxKind("lambda_form"), w, beta_cap=0.5)
    with pytest.raises(HypothesisError):
        verify_sandwich(BernoulliProfile((0.0, 0.0)), ApproxKind("lambda_form"), w)
    with pytest.raises(HypothesisError):
        verify_sandwich(BernoulliProfile((0.7, 0.1)), ApproxKind("poisson_form"), w)


@pytest.mark.parametrize("margin", [math.nan, -1.0, -math.inf])
def test_sandwich_refuses_a_margin_the_cli_refuses(margin, monkeypatch):
    """A NaN margin would count no violation and a negative one would flag
    correct ratios; both are refused before the engine runs."""
    prof = BernoulliProfile((0.3,) * 50)
    window = GrowthWindow("constant", 16.0)
    assert verify_sandwich(prof, ApproxKind("lambda_form"), window, margin=0.0).violations == 0
    monkeypatch.setattr(asymptotics, "pmf_tree", None)
    with pytest.raises(ValidationError, match="^margin must be >= 0$"):
        verify_sandwich(prof, ApproxKind("lambda_form"), window, margin=margin)


def test_sandwich_preconditions_fail_before_the_dp(monkeypatch):
    def no_engine(*args, **kwargs):
        raise AssertionError("the exact engine ran before the rails were checked")

    monkeypatch.setattr(asymptotics, "pmf_tree", no_engine)
    w = GrowthWindow("constant", 4.0)
    with pytest.raises(HypothesisError, match="beta cap 0.2 must satisfy"):
        verify_sandwich(BernoulliProfile((0.3,) * 40), ApproxKind("beta_form"), w, beta_cap=0.2)
    with pytest.raises(HypothesisError, match="needs m_n < 1/2"):
        verify_sandwich(BernoulliProfile((0.7, 0.1)), ApproxKind("poisson_form"), w)
    # The stub sits where verify_sandwich takes its exact PMF: a valid call reaches it.
    with pytest.raises(AssertionError, match="exact engine ran"):
        verify_sandwich(BernoulliProfile((0.3,) * 40), ApproxKind("beta_form"), w, beta_cap=0.5)


def test_a_rail_the_ratio_attains_is_not_breached_by_rounding():
    """On a flat row the lambda-form ratio at k = 1 is 1/(1 - p): the upper rail itself.

    The exact engine's error there must stay well inside a 1e-12 margin;
    the dp's accumulated rounding alone exceeds it at n = 3000.
    """
    prof = BernoulliProfile((0.05,) * 3000)
    report = verify_sandwich(
        prof, ApproxKind("lambda_form"), GrowthWindow("power", 1, 0.5), margin=1e-12
    )
    assert report.upper_env[1] == pytest.approx(1.0 / 0.95, rel=1e-15)
    assert report.ratios[1] == pytest.approx(1.0 / 0.95, rel=1e-13)
    assert report.violations == 0


def test_production_paths_do_not_call_the_dp_oracle(monkeypatch, tmp_path, capsys):
    def no_dp(*args, **kwargs):
        raise AssertionError("pmf_dp ran on a production path")

    for module in (exact, asymptotics, dependent, cli):
        monkeypatch.setattr(module, "pmf_dp", no_dp, raising=False)
    prof = BernoulliProfile(tuple((i % 5 + 1) / 20 for i in range(60)))
    w = GrowthWindow("constant", 9.0)
    for kind in (ApproxKind("lambda_form"), ApproxKind("beta_form"), ApproxKind("poisson_form")):
        assert verify_sandwich(prof, kind, w).violations == 0
    pmf, _ = normal_local_report(prof, (3, 9))
    assert pmf.provenance == "product_tree"
    assert mmm_residual(prof, 9, 1.0)[2]
    model = MixtureModel(0.3, prof, BernoulliProfile(tuple(reversed(prof.probs.tolist()))))
    assert model.closed_form_pmf().total_mass() == pytest.approx(1.0, abs=1e-12)
    assert ratio_report(model, prof, 6).max_abs_dev < 1.0
    # pmf without --engine, and the dependent command, run end to end.
    assert cli.main(["pmf", "--family", "index_power:0.5,0.5", "--n", "300", "--k-max", "40"]) == 0
    assert json.loads(capsys.readouterr().out)["provenance"] == "product_tree"
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps({"kind": "mixture", "eps": 0.3, "p": [0.2, 0.3, 0.1],
                                "q": [0.4, 0.35, 0.5]}))
    assert cli.main(["dependent", "--model", str(spec), "--k-max", "3"]) == 0


def test_only_the_cli_engine_table_and_the_package_import_the_dp_oracle():
    """pmf_dp is an oracle: no other module of the package imports it."""
    package = pathlib.Path(asymptotics.__file__).parent
    importers = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and any(a.name == "pmf_dp" for a in node.names):
                importers.add(path.name)
    assert importers == {"cli.py", "__init__.py"}


@pytest.mark.parametrize(
    "window",
    [GrowthWindow("constant", 168.0), GrowthWindow("constant", 169.0),
     GrowthWindow("power", 1, 400)],
    ids=["below_13_squared", "13_squared", "past_float_range"],
)
def test_sandwich_window_covers_every_k_once_phi_reaches_n_plus_1_squared(window):
    prof = BernoulliProfile((0.05,) * 12)
    report = verify_sandwich(prof, ApproxKind("lambda_form"), window)
    assert report.k_values.tolist() == list(range(13))


def test_sandwich_window_growth_never_shrinks_deviation():
    """k-sets nest as phi grows, so the sup of |ratio - 1| cannot drop."""
    prof = BernoulliProfile(tuple((i % 3 + 1) / 30 for i in range(60)))
    devs = [
        verify_sandwich(
            prof, ApproxKind("lambda_form"), GrowthWindow("constant", phi)
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
        dehpfeif_report(BernoulliProfile((0.0, 0.0)))


def test_distance_report_traced_peak_stays_below_half_a_row():
    """index_power:0.5,0.5 at n = 10^6, on a fresh profile, so the report's
    own sums run inside the trace: the report makes no array of the row's
    length, and its traced peak (the tree's bands, 0.43 row copies) stays
    under half a float64 copy of the row."""
    n = 10**6
    prof = generate(ProfileFamily("index_power", (0.5, 0.5)), n)
    tracemalloc.start()
    try:
        dehpfeif_report(prof)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * n


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


def test_normal_residual_spread_is_the_scalar_sum_bit_for_bit():
    """rhs = c * sum p q (p^2 + q^2) / B^3, each summand in the scalar operation order.

    Single entries show a last-bit change of one summand that a long row's
    fsum could round away.
    """
    rng = random.Random(4)
    edge = [1e-12, 1.0 - 2.0**-53, 0.5]
    rows = [[rng.uniform(0.0, 0.9) for _ in range(5000)] + edge + [0.0]]
    rows += [[p] for p in edge + [rng.uniform(0.0, 1.0) for _ in range(300)]]
    for probs in rows:
        prof = BernoulliProfile(probs)
        spread = math.fsum(p * (1.0 - p) * (p * p + (1.0 - p) * (1.0 - p)) for p in probs)
        b = math.sqrt(prof.summary.var_n)
        assert mmm_residual(prof, 0, 0.7)[1] == 0.7 * spread / (b * b * b)


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
    with pytest.raises(ValidationError, match=r"^k must be an integer, got 2\.5$"):
        mmm_residual(prof, 2.5, 1.0)
    assert mmm_residual(prof, np.int64(2), 1.0) == mmm_residual(prof, 2, 1.0)
    with pytest.raises(HypothesisError):
        mmm_residual(BernoulliProfile((0.0, 0.0)), 0, 1.0)


def test_normal_local_report_takes_counts():
    """An int array is counts; a float k is refused, not truncated to int."""
    prof = BernoulliProfile((0.5,) * 10)
    ratios = normal_local_report(prof, [2, 3])[1]
    assert ratios.dtype == np.float64
    assert np.array_equal(normal_local_report(prof, np.array([2, 3], dtype=np.uint8))[1], ratios)
    for ks in ([2.7, 3.2], [2.0], np.array([2.0])):
        with pytest.raises(ValidationError, match=r"^k must be integers, got dtype float64$"):
            normal_local_report(prof, ks)
    with pytest.raises(ValidationError, match="^k_values must be nonempty$"):
        normal_local_report(prof, [])
    with pytest.raises(ValidationError, match="^k must be nonnegative$"):
        normal_local_report(prof, [-1, 2])
    with pytest.raises(ValidationError, match=r"^k_values must lie in 0\.\.n$"):
        normal_local_report(prof, [2, 11])


def test_normal_local_spot_values():
    prof = BernoulliProfile((0.5,) * 100)
    pmf, ratios = normal_local_report(prof, (50,))
    assert pmf.prob(50) == pytest.approx(0.0795892, abs=1e-7)
    normal = math.exp(
        approx_pmf(ApproxKind("normal_local"), prof.summary, 0.0, 50)
    )
    assert normal == pytest.approx(0.0797885, abs=1e-7)
    exact = math.comb(100, 50) / 2**100
    assert ratios[0] == pytest.approx(exact * math.sqrt(50 * math.pi), rel=1e-10)


# ----------------------------------------------------------------------
# per-k columns are read-only arrays; every other report value is a Python number
# ----------------------------------------------------------------------


def _float_leaves(obj):
    """Every float in a report dataclass or summary, properties, tuples and nesting included."""
    if dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj)]
        names += [name for name, v in vars(type(obj)).items() if isinstance(v, property)]
        for name in names:
            yield from _float_leaves(getattr(obj, name))
    elif isinstance(obj, ProfileSummary):
        yield from _float_leaves(list(obj.as_dict().values()))
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


# The stored columns of the two per-k reports: read-only numpy arrays of this dtype.
_COLUMNS = {
    EnvelopeReport: {"log_exact": np.float64, "log_approx": np.float64, "lower_env": np.float64,
                     "upper_env": np.float64, "validity_mask": np.bool_},
    RatioReport: {"dep_probs": np.float64, "indep_probs": np.float64},
}


def test_report_columns_are_read_only_arrays_and_scalars_python_numbers():
    prof = BernoulliProfile([0.05, 0.1, 0.2, 0.15, 0.3, 0.25])
    model = MixtureModel(0.3, prof, BernoulliProfile([0.1, 0.2, 0.1, 0.2, 0.1, 0.2]))
    reports = [
        prof.summary,
        dehpfeif_report(prof),
        verify_sandwich(prof, ApproxKind("lambda_form"), GrowthWindow("constant", 4.0)),
        verify_sandwich(prof, ApproxKind("beta_form"), GrowthWindow("constant", 4.0)),
        verify_sandwich(prof, ApproxKind("poisson_form"), GrowthWindow("constant", 4.0)),
        ratio_report(model, prof, 4),
        ratio_report(model, prof, 4, high_precision=True),
        check_scheme(model, prof, RareSetSpec("explicit", tuples=[(0, 1), (2,)]), 3),
        check_scheme(model, prof, RareSetSpec("contains_any", indices=[1]), 3),
    ]
    for report in reports:
        for name, dtype in _COLUMNS.get(type(report), {}).items():
            column = getattr(report, name)
            assert type(column) is np.ndarray and column.dtype == dtype, name
            assert column.ndim == 1 and not column.flags.writeable, name
        # Every float a report gives outside its array columns is a Python float.
        leaves = list(_float_leaves(report))
        assert leaves
        assert all(type(x) is float for x in leaves), type(report).__name__
    for report in reports[2:5]:
        assert type(report.violations) is int and type(report.max_abs_dev) is float
        assert report.k_values.tolist() == [0, 1, 2]
    for report in reports[5:7]:
        assert type(report.max_abs_dev) is float
        assert all(type(k) is int and type(r) is float for k, r in report.entries)
        assert report.omitted_k == ()


# ----------------------------------------------------------------------
# verdicts, counts and ratios are properties of the stored columns
# ----------------------------------------------------------------------


def _hand_report(ratios, valid) -> EnvelopeReport:
    """A hand-built report of these ratios (log_approx 0) with rails [0.5, 1.5] and margin 0.25.

    Every ratio used here survives exp(log(r)) exactly, so the report's
    ratios are the ones written.
    """
    report = EnvelopeReport(
        kind="lambda_form", n=10, window="constant:4", log_exact=[math.log(r) for r in ratios],
        log_approx=[0.0] * len(ratios), lower_env=[0.5] * len(ratios),
        upper_env=[1.5] * len(ratios), validity_mask=valid, margin=0.25,
    )
    assert report.ratios.tolist() == list(ratios)
    return report


@pytest.mark.parametrize(
    "ratio, valid, count",
    [
        (1.0, True, 0),
        (2.0, True, 1),  # past the upper rail by more than the margin
        (0.0625, True, 1),  # past the lower rail by more than the margin
        (1.75, True, 0),  # exactly upper + margin
        (0.25, True, 0),  # exactly lower - margin
        (4.0, False, 0),  # past the rail, but the side conditions fail
    ],
    ids=["inside", "above", "below", "at_upper_margin", "at_lower_margin", "invalid"],
)
def test_envelope_violations_count_valid_k_past_a_rail_by_more_than_margin(ratio, valid, count):
    assert _hand_report([ratio], [valid]).violations == count


def test_envelope_max_abs_dev_spans_the_whole_window():
    report = _hand_report([1.0, 2.0, 4.0], [True, True, False])
    assert report.k_values.tolist() == [0, 1, 2]
    assert report.violations == 1
    assert report.max_abs_dev == 3.0


def test_distance_ratio_is_tv_over_predicted_bit_for_bit():
    prof = BernoulliProfile([0.05, 0.1, 0.2, 0.15, 0.3, 0.25])
    s = prof.summary
    report = DistanceReport(s, sup_cdf=0.01, tv=0.02)
    predicted = (s.sum_sq / s.lambda_n) / math.sqrt(2.0 * math.pi * math.e)
    assert report.predicted == predicted
    assert report.ratio == 0.02 / predicted
    measured = dehpfeif_report(prof)
    assert measured.ratio == measured.tv / measured.predicted


_DERIVED = {
    EnvelopeReport: ("k_values", "ratios", "violations", "max_abs_dev"),
    DistanceReport: ("predicted", "ratio"),
    RatioReport: ("k_values", "ratios", "entries", "omitted_k", "max_abs_dev"),
    ConditionReport: ("grid", "a1", "a4", "window_m", "window_over_lambda", "lambda_trend",
                      "lambda_last"),
    ConditionRow: ("phi_m", "phi_over_lambda"),
}


@pytest.mark.parametrize("cls", list(_DERIVED), ids=lambda cls: cls.__name__)
def test_derived_report_values_are_properties_not_fields(cls):
    stored = {f.name for f in dataclasses.fields(cls)}
    for name in _DERIVED[cls]:
        assert name not in stored
        assert isinstance(getattr(cls, name), property)
