"""Profile construction, summary scalars, families, windows, conditions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pblab.errors import HypothesisError, ValidationError
from pblab.profiles import (
    BernoulliProfile,
    ConditionRow,
    GrowthWindow,
    ProfileFamily,
    check_conditions,
    generate,
    load_profile,
    summarize,
    verdicts_from_rows,
)

probs_strategy = st.lists(
    st.floats(min_value=0.0, max_value=0.999, allow_nan=False),
    min_size=1,
    max_size=40,
)


# ----------------------------------------------------------------------
# BernoulliProfile validation
# ----------------------------------------------------------------------


def test_profile_accepts_zero_entries():
    prof = BernoulliProfile((0.0, 0.5, 0.0))
    assert prof.n == 3
    assert prof.probs.tolist() == [0.0, 0.5, 0.0]


def test_profile_rejects_one():
    with pytest.raises(ValidationError):
        BernoulliProfile((0.2, 1.0))


def test_profile_rejects_negative():
    with pytest.raises(ValidationError):
        BernoulliProfile((-0.1,))


def test_profile_rejects_nan():
    with pytest.raises(ValidationError):
        BernoulliProfile((float("nan"),))


def test_profile_error_names_first_bad_entry():
    nan = float("nan")
    with pytest.raises(ValidationError, match=r"^profile entry 1 is nan,"):
        BernoulliProfile((0.1, nan, 1.5))
    with pytest.raises(ValidationError, match=r"^profile entry 2 is 1.5,"):
        BernoulliProfile((0.1, 0.2, 1.5, nan))


def test_profile_rejects_empty():
    with pytest.raises(ValidationError):
        BernoulliProfile(())


def test_profile_coerces_to_floats():
    prof = BernoulliProfile((0, 0.5))
    assert isinstance(prof.probs[0], float)


def test_profile_probs_are_a_read_only_float64_row():
    prof = BernoulliProfile([0, 0.25, 0.5])
    assert isinstance(prof.probs, np.ndarray)
    assert prof.probs.dtype == np.float64
    assert prof.probs.ndim == 1
    with pytest.raises(ValueError, match="read-only"):
        prof.probs[0] = 0.75


def test_profile_copies_its_input():
    src = np.array([0.1, 0.2, 0.3])
    prof = BernoulliProfile(src)
    src[0] = 0.9
    assert prof.probs.tolist() == [0.1, 0.2, 0.3]
    assert prof.probs.flags.owndata


def test_profile_compares_by_identity():
    a = BernoulliProfile((0.1, 0.2))
    b = BernoulliProfile((0.1, 0.2))
    assert a == a
    assert a != b
    assert len({a, b}) == 2


@pytest.mark.parametrize("bad", [
    0.5, [[0.1, 0.2]], [[0.1], [0.2]], np.zeros((2, 2)), np.float64(0.5),
], ids=["scalar", "row_2d", "column_2d", "array_2d", "array_0d"])
def test_profile_rejects_input_that_is_not_one_row(bad):
    with pytest.raises(ValidationError, match="one-dimensional"):
        BernoulliProfile(bad)


@pytest.mark.parametrize("bad", [["a"], [0.1, {}], [[0.1], [0.2, 0.3]], [10**400]])
def test_profile_rejects_entries_that_are_not_numbers(bad):
    with pytest.raises(ValidationError, match="^profile must be a row of numbers"):
        BernoulliProfile(bad)


# ----------------------------------------------------------------------
# summarize
# ----------------------------------------------------------------------


def test_summary_worked_example():
    """All six scalars for the (0.1, 0.2, 0.3) row, hand-computed."""
    s = summarize(BernoulliProfile((0.1, 0.2, 0.3)))
    assert s.n == 3
    assert s.lambda_n == pytest.approx(0.6, abs=1e-15)
    assert s.m_n == 0.3
    expected_alpha = math.log(0.9) + math.log(0.8) + math.log(0.7)
    assert s.alpha_n == pytest.approx(expected_alpha, abs=1e-15)
    assert s.beta_n == pytest.approx(0.1 / 0.9 + 0.2 / 0.8 + 0.3 / 0.7, abs=1e-15)
    assert s.sum_sq == pytest.approx(0.14, abs=1e-15)
    assert s.var_n == pytest.approx(0.09 + 0.16 + 0.21, abs=1e-15)


def test_summary_tiny_entries_keep_alpha_precision():
    # log1p path: for p = 1e-12, ln(1-p) is about -p with relative error ~p.
    s = summarize(BernoulliProfile((1e-12,) * 1000))
    assert s.alpha_n == pytest.approx(-1e-9, rel=1e-9)


@settings(deadline=None, derandomize=True)
@given(probs_strategy, st.randoms(use_true_random=False))
def test_summary_permutation_invariant(probs, rng):
    """Exactly-rounded sums make the summary identical under reordering."""
    shuffled = list(probs)
    rng.shuffle(shuffled)
    assert summarize(BernoulliProfile(tuple(probs))) == summarize(
        BernoulliProfile(tuple(shuffled))
    )


@settings(deadline=None, derandomize=True)
@given(probs_strategy)
def test_summary_scalar_inequalities(probs):
    s = summarize(BernoulliProfile(tuple(probs)))
    assert s.lambda_n <= s.beta_n + 1e-15
    assert s.m_n**2 <= s.sum_sq + 1e-15


# ----------------------------------------------------------------------
# families
# ----------------------------------------------------------------------


def test_family_constant_total():
    prof = generate(ProfileFamily.constant_total(2.0), 8)
    assert prof.probs.tolist() == [0.25] * 8


def test_family_constant_p():
    prof = generate(ProfileFamily.constant_p(0.3), 5)
    assert prof.probs.tolist() == [0.3] * 5


def test_family_row_power():
    prof = generate(ProfileFamily.row_power(1.0, 0.75), 16)
    assert prof.probs.tolist() == [16.0**-0.75] * 16


def test_family_index_power():
    prof = generate(ProfileFamily.index_power(0.5, 0.5), 4)
    expected = [0.5 * i**-0.5 for i in (1, 2, 3, 4)]
    assert prof.probs.tolist() == expected


def test_family_generation_is_deterministic():
    fam = ProfileFamily.index_power(0.5, 0.5)
    assert generate(fam, 100).probs.tobytes() == generate(fam, 100).probs.tobytes()


def test_family_out_of_range_at_small_n():
    # constant_total(2) at n=2 would need entries exactly 1.
    with pytest.raises(ValidationError) as info:
        generate(ProfileFamily.constant_total(2.0), 2)
    assert str(info.value) == (
        "family constant_total:2 yields entry 1.0 at index 0 for n=2, outside [0, 1)"
    )
    generate(ProfileFamily.constant_total(2.0), 3)  # fine from n=3 on
    # The message names the first offending index, not the first entry.
    with pytest.raises(ValidationError) as info:
        generate(ProfileFamily.index_power(0.5, -0.5), 5)
    assert str(info.value) == (
        "family index_power:0.5,-0.5 yields entry 1.0 at index 3 for n=5, outside [0, 1)"
    )


def test_family_arity_checked():
    with pytest.raises(ValidationError):
        ProfileFamily("row_power", (1.0,))
    with pytest.raises(ValidationError):
        ProfileFamily("nonsense", (1.0,))


def test_family_from_file_requires_matching_n(tmp_path):
    path = tmp_path / "row.txt"
    path.write_text("0.1\n0.2\n")
    fam = ProfileFamily.from_file(str(path))
    assert generate(fam, 2).probs.tolist() == [0.1, 0.2]
    with pytest.raises(ValidationError):
        generate(fam, 3)


def test_spec_string_round_trip_shape():
    assert ProfileFamily.row_power(1, 0.75).spec_string() == "row_power:1,0.75"
    assert ProfileFamily.constant_p(0.3).spec_string() == "constant_p:0.3"


# ----------------------------------------------------------------------
# profile files
# ----------------------------------------------------------------------


def test_load_profile_comments_and_blanks(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("# header\n0.25\n\n 0.5 \n# tail\n1e-3\n")
    prof = load_profile(str(path))
    assert prof.probs.tolist() == [0.25, 0.5, 0.001]


def test_load_profile_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.1\nnot-a-number\n")
    with pytest.raises(ValidationError, match="2"):
        load_profile(str(path))


def test_load_profile_rejects_out_of_range(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\n")
    with pytest.raises(ValidationError):
        load_profile(str(path))


def test_load_profile_missing_file():
    with pytest.raises(ValidationError):
        load_profile("/nonexistent/profile.txt")


def test_load_profile_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# only comments\n")
    with pytest.raises(ValidationError):
        load_profile(str(path))


# ----------------------------------------------------------------------
# growth windows
# ----------------------------------------------------------------------


def test_window_power():
    assert GrowthWindow.power(1, 0.5).value(10000) == pytest.approx(100.0)


def test_window_constant():
    assert GrowthWindow.constant(3.0).value(12345) == 3.0


def test_window_power_of_lambda_needs_lambda():
    w = GrowthWindow.power_of_lambda(1, 0.5)
    assert w.value(10, lambda_n=4.0) == pytest.approx(2.0)
    with pytest.raises(HypothesisError):
        w.value(10)
    with pytest.raises(HypothesisError):
        w.value(10, lambda_n=0.0)


def test_window_rejects_nonpositive_scale():
    with pytest.raises(ValidationError):
        GrowthWindow.power(0.0, 1.0)


# ----------------------------------------------------------------------
# condition diagnostics
# ----------------------------------------------------------------------


def test_conditions_row_power_grid():
    """sum b^2 for row_power(1, 3/4) is n^{-1/2}: 0.25, 0.0625, 0.015625."""
    report = check_conditions(
        ProfileFamily.row_power(1, 0.75), (16, 256, 4096), GrowthWindow.power(1, 0.5)
    )
    assert [r.sum_sq for r in report.rows] == pytest.approx(
        [0.25, 0.0625, 0.015625], rel=1e-12
    )
    assert report.a4.decreasing
    assert report.a4.below_threshold
    assert report.lambda_trend == "increasing"


def test_conditions_constant_p_not_decreasing():
    report = check_conditions(
        ProfileFamily.constant_p(0.3), (10, 100), GrowthWindow.power(1, 0.5)
    )
    assert [r.m_n for r in report.rows] == [0.3, 0.3]
    assert not report.a1.decreasing


def test_conditions_constant_total_window_product():
    report = check_conditions(
        ProfileFamily.constant_total(2.0), (10, 100), GrowthWindow.power(1, 0.5)
    )
    # phi(n) * m_n = sqrt(n) * 2/n = 2/sqrt(n)
    assert [r.phi_m for r in report.rows] == pytest.approx(
        [2 / math.sqrt(10), 2 / math.sqrt(100)], rel=1e-12
    )
    assert report.window_m.decreasing
    assert report.lambda_trend == "stable"
    assert report.lambda_last == pytest.approx(2.0, rel=1e-12)


def test_conditions_grid_validation():
    fam = ProfileFamily.constant_p(0.3)
    w = GrowthWindow.power(1, 0.5)
    with pytest.raises(ValidationError):
        check_conditions(fam, (10,), w)
    with pytest.raises(ValidationError):
        check_conditions(fam, (10, 10), w)
    with pytest.raises(ValidationError):
        check_conditions(fam, (100, 10), w)


def test_verdicts_recomputable_from_rows():
    """Verdicts are pure functions of the rows; recomputing must agree."""
    report = check_conditions(
        ProfileFamily.row_power(1, 0.75), (16, 256), GrowthWindow.power(1, 0.5)
    )
    v = verdicts_from_rows(report.rows, report.threshold)
    assert v["a1"] == report.a1
    assert v["a4"] == report.a4
    assert v["window_m"] == report.window_m
    assert v["window_over_lambda"] == report.window_over_lambda
    assert v["lambda_trend"] == report.lambda_trend


def test_condition_row_zero_lambda_flags_infinite_ratio():
    rows = (
        ConditionRow(n=2, m_n=0.0, lambda_n=0.0, sum_sq=0.0, phi=1.0, phi_m=0.0,
                     phi_over_lambda=math.inf),
        ConditionRow(n=4, m_n=0.0, lambda_n=0.0, sum_sq=0.0, phi=2.0, phi_m=0.0,
                     phi_over_lambda=math.inf),
    )
    v = verdicts_from_rows(rows, 0.1)
    assert not v["window_over_lambda"].below_threshold
    assert v["lambda_trend"] == "stable"
