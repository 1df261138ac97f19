"""Profile construction, summary scalars, families, windows, conditions."""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pblab._util import SUM_BLOCK, exact_sum
from pblab.errors import HypothesisError, SizeError, ValidationError
from pblab.profiles import (
    BernoulliProfile,
    ConditionReport,
    ConditionRow,
    GrowthWindow,
    ProfileFamily,
    ProfileSummary,
    TrendVerdict,
    check_conditions,
    generate,
    load_profile,
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
# ProfileSummary
# ----------------------------------------------------------------------


def test_summary_worked_example():
    """All six scalars for the (0.1, 0.2, 0.3) row, hand-computed."""
    s = BernoulliProfile((0.1, 0.2, 0.3)).summary
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
    s = BernoulliProfile((1e-12,) * 1000).summary
    assert s.alpha_n == pytest.approx(-1e-9, rel=1e-9)


@settings(deadline=None, derandomize=True)
@given(probs_strategy, st.randoms(use_true_random=False))
def test_summary_permutation_invariant(probs, rng):
    """Exactly-rounded sums make the summary identical under reordering."""
    shuffled = list(probs)
    rng.shuffle(shuffled)
    assert BernoulliProfile(tuple(probs)).summary == BernoulliProfile(tuple(shuffled)).summary


def reference_summary(probs) -> dict:
    """The six scalars one Python float at a time: libm log1p, float arithmetic, fsum."""
    ps = [float(p) for p in probs]
    return dict(
        n=len(ps),
        lambda_n=math.fsum(ps),
        m_n=max(ps),
        alpha_n=math.fsum(math.log1p(-p) for p in ps),
        beta_n=math.fsum(p / (1.0 - p) for p in ps),
        sum_sq=math.fsum(p * p for p in ps),
        var_n=math.fsum(p * (1.0 - p) for p in ps),
    )


def summary_bits(summary: ProfileSummary | dict) -> tuple[str, ...]:
    # repr round-trips a float and tells -0.0 from 0.0, so equal reprs are equal bits.
    fields = summary.as_dict() if isinstance(summary, ProfileSummary) else summary
    return tuple(f"{name}={v!r}" for name, v in fields.items())


# Zero, the smallest subnormal, a mid-range subnormal, a tiny entry and the
# largest float below 1.
EDGE_PROBS = (0.0, 5e-324, 2.0**-1060, 1e-12, 1.0 - 2.0**-53)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(st.lists(st.one_of(st.sampled_from(EDGE_PROBS),
                          st.floats(min_value=0.0, max_value=1.0 - 2.0**-53)),
                min_size=1, max_size=60))
def test_summary_matches_the_scalar_reference_bit_for_bit(probs):
    assert summary_bits(BernoulliProfile(probs).summary) == summary_bits(reference_summary(probs))


def test_summary_matches_the_scalar_reference_entry_by_entry_and_over_a_long_row():
    """numpy's SIMD log1p is one ulp off libm on a few percent of entries.

    A long row's fsum can round such a change of one summand away, so each
    entry is also summarized on its own, where alpha_n is its log1p.
    """
    rng = random.Random(20)
    row = [rng.uniform(0.0, 0.3) for _ in range(100_003)] + list(EDGE_PROBS)
    assert summary_bits(BernoulliProfile(row).summary) == summary_bits(reference_summary(row))
    for p in row[:3000] + list(EDGE_PROBS):
        assert summary_bits(BernoulliProfile((p,)).summary) == summary_bits(reference_summary((p,)))


def sum_outcome(sum_fn, values) -> str:
    """repr of the sum (so -0.0 is not 0.0), or the name of the error it raises."""
    try:
        return repr(sum_fn(values))
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__


def fsum_outcome(values) -> str:
    return sum_outcome(math.fsum, values.tolist())


# Short rows: signed zeros and subnormals, and floats whose binary exponents
# run over 2074 binades; or negative floats of one binade, len + 2 a power of
# two, whose partial sums fill the extraction's bound at the finer spacing
# below sigma.
_SUM_ENTRIES = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.0**-1060, -(2.0**-1060))),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1000)),
)
_SHORT_ROWS = st.one_of(
    st.lists(_SUM_ENTRIES, max_size=40),
    st.sampled_from((6, 14, 30)).flatmap(lambda n: st.lists(
        st.floats(-2.0, -1.0, exclude_min=True), min_size=n, max_size=n)),
)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(short=_SHORT_ROWS,
       long=st.sampled_from((0, 40, SUM_BLOCK // 2 - 1, SUM_BLOCK // 2, SUM_BLOCK + 1)),
       seed=st.integers(0, 2**32 - 1),
       cuts=st.lists(st.integers(0, 2 * SUM_BLOCK + 42), max_size=4))
def test_exact_sum_is_fsum_bit_for_bit(short, long, seed, cuts):
    """Whole, and as chunks of uneven lengths, on either side of the block edge.

    The long spread cancels against its negation, so the short row's entries,
    which share blocks with far larger ones, decide the sum.
    """
    rng = np.random.default_rng(seed)
    spread = rng.standard_normal(long) * np.exp2(rng.integers(-1074, 1000, long))
    values = rng.permutation(np.concatenate([np.array(short, dtype=np.float64), spread, -spread]))
    chunks = np.split(values, sorted(c for c in cuts if c <= len(values)))
    expected = fsum_outcome(values)
    assert sum_outcome(exact_sum, values) == expected
    assert sum_outcome(exact_sum, iter(chunks)) == expected
    assert sum_outcome(exact_sum, np.abs(values)) == fsum_outcome(np.abs(values))


_SPECIAL_SUMS = {
    "inf": [math.inf], "-inf": [-math.inf], "nan": [math.nan], "inf,-inf": [math.inf, -math.inf],
    "1,nan,inf": [1.0, math.nan, math.inf], "overflow": [1e308, 1e308],
    "overflow_then_back": [1e308, 1e308, -1e308], "40x2^1010": [2.0**1010] * 40,
    "-0": [-0.0], "-0,0": [-0.0, 0.0], "empty": [],
}


@pytest.mark.parametrize("values", _SPECIAL_SUMS.values(), ids=_SPECIAL_SUMS.keys())
@pytest.mark.parametrize("at", [0, SUM_BLOCK + 5])
def test_exact_sum_gives_fsum_result_or_error_on_special_values(values, at):
    """inf, nan and overflow, alone or after a block of ordinary values."""
    row = np.concatenate([np.linspace(-1.0, 3.0, at), np.array(values, dtype=np.float64)])
    assert sum_outcome(exact_sum, row) == fsum_outcome(row)
    assert sum_outcome(exact_sum, [row[:at], row[at:]]) == fsum_outcome(row)


def test_profile_keeps_one_summary():
    prof = BernoulliProfile((0.1, 0.2, 0.3))
    assert prof.summary is prof.summary
    assert prof.summary == ProfileSummary(prof.probs)


@settings(deadline=None, derandomize=True)
@given(probs_strategy)
def test_summary_scalar_inequalities(probs):
    s = BernoulliProfile(tuple(probs)).summary
    assert s.lambda_n <= s.beta_n + 1e-15
    assert s.m_n**2 <= s.sum_sq + 1e-15


# ----------------------------------------------------------------------
# families
# ----------------------------------------------------------------------


def test_family_constant_total():
    prof = generate(ProfileFamily("constant_total", (2.0,)), 8)
    assert prof.probs.tolist() == [0.25] * 8


def test_family_constant_p():
    prof = generate(ProfileFamily("constant_p", (0.3,)), 5)
    assert prof.probs.tolist() == [0.3] * 5


def test_family_row_power():
    prof = generate(ProfileFamily("row_power", (1.0, 0.75)), 16)
    assert prof.probs.tolist() == [16.0**-0.75] * 16


def test_family_index_power():
    prof = generate(ProfileFamily("index_power", (0.5, 0.5)), 4)
    expected = [0.5 * i**-0.5 for i in (1, 2, 3, 4)]
    assert prof.probs.tolist() == expected


def _pow_or_inf(x, y):
    try:
        return x ** y
    except OverflowError:
        return math.inf


_SPECIAL_EXPONENTS = (0.0, -0.0, math.inf, -math.inf, math.nan, -50.0, -100.0, 1e-300)


@pytest.mark.parametrize("c, a", [(0.5, 0.5), (0.9, 0.3), (0.99, 0.75), (0.3, 1.7), (0.7, 1e-9)]
                         + [(c, a) for c in (0.0, 5e-324, 0.5) for a in _SPECIAL_EXPONENTS])
def test_family_index_power_is_libm_pow_bit_for_bit(c, a):
    """Each entry is the Python expression c * float(i) ** -a (numpy's SIMD power is not).

    An OverflowError reads as inf.  A row outside [0, 1) raises the same
    ValidationError the Python row would name, and no case warns.
    """
    n = 10**5
    fam = ProfileFamily("index_power", (c, a))
    want = [c * _pow_or_inf(float(i), -a) for i in range(1, n + 1)]
    bad = next((i for i, x in enumerate(want) if not 0.0 <= x < 1.0), None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if bad is None:
            assert generate(fam, n).probs.tobytes() == np.array(want).tobytes()
            return
        with pytest.raises(ValidationError) as info:
            generate(fam, n)
    assert str(info.value) == (
        f"family {fam.spec_string()} yields entry {want[bad]!r} at index {bad} "
        f"for n={n}, outside [0, 1)"
    )


def test_family_generation_is_deterministic():
    fam = ProfileFamily("index_power", (0.5, 0.5))
    assert generate(fam, 100).probs.tobytes() == generate(fam, 100).probs.tobytes()


def test_family_out_of_range_at_small_n():
    # constant_total(2) at n=2 would need entries exactly 1.
    with pytest.raises(ValidationError) as info:
        generate(ProfileFamily("constant_total", (2.0,)), 2)
    assert str(info.value) == (
        "family constant_total:2 yields entry 1.0 at index 0 for n=2, outside [0, 1)"
    )
    generate(ProfileFamily("constant_total", (2.0,)), 3)  # fine from n=3 on
    # The message names the first offending index, not the first entry.
    with pytest.raises(ValidationError) as info:
        generate(ProfileFamily("index_power", (0.5, -0.5)), 5)
    assert str(info.value) == (
        "family index_power:0.5,-0.5 yields entry 1.0 at index 3 for n=5, outside [0, 1)"
    )


@pytest.mark.parametrize("family, message", [
    (ProfileFamily("index_power", (float("nan"), 1.0)), "yields entry nan at index 0"),
    (ProfileFamily("index_power", (1e300, -10.0)), "yields entry 1e+300 at index 0"),
    (ProfileFamily("index_power", (0.0, -math.inf)), "yields entry nan at index 1"),
    (ProfileFamily("row_power", (1e300, -20.0)), "yields entry inf at index 0"),
])
def test_family_out_of_range_names_a_python_float_without_warnings(family, message):
    # c * i^-a past the float range is inf and 0 * inf is nan, as in Python,
    # with no numpy warning on stderr.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as info:
            generate(family, 30)
    assert message in str(info.value)
    assert "np." not in str(info.value)


@pytest.mark.parametrize("family, message", [
    (ProfileFamily("index_power", (0.5, -2000.0)), "yields entry inf at index 1 for n=10"),
    # 2.0 is out of range before any power overflows.
    (ProfileFamily("index_power", (2.0, -2000.0)), "yields entry 2.0 at index 0 for n=10"),
    (ProfileFamily("row_power", (0.5, -2000.0)), "yields entry inf at index 0 for n=10"),
])
def test_family_power_past_the_float_range_is_inf_not_an_overflow_error(family, message):
    with pytest.raises(ValidationError) as info:
        generate(family, 10)
    assert message in str(info.value)


def test_family_arity_checked():
    with pytest.raises(ValidationError):
        ProfileFamily("row_power", (1.0,))
    with pytest.raises(ValidationError):
        ProfileFamily("nonsense", (1.0,))


def test_spec_string_round_trip_shape():
    assert ProfileFamily("row_power", (1, 0.75)).spec_string() == "row_power:1,0.75"
    assert ProfileFamily("constant_p", (0.3,)).spec_string() == "constant_p:0.3"


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


def test_load_profile_names_the_true_line_of_a_late_bad_value(tmp_path):
    lines = ["# a header comment\n"]
    for i in range(100_000):
        if i % 250 == 0:
            lines.append(f"# block {i}\n")
        if i % 333 == 0:
            lines.append("\n")
        lines.append(f"{(i % 997) / 1000!r}\n")
    lines[-3] = "1.5\n"
    path = tmp_path / "late.txt"
    path.write_text("".join(lines))
    with pytest.raises(ValidationError) as info:
        load_profile(str(path))
    assert str(info.value) == f"{path}:{len(lines) - 2}: value 1.5 outside [0, 1)"


def test_load_profile_names_the_first_bad_line_of_either_kind(tmp_path):
    # An out-of-range value before an unparsable one is the one named, and
    # the reverse: the file is walked in order.
    path = tmp_path / "bad.txt"
    path.write_text("0.1\n1.5\n0.x\n")
    with pytest.raises(ValidationError, match=r":2: value 1.5 outside"):
        load_profile(str(path))
    path.write_text("0.1\n0.x\n1.5\n")
    with pytest.raises(ValidationError, match=r":2: cannot parse '0.x' as a probability"):
        load_profile(str(path))


def test_load_profile_crlf_and_a_last_line_without_newline(tmp_path):
    path = tmp_path / "crlf.txt"
    path.write_bytes(b"# header\r\n0.25\r\n\r\n 0.5 \r\n1e-3")
    assert load_profile(str(path)).probs.tolist() == [0.25, 0.5, 0.001]
    path.write_bytes(b"0.25\r\n\r\n0.5\r\n2")
    with pytest.raises(ValidationError, match=r":4: value 2 outside"):
        load_profile(str(path))


@pytest.mark.parametrize("sep", ["\x0c", "\x0b", "\x1c", "\x85", "\u2028"])
def test_load_profile_numbers_lines_as_readlines_does(sep, tmp_path):
    # str.splitlines would end a line at sep; a text file's lines do not.
    path = tmp_path / "sep.txt"
    path.write_text(f"0.1\n# comment{sep}0.5\n2.0\n", encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        load_profile(str(path))
    assert str(info.value) == f"{path}:3: value 2.0 outside [0, 1)"
    path.write_text(f"0.1\n0.2{sep}0.3\n", encoding="utf-8")
    with pytest.raises(ValidationError) as info:
        load_profile(str(path))
    assert str(info.value) == f"{path}:2: cannot parse {'0.2' + sep + '0.3'!r} as a probability"


def test_load_profile_out_of_range_messages_print_the_file_text(tmp_path):
    path = tmp_path / "bad.txt"
    for text in ("nan", "-1e-300", "1e400", "1.0000001"):
        path.write_text(f"0.1\n{text}\n")
        with pytest.raises(ValidationError) as info:
            load_profile(str(path))
        assert str(info.value) == f"{path}:2: value {text} outside [0, 1)"


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
    assert GrowthWindow("power", 1, 0.5).value(10000) == pytest.approx(100.0)


def test_window_constant():
    assert GrowthWindow("constant", 3.0).value(12345) == 3.0


def test_window_power_of_lambda_needs_lambda():
    w = GrowthWindow("power_of_lambda", 1, 0.5)
    assert w.value(10, lambda_n=4.0) == pytest.approx(2.0)
    with pytest.raises(HypothesisError):
        w.value(10)
    with pytest.raises(HypothesisError):
        w.value(10, lambda_n=0.0)


def test_window_past_the_float_range_is_inf():
    assert GrowthWindow("power", 1, 400).value(50) == math.inf
    assert GrowthWindow("power_of_lambda", 1, 1e6).value(50, lambda_n=2.0) == math.inf
    assert GrowthWindow("power", 2, 3).value(10) == 2000.0


def test_window_rejects_nonpositive_scale():
    with pytest.raises(ValidationError):
        GrowthWindow("power", 0.0, 1.0)


@pytest.mark.parametrize("c, a, message", [
    (-1.0, 1.0, "window scale c must be > 0"),
    (math.nan, 1.0, "window scale c must be > 0"),
    (math.inf, -math.inf, "window scale c must be finite"),
    (1.0, math.nan, "window exponent a must not be NaN"),
])
def test_window_rejects_what_could_make_phi_nan(c, a, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        GrowthWindow("power", c, a)


@pytest.mark.parametrize("args, message", [
    (("constant", 4.0, 0.5), "window constant takes 1 parameter(s), got 2"),
    (("power", 1.0), "window power takes 2 parameter(s), got 1"),
    (("power_of_lambda", 1.0), "window power_of_lambda takes 2 parameter(s), got 1"),
])
def test_window_takes_exactly_its_kinds_parameters(args, message):
    with pytest.raises(ValidationError) as info:
        GrowthWindow(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("spec, message", [
    ("power:1", "window spec 'power:1' must be power:c,a or power_of_lambda:c,a or constant:c"),
    ("constant:4,0.5", "window spec 'constant:4,0.5' must be power:c,a or power_of_lambda:c,a "
                       "or constant:c"),
    ("foo:1", "window spec 'foo:1' must be power:c,a or power_of_lambda:c,a or constant:c"),
    ("foo:x", "cannot parse window parameters in 'foo:x'"),
    ("constant:0", "window scale c must be > 0"),
])
def test_window_parse_errors(spec, message):
    with pytest.raises(ValidationError) as info:
        GrowthWindow.parse(spec)
    assert str(info.value) == message


def test_window_exponent_may_be_infinite():
    assert GrowthWindow("power", 1.0, math.inf).value(10) == math.inf
    assert GrowthWindow("power", 1.0, -math.inf).value(10) == 0.0


# ----------------------------------------------------------------------
# condition diagnostics
# ----------------------------------------------------------------------


def test_conditions_row_power_grid():
    """sum b^2 for row_power(1, 3/4) is n^{-1/2}: 0.25, 0.0625, 0.015625."""
    report = check_conditions(
        ProfileFamily("row_power", (1, 0.75)), (16, 256, 4096), GrowthWindow("power", 1, 0.5)
    )
    assert [r.sum_sq for r in report.rows] == pytest.approx(
        [0.25, 0.0625, 0.015625], rel=1e-12
    )
    assert report.a4.decreasing
    assert report.a4.below_threshold
    assert report.lambda_trend == "increasing"


def test_conditions_constant_p_not_decreasing():
    report = check_conditions(
        ProfileFamily("constant_p", (0.3,)), (10, 100), GrowthWindow("power", 1, 0.5)
    )
    assert [r.m_n for r in report.rows] == [0.3, 0.3]
    assert not report.a1.decreasing


def test_conditions_constant_total_window_product():
    report = check_conditions(
        ProfileFamily("constant_total", (2.0,)), (10, 100), GrowthWindow("power", 1, 0.5)
    )
    # phi(n) * m_n = sqrt(n) * 2/n = 2/sqrt(n)
    assert [r.phi_m for r in report.rows] == pytest.approx(
        [2 / math.sqrt(10), 2 / math.sqrt(100)], rel=1e-12
    )
    assert report.window_m.decreasing
    assert report.lambda_trend == "stable"
    assert report.lambda_last == pytest.approx(2.0, rel=1e-12)


def test_flat_rows_and_their_sums_hold_no_second_full_row():
    """A flat row is built once, by the profile's own copy, and every sum runs
    over chunk-sized summand arrays: peak memory is one row, not two."""
    n = 200_000
    row_bytes = 8 * n
    family = ProfileFamily("row_power", (1.2, 0.65))
    tracemalloc.start()
    try:
        profile = generate(family, n)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        profile.summary.as_dict()
        summed = tracemalloc.get_traced_memory()[1] - row_bytes
        tracemalloc.reset_peak()
        del profile
        check_conditions(family, [10, n], GrowthWindow("power", 1.0, 0.4))
        conditions = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built < 1.5 * row_bytes
    assert summed < 0.5 * row_bytes
    assert conditions < 1.5 * row_bytes


def test_conditions_grid_validation():
    fam = ProfileFamily("constant_p", (0.3,))
    w = GrowthWindow("power", 1, 0.5)
    with pytest.raises(ValidationError, match="^grid needs at least two points$"):
        check_conditions(fam, (10,), w)
    with pytest.raises(ValidationError, match="^grid must be strictly increasing$"):
        check_conditions(fam, (10, 10), w)
    with pytest.raises(ValidationError, match="^grid must be strictly increasing$"):
        check_conditions(fam, (100, 10), w)


@pytest.mark.parametrize("spec", [("constant_p", (0.2,)), ("index_power", (0.5, 0.5))])
def test_generate_refuses_a_row_numpy_cannot_index(spec):
    """n = 10^20 float64 entries are past np.iinfo(np.intp).max bytes: a SizeError naming n."""
    with pytest.raises(SizeError, match=r"^row size n=100000000000000000000 needs more than "):
        generate(ProfileFamily(*spec), 10**20)


def test_conditions_grid_takes_counts():
    """A numpy int is a count; a float n is refused, not floored."""
    fam = ProfileFamily("constant_p", (0.3,))
    w = GrowthWindow("power", 1, 0.5)
    assert check_conditions(fam, np.array([100, 1000]), w).grid == (100, 1000)
    for grid in ([100.5, 1000.9], [100.0, 1000]):
        with pytest.raises(ValidationError, match=r"^grid point must be an integer, got 100\.[05]$"):
            check_conditions(fam, grid, w)


@pytest.mark.parametrize("threshold", [math.nan, 0.0, -1.0])
def test_conditions_refuse_a_threshold_the_cli_refuses(threshold):
    fam = ProfileFamily("constant_p", (0.3,))
    with pytest.raises(ValidationError, match="^threshold must be > 0$"):
        check_conditions(fam, (10, 20), GrowthWindow("power", 1, 0.5), threshold=threshold)


def test_condition_report_reads_a_stable_mean_from_its_rows():
    """First and last lambda_n within isclose read stable, whatever lies between."""
    rows = (
        ConditionRow(n=10, m_n=0.2, lambda_n=2.0, sum_sq=0.4, phi=4.0),
        ConditionRow(n=20, m_n=0.1, lambda_n=3.0, sum_sq=0.2, phi=8.0),
        ConditionRow(n=40, m_n=0.05, lambda_n=2.0 * (1.0 + 1e-12), sum_sq=0.1, phi=16.0),
    )
    report = ConditionReport(rows, threshold=0.1, window="power:1,1")
    assert report.grid == (10, 20, 40)
    assert report.lambda_trend == "stable"
    assert report.lambda_last == 2.0 * (1.0 + 1e-12)
    assert rows[2].phi_m == 16.0 * 0.05
    assert rows[2].phi_over_lambda == 16.0 / (2.0 * (1.0 + 1e-12))
    assert report.a1 == TrendVerdict(decreasing=True, final=0.05, below_threshold=True)
    assert report.a4 == TrendVerdict(decreasing=True, final=0.1, below_threshold=False)
    assert report.window_m == TrendVerdict(False, 16.0 * 0.05, False)


def test_condition_row_zero_lambda_flags_infinite_ratio():
    rows = (
        ConditionRow(n=2, m_n=0.0, lambda_n=0.0, sum_sq=0.0, phi=1.0),
        ConditionRow(n=4, m_n=0.0, lambda_n=0.0, sum_sq=0.0, phi=2.0),
    )
    report = ConditionReport(rows, 0.1)
    assert [r.phi_over_lambda for r in rows] == [math.inf, math.inf]
    assert not report.window_over_lambda.below_threshold
    assert report.lambda_trend == "stable"
