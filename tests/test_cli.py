"""End-to-end checks of the command line interface.

Each test drives pblab.cli.main with an argv list, then inspects the exit
code, the JSON or CSV payload, and any files written.  Output contracts
(key names, column order, 17-digit float round-trip, atomic writes) are
pinned here so a regression in the emitters shows up as a test failure
rather than as a silently changed report format.
"""

import collections
import csv
import dataclasses
import functools
import gc
import io
import itertools
import json
import math
import os
import pathlib
import re
import time
import weakref

import pytest

from pblab import cli, profiles
from pblab.asymptotics import ApproxKind
from pblab.cli import main
from pblab.exact import prob_zero_log
from pblab.profiles import (
    FAMILY_KINDS,
    WINDOW_KINDS,
    BernoulliProfile,
    GrowthWindow,
    ProfileFamily,
)

WORKED_PROBS = (0.1, 0.2, 0.3)
WORKED_PMF = (0.504, 0.398, 0.092, 0.006)


def write_profile(tmp_path, probs, name="probs.txt"):
    path = tmp_path / name
    path.write_text("".join(f"{p!r}\n" for p in probs))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------- pmf command

def test_pmf_json_worked_example(tmp_path, capsys):
    path = write_profile(tmp_path, WORKED_PROBS)
    code, out, err = run_cli(["pmf", "--profile", path], capsys)
    assert code == 0
    assert err == ""
    obj = json.loads(out)
    assert obj["provenance"] == "product_tree"
    assert obj["n"] == 3
    assert obj["support_max"] == 3
    assert obj["summary"]["lambda_n"] == pytest.approx(0.6, rel=1e-15)
    assert obj["summary"]["m_n"] == 0.3
    assert [row["k"] for row in obj["rows"]] == [0, 1, 2, 3]
    for row, expected in zip(obj["rows"], WORKED_PMF):
        assert row["prob"] == pytest.approx(expected, rel=1e-12)
        assert row["log_prob"] == pytest.approx(math.log(expected), rel=1e-12)


def test_pmf_csv_worked_example(tmp_path, capsys):
    path = write_profile(tmp_path, WORKED_PROBS)
    code, out, err = run_cli(
        ["pmf", "--profile", path, "--format", "csv"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["k", "prob", "log_prob"]
    assert len(rows) == 4
    for row, expected in zip(rows, WORKED_PMF):
        assert float(row[1]) == pytest.approx(expected, rel=1e-12)


def test_pmf_engines_agree(tmp_path, capsys):
    path = write_profile(tmp_path, (0.05, 0.3, 0.45, 0.2, 0.15))
    outputs = {}
    for engine in ("dp", "tree", "dc", "brute", "ie"):
        code, out, _ = run_cli(
            ["pmf", "--profile", path, "--engine", engine], capsys
        )
        assert code == 0
        outputs[engine] = json.loads(out)
    assert outputs["ie"]["provenance"] == "inclusion_exclusion"
    assert outputs["tree"]["provenance"] == "product_tree"
    reference = [row["prob"] for row in outputs["dp"]["rows"]]
    for engine in ("tree", "dc", "brute", "ie"):
        probs = [row["prob"] for row in outputs[engine]["rows"]]
        assert probs == pytest.approx(reference, abs=1e-12)


@pytest.mark.parametrize("argv", [
    ["pmf", "--family", "constant_p:0.1", "--n", "5"],
    ["approx", "--family", "constant_p:0.1", "--n", "5", "--kind", "lambda"],
    ["dependent", "--model", "{model}"],
])
def test_k_max_above_n_is_one_error_from_flag_or_config(argv, tmp_path, capsys):
    """pmf, approx and dependent share one k_max rule: above n exits 2, never clamps."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"kind": "product", "p": [0.1] * 5}))
    argv = [arg.format(model=model) for arg in argv]
    config = write_config(tmp_path, {"k_max": 99})
    for extra in (["--k-max", "99"], ["--config", config]):
        code, out, err = run_cli(argv + extra, capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "ValidationError", "message": "k_max=99 outside 0..5"}


def test_pmf_k_max_slices_support(tmp_path, capsys):
    path = write_profile(tmp_path, WORKED_PROBS)
    code, out, _ = run_cli(["pmf", "--profile", path, "--k-max", "1"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 3
    assert obj["support_max"] == 1
    assert len(obj["rows"]) == 2
    assert obj["rows"][1]["prob"] == pytest.approx(0.398, rel=1e-12)


def test_pmf_family_needs_n(capsys):
    code, out, err = run_cli(["pmf", "--family", "constant_p:0.3"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValidationError"


# ------------------------------------------------------------- approx command

def test_approx_lambda_anchors_at_zero(tmp_path, capsys):
    path = write_profile(tmp_path, WORKED_PROBS)
    code, out, _ = run_cli(
        ["approx", "--profile", path, "--kind", "lambda"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "lambda_form"
    # The k = 0 value of every sandwich form is the exact zero-class
    # probability by construction; the 17-digit JSON round-trips it exactly.
    p0 = prob_zero_log(BernoulliProfile(WORKED_PROBS))
    assert obj["rows"][0]["log_approx"] == p0
    # k = 1 of the lambda form is p0 * lambda_n.
    assert obj["rows"][1]["approx_prob"] == pytest.approx(0.504 * 0.6, rel=1e-12)


def test_approx_past_float_range_prints_inf(capsys):
    """The beta form's log approximant passes 709.78 from k = 2286 on; its
    probability prints as "inf" there, and the log column stays finite."""
    code, out, err = run_cli(
        ["approx", "--family", "constant_p:0.45", "--n", "4000", "--kind", "beta"], capsys
    )
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert [row["k"] for row in rows if row["approx_prob"] == "inf"] == list(range(2286, 4001))
    assert all(math.isfinite(row["log_approx"]) for row in rows)


def test_approx_requires_kind(tmp_path, capsys):
    path = write_profile(tmp_path, WORKED_PROBS)
    code, _, err = run_cli(["approx", "--profile", path], capsys)
    assert code == 2
    assert "kind" in json.loads(err)["message"]


# ------------------------------------------------------------- verify command

def test_verify_worked_example(tmp_path, capsys):
    path = write_profile(tmp_path, WORKED_PROBS)
    code, out, _ = run_cli(
        ["verify", "--profile", path, "--kind", "lambda", "--phi", "constant:1"],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "lambda_form"
    assert obj["summary"]["violations"] == 0
    assert obj["summary"]["k_count"] == 2
    rows = obj["rows"]
    assert rows[0]["ratio"] == pytest.approx(1.0, rel=1e-12)
    assert rows[1]["ratio"] == pytest.approx(0.398 / 0.3024, rel=1e-12)
    assert rows[1]["lower_env"] == pytest.approx(0.5, rel=1e-12)
    assert rows[1]["upper_env"] == pytest.approx(1.0 + 0.3 / 0.7, rel=1e-12)
    assert all(row["valid"] for row in rows)


def test_verify_flat_row_poisson_envelope_holds(capsys):
    # Flat rows with entries n^-0.75 keep lambda_n = n^0.25 growing while
    # the envelope width k^2 m_n / lambda_n shrinks; inside k^2 <= sqrt(n)
    # every ratio must sit inside the certified bracket.
    code, out, _ = run_cli(
        [
            "verify",
            "--family", "row_power:1,0.75",
            "--n", "10000",
            "--kind", "poisson",
            "--phi", "power:1,0.5",
        ],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["summary"]["k_count"] == 11
    assert obj["summary"]["violations"] == 0
    assert all(row["valid"] for row in obj["rows"])


def test_verify_poisson_form_past_exp_overflow(capsys):
    # sum b^2 = 810: the upper rail e^(sum b^2) (1 + eps2) is not a float.
    code, out, err = run_cli(
        [
            "verify",
            "--family", "constant_p:0.45",
            "--n", "4000",
            "--kind", "poisson",
            "--phi", "constant:4",
        ],
        capsys,
    )
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert [row["upper_env"] for row in rows] == ["inf"] * 3


def test_sweep_poisson_form_past_exp_overflow(capsys):
    code, out, err = run_cli(
        [
            "sweep",
            "--family", "constant_p:0.45",
            "--grid", "1000,4000",
            "--kind", "poisson",
            "--phi", "constant:4",
            "--format", "csv",
        ],
        capsys,
    )
    assert (code, err) == (0, "")
    header, rows = parse_csv(out)
    assert [row[header.index("n")] for row in rows] == ["1000", "4000"]
    assert [row[header.index("violations")] for row in rows] == ["0", "0"]


@pytest.mark.parametrize("argv, n, column, first_inf", [
    pytest.param(["--family", "constant_total:2", "--n", "50", "--kind", "lambda",
                  "--phi", "power:1,400"], 50, None, None, id="power:1,400"),
    pytest.param(["--family", "constant_total:2", "--n", "50", "--kind", "lambda",
                  "--phi", "power_of_lambda:1,1e6"], 50, None, None, id="power_of_lambda:1,1e6"),
    # exact / approx passes e^709.78 from k = 634 on: the ratio column overflows.
    pytest.param(["--family", "constant_p:0.7", "--n", "4000", "--kind", "lambda",
                  "--phi", "power:1,2"], 4000, "ratio", 634, id="ratio_past_float_range"),
    # The beta form's log approximant passes 709.78 from k = 2286 on.
    pytest.param(["--family", "constant_p:0.45", "--n", "4000", "--kind", "beta",
                  "--phi", "power:1,2", "--beta-cap", "0.9"], 4000, "approx", 2286,
                 id="approx_past_float_range"),
])
def test_verify_window_past_float_range_covers_every_k(argv, n, column, first_inf, capsys):
    """A window, a ratio or an approximant past the float range: verify
    still reports every k, and a column entry past it prints as "inf"."""
    code, out, err = run_cli(["verify", *argv], capsys)
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert [row["k"] for row in rows] == list(range(n + 1))
    if column:
        assert [row["k"] for row in rows if row[column] == "inf"] == list(range(first_inf, n + 1))


def test_conditions_window_past_float_range(capsys):
    code, out, err = run_cli(
        ["conditions", "--family", "constant_total:2", "--grid", "4,16", "--phi", "power:1,400"],
        capsys,
    )
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert rows[0]["phi"] == pytest.approx(4.0**400)
    assert rows[1]["phi"] == "inf"


def test_verify_csv_column_order(tmp_path, capsys):
    path = write_profile(tmp_path, WORKED_PROBS)
    code, out, _ = run_cli(
        [
            "verify", "--profile", path, "--kind", "lambda",
            "--phi", "constant:1", "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["k", "exact", "approx", "ratio", "lower_env", "upper_env", "valid"]
    assert rows[0][6] == "true"


# ----------------------------------------------------------- distance command

def test_distance_json_pinned_values(capsys):
    code, out, _ = run_cli(
        ["distance", "--family", "row_power:1,0.3333333333333333", "--n", "1000"],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 1000
    assert obj["sup_cdf_distance"] == pytest.approx(0.013146977928321119, rel=1e-10)
    assert obj["tv_distance"] == pytest.approx(0.025507837698195316, rel=1e-10)
    assert obj["predicted"] == pytest.approx(0.024197072451914339, rel=1e-10)
    assert obj["ratio"] == pytest.approx(1.0541704063119948, rel=1e-10)
    # Internal consistency of the emitted numbers.
    assert obj["ratio"] == pytest.approx(obj["tv_distance"] / obj["predicted"], rel=1e-15)
    assert obj["sup_cdf_distance"] <= obj["tv_distance"]


def test_distance_csv_header(capsys):
    code, out, _ = run_cli(
        [
            "distance", "--family", "constant_total:2", "--n", "50",
            "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "n", "lambda_n", "sum_sq", "sup_cdf_distance", "tv_distance",
        "predicted", "ratio",
    ]
    assert len(rows) == 1
    assert int(rows[0][0]) == 50


def test_distance_byte_identical_reruns(capsys):
    argv = ["distance", "--family", "row_power:1,0.3333333333333333", "--n", "500"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


# --------------------------------------------------------- conditions command

def test_conditions_json_verdicts(capsys):
    code, out, _ = run_cli(
        [
            "conditions",
            "--family", "constant_total:2",
            "--grid", "4,16,64",
            "--phi", "power:1,0.5",
        ],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "constant_total:2"
    assert obj["grid"] == [4, 16, 64]
    assert len(obj["rows"]) == 3
    assert obj["rows"][-1]["sum_sq"] == pytest.approx(0.0625, rel=1e-12)
    verdicts = obj["verdicts"]
    assert verdicts["a4_sum_sq"]["decreasing"] is True
    assert verdicts["a4_sum_sq"]["below_threshold"] is True
    assert verdicts["window_m"]["decreasing"] is True
    assert verdicts["lambda_trend"] == "stable"
    assert verdicts["lambda_last"] == pytest.approx(2.0, rel=1e-12)


def test_conditions_csv_header(capsys):
    code, out, _ = run_cli(
        [
            "conditions",
            "--family", "constant_total:2",
            "--grid", "4,16",
            "--phi", "power:1,0.5",
            "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "m_n", "lambda_n", "sum_sq", "phi", "phi_m", "phi_over_lambda"]
    assert len(rows) == 2


# ---------------------------------------------------------- dependent command

def write_mixture_model(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(
        {"kind": "mixture", "eps": 0.5, "p": [0.2, 0.2], "q": [0.4, 0.4]}
    ))
    return str(path)


def test_dependent_worked_mixture(tmp_path, capsys):
    path = write_mixture_model(tmp_path)
    code, out, _ = run_cli(["dependent", "--model", path], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["model"] == "MixtureModel"
    assert obj["n"] == 2
    assert obj["precision"] == "float"
    dep = [row["dep_prob"] for row in obj["rows"]]
    indep = [row["indep_prob"] for row in obj["rows"]]
    assert dep == pytest.approx([0.5, 0.4, 0.1], rel=1e-12)
    assert indep == pytest.approx([0.49, 0.42, 0.09], rel=1e-12)
    assert obj["rows"][2]["ratio"] == pytest.approx(0.1 / 0.09, rel=1e-12)
    assert obj["omitted_k"] == []
    assert obj["max_abs_dev"] == pytest.approx(1.0 / 9.0, rel=1e-12)
    diag = obj["diagnostics"]
    # No rare set declared: the conditional factors are identically one.
    assert all(row["b2_ratio"] == 1.0 for row in diag["rows"])
    assert all(row["b3_ratio"] == 1.0 for row in diag["rows"])
    assert all(row["mode"] == "exhaustive" for row in diag["rows"])
    assert diag["b1_overall"] == pytest.approx(1.0 / 9.0, rel=1e-12)


def test_dependent_csv_merges_diagnostics(tmp_path, capsys):
    path = write_mixture_model(tmp_path)
    code, out, _ = run_cli(
        ["dependent", "--model", path, "--format", "csv"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "k", "dep_prob", "indep_prob", "ratio",
        "b1_max_dev", "b2_ratio", "b3_ratio", "mode", "checked",
    ]
    # Diagnostics cover k >= 1 only; the k = 0 row leaves those cells empty.
    assert rows[0][7] == ""
    assert rows[2][7] == "exhaustive"


def test_dependent_omits_underflowing_denominators(tmp_path, capsys):
    # log P(2) and log P(3) of the comparison row are finite; their exp is 0.0.
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "product", "p": [1e-300, 1e-300, 1e-300]}))
    code, out, err = run_cli(["dependent", "--model", str(path)], capsys)
    assert code == 0, err
    obj = json.loads(out)
    assert obj["omitted_k"] == [2, 3]
    assert [row["ratio"] is None for row in obj["rows"]] == [False, False, True, True]


def test_dependent_rejects_runaway_sample_budget(tmp_path, capsys):
    # The config check fires before the (missing) model file is read.
    missing = str(tmp_path / "missing.json")
    code, _, err = run_cli(
        ["dependent", "--model", missing, "--sample-budget", "1000001"], capsys
    )
    assert code == 2
    assert json.loads(err)["error"] == "SizeError"


_MIX = {"kind": "mixture", "eps": 0.5, "p": [0.1, 0.2, 0.3], "q": [0.2, 0.3, 0.4]}


@pytest.mark.parametrize("spec, key", [
    ({"kind": "product", "p": ["a"]}, "p"),
    ({"kind": "product", "p": 0.5}, "p"),
    ({"kind": "product", "p": [[0.1, 0.2]]}, "p"),
    ({"kind": "product", "p": [None]}, "p"),
    ({"kind": "mixture", "eps": "x", "p": [0.1], "q": [0.2]}, "eps"),
    ({"kind": "mixture", "eps": None, "p": [0.1], "q": [0.2]}, "eps"),
    # JSON booleans and numeric strings are not numbers, though numpy would read them.
    ({**_MIX, "eps": True}, "eps"),
    ({**_MIX, "p": [False, 0.2, 0.3]}, "p"),
    ({**_MIX, "eps": "0.5"}, "eps"),
    ({**_MIX, "p": [0.1, "0.2", 0.3]}, "p"),
    ({**_MIX, "q": [0.2, 0.3, True]}, "q"),
], ids=["p_string", "p_scalar", "p_2d", "p_null", "eps_string", "eps_null",
        "eps_true", "p_false", "eps_numeric_string", "p_numeric_string", "q_true"])
def test_dependent_rejects_malformed_model_values(tmp_path, capsys, spec, key):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(["dependent", "--model", str(path)], capsys)
    assert code == 2
    assert out == ""
    report = json.loads(err)
    assert report["error"] == "ValidationError"
    assert report["message"].startswith(f"model key {key!r} ")


def test_dependent_rejects_bad_model_file(tmp_path, capsys):
    bad = tmp_path / "model.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["dependent", "--model", str(bad)], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"


@pytest.mark.parametrize("what, argv", [
    ("config", ["pmf", "--config"]),
    ("model", ["dependent", "--model"]),
])
def test_unreadable_json_file_messages(what, argv, tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    with pytest.raises(OSError) as missing_exc:
        open(missing, encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(json.JSONDecodeError) as bad_exc:
        json.loads("{not json")
    for path, message in [
        (missing, f"cannot read {what} file {missing}: {missing_exc.value}"),
        (str(bad), f"{bad}: invalid JSON: {bad_exc.value}"),
    ]:
        code, out, err = run_cli(argv + [path], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "ValidationError", "message": message}


@pytest.mark.parametrize("argv, what, name", [
    (["pmf", "--profile"], "profile", "probs.txt"),
    (["dependent", "--model"], "model", "model.json"),
    (["pmf", "--config"], "config", "config.json"),
], ids=["profile", "model", "config"])
def test_non_utf8_input_file_exits_2_naming_it(argv, what, name, tmp_path, capsys):
    path = tmp_path / name
    path.write_bytes(b"0.1\xff\n")
    code, out, err = run_cli(argv + [str(path)], capsys)
    assert (code, out) == (2, "")
    report = json.loads(err)
    assert report["error"] == "ValidationError"
    assert report["message"].startswith(f"{path}: {what} file is not UTF-8: ")


@pytest.mark.parametrize("argv, what, key, text", [
    (["dependent", "--model"], "model", "p",
     '{"kind": "product", "p": [0.1, 0.2], "p": [0.5, 0.6]}'),
    (["pmf", "--config"], "config", "n", '{"family": "constant_p:0.3", "n": 4, "n": 6}'),
], ids=["model", "config"])
def test_repeated_json_key_exits_2_naming_it(argv, what, key, text, tmp_path, capsys):
    path = tmp_path / f"{what}.json"
    path.write_text(text)
    code, out, err = run_cli(argv + [str(path)], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "ValidationError",
        "message": f"{path}: repeated key {key!r} in {what} file",
    }


# -------------------------------------------------------------- sweep command

def test_sweep_writes_point_files_and_aggregate(tmp_path, capsys):
    out_dir = tmp_path / "new" / "sweep"  # made as the files are written
    code, out, _ = run_cli(
        [
            "sweep",
            "--family", "constant_total:2",
            "--grid", "8,16",
            "--kind", "lambda",
            "--phi", "constant:4",
            "--out", str(out_dir),
        ],
        capsys,
    )
    assert code == 0
    assert out == ""
    names = sorted(os.listdir(out_dir))
    assert names == ["aggregate.json", "point_n16.json", "point_n8.json"]
    agg = json.loads((out_dir / "aggregate.json").read_text())
    assert agg["command"] == "sweep"
    assert agg["family"] == "constant_total:2"
    assert agg["phi"] == "constant:4"
    assert agg["kind"] == "lambda"
    assert agg["grid"] == [8, 16]
    assert agg["seed"] == 0
    rows = agg["rows"]
    assert [row["n"] for row in rows] == [8, 16]
    for row in rows:
        assert row["violations"] == 0
        assert row["lambda_n"] == pytest.approx(2.0, rel=1e-12)
        assert row["dehpfeif_ratio"] is not None
    point = json.loads((out_dir / "point_n8.json").read_text())
    # Point payloads carry the mathematical form tag; the aggregate meta
    # echoes the invocation string.
    assert point["kind"] == "lambda_form"
    assert point["n"] == 8
    # Atomic writes never leave temp files behind.
    assert not [name for name in names if name.endswith(".tmp")]


def test_sweep_distance_mode_to_stdout(capsys):
    code, out, _ = run_cli(
        ["sweep", "--family", "constant_total:2", "--grid", "8,16,32"],
        capsys,
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] is None
    rows = obj["rows"]
    assert len(rows) == 3
    for row in rows:
        assert "max_abs_dev" not in row
        assert row["sup_cdf_distance"] > 0.0
        assert row["tv_distance"] >= row["sup_cdf_distance"]
        assert row["dehpfeif_ratio"] == pytest.approx(
            row["tv_distance"] / (row["sum_sq"] / row["lambda_n"] / math.sqrt(2 * math.pi * math.e)),
            rel=1e-12,
        )


def test_sweep_csv_aggregate(tmp_path, capsys):
    out_dir = tmp_path / "sweepcsv"
    code, _, _ = run_cli(
        [
            "sweep",
            "--family", "constant_total:2",
            "--grid", "8,16",
            "--format", "csv",
            "--out", str(out_dir),
        ],
        capsys,
    )
    assert code == 0
    names = sorted(os.listdir(out_dir))
    assert names == ["aggregate.csv", "point_n16.csv", "point_n8.csv"]
    header, rows = parse_csv((out_dir / "aggregate.csv").read_text())
    assert header[:4] == ["n", "lambda_n", "m_n", "sum_sq"]
    assert "tv_distance" in header
    assert len(rows) == 2


def test_sweep_beta_kind_needs_explicit_cap(capsys):
    code, _, err = run_cli(
        [
            "sweep", "--family", "constant_total:2", "--grid", "8,16",
            "--kind", "beta", "--phi", "constant:4",
        ],
        capsys,
    )
    assert code == 2
    assert "beta-cap" in json.loads(err)["message"]


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("extra, message", [
    (["--kind", "normal"], "sandwich verification applies to "
                           "('lambda_form', 'beta_form', 'poisson_form'), not 'normal_local'"),
    (["--kind", "lambda", "--beta-cap", "0.9"], "beta_cap applies to beta_form only, not lambda_form"),
], ids=["normal", "lambda_beta_cap"])
def test_sandwich_kind_is_checked_before_any_row_is_built(command, extra, message, monkeypatch,
                                                           capsys):
    def no_row(*args, **kwargs):
        raise AssertionError("a row was built")

    monkeypatch.setattr(cli, "generate", no_row)
    size = ["--n", "20000000"] if command == "verify" else ["--grid", "10000000,20000000"]
    argv = [command, "--family", "constant_total:2", *size, "--phi", "constant:4", *extra]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValidationError", "message": message}


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--family", "constant_total:2", "--grid", "8,16", "--kind", "lambda"],
     "sweep with --kind needs --phi"),
    (["sweep", "--family", "constant_total:2", "--grid", "8,16", "--kind", "beta",
      "--phi", "constant:4"],
     "sweep over a beta-form envelope needs an explicit --beta-cap "
     "(a per-n default would change meaning across the grid)"),
    (["pmf", "--family", "constant_total:2"], "a family needs --n to produce a profile"),
    (["approx", "--kind", "lambda"], "approx needs --profile or --family with --n"),
    (["verify", "--n", "8", "--kind", "lambda", "--phi", "constant:4"],
     "verify needs --profile or --family with --n"),
    (["distance"], "distance needs --profile or --family with --n"),
], ids=["sweep_phi", "sweep_beta_cap", "family_n", "approx", "verify", "distance"])
def test_combination_is_refused_by_build_config(argv, message, monkeypatch, capsys):
    """Every combination rule lives in _validate_config, so no handler runs."""
    def no_handler(cfg):
        raise AssertionError("a handler ran")

    monkeypatch.setitem(cli._COMMANDS, argv[0], (no_handler, *cli._COMMANDS[argv[0]][1:]))
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValidationError", "message": message}


@pytest.mark.parametrize("command", ["approx", "verify"])
def test_kind_with_an_empty_parameter_exits_2_as_flag_or_config(command, tmp_path, capsys):
    argv = drop(base_argv(command, tmp_path), "kind")
    by_flag = run_cli(argv + ["--kind", "lambda:"], capsys)
    assert by_flag == run_cli(argv + ["--config", write_config(tmp_path, {"kind": "lambda:"})],
                              capsys)
    code, out, err = by_flag
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "ValidationError", "message": "approximation kind 'lambda:' takes no parameter",
    }


@pytest.mark.parametrize("command, tag, name", [
    ("approx", "poisson_limit:2", "poisson-limit:2"),
    ("verify", "lambda_form", "lambda"),
], ids=["approx", "verify"])
def test_kind_spelled_as_its_report_tag_reads_as_its_cli_name(command, tag, name, tmp_path, capsys):
    """Reports print tags such as poisson_limit:2; --kind reads a tag as its CLI name."""
    argv = drop(base_argv(command, tmp_path), "kind")
    code, out, err = run_cli(argv + ["--kind", tag], capsys)
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(argv + ["--kind", name], capsys)
    assert json.loads(out)["kind"] == ApproxKind.parse(name).spec_string()


# ------------------------------------------------- config files and overrides

def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(
        {"command": "pmf", "family": "constant_p:0.3", "n": 100}
    ))
    code, out, _ = run_cli(["pmf", "--config", str(cfg)], capsys)
    assert code == 0
    assert len(json.loads(out)["rows"]) == 101


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(
        {"command": "pmf", "family": "constant_p:0.3", "n": 100}
    ))
    code, out, _ = run_cli(["pmf", "--config", str(cfg), "--n", "50"], capsys)
    assert code == 0
    assert len(json.loads(out)["rows"]) == 51


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "pmf", "bogus": 1}))
    code, _, err = run_cli(["pmf", "--config", str(cfg)], capsys)
    assert code == 2
    assert "bogus" in json.loads(err)["message"]


def test_config_command_must_match_invocation(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(
        {"command": "verify", "family": "constant_p:0.3", "n": 10}
    ))
    code, _, err = run_cli(["pmf", "--config", str(cfg)], capsys)
    assert code == 2
    assert "verify" in json.loads(err)["message"]


def test_config_for_another_command_is_named_before_its_keys(tmp_path, capsys):
    # kind and phi are not pmf options; the mismatched command is the error.
    config = write_config(tmp_path, {"command": "verify", "kind": "lambda", "phi": "constant:1"})
    code, _, err = run_cli(["pmf", "--config", config, "--family", "constant_p:0.3"], capsys)
    assert code == 2
    assert json.loads(err)["message"] == "config file is for command 'verify', invoked as 'pmf'"


def test_config_rejects_fractional_integer_fields(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(
        {"command": "pmf", "family": "constant_p:0.3", "n": 50.5}
    ))
    code, _, err = run_cli(["pmf", "--config", str(cfg)], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"


# ------------------------------------------------------- exit codes on errors

def test_exit_code_validation_error(tmp_path, capsys):
    path = write_profile(tmp_path, WORKED_PROBS)
    code, _, err = run_cli(
        [
            "verify", "--profile", path, "--kind", "lambda",
            "--phi", "constant:1", "--beta-cap", "1.5",
        ],
        capsys,
    )
    assert code == 2
    assert json.loads(err)["error"] == "ValidationError"


def test_exit_code_hypothesis_error(tmp_path, capsys):
    path = write_profile(tmp_path, (0.0, 0.0, 0.0))
    code, _, err = run_cli(
        ["verify", "--profile", path, "--kind", "lambda", "--phi", "constant:1"],
        capsys,
    )
    assert code == 3
    assert json.loads(err)["error"] == "HypothesisError"


def test_exit_code_conditioning_error(capsys):
    # Float-precision alternating sums for a row of twenty 0.9 entries lose
    # all significant digits; the guard refuses rather than report noise.
    code, _, err = run_cli(
        ["pmf", "--family", "constant_p:0.9", "--n", "20", "--engine", "ie"],
        capsys,
    )
    assert code == 4
    assert json.loads(err)["error"] == "ConditioningError"


def test_exit_code_conditioning_error_past_float_range(tmp_path, capsys):
    # The k-fold sums of 1100 entries of 0.99 overflow: inf - inf in the
    # alternating sum is refused, not reported as a zero probability.
    code, _, err = run_cli(
        ["pmf", "--family", "constant_p:0.99", "--n", "1100", "--engine", "ie", "--k-max", "2"],
        capsys,
    )
    assert code == 4
    assert json.loads(err)["error"] == "ConditioningError"
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "product", "p": [0.99] * 1100}))
    code, out, err = run_cli(["dependent", "--model", str(path), "--k-max", "2"], capsys)
    assert (code, out) == (4, "")
    assert json.loads(err)["error"] == "ConditioningError"


def test_exit_code_missing_profile_file(capsys):
    code, _, err = run_cli(["pmf", "--profile", "/no/such/file.txt"], capsys)
    assert code == 2
    obj = json.loads(err)
    assert set(obj) == {"error", "message"}


def test_argparse_failures_return_two(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_help_returns_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "usage" in out


# ------------------------------------------------------------- output to file

def test_out_writes_file_atomically(tmp_path, capsys):
    profile = write_profile(tmp_path, WORKED_PROBS)
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        ["pmf", "--profile", profile, "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    obj = json.loads(target.read_text())
    assert obj["rows"][0]["prob"] == pytest.approx(0.504, rel=1e-12)
    leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
    assert leftovers == []


def test_out_untouched_on_failure(tmp_path, capsys):
    profile = write_profile(tmp_path, (0.0, 0.0))
    target = tmp_path / "result.json"
    code, _, _ = run_cli(
        [
            "verify", "--profile", profile, "--kind", "lambda",
            "--phi", "constant:1", "--out", str(target),
        ],
        capsys,
    )
    assert code == 3
    assert not target.exists()
    leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
    assert leftovers == []


@pytest.mark.parametrize("existing", [True, False])
def test_out_naming_a_directory_is_refused(existing, tmp_path, capsys):
    # An existing directory, or a path that ends in a separator.
    target = str(tmp_path / "reports") + ("" if existing else os.sep)
    if existing:
        os.mkdir(target)
    code, out, err = run_cli(
        ["pmf", "--family", "constant_p:0.3", "--n", "3", "--out", target], capsys
    )
    assert code == 2
    assert out == ""
    obj = json.loads(err)
    assert obj["error"] == "ValidationError"
    assert obj["message"] == f"cannot write to {target!r}: it names a directory"
    assert os.listdir(tmp_path) == (["reports"] if existing else [])
    if existing:
        assert os.listdir(target) == []


@pytest.mark.parametrize("argv", [
    ["pmf", "--family", "constant_p:0.2", "--n", "99999999999999999999"],
    ["conditions", "--family", "constant_p:0.2", "--grid", "2,99999999999999999999",
     "--phi", "power:1,1"],
], ids=["pmf", "conditions"])
def test_a_row_past_numpys_largest_array_exits_2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "SizeError",
        "message": "row size n=99999999999999999999 needs more than 9223372036854775807 "
                   "bytes of float64",
    }


def test_sweep_out_naming_a_file_is_refused_before_any_point(tmp_path, monkeypatch, capsys):
    """--out is walked up to its first existing ancestor, which must be a directory."""
    def no_point(*args, **kwargs):
        raise AssertionError("a grid point was computed")

    monkeypatch.setattr(cli, "dehpfeif_report", no_point)
    target = tmp_path / "sweep"
    target.write_text("kept\n")
    for out, named in [(target, "it"), (target / "sub", repr(str(target))),
                       (target / "sub" / "deeper", repr(str(target)))]:
        code, out_text, err = run_cli(
            ["sweep", "--family", "constant_total:2", "--grid", "8,16", "--out", str(out)], capsys
        )
        assert (code, out_text) == (2, "")
        assert json.loads(err) == {
            "error": "ValidationError",
            "message": f"cannot write sweep files into {str(out)!r}: {named} names a file",
        }
    assert target.read_text() == "kept\n"


# Each command that writes one file: its arguments and the function its work runs in.
_ONE_FILE_COMMANDS = {
    "pmf": (["--family", "constant_p:0.2", "--n", "8"], "pmf_tree"),
    "approx": (["--family", "constant_p:0.2", "--n", "8", "--kind", "lambda"], "approx_pmf"),
    "verify": (["--family", "constant_p:0.2", "--n", "8", "--kind", "lambda",
                "--phi", "power:1,0.5"], "verify_sandwich"),
    "distance": (["--family", "constant_p:0.2", "--n", "8"], "dehpfeif_report"),
    "dependent": (["--model", "{model}"], "ratio_report"),
    "conditions": (["--family", "constant_p:0.2", "--grid", "8,16", "--phi", "power:1,0.5"],
                   "check_conditions"),
}


@pytest.mark.parametrize("command", _ONE_FILE_COMMANDS)
def test_out_that_cannot_be_written_is_refused_before_any_work(command, tmp_path, monkeypatch,
                                                                capsys):
    """An --out under a file, or naming an existing directory, exits 2 before
    the command's work starts; one under directories not made yet is written."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"kind": "product", "p": [0.1] * 5}))
    args, engine = _ONE_FILE_COMMANDS[command]
    argv = [command, *(arg.format(model=model) for arg in args)]
    afile = tmp_path / "afile"
    afile.write_text("kept\n")

    def no_work(*args, **kwargs):
        raise AssertionError(f"{engine} ran")

    under_file = f"{str(afile)!r} names a file"
    with monkeypatch.context() as patch:
        patch.setattr(cli, engine, no_work)
        for out, why in [(afile / "x.json", under_file), (afile / "sub" / "x.json", under_file),
                         (tmp_path, "it names a directory")]:
            code, out_text, err = run_cli(argv + ["--out", str(out)], capsys)
            assert (code, out_text) == (2, "")
            assert json.loads(err) == {"error": "ValidationError",
                                       "message": f"cannot write to {str(out)!r}: {why}"}
    assert afile.read_text() == "kept\n"
    code, expected, _ = run_cli(argv, capsys)
    assert code == 0
    target = tmp_path / "new" / "deeper" / "report.json"
    assert run_cli(argv + ["--out", str(target)], capsys) == (0, "", "")
    assert target.read_text() == expected


# 10^15 and 2^60 - 1 entries of float64 exceed any 64-bit host's address
# space, so the allocation fails at once; 2^60 - 1 is also a length that
# np.arange, which counts through a float, rounds up past numpy's limit.
@pytest.mark.parametrize("n", [10**15, 2**60 - 1], ids=["1e15", "2^60-1"])
@pytest.mark.parametrize("family", ["constant_p:0.2", "index_power:0.5,0.5"])
@pytest.mark.parametrize("command", ["pmf", "conditions"])
def test_a_row_no_host_can_hold_exits_2_at_once(command, family, n, capsys):
    if command == "pmf":
        argv = ["pmf", "--family", family, "--n", str(n), "--k-max", "2"]
    else:
        argv = ["conditions", "--family", family, "--grid", f"2,{n}", "--phi", "power:1,1"]
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (2, "")
    obj = json.loads(err)
    assert obj["error"] == "SizeError"
    assert obj["message"].startswith(f"row size n={n} cannot be allocated: ")


# ------------------------------------------------------- the option tables

# Per command: the options it reads besides --out and --format, and the
# ones it requires.
READS = {
    "pmf": {"profile", "family", "n", "k_max", "engine", "precision"},
    "approx": {"profile", "family", "n", "kind", "k_max"},
    "verify": {"profile", "family", "n", "kind", "phi", "beta_cap", "margin"},
    "sweep": {"family", "grid", "kind", "phi", "beta_cap", "margin"},
    "distance": {"profile", "family", "n"},
    "dependent": {"model", "profile", "k_max", "precision", "seed", "sample_budget"},
    "conditions": {"family", "grid", "phi", "threshold"},
}
REQUIRES = {
    "approx": ("kind",),
    "verify": ("kind", "phi"),
    "sweep": ("family", "grid"),
    "dependent": ("model",),
    "conditions": ("family", "grid", "phi"),
}
ALL_OPTIONS = {"out", "format"}.union(*READS.values())
# A well-formed value for every option, as a flag string.
SAMPLE = {
    "profile": "p.txt", "family": "constant_total:2", "n": "8", "grid": "4,8",
    "phi": "constant:4", "kind": "lambda", "beta_cap": "0.5", "k_max": "2",
    "engine": "dc", "precision": "rational", "seed": "3", "out": "o.json",
    "format": "csv", "margin": "0.1", "threshold": "0.2", "sample_budget": "5",
    "model": "m.json",
}


def flag(option):
    return "--" + option.replace("_", "-")


def base_argv(command, tmp_path):
    """A small valid invocation of each command."""
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"kind": "product", "p": [0.1, 0.2, 0.3]}))
    family = ["--family", "constant_total:2"]
    return {
        "pmf": ["pmf", *family, "--n", "8"],
        "approx": ["approx", *family, "--n", "8", "--kind", "lambda"],
        "verify": ["verify", *family, "--n", "8", "--kind", "lambda", "--phi", "constant:4"],
        "sweep": ["sweep", *family, "--grid", "4,8"],
        "distance": ["distance", *family, "--n", "8"],
        "dependent": ["dependent", "--model", str(model)],
        "conditions": ["conditions", *family, "--grid", "4,8", "--phi", "constant:4"],
    }[command]


def drop(argv, option):
    """argv without the flag of option and its value, if it has them."""
    if flag(option) not in argv:
        return argv
    i = argv.index(flag(option))
    return argv[:i] + argv[i + 2:]


def write_config(tmp_path, obj):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("command,option", [
    (command, option) for command in sorted(READS)
    for option in sorted(ALL_OPTIONS - READS[command] - {"out", "format"})
])
def test_option_the_command_does_not_read_exits_2(command, option, tmp_path, capsys):
    argv = base_argv(command, tmp_path)
    assert run_cli(argv, capsys)[0] == 0
    code, out, err = run_cli(argv + [flag(option), SAMPLE[option]], capsys)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag(option)}" in err
    config = write_config(tmp_path, {option: SAMPLE[option]})
    code, out, err = run_cli(argv + ["--config", config], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "ValidationError",
        "message": f"unknown config keys [{option!r}] for {command}",
    }


def test_option_tables_match_the_config_fields():
    config_fields = {f.name for f in dataclasses.fields(cli.ExperimentConfig)}
    assert set(cli._OPTIONS) == config_fields - {"command"} == ALL_OPTIONS
    assert set(cli._COMMANDS) == set(READS)
    read_by_some_command = {"out", "format"}
    for command, (_, _, reads, requires) in cli._COMMANDS.items():
        assert set(reads) == READS[command]
        assert tuple(requires) == REQUIRES.get(command, ())
        read_by_some_command.update(reads)
    assert read_by_some_command == set(cli._OPTIONS)


@pytest.mark.parametrize("command", sorted(READS))
def test_help_lists_exactly_the_options_the_command_reads(command, capsys):
    assert main([command, "--help"]) == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"--help", "--config", "--out", "--format", *map(flag, READS[command])}


def test_readme_spec_examples_parse_through_their_owning_type():
    """Every example in README's spec-string list parses through the type that
    owns its format: families, growth windows and approximation kinds."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text[text.index("\n- families:"):text.index("\nExamples:")]
    items = re.split(r"\n- ", section)[1:]
    owners = {"families": ProfileFamily, "growth windows": GrowthWindow,
              "approximation kinds": ApproxKind}
    assert [item.partition(":")[0] for item in items] == list(owners)
    for item in items:
        name, _, body = item.partition(":")
        examples = [e.replace("RATE", "2") for e in re.findall(r"`([^`]*)`", body)
                    if e != "--profile"]
        assert examples
        for example in examples:
            owners[name].parse(example)
    assert "ProfileFamily.parse" in text
    assert "GrowthWindow.parse" in text
    assert "ApproxKind.parse" in text


def test_readme_command_table_matches_the_option_table():
    """README's `| command | reads (required in bold) |` table lists each
    command's read options in _COMMANDS order, the required ones in bold."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("| command | reads (required in bold) |") + 2
    rows = {}
    for line in itertools.takewhile(lambda text: text.startswith("|"), lines[start:]):
        command, reads = re.fullmatch(r"\| `([a-z]+)` \| (.*) \|", line).groups()
        rows[command] = reads.split(", ")
    assert rows == {
        command: [f"**`{flag(name)}`**" if name in requires else f"`{flag(name)}`"
                  for name in reads]
        for command, (_, _, reads, requires) in cli._COMMANDS.items()
    }


@pytest.mark.parametrize("command,option,value", [
    ("pmf", "engine", "nope"),
    ("pmf", "n", "abc"),
    ("pmf", "k_max", "2.5"),
    ("dependent", "precision", "exact"),
    ("dependent", "seed", "1.5"),
    ("sweep", "grid", "4,x"),
    ("verify", "margin", "wide"),
    ("distance", "format", "xml"),
    ("conditions", "threshold", ""),
    ("pmf", "n", True),
    ("verify", "margin", True),
])
def test_bad_value_gives_one_error_as_flag_or_config(command, option, value, tmp_path, capsys):
    argv = drop(base_argv(command, tmp_path), option)
    by_file = run_cli(argv + ["--config", write_config(tmp_path, {option: value})], capsys)
    if isinstance(value, str):  # a JSON boolean has no flag spelling
        assert run_cli(argv + [flag(option), value], capsys) == by_file
    code, out, err = by_file
    assert (code, out) == (2, "")
    obj = json.loads(err)
    assert obj["error"] == "ValidationError"
    assert obj["message"].startswith(f"{option} has invalid value {value!r}; expected ")


@pytest.mark.parametrize("command,option", [
    (command, option) for command, options in REQUIRES.items() for option in options
])
def test_missing_required_option_is_named(command, option, tmp_path, capsys):
    code, out, err = run_cli(drop(base_argv(command, tmp_path), option), capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "ValidationError", "message": f"{command} needs {flag(option)}",
    }


_SWEEP = ["sweep", "--family", "constant_total:2", "--grid", "100,200"]


@pytest.mark.parametrize("base, extra, message", [
    (["pmf", "--profile", "{p}"], {"n": 7}, "--n applies to --family only, not to --profile"),
    (["verify", "--profile", "{p}", "--kind", "lambda", "--phi", "constant:4"], {"n": 99},
     "--n applies to --family only, not to --profile"),
    (["pmf", "--profile", "{p}"], {"precision": "rational"},
     "--precision rational applies to --engine ie only, not tree"),
    (_SWEEP, {"phi": "power:1,0.5", "beta_cap": 0.3}, "sweep reads --phi only with --kind"),
    (_SWEEP, {"beta_cap": 0.3}, "sweep reads --beta-cap only with --kind"),
], ids=["pmf_n", "verify_n", "pmf_precision", "sweep_phi", "sweep_beta_cap"])
def test_option_the_combination_does_not_read_exits_2(base, extra, message, tmp_path, capsys):
    """A command reads these options only with others; elsewhere they exit 2, not vanish."""
    profile = tmp_path / "p.txt"
    profile.write_text("0.1\n0.2\n0.3\n")
    base = [str(profile) if a == "{p}" else a for a in base]
    assert run_cli(base, capsys)[0] == 0
    flags = [x for option, value in extra.items() for x in (flag(option), str(value))]
    by_flag = run_cli(base + flags, capsys)
    assert by_flag == run_cli(base + ["--config", write_config(tmp_path, extra)], capsys)
    code, out, err = by_flag
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValidationError", "message": message}


def test_null_config_value_means_not_given(tmp_path, capsys):
    argv = base_argv("pmf", tmp_path)
    plain = run_cli(argv, capsys)
    config = write_config(tmp_path, {"engine": None, "n": None, "format": None})
    assert run_cli(argv + ["--config", config], capsys) == plain


@pytest.mark.parametrize("spec,message", [
    ("foo:bar", "unknown family kind 'foo'"),
    ("foo:1", "unknown family kind 'foo'"),
    ("foo", "unknown family kind 'foo'"),
    ("constant_p:bar", "cannot parse family parameters in 'constant_p:bar'"),
    ("constant_p", "family spec 'constant_p' needs parameters after ':'"),
    ("constant_p:", "family spec 'constant_p:' needs parameters after ':'"),
    ("row_power:1", "family row_power takes 2 parameter(s), got 1"),
])
def test_family_kind_is_checked_before_its_parameters(spec, message, capsys):
    code, out, err = run_cli(["pmf", "--family", spec, "--n", "3"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValidationError", "message": message}


def test_sweep_parses_kind_and_window_once_per_run(monkeypatch, capsys):
    calls = []
    for owner in (ApproxKind, GrowthWindow):
        real = owner.parse
        monkeypatch.setattr(owner, "parse",
                            lambda spec, real=real: calls.append(spec) or real(spec))

    def count(grid):
        calls.clear()
        argv = ["sweep", "--family", "constant_total:2", "--grid", grid,
                "--kind", "lambda", "--phi", "constant:4"]
        assert run_cli(argv, capsys)[0] == 0
        return len(calls)

    assert count("8,16") == count("8,16,32,64")


_SCALARS = ("lambda_n", "m_n", "alpha_n", "beta_n", "sum_sq", "var_n")
_THREE = {"lambda_n", "m_n", "sum_sq"}  # the scalars a sweep or conditions row stores
_SWEEP = ["sweep", "--family", "constant_total:2", "--grid", "8,16,32"]


@pytest.mark.parametrize("argv,ns,reads", [
    (["distance", "--family", "constant_total:2", "--n", "16"], [16], {"lambda_n", "sum_sq"}),
    (_SWEEP, [8, 16, 32], _THREE),
    (_SWEEP + ["--kind", "lambda", "--phi", "constant:4"], [8, 16, 32], _THREE),
    (["verify", "--family", "constant_total:2", "--n", "16", "--kind", "poisson",
      "--phi", "constant:4"], [16], _THREE),
    (["conditions", "--family", "constant_total:2", "--grid", "8,16", "--phi", "constant:4"],
     [8, 16], _THREE),
    (["pmf", "--family", "constant_total:2", "--n", "16"], [16], set(_SCALARS)),
], ids=["distance", "sweep", "sweep_kind", "verify_poisson", "conditions", "pmf"])
def test_each_command_computes_each_scalar_it_reads_once(argv, ns, reads, monkeypatch, capsys):
    """Every summary scalar computed, per profile: only those the command's
    reports read, and each of them once."""
    computed = collections.Counter()
    for name in _SCALARS:
        def record(summary, name=name, real=getattr(profiles.ProfileSummary, name).func):
            computed[summary.n, name] += 1
            return real(summary)

        prop = functools.cached_property(record)
        prop.__set_name__(profiles.ProfileSummary, name)
        monkeypatch.setattr(profiles.ProfileSummary, name, prop)
    assert run_cli(argv, capsys)[0] == 0
    assert computed == collections.Counter({(n, name): 1 for n in ns for name in reads})


@pytest.mark.parametrize("kind", [[], ["--kind", "lambda", "--phi", "constant:4"]])
def test_no_profile_or_summary_outlives_its_grid_point(kind, monkeypatch, capsys):
    """With the cycle collector off, each grid point's profile and summary are
    freed before the next point's row is generated, and the last before the sweep ends."""
    refs = []

    def tracked(family, n):
        assert [r() for r in refs] == [None] * len(refs)
        profile = profiles.generate(family, n)
        refs.extend((weakref.ref(profile), weakref.ref(profile.summary)))
        return profile

    monkeypatch.setattr(cli, "generate", tracked)
    gc.disable()
    try:
        assert run_cli(_SWEEP + kind, capsys)[0] == 0
    finally:
        gc.enable()
    assert [r() for r in refs] == [None] * 6


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("argv", [["distance", "--family", "constant_total:2", "--n", "8"], _SWEEP],
                         ids=["distance", "sweep"])
def test_empty_out_is_refused_before_any_work(argv, source, tmp_path, monkeypatch, capsys):
    """An empty --out names no file: without the check, distance printed its
    table to stdout and sweep wrote no point files, both with exit 0."""
    def no_work(*args, **kwargs):
        raise AssertionError("the command's work ran")

    for name in ("generate", "dehpfeif_report"):
        monkeypatch.setattr(cli, name, no_work)
    out = ["--out", ""] if source == "flag" else ["--config", write_config(tmp_path, {"out": ""})]
    code, out_text, err = run_cli(argv + out, capsys)
    assert (code, out_text) == (2, "")
    assert json.loads(err) == {"error": "ValidationError", "message": "--out must not be empty"}


@pytest.mark.parametrize("grid, message", [
    ("8", "grid needs at least two points"),
    ("16,8", "grid must be strictly increasing"),
    ("8,8", "grid must be strictly increasing"),
])
@pytest.mark.parametrize("command", ["sweep", "conditions"])
def test_grid_rule_messages(command, grid, message, capsys):
    argv = [command, "--family", "constant_total:2", "--grid", grid, "--phi", "constant:4"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValidationError", "message": message}


# ------------------------------------------- engines, families, windows, NaN

_SPEC_VALUES = (0.5, 2.0, 1.23456789, 0.654321987, 1.000001234, 0.333333333, 2.123456789,
                0.1, 1e-300, 1.5e20, 1234567.0)


@pytest.mark.parametrize("x", _SPEC_VALUES)
def test_spec_strings_parse_back_to_their_parameters(x):
    """A spec string keeps %g where that reads back exactly, and every digit
    otherwise, so parse inverts spec_string for every family and window kind."""
    for owner, kinds in ((ProfileFamily, FAMILY_KINDS), (GrowthWindow, WINDOW_KINDS)):
        for kind, arity in kinds.items():
            parsed = owner.parse(f"{kind}:" + ",".join([repr(x)] * arity))
            assert owner.parse(parsed.spec_string()) == parsed
    family = ProfileFamily.parse(f"row_power:{x!r},{x!r}")
    kind = ApproxKind.parse(f"poisson-limit:{x!r}")
    assert float(kind.spec_string().partition(":")[2]) == kind.lam == x
    if float(format(x, "g")) == x:
        assert family.spec_string() == f"row_power:{x:g},{x:g}"


def test_reports_print_spec_strings_with_every_digit(capsys):
    argv = ["conditions", "--family", "row_power:1.23456789,0.654321987", "--grid", "10,20",
            "--phi", "power:1.000001234,0.333333333"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "row_power:1.23456789,0.654321987"
    assert obj["window"] == "power:1.000001234,0.333333333"
    argv = ["approx", "--family", "constant_total:2", "--n", "10",
            "--kind", "poisson-limit:2.123456789"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["kind"] == "poisson_limit:2.123456789"

def test_pmf_calls_the_engine_bound_in_cli_at_call_time(monkeypatch, capsys):
    """pmf looks its engine up per call, so a rebound cli.pmf_dc is the one run."""
    calls = []
    real = cli.pmf_dc
    monkeypatch.setattr(
        cli, "pmf_dc", lambda profile, k_max=None: calls.append(k_max) or real(profile, k_max)
    )
    argv = ["pmf", "--family", "constant_total:2", "--n", "8", "--engine", "dc", "--k-max", "3"]
    code, out, _ = run_cli(argv, capsys)
    assert (code, calls) == (0, [3])
    assert json.loads(out)["provenance"] == "divide_conquer"


@pytest.mark.parametrize("spec, entry, index", [
    ("index_power:0.5,-2000", "inf", 1),
    ("index_power:2,-2000", "2.0", 0),
    ("row_power:0.5,-2000", "inf", 0),
])
def test_family_power_past_the_float_range_exits_2(spec, entry, index, capsys):
    code, out, err = run_cli(["distance", "--family", spec, "--n", "10"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "ValidationError",
        "message": f"family {spec} yields entry {entry} at index {index} for n=10, outside [0, 1)",
    }


@pytest.mark.parametrize("command", ["verify", "conditions"])
@pytest.mark.parametrize("phi, message", [
    ("power:1,nan", "window exponent a must not be NaN"),
    ("power:inf,-inf", "window scale c must be finite"),
    ("power:nan,1", "window scale c must be > 0"),
    ("power:0,1", "window scale c must be > 0"),
])
def test_window_that_could_give_a_nan_phi_exits_2(command, phi, message, tmp_path, capsys):
    argv = drop(base_argv(command, tmp_path), "phi") + ["--phi", phi]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValidationError", "message": message}


@pytest.mark.parametrize("command, option, message", [
    ("verify", "margin", "margin must be >= 0"),
    ("conditions", "threshold", "threshold must be > 0"),
])
def test_nan_margin_or_threshold_exits_2_as_flag_or_config(command, option, message, tmp_path,
                                                          capsys):
    argv = base_argv(command, tmp_path)
    by_flag = run_cli(argv + [flag(option), "nan"], capsys)
    # Python's json reads a bare NaN.
    assert by_flag == run_cli(argv + ["--config", write_config(tmp_path, {option: math.nan})],
                              capsys)
    code, out, err = by_flag
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValidationError", "message": message}
