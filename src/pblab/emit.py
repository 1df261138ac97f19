"""Deterministic table rendering to CSV and JSON, with atomic file writes.

Every report is one `Table`: a header, one column of values per header
name, and the scalar metadata around them.  `render_csv` and `render_json`
are the only formatters, so both formats of a report come from the same
columns.

One function, `_token`, states how each value is written in either format:

- a float at 17 significant digits (`format(x, ".17g")`), which
  round-trips binary doubles exactly and makes repeated runs
  byte-identical; CSV writes the non-finite floats as the bare tokens
  `inf`, `-inf` and `nan`, and JSON as the strings `"inf"`, `"-inf"` and
  `"nan"`;
- an int as `str(x)` and a bool as `true` / `false`;
- None as an empty CSV cell and as JSON's `null`;
- a string as it is in CSV and as `json.dumps` writes it in JSON;
- a numpy scalar as its `item()`; a numpy array is written as its `tolist()`.

One function, `_column`, classifies a column once by the exact types of
its values, and gives both renderers its template field and the values
that fill it.  A column of ints is filled in as `%d` and a column of
floats as `%.17g`, which writes every double as `format(x, ".17g")` does,
the non-finite ones included.  In JSON a float column holding inf or nan
is formatted by `%.17g` in one pass, and only its `inf`, `-inf` and `nan`
tokens are then quoted, so it costs no `_token` call per value.  Every
other column (bools, strings, None, numpy scalars, mixed types) is
written value by value through `_token` and filled in as `%s`; in CSV each
of its cells is then quoted by the csv module itself, so the quoting rule
stays the module's.  Each table's rows are then filled into one template.
JSON is rendered by hand so that the CSV and JSON numbers come from one
float format.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field

import numpy as np

from ._util import libm_exp
from .asymptotics import DistanceReport, EnvelopeReport
from .dependent import RatioReport, SchemeDiagnostics
from .errors import ValidationError
from .exact import Pmf
from .profiles import ConditionReport, ProfileSummary


@dataclass(frozen=True)
class Table:
    """One report: column names, one column per name, and the scalars around them.

    The columns are sequences of one length, the number of rows; a numpy
    array is stored as its `tolist()`.  In JSON the table is an object: the
    `meta` keys, then the rows under "rows" (one object per row, keyed by
    the header), then the `tail` keys.  `json_width` keeps only the leading
    columns in the JSON rows; at 0 the JSON object has no "rows" key at
    all.  Values in `meta` and `tail` may be scalars, lists of scalars,
    dicts of those, or nested tables.
    """

    header: tuple[str, ...]
    columns: tuple
    meta: dict = field(default_factory=dict)
    tail: dict = field(default_factory=dict)
    json_width: int | None = None

    def __post_init__(self) -> None:
        columns = tuple(c.tolist() if isinstance(c, np.ndarray) else c for c in self.columns)
        if len(columns) != len(self.header) or len(set(map(len, columns))) > 1:
            raise ValueError(
                f"a table needs one column per header name, all of one length; got "
                f"{len(self.header)} names and column lengths {list(map(len, columns))}"
            )
        object.__setattr__(self, "columns", columns)


def _token(x, json_form: bool) -> str:
    """x as one JSON token (json_form) or as one CSV cell before the csv module quotes it."""
    if isinstance(x, np.generic):  # np.bool_, np.int64, ...: as the Python scalar
        x = x.item()
    if x is None:
        return "null" if json_form else ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        token = "%.17g" % x
        return json.dumps(token) if json_form and not math.isfinite(x) else token
    if isinstance(x, str):
        return json.dumps(x) if json_form else x
    raise TypeError(f"cannot serialize {type(x).__name__}")


# %.17g writes the non-finite floats as these bare tokens; JSON quotes them.
_JSON_NON_FINITE = {token: json.dumps(token) for token in ("inf", "-inf", "nan")}


def _column(column, json_form: bool, alone: bool) -> tuple[str, list]:
    """The column's template field and the values that fill it, in one format.

    In CSV the csv module's QUOTE_MINIMAL quotes each `%s` cell.  It writes
    a row whose only cell is empty as "", so a table of one column (alone)
    writes an empty cell that way.
    """
    types = set(map(type, column))
    if types == {int}:
        return "%d", column
    if types == {float}:
        if not json_form or all(map(math.isfinite, column)):
            return "%.17g", column
        return "%s", [_JSON_NON_FINITE.get(t, t) for t in map("%.17g".__mod__, column)]
    tokens = [_token(x, json_form) for x in column]
    if json_form:
        return "%s", tokens
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cells = []
    for token in tokens:
        buf.seek(0)
        buf.truncate()
        writer.writerow((token, ""))
        cells.append(buf.getvalue()[:-2])  # drop the empty second cell and the newline
    return "%s", ['""' if alone and not c else c for c in cells]


def _json_rows(table: Table, indent: int) -> str:
    width = table.json_width  # None slices to every column
    if not table.columns or not len(table.columns[0]):
        return "[]"
    item_pad = "  " * (indent + 1)
    fields, values = [], []
    for name, column in zip(table.header[:width], table.columns[:width]):
        spec, column = _column(column, True, False)
        fields.append(f"{item_pad}  {json.dumps(name).replace('%', '%%')}: {spec}")
        values.append(column)
    template = f"{item_pad}{{\n" + ",\n".join(fields) + f"\n{item_pad}}}"
    body = ",\n".join(map(template.__mod__, zip(*values)))
    return f"[\n{body}\n{'  ' * indent}]"


class _Raw(str):
    """JSON text that is already rendered and is written as it is."""


def render_json(obj) -> str:
    """Deterministic pretty JSON of a Table or a dict: fixed float format."""
    out: list[str] = []

    def walk(x, indent: int) -> None:
        if isinstance(x, Table):
            rows = {} if x.json_width == 0 else {"rows": _Raw(_json_rows(x, indent + 1))}
            x = {**x.meta, **rows, **x.tail}
        elif isinstance(x, np.ndarray):
            x = x.tolist()
        pad = "  " * indent
        if isinstance(x, _Raw):
            out.append(x)
        elif isinstance(x, dict):
            out.append("{\n")
            for i, (key, val) in enumerate(x.items()):
                out.append(f"{pad}  {json.dumps(str(key))}: ")
                walk(val, indent + 1)
                out.append(",\n" if i < len(x) - 1 else "\n")
            out.append(pad + "}")
        elif isinstance(x, (list, tuple)):
            out.append("[" + ", ".join(_token(v, True) for v in x) + "]")
        else:
            out.append(_token(x, True))

    walk(obj, 0)
    out.append("\n")
    return "".join(out)


def render_csv(table: Table) -> str:
    """The header line, then one line per row; metadata is not written."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(table.header)
    fields = [_column(c, False, len(table.columns) == 1) for c in table.columns]
    template = ",".join(spec for spec, _ in fields) + "\n"
    buf.write("".join(map(template.__mod__, zip(*(values for _, values in fields)))))
    return buf.getvalue()


def check_file_path(path: str) -> None:
    """Refuse a path naming a directory: an existing one, or any path ending in a separator."""
    if path.endswith(os.sep) or os.path.isdir(path):
        raise ValidationError(f"cannot write to {path!r}: it names a directory")


def atomic_write(path: str, text: str) -> None:
    """Write via a temp file in the target directory plus rename.

    A failed run can never leave a partial file at the destination: either
    the old content survives or the complete new content replaces it.
    """
    check_file_path(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".pblab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _attrs(items, *names) -> list[list]:
    """One column per attribute name, read off each item in turn."""
    return [[getattr(item, name) for item in items] for name in names]


def pmf_table(pmf: Pmf, summary: ProfileSummary) -> Table:
    meta = {"provenance": pmf.provenance, "n": pmf.n, "support_max": pmf.support_max,
            "summary": asdict(summary)}
    columns = (range(pmf.support_max + 1), pmf.probs(), pmf.log_probs)
    return Table(("k", "prob", "log_prob"), columns, meta)


def approx_table(kind: str, summary: ProfileSummary, ks, log_values) -> Table:
    meta = {"kind": kind, "summary": asdict(summary)}
    columns = (ks, libm_exp(log_values), log_values)
    return Table(("k", "approx_prob", "log_approx"), columns, meta)


def envelope_table(r: EnvelopeReport) -> Table:
    header = ("k", "exact", "approx", "ratio", "lower_env", "upper_env", "valid")
    exact, approx = libm_exp(r.log_exact), libm_exp(r.log_approx)
    columns = (r.k_values, exact, approx, r.ratios, r.lower_env, r.upper_env, r.validity_mask)
    summary = {"max_abs_dev": r.max_abs_dev, "violations": r.violations, "window": r.window,
               "k_count": len(r.k_values)}
    meta = {"kind": r.kind, "n": r.n, "window": r.window, "beta_cap": r.beta_cap,
            "margin": r.margin, "summary": summary}
    return Table(header, columns, meta)


def conditions_table(r: ConditionReport, family: str) -> Table:
    header = ("n", "m_n", "lambda_n", "sum_sq", "phi", "phi_m", "phi_over_lambda")
    meta = {"family": family, "window": r.window, "threshold": r.threshold, "grid": r.grid}
    verdicts = {
        "a1_max_entry": asdict(r.a1),
        "a4_sum_sq": asdict(r.a4),
        "window_m": asdict(r.window_m),
        "window_over_lambda": asdict(r.window_over_lambda),
        "lambda_trend": r.lambda_trend,
        "lambda_last": r.lambda_last,
    }
    return Table(header, _attrs(r.rows, *header), meta, {"verdicts": verdicts})


def distance_table(r: DistanceReport) -> Table:
    """One row; its JSON form is that row as a flat object."""
    header = ("n", "lambda_n", "sum_sq", "sup_cdf_distance", "tv_distance", "predicted", "ratio")
    s = r.summary
    values = (s.n, s.lambda_n, s.sum_sq, r.sup_cdf, r.tv, r.predicted, r.ratio)
    return Table(header, [[v] for v in values], dict(zip(header, values)), json_width=0)


def diagnostics_table(d: SchemeDiagnostics) -> Table:
    header = ("k", "b1_max_dev", "b2_ratio", "b3_ratio", "mode", "checked", "zero_product")
    columns = (d.k_values, d.b1_max_dev, d.b2_ratio, d.b3_ratio, d.modes,
               d.checked_counts, d.zero_product)
    meta = {"rare": d.rare, "seed": d.seed, "sample_budget": d.sample_budget}
    tail = {"b1_overall": d.b1_overall, "b2_max_dev": d.b2_max_dev, "b3_max_dev": d.b3_max_dev}
    return Table(header, columns, meta, tail)


def dependent_table(
    report: RatioReport, diagnostics: SchemeDiagnostics, precision: str, model_kind: str, n: int
) -> Table:
    """Ratio columns joined with the diagnostics of the same k (blank where none).

    CSV carries the joined columns; JSON rows keep the first four and nest
    the diagnostics as their own table.
    """
    header = ("k", "dep_prob", "indep_prob", "ratio",
              "b1_max_dev", "b2_ratio", "b3_ratio", "mode", "checked")
    diag = diagnostics_table(diagnostics)
    ks = report.k_values.tolist()
    row_by_k = {k: j for j, k in enumerate(diagnostics.k_values)}
    picks = [row_by_k.get(k) for k in ks]
    joined = [[None if j is None else column[j] for j in picks] for column in diag.columns[1:6]]
    ratios = [None if math.isnan(r) else r for r in report.ratios.tolist()]  # nan: omitted k
    columns = (ks, report.dep_probs, report.indep_probs, ratios, *joined)
    meta = {"model": model_kind, "n": n, "precision": precision}
    tail = {"omitted_k": report.omitted_k, "max_abs_dev": report.max_abs_dev,
            "diagnostics": diag}
    return Table(header, columns, meta, tail, json_width=4)


def sweep_table(meta: dict, summaries, envelopes, distances) -> Table:
    """One row per grid point; the envelope columns only for a --kind sweep.

    envelopes is None without --kind; a point's distance report is None
    where it has none, and its distance cells are then blank.
    """
    header = ("n", "lambda_n", "m_n", "sum_sq")
    columns = _attrs(summaries, *header)
    if envelopes is not None:
        header += ("max_abs_dev", "violations", "k_count")
        columns += _attrs(envelopes, "max_abs_dev", "violations")
        columns.append([len(r.k_values) for r in envelopes])
    header += ("sup_cdf_distance", "tv_distance", "dehpfeif_ratio")
    columns += [[None if d is None else getattr(d, name) for d in distances]
                for name in ("sup_cdf", "tv", "ratio")]
    return Table(header, columns, meta)


def error_obj(exc: BaseException) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}
