"""Deterministic table rendering to CSV and JSON, with atomic file writes.

Every report is one `Table`: a header, one column of values per header
name, and the scalar metadata around them.  `render_csv` and `render_json`
are the only formatters, so both formats of a report come from the same
columns.

The contract, for both formats:

- a float is written at 17 significant digits (`format(x, ".17g")`), which
  round-trips binary doubles exactly and makes repeated runs
  byte-identical;
- an int is written as `str(x)` and a bool as `true` / `false`;
- CSV writes the non-finite floats as the bare tokens `inf`, `-inf` and
  `nan`, `None` as an empty cell, and quotes cells as the csv module does;
- JSON writes the non-finite floats as the strings `"inf"`, `"-inf"` and
  `"nan"`, `None` as `null`, and strings as `json.dumps` does;
- numpy arrays and scalars are written as the Python values their
  `tolist()` / `item()` give.

Both renderers work a column at a time, and classify each column once by
the exact types of its values.  A column of ints is filled in as `%d` and
a column of floats as `%.17g`, which writes every double as
`format(x, ".17g")` does, the non-finite ones included.  In JSON a float
column holding inf or nan is formatted by `%.17g` in one pass, and only
its `inf`, `-inf` and `nan` tokens are then quoted; it is filled in as
`%s`.  Every other column (bools, strings, None, mixed types) is rendered
once, value by value, and filled in as `%s`.  Each table's rows are then
filled into one template.  JSON is rendered by hand so that the CSV and
JSON numbers come from one float format.
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


def _scalar_token(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        token = "%.17g" % x
        return token if math.isfinite(x) else json.dumps(token)  # "inf" etc. quoted
    if isinstance(x, str):
        return json.dumps(x)
    if isinstance(x, np.generic):  # np.bool_, np.int64, ...: as the Python scalar
        return _scalar_token(x.item())
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.17g" % x
    if isinstance(x, np.generic):
        return _cell(x.item())
    return str(x)


def _column_type(column) -> type | None:
    """int or float when every value is exactly of that type, else None."""
    types = set(map(type, column))
    return types.pop() if len(types) == 1 and types <= {int, float} else None


# %.17g writes the non-finite floats as these bare tokens; JSON quotes them.
_JSON_NON_FINITE = {token: json.dumps(token) for token in ("inf", "-inf", "nan")}


def _json_rows(table: Table, indent: int) -> str:
    width = table.json_width  # None slices to every column
    if not table.columns or not len(table.columns[0]):
        return "[]"
    item_pad = "  " * (indent + 1)
    fields, values = [], []
    for name, column in zip(table.header[:width], table.columns[:width]):
        kind = _column_type(column)
        if kind is int:
            spec = "%d"
        elif kind is float:
            spec = "%.17g"
            if not all(map(math.isfinite, column)):
                spec, column = "%s", [_JSON_NON_FINITE.get(t, t) for t in map(spec.__mod__, column)]
        else:
            spec, column = "%s", list(map(_scalar_token, column))
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
            out.append("[" + ", ".join(_scalar_token(v) for v in x) + "]")
        else:
            out.append(_scalar_token(x))

    walk(obj, 0)
    out.append("\n")
    return "".join(out)


def _csv_cells(column, alone: bool) -> list[str]:
    """A column of mixed or non-numeric values as csv's QUOTE_MINIMAL writes each cell.

    Each value is rendered by _cell and quoted by the csv module itself, so
    the quoting rule stays the module's.  The module writes a row whose only
    cell is empty as "", so a table of one column (alone) writes an empty
    cell that way.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cells = []
    for x in column:
        buf.seek(0)
        buf.truncate()
        writer.writerow((_cell(x), ""))
        cells.append(buf.getvalue()[:-2])  # drop the empty second cell and the newline
    return ['""' if alone and not c else c for c in cells]


def render_csv(table: Table) -> str:
    """The header line, then one line per row; metadata is not written."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(table.header)
    specs, values = [], []
    for column in table.columns:
        kind = _column_type(column)
        if kind is int:
            spec = "%d"
        elif kind is float:
            spec = "%.17g"
        else:
            spec, column = "%s", _csv_cells(column, len(table.columns) == 1)
        specs.append(spec)
        values.append(column)
    buf.write("".join(map((",".join(specs) + "\n").__mod__, zip(*values))))
    return buf.getvalue()


def atomic_write(path: str, text: str) -> None:
    """Write via a temp file in the target directory plus rename.

    A failed run can never leave a partial file at the destination: either
    the old content survives or the complete new content replaces it.  A
    path naming a directory (an existing one, or any path ending in a
    separator) is refused before any temp file is made.
    """
    if path.endswith(os.sep) or os.path.isdir(path):
        raise ValidationError(f"cannot write to {path!r}: it names a directory")
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
    log_probs = pmf.log_probs
    meta = {"provenance": pmf.provenance, "n": pmf.n, "support_max": pmf.support_max,
            "summary": asdict(summary)}
    probs = libm_exp(log_probs)  # not np.exp, which may differ in the last bit
    return Table(("k", "prob", "log_prob"), (range(len(log_probs)), probs, log_probs), meta)


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
