"""Deterministic table rendering to CSV and JSON, with atomic file writes.

Every report is one `Table`: a header, rows holding one value per column,
and the scalar metadata around them.  `render_csv` and `render_json` are
the only formatters, so both formats of a report come from the same rows.

The contract, for both formats:

- a float is written at 17 significant digits (`format(x, ".17g")`), which
  round-trips binary doubles exactly and makes repeated runs
  byte-identical;
- an int is written as `str(x)` and a bool as `true` / `false`;
- CSV writes the non-finite floats as the bare tokens `inf`, `-inf` and
  `nan`, `None` as an empty cell, and quotes cells as the csv module does;
- JSON writes the non-finite floats as the strings `"inf"`, `"-inf"` and
  `"nan"`, `None` as `null`, and strings as `json.dumps` does.

JSON is rendered by hand so that the CSV and JSON numbers come from one
float formatter; each table's rows are filled into one row template.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field

from .asymptotics import DistanceReport, EnvelopeReport
from .dependent import RatioReport, SchemeDiagnostics
from .exact import Pmf
from .profiles import ConditionReport, ProfileSummary


@dataclass(frozen=True)
class Table:
    """One report: column names, rows, and the scalars around them.

    In JSON the table is an object: the `meta` keys, then the rows under
    "rows" (one object per row, keyed by the header), then the `tail` keys.
    `json_width` keeps only the leading columns in the JSON rows; at 0 the
    JSON object has no "rows" key at all.  Values in `meta` and `tail` may
    be scalars, lists of scalars, dicts of those, or nested tables.
    """

    header: tuple[str, ...]
    rows: list
    meta: dict = field(default_factory=dict)
    tail: dict = field(default_factory=dict)
    json_width: int | None = None


def fmt_float(x: float) -> str:
    """17-significant-digit rendering; non-finite values by name."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _scalar_token(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if math.isfinite(x):
            return fmt_float(x)
        return json.dumps(fmt_float(x))  # "inf" etc. as quoted strings
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def _json_rows(table: Table, indent: int) -> str:
    if not table.rows:
        return "[]"
    width = table.json_width  # None slices to the full row
    item_pad = "  " * (indent + 1)
    keys = ",\n".join(f"{item_pad}  {json.dumps(col)}: %s" for col in table.header[:width])
    template = f"{item_pad}{{\n{keys}\n{item_pad}}}"
    body = ",\n".join(
        template % tuple(map(_scalar_token, row[:width])) for row in table.rows
    )
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


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return fmt_float(x)
    return str(x)


def render_csv(table: Table) -> str:
    """The header line, then one line per row; metadata is not written."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.header)
    writer.writerows([_cell(c) for c in row] for row in table.rows)
    return buf.getvalue()


def atomic_write(path: str, text: str) -> None:
    """Write via a temp file in the target directory plus rename.

    A failed run can never leave a partial file at the destination: either
    the old content survives or the complete new content replaces it.
    """
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


def pmf_table(pmf: Pmf, summary: ProfileSummary) -> Table:
    rows = [(k, math.exp(lp), lp) for k, lp in enumerate(pmf.log_probs.tolist())]
    meta = {"provenance": pmf.provenance, "n": pmf.n, "support_max": pmf.support_max,
            "summary": asdict(summary)}
    return Table(("k", "prob", "log_prob"), rows, meta)


def approx_table(kind: str, summary: ProfileSummary, ks, log_values) -> Table:
    rows = [(k, math.exp(la), la) for k, la in zip(ks, log_values)]
    meta = {"kind": kind, "summary": asdict(summary)}
    return Table(("k", "approx_prob", "log_approx"), rows, meta)


def envelope_table(r: EnvelopeReport) -> Table:
    header = ("k", "exact", "approx", "ratio", "lower_env", "upper_env", "valid")
    rows = [
        (k, math.exp(r.log_exact[i]), math.exp(r.log_approx[i]), r.ratios[i],
         r.lower_env[i], r.upper_env[i], r.validity_mask[i])
        for i, k in enumerate(r.k_values)
    ]
    summary = {"max_abs_dev": r.max_abs_dev, "violations": r.violations, "window": r.window,
               "k_count": len(r.k_values)}
    meta = {"kind": r.kind, "n": r.n, "window": r.window, "beta_cap": r.beta_cap,
            "margin": r.margin, "summary": summary}
    return Table(header, rows, meta)


def conditions_table(r: ConditionReport, family: str) -> Table:
    header = ("n", "m_n", "lambda_n", "sum_sq", "phi", "phi_m", "phi_over_lambda")
    rows = [(row.n, row.m_n, row.lambda_n, row.sum_sq, row.phi, row.phi_m, row.phi_over_lambda)
            for row in r.rows]
    meta = {"family": family, "window": r.window, "threshold": r.threshold, "grid": r.grid}
    verdicts = {
        "a1_max_entry": asdict(r.a1),
        "a4_sum_sq": asdict(r.a4),
        "window_m": asdict(r.window_m),
        "window_over_lambda": asdict(r.window_over_lambda),
        "lambda_trend": r.lambda_trend,
        "lambda_last": r.lambda_last,
    }
    return Table(header, rows, meta, {"verdicts": verdicts})


def distance_table(r: DistanceReport) -> Table:
    """One row; its JSON form is that row as a flat object."""
    header = ("n", "lambda_n", "sum_sq", "sup_cdf_distance", "tv_distance", "predicted", "ratio")
    s = r.summary
    row = (s.n, s.lambda_n, s.sum_sq, r.sup_cdf, r.tv, r.predicted, r.ratio)
    return Table(header, [row], dict(zip(header, row)), json_width=0)


def diagnostics_table(d: SchemeDiagnostics) -> Table:
    header = ("k", "b1_max_dev", "b2_ratio", "b3_ratio", "mode", "checked", "zero_product")
    rows = list(zip(d.k_values, d.b1_max_dev, d.b2_ratio, d.b3_ratio, d.modes,
                    d.checked_counts, d.zero_product))
    meta = {"rare": d.rare, "seed": d.seed, "sample_budget": d.sample_budget}
    tail = {"b1_overall": d.b1_overall, "b2_max_dev": d.b2_max_dev, "b3_max_dev": d.b3_max_dev}
    return Table(header, rows, meta, tail)


def dependent_table(
    report: RatioReport, diagnostics: SchemeDiagnostics, precision: str, model_kind: str, n: int
) -> Table:
    """Ratio rows joined with the diagnostics of the same k (blank where none).

    CSV carries the joined columns; JSON rows keep the first four and nest
    the diagnostics as their own table.
    """
    header = ("k", "dep_prob", "indep_prob", "ratio",
              "b1_max_dev", "b2_ratio", "b3_ratio", "mode", "checked")
    diag = diagnostics_table(diagnostics)
    diag_by_k = {row[0]: row[1:6] for row in diag.rows}
    ratio_by_k = dict(report.entries)
    rows = [
        (k, report.dep_probs[k], report.indep_probs[k], ratio_by_k.get(k))
        + diag_by_k.get(k, (None,) * 5)
        for k in report.k_values
    ]
    meta = {"model": model_kind, "n": n, "precision": precision}
    tail = {"omitted_k": report.omitted_k, "max_abs_dev": report.max_abs_dev,
            "diagnostics": diag}
    return Table(header, rows, meta, tail, json_width=4)


def sweep_table(meta: dict, rows: list, envelope: bool) -> Table:
    """One row per grid point; the envelope columns only for a --kind sweep."""
    header = ("n", "lambda_n", "m_n", "sum_sq")
    if envelope:
        header += ("max_abs_dev", "violations", "k_count")
    header += ("sup_cdf_distance", "tv_distance", "dehpfeif_ratio")
    return Table(header, rows, meta)


def error_obj(exc: BaseException) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}
