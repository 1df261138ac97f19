"""Byte-level checks of the two table renderers.

The golden tests pin whole reports; these pin the per-value contract that
every report shares: how each kind of value becomes a CSV cell and a JSON
token, and how a table's metadata, rows and tail are laid out.  The
renderers fill whole columns into one template per table; a property test
holds them to the row-at-a-time renderers they replaced, kept below as the
oracle.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pblab.emit import Table, render_csv, render_json

COLUMNS = ((3,), (0.1,), (math.inf,), (-math.inf,), (math.nan,), (None,), (True,), ('a,"b"',))
TABLE = Table(
    ("i", "f", "pinf", "ninf", "nan", "none", "flag", "text"),
    COLUMNS,
    meta={"name": "t", "grid": (1, 2)},
    tail={"total": 2.5},
)


def test_render_csv_bytes():
    assert render_csv(TABLE) == (
        "i,f,pinf,ninf,nan,none,flag,text\n"
        '3,0.10000000000000001,inf,-inf,nan,,true,"a,""b"""\n'
    )


def test_render_json_bytes():
    assert render_json(TABLE) == (
        "{\n"
        '  "name": "t",\n'
        '  "grid": [1, 2],\n'
        '  "rows": [\n'
        "    {\n"
        '      "i": 3,\n'
        '      "f": 0.10000000000000001,\n'
        '      "pinf": "inf",\n'
        '      "ninf": "-inf",\n'
        '      "nan": "nan",\n'
        '      "none": null,\n'
        '      "flag": true,\n'
        '      "text": "a,\\"b\\""\n'
        "    }\n"
        "  ],\n"
        '  "total": 2.5\n'
        "}\n"
    )


def test_render_json_width_and_nesting():
    inner = Table(("k",), ([],), meta={"seed": 0})
    outer = Table(("k", "x"), ([1, 2], [0.5, -0.0]), tail={"inner": inner}, json_width=1)
    assert render_csv(outer) == "k,x\n1,0.5\n2,-0\n"
    assert render_json(outer) == (
        "{\n"
        '  "rows": [\n'
        "    {\n"
        '      "k": 1\n'
        "    },\n"
        "    {\n"
        '      "k": 2\n'
        "    }\n"
        "  ],\n"
        '  "inner": {\n'
        '    "seed": 0,\n'
        '    "rows": []\n'
        "  }\n"
        "}\n"
    )
    flat = Table(("a", "b"), ([1], [None]), meta={"a": 1, "b": None}, json_width=0)
    assert render_json(flat) == '{\n  "a": 1,\n  "b": null\n}\n'


def test_numpy_values_render_as_python_scalars():
    # np.bool_ is no bool and np.int64 no int: each is written as its item().
    assert render_csv(Table(("a",), [(np.bool_(True),)])) == "a\ntrue\n"
    assert render_json(Table(("a",), [(np.bool_(True),)])) == (
        '{\n  "rows": [\n    {\n      "a": true\n    }\n  ]\n}\n'
    )
    values = [True, -4, 0.5, math.nan]
    scalars = [np.bool_(True), np.int64(-4), np.float64(0.5), np.float64(np.nan)]
    arrays = (np.array([True, False]), np.array([3, -4], dtype=np.int64),
              np.array([0.5, -np.inf]))
    meta = {"flag": np.bool_(False), "n": np.int64(7), "x": np.float64(-np.inf),
            "grid": np.array([1, 2]), "list": [np.int64(1), np.bool_(True)]}
    plain_meta = {"flag": False, "n": 7, "x": -math.inf, "grid": [1, 2], "list": [1, True]}
    cases = [
        (Table(("v",), [scalars], meta, {"last": np.int64(1)}),
         Table(("v",), [values], plain_meta, {"last": 1})),
        (Table(("b", "i", "f"), arrays, meta),
         Table(("b", "i", "f"), [a.tolist() for a in arrays], plain_meta)),
    ]
    for as_numpy, as_python in cases:
        assert render_csv(as_numpy) == render_csv(as_python)
        assert render_json(as_numpy) == render_json(as_python)
    assert render_csv(cases[1][0]) == "b,i,f\ntrue,3,0.5\nfalse,-4,-inf\n"


def test_header_with_percent_sign():
    table = Table(("100%", "%d"), ([1], ["x"]))
    assert render_csv(table) == "100%,%d\n1,x\n"
    assert json.loads(render_json(table)) == {"rows": [{"100%": 1, "%d": "x"}]}


def test_columns_must_match_the_header():
    with pytest.raises(ValueError):
        Table(("a", "b"), ([1],))
    with pytest.raises(ValueError):
        Table(("a", "b"), ([1], [2, 3]))


# ------------------------------------------------- the row-at-a-time oracle
#
# The renderers as they were before tables held columns, unchanged except
# that their table type is named RowTable and their two entry points
# row_render_json and row_render_csv.


@dataclass(frozen=True)
class RowTable:
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


def _json_rows(table: RowTable, indent: int) -> str:
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


def row_render_json(obj) -> str:
    """Deterministic pretty JSON of a Table or a dict: fixed float format."""
    out: list[str] = []

    def walk(x, indent: int) -> None:
        if isinstance(x, RowTable):
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


def row_render_csv(table: RowTable) -> str:
    """The header line, then one line per row; metadata is not written."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.header)
    writer.writerows([_cell(c) for c in row] for row in table.rows)
    return buf.getvalue()


# ------------------------------------------------ columns against the oracle

_SPECIAL_FLOATS = (math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e-310,
                   2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308)
_FLOATS = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats())
_FINITE = st.one_of(st.sampled_from((-0.0, 5e-324, 1e-310, 1.7976931348623157e308)),
                    st.floats(allow_nan=False, allow_infinity=False))
_TEXT = st.one_of(st.just(""), st.text(st.sampled_from(',"\n\r aé'), max_size=6))
_VALUES = (
    _FLOATS,  # every double, the non-finite ones included
    _FINITE,  # the %.17g column of JSON
    st.integers(),
    st.one_of(st.integers(-3, 3), st.booleans()),  # ints and bools in one column
    st.one_of(st.none(), _FLOATS),
    _TEXT,
)
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT)
_NAMES = st.text(st.sampled_from('ab,"\n _'), min_size=1, max_size=4)


@st.composite
def _tables(draw, depth=0):
    """One table in both forms: (Table, RowTable)."""
    n_rows = draw(st.integers(0, 5))
    n_cols = draw(st.integers(1, 4))
    header = tuple(draw(st.lists(_NAMES, min_size=n_cols, max_size=n_cols)))
    # Most columns hold one kind of value; some mix every kind.
    kinds = st.one_of(st.sampled_from(_VALUES), st.just(st.one_of(*_VALUES)))
    columns = [draw(st.lists(draw(kinds), min_size=n_rows, max_size=n_rows))
               for _ in range(n_cols)]
    width = draw(st.one_of(st.none(), st.integers(0, n_cols)))
    meta = draw(st.dictionaries(_NAMES, _SCALARS, max_size=2))
    tail = draw(st.dictionaries(_NAMES, st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3)),
                                max_size=2))
    tail_col, tail_row = dict(tail), dict(tail)
    if depth == 0 and draw(st.booleans()):
        inner_col, inner_row = draw(_tables(depth=1))
        tail_col["inner"], tail_row["inner"] = inner_col, inner_row
    return (Table(header, columns, meta, tail_col, width),
            RowTable(header, list(zip(*columns)), meta, tail_row, width))


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(pair=_tables())
def test_columns_render_as_the_row_oracle(pair):
    table, rows = pair
    assert render_csv(table) == row_render_csv(rows)
    assert render_json(table) == row_render_json(rows)
