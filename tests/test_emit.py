"""Byte-level checks of the two table renderers.

The golden tests pin whole reports; these pin the per-value contract that
every report shares: how each kind of value becomes a CSV cell and a JSON
token, and how a table's metadata, rows and tail are laid out.
"""

import math

from pblab.emit import Table, render_csv, render_json

ROW = (3, 0.1, math.inf, -math.inf, math.nan, None, True, 'a,"b"')
TABLE = Table(
    ("i", "f", "pinf", "ninf", "nan", "none", "flag", "text"),
    [ROW],
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
    inner = Table(("k",), [], meta={"seed": 0})
    outer = Table(("k", "x"), [(1, 0.5), (2, -0.0)], tail={"inner": inner}, json_width=1)
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
    flat = Table(("a", "b"), [(1, None)], meta={"a": 1, "b": None}, json_width=0)
    assert render_json(flat) == '{\n  "a": 1,\n  "b": null\n}\n'
