"""The README's Python API example runs as written and prints what its comments say."""

import contextlib
import io
import math
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def api_example() -> str:
    """The first ```python block after the "Python API in one minute" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Python API in one minute"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_api_example_runs_and_prints_its_comments():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(api_example(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert float(lines[0]) == pytest.approx(0.398, rel=1e-12)  # pmf.prob(1)
    assert float(lines[1]) == pytest.approx(0.6, rel=1e-15)  # profile.summary.lambda_n
    assert lines[2] == "0"  # report.violations
    # numpy prints array entries to 8 decimals.
    ratios = [float(x) for x in lines[3].strip("[]").split()]
    assert ratios == pytest.approx([1.0, 1.31613757], abs=5e-9)
    poisson = [float(x) for x in lines[4].strip("[]").split()]
    assert poisson == pytest.approx([0.6**k * math.exp(-0.6) / math.factorial(k)
                                     for k in range(4)], abs=5e-9)
    assert len(lines) == 5
