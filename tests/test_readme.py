"""Run the README's Python examples and check the values their comments state.

The ```python blocks of README.md run in order in one namespace, as a reader
would paste them.  A line ``print(EXPR)  # VALUE ...`` whose comment opens
with a number or a bit string states what EXPR prints: a value with a
decimal point must match within 1e-9, anything else exactly.
"""
from __future__ import annotations

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
STATED = re.compile(r"^(?P<indent>\s*)print\((?P<expr>.*)\)\s*#\s*(?P<value>\d[\d.]*)\b")


def _with_stated_checks(block: str) -> str:
    """The block with each stated print routed through _stated(EXPR, "VALUE")."""
    lines = []
    for line in block.splitlines():
        m = STATED.match(line)
        if m:
            line = f'{m["indent"]}_stated({m["expr"]}, "{m["value"]}")'
        lines.append(line)
    return "\n".join(lines)


def test_readme_python_examples_print_what_their_comments_state():
    blocks = BLOCK.findall(README.read_text())
    assert blocks, "README.md has no python example"
    stated = []

    def record(got, want):
        stated.append((str(got), want))

    namespace = {"_stated": record}
    with contextlib.redirect_stdout(io.StringIO()):
        for block in blocks:
            exec(compile(_with_stated_checks(block), str(README), "exec"), namespace)

    assert {want for _, want in stated} >= {"0.5", "01101"}
    for got, want in stated:
        if "." in want:
            assert math.isclose(float(got), float(want), rel_tol=0.0, abs_tol=1e-9), (got, want)
        else:
            assert got == want
