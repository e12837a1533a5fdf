"""The README's library example prints what its comments say."""
from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1, "the README has one python example"
    return blocks[0]


def _commented_output(code: str) -> list[str]:
    """The output the example's trailing comment lines promise: one line per
    comment, a comment indented past its ``#`` continuing the line before."""
    lines: list[str] = []
    for line in code.splitlines():
        comment = line.strip()
        if not comment.startswith("#"):
            lines.clear()
            continue
        body = comment[1:]
        if body.startswith("  ") and lines:
            lines[-1] += " " + body.strip()
        else:
            lines.append(body.strip())
    return lines


def test_library_example_prints_its_commented_output():
    code = _library_example()
    expected = _commented_output(code)
    assert expected == [
        "send validity fails for role r: transition r>q!m at state {0,1,3} "
        "is impossible for member(s): r->q:o . 0",
        "p>q!o.q<p?o.r>q!m",
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
