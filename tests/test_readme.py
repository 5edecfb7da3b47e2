"""The README's code runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def section(text: str, title: str) -> str:
    """The body of the level-2 section called title, up to the next one."""
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    assert match, f"README has no '## {title}' section"
    return match.group(1)


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", section(README.read_text(), "Library"), re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], f"{README}:Library", "exec"), {})
    assert "0 violation(s)" in out.getvalue()
    assert "input clamping events: 0" in out.getvalue()
