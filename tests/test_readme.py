"""The README's code examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str) -> str:
    """The first fenced python block after a `## heading` line."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs_verbatim(capsys):
    exec(compile(readme_block("Library use"), str(README), "exec"), {})
    printed = capsys.readouterr().out.strip()
    assert 0.0 <= float(printed) <= 1.0
