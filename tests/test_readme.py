"""The README's code examples run as written."""

import re
from pathlib import Path

from sscent.trainer import TrainConfig, config_to_lines

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


def test_configuration_table_lists_every_key_with_its_default():
    text = README.read_text(encoding="utf-8").split("\n## Configuration\n", 1)[1]
    text = text.split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z0-9_.]+)` \| ([^|]*?) \|", text, re.M)
    assert [f"{key} = {default}" for key, default in rows] == config_to_lines(TrainConfig())
