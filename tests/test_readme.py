"""The README's library example runs, and every public name resolves."""

import re
from pathlib import Path

import dcpbench

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    """The first ```python block under "## Library use"."""
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(_library_example(), str(README), "exec"), {})
    assert capsys.readouterr().out


def test_public_names_resolve():
    assert [name for name in dcpbench.__all__ if not hasattr(dcpbench, name)] == []
