"""The README's library example runs against the package it documents."""

import re
from pathlib import Path

import lsdecomp

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_every_exported_name_resolves():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", library, flags=re.S)
    exec(compile(code, f"{README}:Library", "exec"), {})
    assert [name for name in lsdecomp.__all__ if not hasattr(lsdecomp, name)] == []
