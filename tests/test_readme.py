"""The README's library example runs, and its command lines parse, against the package."""

import re
import shlex
from pathlib import Path

import lsdecomp
from lsdecomp import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs_and_every_exported_name_resolves():
    (code,) = re.findall(r"```python\n(.*?)```", _section("Library"), flags=re.S)
    exec(compile(code, f"{README}:Library", "exec"), {})
    assert [name for name in lsdecomp.__all__ if not hasattr(lsdecomp, name)] == []


def test_command_line_examples_parse():
    (block,) = re.findall(r"```sh\n(.*?)```", _section("Command line"), flags=re.S)
    lines = [line for line in block.splitlines() if line.startswith("lsdecomp ")]
    assert lines
    for line in lines:
        argv = shlex.split(line.split(" > ", 1)[0])[1:]
        assert cli._PARSER.parse_args(argv).command == argv[0], line
