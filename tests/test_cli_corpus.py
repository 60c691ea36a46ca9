"""tools/cli_corpus.py --compare: its exit status and summary."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "cli_corpus.py"


@pytest.fixture(scope="module")
def corpus():
    spec = importlib.util.spec_from_file_location("cli_corpus", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUNS = [
    ("werner:0 decompose", 0, '{"lambda": 0.5}\n', ""),
    ("bad:1 decompose", 2, "", "error (InputError): d must be >= 2\n"),
]


def _write(corpus, path, runs):
    path.write_text("".join(corpus.line(*run) + "\n" for run in runs), encoding="utf-8")
    return str(path)


def test_compare_exits_0_when_every_run_is_identical(corpus, tmp_path, capsys):
    old = _write(corpus, tmp_path / "old.txt", RUNS)
    new = _write(corpus, tmp_path / "new.txt", RUNS)
    assert corpus.compare(old, new) == 0
    assert "identical: 2" in capsys.readouterr().out


def test_compare_exits_1_on_a_changed_stdout(corpus, tmp_path, capsys):
    changed = [("werner:0 decompose", 0, '{"lambda": 0.25}\n', ""), RUNS[1]]
    old = _write(corpus, tmp_path / "old.txt", RUNS)
    new = _write(corpus, tmp_path / "new.txt", changed)
    assert corpus.compare(old, new) == 1
    out = capsys.readouterr().out
    assert "identical: 1" in out and "werner:0 decompose: stdout changed: lambda 0.25" in out


def test_compare_exits_1_on_a_run_only_in_new(corpus, tmp_path, capsys):
    old = _write(corpus, tmp_path / "old.txt", RUNS)
    new = _write(corpus, tmp_path / "new.txt", [*RUNS, ("selftest", 0, "ok\n", "")])
    assert corpus.compare(old, new) == 1
    assert "selftest: only in new" in capsys.readouterr().out
