"""The README's examples run as written: the Library block executes and
every `ribbonband ...` line of the CLI block exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from ribbonband.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(section: str, lang: str) -> str:
    """The first ```lang fenced block under the '## section' heading."""
    body = README.read_text(encoding="utf-8").split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_library_example_runs():
    exec(compile(_block("Library", "python"), str(README), "exec"), {})


@pytest.mark.parametrize(
    "line", [ln for ln in _block("CLI", "sh").splitlines() if ln.startswith("ribbonband ")]
)
def test_cli_example_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the examples may write files
    assert main(shlex.split(line)[1:]) == 0
