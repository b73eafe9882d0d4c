"""CLI output against the golden files in tests/golden/.

Each `<case>.out` file opens with two comment lines, the command
(`# arcschemes ARGS`) and its exit code (`# exit N`); the rest is the
exact stdout.  Commands run from tests/golden/, where their input files
live, so the `input` paths in the reports are stable.
"""

import shlex
from pathlib import Path

import pytest

from arcschemes.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(GOLDEN.glob("*.out"))


def test_cases_present():
    assert len(CASES) == 19


@pytest.mark.parametrize("path", CASES, ids=[p.stem for p in CASES])
def test_cli_output_matches_golden(path, capsys, monkeypatch):
    command, exit_line, expected = path.read_text(encoding="utf-8").split("\n", 2)
    prog, *argv = shlex.split(command.removeprefix("# "))
    assert prog == "arcschemes" and exit_line.startswith("# exit ")
    monkeypatch.chdir(GOLDEN)
    assert main(argv) == int(exit_line.removeprefix("# exit "))
    assert capsys.readouterr().out == expected
