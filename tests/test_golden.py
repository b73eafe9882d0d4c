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
    assert [p.stem for p in CASES] == [
        "arcs-reduced-check", "arcs-reduced-graph", "arcs-reduced-reduce",
        "arcs-unreduced-check-machine", "arcs-unreduced-check", "arcs-unreduced-graph",
        "arcs-unreduced-reduce",
        # a non-member whose twin classes have sizes 1, 3 and 5
        "closure-arcs-twins-dump", "closure-c5-dump",
        "decompose-c303k3-permuted-machine", "decompose-c303k3-permuted-text",
        "decompose-c40k3-permuted-machine", "decompose-c40k3-permuted-text",
        "decompose-c51k2-machine", "decompose-c51k2-text",
        "decompose-c83k2-permuted-machine", "decompose-c83k2-permuted-text",
        "decompose-p4-machine", "decompose-p4-text",
        "verify-all-14-machine",
    ]


@pytest.mark.parametrize("path", CASES, ids=[p.stem for p in CASES])
def test_cli_output_matches_golden(path, capsys, monkeypatch):
    command, exit_line, expected = path.read_text(encoding="utf-8").split("\n", 2)
    prog, *argv = shlex.split(command.removeprefix("# "))
    assert prog == "arcschemes" and exit_line.startswith("# exit ")
    monkeypatch.chdir(GOLDEN)
    assert main(argv) == int(exit_line.removeprefix("# exit "))
    assert capsys.readouterr().out == expected
