"""Malformed input stays inside the error contract: the readers raise
ValueError and nothing else, and the CLI exits 0, 1 or 2 on any file
and on any verify bound."""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from arcschemes.arcs import model_from_text
from arcschemes.cli import main
from arcschemes.graphs import graph_from_text
from arcschemes.schemes import scheme_from_text

# Small integers keep accidentally valid headers cheap to build; the other
# tokens hit each lexer branch: non-integers, Python's int() extensions,
# negative values and comments.  Each example goes to every reader or
# command, which keeps the number of examples, and the run time, low.
TOKENS = ["0", "1", "2", "3", "4", "5", "-1", "x", "1_0", "+2", "#c", "", "\n", "\n", "\n"]
token_texts = st.lists(st.sampled_from(TOKENS), max_size=24).map(" ".join)
COMMANDS = [["closure"], ["decompose"], ["arcs", "check"], ["arcs", "graph"], ["arcs", "reduce"]]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=st.one_of(token_texts, st.text(max_size=40)))
def test_readers_raise_only_value_error(text):
    for reader in (graph_from_text, model_from_text, scheme_from_text):
        try:
            reader(text)
        except ValueError:
            pass


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.one_of(token_texts.map(str.encode), st.binary(max_size=40)))
def test_cli_exit_code_contract(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-input"
    path.write_bytes(data)
    for command in COMMANDS:
        argv = ["--no-timing", command[0], str(path)] + command[1:]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2), argv


# `all` runs aut at 12 at most, because perfbench's verify-sweep check
# counts aut_cases(min(bound, 12)) rows; `verify aut` alone goes to 20 here
verify_args = st.sampled_from(["dihedral", "wreath", "aut", "all"]).flatmap(
    lambda suite: st.tuples(st.just(suite), st.integers(-3, 20 if suite == "aut" else 16)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(args=verify_args)
def test_verify_bound_exit_code_contract(args):
    suite, bound = args
    argv = ["--no-timing", "verify", suite, str(bound)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2), argv
