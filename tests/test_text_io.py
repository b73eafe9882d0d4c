"""The text formats against their line-by-line references in oracles: the
writers byte for byte, the arc-model reader by its model or its error, and
the edge of the graph reader's bulk path for plain files."""

import importlib.util
import random
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from arcschemes import graphs as graphs_module
from arcschemes.arcs import ArcFunction, model_from_text, model_to_text, read_model, standard_model
from arcschemes.characterize import decompose_caw
from arcschemes.graphs import (
    complete, elementary_caw, empty_graph, from_edges, graph_from_text, graph_to_text,
    lex_product, read_graph,
)
from arcschemes.schemes import dihedral_scheme, scheme_to_text

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, spec.name, module)  # for its dataclasses
        spec.loader.exec_module(module)
        yield module


@pytest.fixture(scope="module")
def arcs_deck(workloads, tmp_path_factory):
    """The arcs-nonmembers requests of seeds 1 and 2, files written."""
    return {seed: workloads.ArcsNonmembers().build(seed, tmp_path_factory.mktemp(f"arcs{seed}"))
            for seed in (1, 2)}


def permuted_member(rng, m, k, r):
    g = lex_product(elementary_caw(m, k), complete(r)) if m > 1 else complete(r)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# members C_{m,k}[K_r] with m <= 9 and r <= 3, and K_1, K_r
MEMBER_GRID = [(m, k, r) for m in range(1, 10) for k in range(m // 2 + 1)
               if m == 1 or 2 * k + 1 < m for r in (1, 2, 3)]


def outcome(reader, *args):
    """A reader's result with its type, or the type and message it raised."""
    try:
        result = reader(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return type(result).__name__, result


class TestWriters:
    def test_member_grid(self):
        rng = random.Random(27)
        for m, k, r in MEMBER_GRID:
            g = permuted_member(rng, m, k, r)
            assert graph_to_text(g) == oracles.graph_to_text_oracle(g)
            cfg = decompose_caw(g).scheme
            assert scheme_to_text(cfg) == oracles.scheme_to_text_oracle(cfg)
            if k >= 1:
                f = standard_model(m, k)
                assert model_to_text(f) == oracles.model_to_text_oracle(f)

    def test_smallest(self):
        for g in (empty_graph(0), empty_graph(1), complete(1), complete(2)):
            assert graph_to_text(g) == oracles.graph_to_text_oracle(g)
        assert graph_to_text(empty_graph(0)) == "0 0\n"
        cfg = decompose_caw(complete(1)).scheme
        assert scheme_to_text(cfg) == oracles.scheme_to_text_oracle(cfg) == "1 1\n0\n"
        for f in (ArcFunction(2, []), ArcFunction(3, [(2, 2)])):
            assert model_to_text(f) == oracles.model_to_text_oracle(f)

    def test_multi_digit_colors_and_ints(self):
        graphs = (oracles.random_graph(random.Random(2), 9), permuted_member(random.Random(1), 25, 2, 2))
        for cfg in (dihedral_scheme(25), *(decompose_caw(g).scheme for g in graphs)):
            assert cfg.rank >= 10
            assert scheme_to_text(cfg) == oracles.scheme_to_text_oracle(cfg)
        for m in (1000, 2**63, 10**30):
            f = ArcFunction(m, [(m - 1, m - 1), (0, 2)])
            assert model_to_text(f) == oracles.model_to_text_oracle(f)
            assert model_from_text(model_to_text(f)) == f

    def test_arcs_nonmembers_deck(self, arcs_deck):
        # the 35 arc-model graphs of seed 1, their closures and their models
        for q in arcs_deck[1]:
            g = from_edges(q.n, sorted(q.data["edges"]))
            assert graph_to_text(g) == oracles.graph_to_text_oracle(g)
            cfg = decompose_caw(g).scheme
            assert scheme_to_text(cfg) == oracles.scheme_to_text_oracle(cfg)
            f = read_model(q.data["model"])
            assert model_to_text(f) == oracles.model_to_text_oracle(f)
            assert model_to_text(f) == Path(q.data["model"]).read_text()

    def test_large_dump_rows_span_blocks(self):
        # 300 points: a block of 2^16 colors holds 218 rows, so two blocks
        cfg = dihedral_scheme(300)
        assert scheme_to_text(cfg) == oracles.scheme_to_text_oracle(cfg)


# TestReaderParity's malformed graph texts, read as arc models, and texts
# that fail the model's own checks
MODEL_TEXTS = [
    "3 1\n0 1 2\n", "3\n", "3 1\n0\n", "3 1\n0 x\n", "3 1\n0 1.0\n", "3 1 # c\n0 1\n",
    "x y\n", "3 1\n\n0 0x1\n",
    "1_0 1\n0 +5\n", "+3 0\n", "٣ 1\n٠ ١\n", "3 1\n0 1__0\n", "3 1\n0 ²\n",
    f"{10**30} 0\n", f"3 {10**30}\n", f"3 1\n0 {10**30}\n", f"3 1\n{-10**30} 1\n",
    f"{10**30} 1\n0 {10**29}\n", f"{10**30} 1\n0 {10**30}\n", f"{2**63} 1\n{2**63 - 1} 7\n",
    f"{2**63} 2\n{2**63 - 1} 7\n7 {2**63 - 1}\n",
    "-1 0\n", "3 -1\n", "-1 -1\n", "3 2\n0 1\n", "3 0\n0 1\n", "", "\n\n", "# only\n",
    "0 0\n", "1 0\n",
    "3 1\n1 1\n", "3 2\n0 1\n0 1\n", "3 2\n0 1\n1 0\n", "3 3\n0 1\n1 2\n2 1\n",
    "3 1\n0 3\n", "3 1\n-1 0\n", "3 2\n0 5\n1 1\n", "3 2\n1 1\n0 5\n", "3 3\n0 1\n2 2\n1 0\n",
    # the model's checks: circle length, arc start, arc size, each at its line
    "1 1\n0 1\n", "4 2\n0 2\n9 2\n", "4 2\n0 2\n1 4\n", "4 2\n0 2\n1 0\n", "\n4 2\n\n0 2\n\n2 0\n",
    "# c\r\n4 2\r\n0 2\r\n2 2\r\n", "4 2\n0 2\n2 2", "004 02\n000 002\n002 002\n",
    f"{10**30} 1\n{10**30 - 1} 2\n", "4 1\n0 2\n", "4 3\n0 2\n",
]


class TestModelReader:
    @pytest.mark.parametrize("text", MODEL_TEXTS)
    def test_malformed_text(self, text):
        assert outcome(model_from_text, text) == outcome(oracles.model_from_text_oracle, text)

    def test_deck_models(self, arcs_deck):
        for q in arcs_deck[1] + arcs_deck[2]:
            text = Path(q.data["model"]).read_text()
            assert model_from_text(text) == oracles.model_from_text_oracle(text)
            assert isinstance(model_from_text(text), ArcFunction)

    def test_mutated_models(self):
        tokens = ["0", "1", "2", "-1", "x", "1_0", "+2", "#c", "٣", str(10**20), ""]
        rng = random.Random(27)
        for _ in range(300):
            f = oracles.random_arc_function(rng, 7)
            lines = model_to_text(f).splitlines()
            for _ in range(rng.randint(0, 3)):
                i = rng.randrange(len(lines))
                op = rng.randrange(4)
                if op == 0:
                    words = lines[i].split() or [""]
                    words[rng.randrange(len(words))] = rng.choice(tokens)
                    lines[i] = " ".join(words)
                elif op == 1 and len(lines) > 1:
                    del lines[i]
                elif op == 2:
                    lines.insert(i, lines[i])
                else:
                    lines.insert(i, f"{rng.randint(-1, 9)} {rng.randint(-1, 9)}")
            text = "\n".join(lines) + rng.choice(["\n", ""])
            assert outcome(model_from_text, text) == outcome(oracles.model_from_text_oracle, text)


# texts at the edge of the bulk path: pytest turns any warning into an error
EDGE_TEXTS = [
    # not plain: a float, tabs, CRLF, a form feed (a line break to splitlines)
    "3.0 0\n", "3 1\n0 1.0\n", "3\t1\n0\t1\n", "3 1\r\n0 1\r\n", "3 1\x0c0 1\n", "3 1\n\x0c\n0 1\n",
    # 18, 19 and 20 digits, and 2^63 - 1, 2^63
    f"{10**17} 0\n", f"{10**18} 0\n", f"{10**19} 0\n", f"3 1\n0 {10**18}\n", f"3 1\n0 {10**19}\n",
    f"{2**63 - 1} 0\n", f"{2**63} 0\n", f"3 1\n{2**63} 0\n", "0000000000000000000003 1\n0 1\n",
    # leading zeros, nothing, blank lines, no final newline
    "007 1\n000 001\n", "", "   ", " \n \n", "\n", "\n\n3 1\n  \n0 1\n\n", "3 1\n0 1",
    " 3 1 \n 0  1 ",
    "3 1\n0 1 2\n", "3\n", "3 1\n0\n", "3 0\n\n", "3 1\n1 1\n", "3 2\n0 1\n\n1 0\n", "3 1\n0 5",
    "3 2\n0 1\n  \n1 0\n", " \n3 2\n \n0 1\n\n0 1\n",
]


class TestBulkPathEdge:
    @pytest.mark.parametrize("text", EDGE_TEXTS)
    def test_reads_like_oracle(self, text):
        for limit in (None, 2, 10**40):
            assert (outcome(graph_from_text, text, limit)
                    == outcome(oracles.graph_from_text_oracle, text, limit)), (text, limit)
        assert outcome(model_from_text, text) == outcome(oracles.model_from_text_oracle, text)

    @pytest.mark.parametrize("text", [
        "3 1\r0 1\n", "3 2\r\n0 1\r1 2\r\n", "3 1\r\r\n0 1\n", "3 1\r\n\r\n0 1", "\r\n3 1\r\n0 1",
        "# c\r\n3 1\r\n0 1\r\n", "3 1\r\n0 1 2\r\n", "3 1\r\n0 x\r\n", "3 2\n0 1\r\n1 1\n",
        "3 1\r\n0 1\r\n\r\n", "\r\n", "\r",
    ])
    def test_carriage_returns_read_like_oracle(self, text):
        # '\r\n' is one line end to splitlines and a lone '\r' another, so
        # a file's line numbers are the oracle's whichever path reads it
        for limit in (None, 2):
            assert (outcome(graph_from_text, text, limit)
                    == outcome(oracles.graph_from_text_oracle, text, limit)), (text, limit)
        assert outcome(model_from_text, text) == outcome(oracles.model_from_text_oracle, text)

    def test_long_tokens_never_reach_loadtxt(self, monkeypatch):
        # numpy 1.x's loadtxt reads a token beyond int64 via float, with a
        # DeprecationWarning, so a token of 19 digits must not reach it
        seen = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: seen.append(a) or loadtxt(*a, **kw))
        for text in ("3 1\n0 1\n", f"{10**18} 0\n", f"3 1\n0 {10**19}\n",
                     f"3 1\n{2**63} 0\n", "0000000000000000000003 1\n0 1\n"):
            outcome(graph_from_text, text)
        assert len(seen) == 1

    def test_deck_files_take_the_bulk_path(self, workloads, arcs_deck, tmp_path, monkeypatch):
        # with the line-by-line lexers failing on any call, the ten
        # members-decompose files and the arc models must still read
        def fail(*args):
            raise AssertionError("left the bulk path")

        members = workloads.MembersDecompose().build(1, tmp_path)
        expected = [graph_from_text(Path(q.data["path"]).read_text(), 200) for q in members]
        models = [read_model(q.data["model"]) for q in arcs_deck[1]]
        monkeypatch.setattr(graphs_module, "int_records", fail)
        assert len(members) == 10
        assert [read_graph(q.data["path"], 200) for q in members] == expected
        assert [read_model(q.data["model"]) for q in arcs_deck[1]] == models

    def test_crlf_copies_take_the_bulk_path(self, workloads, arcs_deck, tmp_path, monkeypatch):
        # '\r\n' line ends are plain: a CRLF copy of each member file and arc
        # model reads by np.loadtxt, from the file (which universal newlines
        # translate) and from its text as it is, and gives the oracle's answer
        def fail(*args):
            raise AssertionError("left the bulk path")

        def crlf(path):
            copy = tmp_path / f"crlf-{Path(path).name}"
            copy.write_bytes(Path(path).read_bytes().replace(b"\n", b"\r\n"))
            return copy, copy.read_bytes().decode("ascii")

        members = workloads.MembersDecompose().build(1, tmp_path)
        graph_files = [crlf(q.data["path"]) for q in members]
        model_files = [crlf(q.data["model"]) for q in arcs_deck[1]]
        graphs = [oracles.graph_from_text_oracle(text, 200) for _, text in graph_files]
        models = [oracles.model_from_text_oracle(text) for _, text in model_files]
        assert all("\r\n" in text for _, text in graph_files + model_files)
        monkeypatch.setattr(graphs_module, "int_records", fail)
        assert [read_graph(path, 200) for path, _ in graph_files] == graphs
        assert [graph_from_text(text, 200) for _, text in graph_files] == graphs
        assert [read_model(path) for path, _ in model_files] == models
        assert [model_from_text(text) for _, text in model_files] == models
