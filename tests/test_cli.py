import json
import random
import tracemalloc

import pytest

from arcschemes import suites
from arcschemes.arcs import ArcFunction, model_from_text, model_to_text
from arcschemes.cli import main
from arcschemes.graphs import (
    complete,
    cycle,
    elementary_caw,
    empty_graph,
    from_edges,
    graph_from_text,
    graph_to_text,
    lex_product,
)
from arcschemes.schemes import CoherentConfiguration, dihedral_scheme, read_scheme

import oracles


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.graph"
    path.write_text(graph_to_text(cycle(5)))
    return str(path)


@pytest.fixture
def lex_file(tmp_path):
    path = tmp_path / "lex.graph"
    path.write_text(graph_to_text(lex_product(cycle(5), complete(2))))
    return str(path)


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.graph"
    path.write_text(graph_to_text(oracles.path(4)))
    return str(path)


class TestGen:
    def test_cnk(self, capsys):
        assert main(["gen", "cnk", "7", "2"]) == 0
        g = graph_from_text(capsys.readouterr().out)
        assert g == elementary_caw(7, 2)

    def test_cnk_invalid(self, capsys):
        assert main(["gen", "cnk", "4", "2"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_negative_parameter_is_usage_error(self, capsys):
        assert main(["gen", "mkn", "-30", "-7"]) == 2
        err = capsys.readouterr().err
        assert "negative parameter in spec 'mkn:-30:-7'" in err and "usage" in err

    def test_lex(self, capsys):
        assert main(["gen", "lex", "cnk:5:1", "complete:2"]) == 0
        g = graph_from_text(capsys.readouterr().out)
        assert g == lex_product(cycle(5), complete(2))

    def test_mkn(self, capsys):
        assert main(["gen", "mkn", "3", "2"]) == 0
        g = graph_from_text(capsys.readouterr().out)
        assert g == lex_product(empty_graph(3), complete(2))

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "g.graph"
        assert main(["gen", "cycle", "6", "-o", str(out)]) == 0
        capsys.readouterr()
        assert graph_from_text(out.read_text()) == cycle(6)

    @pytest.mark.parametrize("env, argv, n, limit", [
        (None, ["gen", "cycle", "1000000"], 1000000, 200),
        (None, ["gen", "mkn", "30", "7"], 210, 200),
        (None, ["gen", "lex", "cycle:50", "complete:5"], 250, 200),
        (None, ["gen", "lex", "cycle:1000000", "empty:0"], 1000000, 200),
        (None, ["--limit", "5", "gen", "cnk", "7", "2"], 7, 5),
        ("5", ["gen", "cycle", "6"], 6, 5),
    ], ids=["cycle", "mkn", "lex", "lex-empty-factor", "flag", "env"])
    def test_limit_checked_before_graph_is_built(self, env, argv, n, limit, capsys,
                                                 monkeypatch):
        def refuse(*args):
            raise AssertionError("graph built before the vertex limit was checked")

        if env is not None:
            monkeypatch.setenv("CAW_LIMIT", env)
        # every generator, product and reader builds its graph through Graph()
        monkeypatch.setattr("arcschemes.graphs.Graph.__init__", refuse)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: graph has {n} vertices, limit is {limit}\n"


class TestClosure:
    def test_summary_and_dump(self, c5_file, tmp_path, capsys):
        dump = tmp_path / "c5.scheme"
        assert main(["--no-timing", "closure", c5_file, "-o", str(dump)]) == 0
        out = capsys.readouterr().out
        assert "rank: 3" in out
        assert "association: True" in out
        assert read_scheme(dump) == dihedral_scheme(5)

    def test_path_summary(self, tmp_path, capsys):
        path = tmp_path / "p3.graph"
        path.write_text(graph_to_text(oracles.path(3)))
        assert main(["--no-timing", "closure", str(path)]) == 0
        out = capsys.readouterr().out
        assert "rank: 5" in out
        assert "association: False" in out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("2 1\n0 x\n")
        assert main(["closure", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_limit_via_env(self, c5_file, capsys, monkeypatch):
        monkeypatch.setenv("CAW_LIMIT", "3")
        assert main(["closure", c5_file]) == 2
        assert "limit" in capsys.readouterr().err

    def test_invalid_env_limit_exit_2(self, c5_file, capsys, monkeypatch):
        monkeypatch.setenv("CAW_LIMIT", "abc")
        assert main(["closure", c5_file]) == 2
        assert "invalid CAW_LIMIT" in capsys.readouterr().err

    @pytest.mark.parametrize("command, message", [
        ("closure", "closure limit is 200"), ("decompose", "limit is 200"),
    ])
    def test_limit_checked_before_graph_is_built(self, command, message, tmp_path,
                                                 capsys, monkeypatch):
        huge = tmp_path / "huge.graph"
        huge.write_text("2000000 0\n")

        def refuse(*args):
            raise AssertionError("graph built before the vertex limit was checked")

        monkeypatch.setattr("arcschemes.graphs.from_edges", refuse)
        assert main([command, str(huge)]) == 2
        assert f"error: graph has 2000000 vertices, {message}\n" == capsys.readouterr().err

    @pytest.mark.parametrize("command", ["closure", "decompose"])
    def test_edges_of_huge_graph_allocate_nothing_per_vertex(self, command, tmp_path, capsys):
        # the adjacency matrix of 2000000 vertices takes 4 TB; a short file must not build it
        huge = tmp_path / "huge.graph"
        huge.write_text("2000000 8\n" + "".join(f"{i} {1999999 - i}\n" for i in range(8)))
        tracemalloc.start()
        try:
            rc = main([command, str(huge)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert "error: graph has 2000000 vertices" in capsys.readouterr().err
        assert peak < 1_000_000

    def test_machine_format(self, c5_file, capsys):
        assert main(["--format", "machine", "--no-timing", "closure", c5_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rank"] == 3 and doc["association"] is True


class TestDecompose:
    def test_certificate(self, lex_file, capsys):
        assert main(["--no-timing", "decompose", lex_file]) == 0
        out = capsys.readouterr().out
        assert "certificate: m=5 k=1 r=2" in out
        assert "predicted-aut-order: 320" in out

    def test_negative_exit_1(self, p4_file, capsys):
        assert main(["--no-timing", "decompose", p4_file]) == 1
        out = capsys.readouterr().out
        assert "failure-stage: non-association" in out
        # absent results are still present, encoded explicitly
        assert "certificate: none" in out
        assert "scheme-verdict: none" in out

    def test_malformed_exit_2(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("not a graph\n")
        assert main(["decompose", str(bad)]) == 2

    def test_machine_output_deterministic(self, lex_file, capsys):
        assert main(["--format", "machine", "--no-timing", "decompose", lex_file]) == 0
        first = capsys.readouterr().out
        assert main(["--format", "machine", "--no-timing", "decompose", lex_file]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["certificate"] == "m=5 k=1 r=2"
        assert doc["scheme-verdict"] == "iso"
        assert "timing-ms" not in doc

    @pytest.mark.parametrize("flag, env", [([], None), (["--limit", "1000"], None), ([], "90")],
                             ids=["default", "flag", "env"])
    def test_large_member_gets_iso_verdict(self, flag, env, tmp_path, capsys, monkeypatch):
        g = lex_product(elementary_caw(30, 3), complete(3))  # 90 points
        perm = list(range(g.n))
        random.Random(3).shuffle(perm)
        path = tmp_path / "c303k3.graph"
        path.write_text(graph_to_text(from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])))
        if env is not None:
            monkeypatch.setenv("CAW_LIMIT", env)
        assert main(flag + ["--no-timing", "decompose", str(path)]) == 0
        out = capsys.readouterr().out
        assert "certificate: m=30 k=3 r=3" in out
        assert "scheme-verdict: iso" in out

    @pytest.mark.parametrize("graph_file,rc", [("lex_file", 0), ("p4_file", 1)])
    def test_one_closure_per_request(self, graph_file, rc, request, monkeypatch):
        import arcschemes.closure as mod

        calls, original = [], mod.coherent_closure
        monkeypatch.setattr(mod, "coherent_closure", lambda *a: calls.append(a) or original(*a))
        assert main(["--no-timing", "decompose", request.getfixturevalue(graph_file)]) == rc
        assert len(calls) == 1


class TestArcs:
    @pytest.fixture
    def c4_model_file(self, tmp_path):
        path = tmp_path / "c4.arcs"
        path.write_text(model_to_text(ArcFunction(8, [(0, 4), (2, 4), (4, 4), (6, 4)])))
        return str(path)

    def test_graph_action(self, c4_model_file, capsys):
        assert main(["arcs", c4_model_file, "graph"]) == 0
        assert graph_from_text(capsys.readouterr().out) == cycle(4)

    def test_reduce_action(self, c4_model_file, capsys):
        assert main(["arcs", c4_model_file, "reduce"]) == 0
        reduced = model_from_text(capsys.readouterr().out)
        assert reduced.m == 4
        assert reduced.arcs == ((0, 2), (1, 2), (2, 2), (3, 2))

    def test_check_action_passes_on_reduced_model(self, tmp_path, capsys):
        from arcschemes.arcs import standard_model

        path = tmp_path / "std.arcs"
        path.write_text(model_to_text(standard_model(7, 2)))
        assert main(["arcs", str(path), "check"]) == 0
        out = capsys.readouterr().out
        for label in ("condition (1)", "condition (2)", "condition (3.1)",
                      "reduced (i)", "reduced (ii)", "reduced (iii)"):
            assert label in out
        assert "FAIL" not in out

    def test_check_reports_unreduced_model(self, c4_model_file, capsys):
        # valid model on a larger circle: conditions pass, (ii)/(iii) fail
        assert main(["arcs", c4_model_file, "check"]) == 1
        out = capsys.readouterr().out
        assert "condition (3.1)  pass" in out
        assert "reduced (ii)     FAIL" in out

    def test_check_reports_condition_2(self, tmp_path, capsys):
        path = tmp_path / "bad.arcs"
        path.write_text("4 3\n0 1\n1 2\n2 2\n")
        assert main(["arcs", str(path), "check"]) == 1
        assert "condition (2)" in capsys.readouterr().out

    def test_reduce_rejects_condition_31(self, tmp_path, capsys):
        path = tmp_path / "p4.arcs"
        path.write_text(model_to_text(ArcFunction(5, [(0, 2), (1, 2), (2, 2), (3, 2)])))
        assert main(["arcs", str(path), "reduce"]) == 1
        assert "condition (3.1)" in capsys.readouterr().err

    def test_graph_on_invalid_model_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.arcs"
        path.write_text("4 3\n0 1\n1 2\n2 2\n")
        assert main(["arcs", str(path), "graph"]) == 2

    @pytest.mark.parametrize("action", ["graph", "reduce", "check"])
    def test_arc_count_limit_checked_before_graph_is_built(self, action, tmp_path, capsys,
                                                           monkeypatch):
        from arcschemes.arcs import standard_model

        path = tmp_path / "big.arcs"
        path.write_text(model_to_text(standard_model(201, 2)))

        def refuse(*args):
            raise AssertionError("graph built before the arc limit was checked")

        with monkeypatch.context() as patch:
            patch.setattr("arcschemes.graphs.Graph.__init__", refuse)
            assert main(["arcs", str(path), action]) == 2
        assert capsys.readouterr().err == "error: model has 201 arcs, limit is 200\n"
        assert main(["--limit", "300", "arcs", str(path), action]) == 0
        assert capsys.readouterr().err == ""

    def test_check_on_huge_circle_allocates_nothing_per_point(self, tmp_path, capsys):
        # condition (1) forces m <= 2n, so a huge m must fail without a list of m entries
        path = tmp_path / "huge.arcs"
        path.write_text("2000000 3\n0 2\n1 2\n2 2\n")
        tracemalloc.start()
        try:
            rc = main(["arcs", str(path), "check"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        assert "condition (1)  FAIL  condition (1): point 4 of Z_2000000" in capsys.readouterr().out
        assert peak < 1_000_000


class TestVerify:
    def test_dihedral_suite(self, capsys):
        assert main(["--no-timing", "verify", "dihedral", "8"]) == 0
        out = capsys.readouterr().out
        assert "C_{8,2}" in out and "result: pass" in out

    def test_aut_suite(self, capsys):
        assert main(["--no-timing", "verify", "aut", "8"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "FAIL" not in out

    @pytest.mark.parametrize("flag, env", [(["--limit", "6"], None), ([], "6"), ([], ""),
                                           ([], "abc")],
                             ids=["flag", "env", "empty-env", "bad-env"])
    def test_limit_leaves_default_bound(self, flag, env, capsys, monkeypatch):
        # the size cap is not verify's bound: the built-in bound holds, and
        # CAW_LIMIT is not read at all
        monkeypatch.delenv("CAW_LIMIT", raising=False)
        if env is not None:
            monkeypatch.setenv("CAW_LIMIT", env)
        assert main(flag + ["--format", "machine", "--no-timing", "verify", "wreath"]) == 0
        assert json.loads(capsys.readouterr().out)["wreath"] == suites.run_wreath_suite(24)[0]

    @pytest.mark.parametrize("argv, env", [
        (["verify", "wreath", "1"], None),
        (["verify", "wreath", "0"], None),
        (["verify", "all", "1"], None),
        (["verify", "aut", "1"], None),
        (["verify", "dihedral", "-3"], None),
        (["--limit", "30", "verify", "wreath", "1"], None),
        (["--limit", "30", "verify", "all", "0"], None),
        (["verify", "wreath", "1"], "30"),
    ], ids=["wreath-1", "wreath-0", "all-1", "aut-1", "dihedral-neg", "flag-wreath",
            "flag-all", "env-wreath"])
    def test_bound_below_two_is_usage_error(self, argv, env, capsys, monkeypatch):
        # no random wreath case fits a bound below 2, so the sweep could never
        # fill; a size cap (flag or env) does not make up for the bound
        if env is not None:
            monkeypatch.setenv("CAW_LIMIT", env)
        assert main(["--no-timing"] + argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error: verify bound must be at least 2" in err

    def test_wreath_suite_rejects_bound_below_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            suites.run_wreath_suite(1)

    def test_dihedral_forty_is_iso_under_identity(self, capsys):
        assert main(["--format", "machine", "--no-timing", "verify", "dihedral", "40"]) == 0
        rows = json.loads(capsys.readouterr().out)["dihedral"]
        assert len(rows) == 342
        assert all(r["status"] == "pass" and r["detail"].endswith(" iso=iso") for r in rows)

    @pytest.mark.parametrize("suite, bound", [("dihedral", 30), ("wreath", 24)])
    def test_built_in_bounds(self, suite, bound, capsys, monkeypatch):
        monkeypatch.delenv("CAW_LIMIT", raising=False)
        assert main(["--format", "machine", "--no-timing", "verify", suite]) == 0
        rows = json.loads(capsys.readouterr().out)[suite]
        runner = {"dihedral": suites.run_dihedral_suite, "wreath": suites.run_wreath_suite}
        assert rows == runner[suite](bound)[0]

    def test_dihedral_mismatch_is_a_bug(self, monkeypatch):
        # the closure of C_{n,k} is a fusion of the dihedral scheme on the
        # same points, so at the dihedral rank it must equal it
        def swapped(n):
            d = dihedral_scheme(n)
            perm = [1, 0] + list(range(2, n))
            return CoherentConfiguration(d.colors[perm][:, perm])

        monkeypatch.setattr("arcschemes.suites.dihedral_scheme", swapped)
        with pytest.raises(AssertionError, match=r"closure of C_\{5,1\}"):
            suites.run_dihedral_suite(5)

    def test_all_machine(self, capsys):
        assert main(["--format", "machine", "--no-timing", "--seed", "3",
                     "verify", "all", "6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert set(doc) >= {"dihedral", "wreath", "aut", "ok"}


@pytest.mark.parametrize("argv", [
    ["gen", "cycle", "5"],
    ["closure", "{graph}"],
    ["arcs", "{model}", "graph"],
    ["arcs", "{model}", "reduce"],
], ids=["gen", "closure", "arcs-graph", "arcs-reduce"])
def test_unwritable_output_is_usage_error(argv, c5_file, tmp_path, capsys):
    model = tmp_path / "c4.arcs"
    model.write_text(model_to_text(ArcFunction(8, [(0, 4), (2, 4), (4, 4), (6, 4)])))
    out = tmp_path / "missing" / "out.txt"
    argv = [a.format(graph=c5_file, model=model) for a in argv]
    assert main(["--no-timing", *argv, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err


_USAGE = "usage: gen {cnk N K | cycle N | complete N | mkn M N | lex SPEC SPEC}\n"
_NOT_UTF8 = b"\xff\xfe\n"
_NOT_UTF8_ERR = "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
_MISSING_ERR = "error: [Errno 2] No such file or directory: '{file}'\n"
_P4_MODEL = "5 4\n0 2\n1 2\n2 2\n3 2\n"  # violates (3.1): N(0) lies in {1} + N(1)


@pytest.mark.parametrize("argv, content, env, rc, err", [
    (["closure", "{file}"], None, None, 2, _MISSING_ERR),
    (["decompose", "{file}"], None, None, 2, _MISSING_ERR),
    (["arcs", "{file}", "check"], None, None, 2, _MISSING_ERR),
    (["closure", "{file}"], _NOT_UTF8, None, 2, _NOT_UTF8_ERR),
    (["decompose", "{file}"], _NOT_UTF8, None, 2, _NOT_UTF8_ERR),
    (["arcs", "{file}", "graph"], _NOT_UTF8, None, 2, _NOT_UTF8_ERR),
    (["--limit", "3", "closure", "{file}"], "5 0\n", None, 2,
     "error: graph has 5 vertices, closure limit is 3\n"),
    (["--limit", "3", "decompose", "{file}"], "5 0\n", None, 2,
     "error: graph has 5 vertices, limit is 3\n"),
    (["--limit", "2", "arcs", "{file}", "check"], _P4_MODEL, None, 2,
     "error: model has 4 arcs, limit is 2\n"),
    (["--limit", "2", "arcs", "{file}", "graph"], _P4_MODEL, None, 2,
     "error: model has 4 arcs, limit is 2\n"),
    (["--limit", "2", "arcs", "{file}", "reduce"], _P4_MODEL, None, 2,
     "error: model has 4 arcs, limit is 2\n"),
    (["closure", "{file}"], "5 0\n", "abc", 2, "error: invalid CAW_LIMIT value 'abc'\n"),
    (["arcs", "{file}", "reduce"], _P4_MODEL, None, 1,
     "error: condition (3.1) violated: neighborhood of 0 is contained "
     "in the closed neighborhood of 1\n"),
    (["arcs", "{file}", "reduce"], "4 2\n0 2\n2 2\n", None, 1,
     "error: reduction needs a non-empty intersection graph\n"),
    (["arcs", "{file}", "graph"], "4 3\n0 1\n1 2\n2 2\n", None, 2,
     "error: condition (2): arc of vertex 0 has fewer than two points\n"),
    (["gen", "cnk", "4", "2"], None, None, 2,
     "error: elementary circular-arc graph needs 0 <= 2k+1 < n, got n=4, k=2\n" + _USAGE),
    (["gen", "cycle", "300"], None, None, 2, "error: graph has 300 vertices, limit is 200\n"),
    (["closure", "{file}"], "0 0\n", None, 2,
     "error: closure needs a graph with at least one vertex\n"),
    (["decompose", "{file}"], "0 0\n", None, 2,
     "error: closure needs a graph with at least one vertex\n"),
], ids=["closure-missing", "decompose-missing", "arcs-missing", "closure-not-utf8",
        "decompose-not-utf8", "arcs-not-utf8", "closure-limit", "decompose-limit",
        "arcs-check-limit", "arcs-graph-limit", "arcs-reduce-limit", "invalid-env-limit",
        "arcs-reduce-condition-31", "arcs-reduce-no-edge", "arcs-graph-condition-2",
        "gen-bad-spec", "gen-limit", "closure-no-vertex", "decompose-no-vertex"])
def test_error_exit_contract(argv, content, env, rc, err, tmp_path, capsys, monkeypatch):
    # the exit code and the exact stderr of every error path; stdout stays empty
    path = tmp_path / "input.txt"
    if isinstance(content, str):
        path.write_text(content)
    elif content is not None:
        path.write_bytes(content)
    if env is None:
        monkeypatch.delenv("CAW_LIMIT", raising=False)
    else:
        monkeypatch.setenv("CAW_LIMIT", env)
    assert main(["--no-timing"] + [a.format(file=path) for a in argv]) == rc
    assert capsys.readouterr() == ("", err.replace("{file}", str(path)))


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("argv", [["closure", "{graph}"], ["decompose", "{graph}"],
                                  ["verify", "all", "8"]], ids=["closure", "decompose", "verify"])
def test_timing_is_one_field_on_top_of_no_timing_output(argv, fmt, lex_file, capsys):
    argv = ["--format", fmt] + [a.format(graph=lex_file) for a in argv]
    assert main(["--no-timing"] + argv) == 0
    bare = capsys.readouterr().out
    assert main(argv) == 0
    timed = capsys.readouterr().out
    if fmt == "machine":
        assert timed.count('"timing-ms"') == 1
        doc = json.loads(timed)
        value = doc.pop("timing-ms")
        assert doc == json.loads(bare)
    else:
        head, last = timed[:-1].rsplit("\n", 1)
        assert head + "\n" == bare and last.startswith("timing-ms: ")
        value = float(last[len("timing-ms: "):])
    assert isinstance(value, float) and value >= 0
