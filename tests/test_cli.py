import json
import random
import re
import shlex
import tracemalloc
from pathlib import Path

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

README = Path(__file__).resolve().parent.parent / "README.md"
_USAGE = "usage: gen {cnk N K | cycle N | complete N | empty N | lex SPEC SPEC}\n"


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
        assert capsys.readouterr().err.endswith(_USAGE)

    def test_negative_parameter_is_usage_error(self, capsys):
        assert main(["gen", "cnk", "-30", "-7"]) == 2
        assert capsys.readouterr().err == (
            "error: negative parameter in spec 'cnk:-30:-7'\n" + _USAGE)

    def test_empty(self, capsys):
        assert main(["gen", "empty", "4"]) == 0
        assert capsys.readouterr().out == "4 0\n"

    @pytest.mark.parametrize("family", ["cnk", "cycle", "complete", "empty"])
    def test_usage_names_every_family(self, family, capsys):
        # the parser's choices and the usage line come from one table
        assert main(["gen", family]) == 2
        params = {"cnk": "N K", "cycle": "N", "complete": "N", "empty": "N"}[family]
        assert capsys.readouterr().err == (
            f"error: {family} takes {params}, got 0 parameters\n" + _USAGE)

    @pytest.mark.parametrize("argv, message", [
        (["lex", "cycle", "complete:2"], "cycle takes N, got 0 parameters"),
        (["lex", "cnk:7", "complete:2"], "cnk takes N K, got 1 parameter"),
        (["cnk", "7", "2", "1"], "cnk takes N K, got 3 parameters"),
        (["lex", "cyc:5", "complete:2"], "unknown generator spec 'cyc:5'"),
    ])
    def test_wrong_parameter_count_names_the_family(self, argv, message, capsys):
        assert main(["gen"] + argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n" + _USAGE

    @pytest.mark.parametrize("argv", [["gen", "empty", "0"], ["gen", "cycle", "5"],
                                      ["closure", "missing.graph"],
                                      ["arcs", "missing.arcs", "check"]])
    def test_negative_limit_is_usage_error(self, argv, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("graph built before --limit was checked")

        # rejected before any file is read (a missing one would give its own
        # error) or graph is built
        monkeypatch.setattr("arcschemes.graphs.Graph.__init__", refuse)
        assert main(["--limit", "-1"] + argv) == 2
        assert capsys.readouterr() == ("", "error: --limit must be at least 0, got -1\n")

    def test_zero_limit_admits_the_empty_graph(self, capsys):
        assert main(["--limit", "0", "gen", "empty", "0"]) == 0
        assert capsys.readouterr().out == "0 0\n"

    def test_lex(self, capsys):
        assert main(["gen", "lex", "cnk:5:1", "complete:2"]) == 0
        g = graph_from_text(capsys.readouterr().out)
        assert g == lex_product(cycle(5), complete(2))

    def test_mkn(self, capsys):
        # the graph mK_n, three disjoint edges
        assert main(["gen", "lex", "empty:3", "complete:2"]) == 0
        g = graph_from_text(capsys.readouterr().out)
        assert g == lex_product(empty_graph(3), complete(2))

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "g.graph"
        assert main(["gen", "cycle", "6", "-o", str(out)]) == 0
        capsys.readouterr()
        assert graph_from_text(out.read_text()) == cycle(6)

    @pytest.mark.parametrize("env, argv, n, limit", [
        (None, ["gen", "cycle", "1000000"], 1000000, 200),
        (None, ["gen", "lex", "empty:30", "complete:7"], 210, 200),
        (None, ["gen", "lex", "cycle:50", "complete:5"], 250, 200),
        (None, ["gen", "lex", "cycle:1000000", "empty:0"], 1000000, 200),
        (None, ["--limit", "5", "gen", "cnk", "7", "2"], 7, 5),
        ("5", ["gen", "cycle", "300"], 300, 200),  # CAW_LIMIT is not read
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
        # --limit alone sets the size limit: CAW_LIMIT is not read
        monkeypatch.setenv("CAW_LIMIT", "3")
        assert main(["--no-timing", "closure", c5_file]) == 0
        assert capsys.readouterr().err == ""

    def test_invalid_env_limit_is_not_read(self, c5_file, capsys, monkeypatch):
        monkeypatch.setenv("CAW_LIMIT", "abc")
        assert main(["--no-timing", "closure", c5_file]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["closure", "decompose"])
    def test_limit_checked_before_graph_is_built(self, command, tmp_path, capsys, monkeypatch):
        huge = tmp_path / "huge.graph"
        huge.write_text("2000000 0\n")

        def refuse(*args):
            raise AssertionError("graph built before the vertex limit was checked")

        monkeypatch.setattr("arcschemes.graphs.from_edges", refuse)
        assert main([command, str(huge)]) == 2
        assert capsys.readouterr().err == "error: graph has 2000000 vertices, limit is 200\n"

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

    @pytest.mark.parametrize("flag, env", [([], None), (["--limit", "1000"], None), ([], "3")],
                             ids=["default", "flag", "env"])  # CAW_LIMIT is not read
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
        # a member's closure is circulant_closure's, a non-member's
        # coherent_closure's: exactly one of the two per request, for
        # decompose and for closure alike
        import arcschemes.characterize
        import arcschemes.closure

        calls = []
        for mod, name in ((arcschemes.closure, "coherent_closure"),
                          (arcschemes.characterize, "circulant_closure")):
            original = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *a, f=original, name=name: (
                calls.append(name) or f(*a)))
        closure = "circulant_closure" if graph_file == "lex_file" else "coherent_closure"
        for command, want in (("decompose", rc), ("closure", 0)):
            del calls[:]
            assert main(["--no-timing", command, request.getfixturevalue(graph_file)]) == want
            assert calls == [closure], command

    @pytest.mark.parametrize("graph_file,rc", [("lex_file", 0), ("p4_file", 1)])
    def test_lift_only_for_the_dump(self, graph_file, rc, request, tmp_path, monkeypatch):
        # the reports count on the quotient's closure; only a dump builds
        # the n x n lift, once
        import arcschemes.characterize

        lifts = []
        original = arcschemes.characterize._lift
        monkeypatch.setattr(arcschemes.characterize, "_lift",
                            lambda *a: lifts.append(a) or original(*a))
        path, dump = request.getfixturevalue(graph_file), str(tmp_path / "out.scheme")
        for argv, want, made in ((["decompose", path], rc, 0), (["closure", path], 0, 0),
                                 (["closure", path, "-o", dump], 0, 1)):
            del lifts[:]
            assert main(["--no-timing"] + argv) == want
            assert len(lifts) == made, argv


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

    @pytest.mark.parametrize("text,rc,failed", [
        ("7 7\n0 3\n1 3\n2 3\n3 3\n4 3\n5 3\n6 3\n", 0, []),
        ("5 4\n0 2\n1 2\n2 2\n3 2\n", 1, ["condition (3.1)", "reduced (ii)", "reduced (iii)"]),
        ("10 3\n0 2\n1 2\n2 2\n", 1, ["condition (1)"]),
    ], ids=["pass", "condition-31", "condition-1"])
    def test_check_machine_format_has_the_text_rows(self, text, rc, failed, tmp_path, capsys):
        path = tmp_path / "model.arcs"
        path.write_text(text)
        assert main(["arcs", str(path), "check"]) == rc
        lines = capsys.readouterr().out.splitlines()
        assert main(["--format", "machine", "arcs", str(path), "check"]) == rc
        out = capsys.readouterr().out
        assert out.endswith("}\n") and out.count("\n") == 1
        doc = json.loads(out)
        assert sorted(doc) == ["check", "ok"] and doc["ok"] is (rc == 0)
        # a text line is the case, padded, the status and the detail
        parsed = [re.fullmatch(r"(.+?) +(pass|FAIL)  (.*)", line).groups() for line in lines]
        assert [(r["case"], r["status"], r["detail"]) for r in doc["check"]] == parsed
        assert [r["case"] for r in doc["check"] if r["status"] == "FAIL"] == failed

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

    @pytest.mark.parametrize("argv, env", [
        (["verify", "dihedral", "100000"], None),
        (["verify", "aut", "100000"], None),
        (["verify", "all", "201"], None),
        (["--limit", "100000", "verify", "dihedral", "100000"], None),
        (["verify", "aut", "100000"], "100000"),
    ], ids=["dihedral", "aut", "all-201", "flag-dihedral", "env-aut"])
    def test_bound_above_cap_is_usage_error(self, argv, env, capsys, monkeypatch):
        # a bound of 100000 would list billions of cases before the first row;
        # it exits 2 before any case is listed, and no size cap lifts it
        def never(bound):
            raise AssertionError(f"cases listed for bound {bound}")

        monkeypatch.setattr(suites, "dihedral_cases", never)
        monkeypatch.setattr(suites, "aut_cases", never)
        if env is not None:
            monkeypatch.setenv("CAW_LIMIT", env)
        assert main(["--no-timing"] + argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"error: verify bound must be at most 200, got {argv[-1]}" in err

    def test_bound_at_cap_runs(self, capsys, monkeypatch):
        bounds = []
        monkeypatch.setattr(suites, "run", lambda suite, bound, seed: bounds.append(bound) or {})
        assert main(["--no-timing", "verify", "dihedral", "200"]) == 0
        assert bounds == [200] and capsys.readouterr().out == "result: pass\n"

    def test_wreath_suite_rejects_bound_below_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            suites.run_wreath_suite(1)

    def test_dihedral_forty_is_iso_under_identity(self, capsys):
        assert main(["--format", "machine", "--no-timing", "verify", "dihedral", "40"]) == 0
        rows = json.loads(capsys.readouterr().out)["dihedral"]
        assert len(rows) == 342
        assert all(r["status"] == "pass" and r["detail"].endswith(" iso=iso") for r in rows)

    @pytest.mark.parametrize("suite, bound", [("dihedral", 30), ("wreath", 24)])
    def test_built_in_bounds(self, suite, bound, capsys):
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
     "error: graph has 5 vertices, limit is 3\n"),
    (["--limit", "3", "decompose", "{file}"], "5 0\n", None, 2,
     "error: graph has 5 vertices, limit is 3\n"),
    (["--limit", "2", "arcs", "{file}", "check"], _P4_MODEL, None, 2,
     "error: model has 4 arcs, limit is 2\n"),
    (["--limit", "2", "arcs", "{file}", "graph"], _P4_MODEL, None, 2,
     "error: model has 4 arcs, limit is 2\n"),
    (["--limit", "2", "arcs", "{file}", "reduce"], _P4_MODEL, None, 2,
     "error: model has 4 arcs, limit is 2\n"),
    # CAW_LIMIT is not read: an invalid value neither fails nor sets the limit
    (["closure", "{file}"], "201 0\n", "abc", 2, "error: graph has 201 vertices, limit is 200\n"),
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
    if env is not None:
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


def _readme_examples() -> list[list[str]]:
    """The argument lists of the README's Examples block, in order.  A
    piped line `arcschemes A | arcschemes B /dev/stdin` runs as A writing
    to a file and B reading it."""
    block = README.read_text(encoding="utf-8").split("Examples:\n\n```sh\n", 1)[1]
    runs = []
    for line in block.split("```", 1)[0].splitlines():
        commands = [shlex.split(part, comments=True) for part in line.split("|")]
        assert all(argv[0] == "arcschemes" for argv in commands), line
        if len(commands) == 2:
            commands[0] += ["-o", "piped.graph"]
            commands[1] = ["piped.graph" if a == "/dev/stdin" else a for a in commands[1]]
        runs += [argv[1:] for argv in commands]
    return runs


def test_readme_usage_names_every_generator():
    assert f"  {_USAGE.removeprefix('usage: ').rstrip()}  [-o FILE]\n" in README.read_text()


def test_readme_examples_run(tmp_path, capsys, monkeypatch):
    runs = _readme_examples()
    assert len(runs) == 6
    monkeypatch.chdir(tmp_path)
    for argv in runs:
        assert main(argv) == 0, argv
    capsys.readouterr()
