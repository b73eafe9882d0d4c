import importlib.util
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from arcschemes.characterize import (
    OUTER_DIHEDRAL,
    OUTER_FORESTAL_MATCHING,
    OUTER_RANK2,
    STAGE_NON_ASSOCIATION,
    STAGE_QUOTIENT_NOT_ELEMENTARY,
    STAGE_UNEQUAL_TWIN_CLASSES,
    Decomposition,
    _certificate_generators,
    _group_bounds,
    _lift,
    _outer_colors,
    _recognize,
    decompose_caw,
    group_witness,
    is_elementary_caw,
    predicted_aut_order,
    predicted_scheme,
    verify_wreath_theorem,
)
import arcschemes.characterize as characterize_module
import arcschemes.closure as closure_module
import arcschemes.graphs as graphs_module
import arcschemes.schemes as schemes_module
from arcschemes.arcs import intersection_graph, reduction_failures
from arcschemes.cli import main
from arcschemes.closure import _initial_coloring, closure_of_graph
from arcschemes.graphs import (
    complete,
    cycle,
    elementary_caw,
    empty_graph,
    from_edges,
    graph_to_text,
    lex_product,
    quotient_graph,
    twin_relation,
)
from arcschemes.schemes import (
    CoherentConfiguration,
    is_association,
    scheme_to_text,
    verify,
)
from arcschemes.suites import aut_cases, run_aut_suite
from test_graphs import graphs as hypothesis_graphs


def assert_labels_witness(g, n, k, labels):
    assert sorted(labels) == list(range(n))
    for u in range(g.n):
        for v in range(u + 1, g.n):
            want = 1 <= oracles.circular_distance(labels[u], labels[v], n) <= k
            assert g.adj[u, v] == want


def assert_certificate_witness(g, cert):
    seen = set()
    for u in range(g.n):
        au, bu = divmod(cert.points[u], cert.r)
        assert 0 <= au < cert.m and 0 <= bu < cert.r
        seen.add((au, bu))
        for v in range(u + 1, g.n):
            av, bv = divmod(cert.points[v], cert.r)
            if au == av:
                want = bu != bv
            else:
                want = 1 <= oracles.circular_distance(au, av, cert.m) <= cert.k
            assert g.adj[u, v] == want
    assert len(seen) == g.n == cert.m * cert.r


def permuted_member(m, k, r, seed):
    """C_{m,k}[K_r] (K_r itself for m = 1) with randomly permuted labels."""
    g = complete(r) if m == 1 else lex_product(elementary_caw(m, k), complete(r))
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def swapped_outer(m, k, r):
    """X of C_{m,k}[K_r] pulled back through the transposition of positions
    0 and 1: the same rank, on other pairs when X is a matching or
    dihedral scheme (the transposition is none of its automorphisms)."""
    p = np.r_[1, 0, 2:m]
    return _outer_colors(m, k, r)[np.ix_(p, p)]


# every certificate (m, k, r) on at most 60 points, m = 1 being K_r
MEMBER_GRID = [(m, k, r) for m in range(1, 61) for k in range(m) for r in range(1, 60 // m + 1)
               if 2 * k + 1 < m or (m, k) == (1, 0)]


def count_calls(monkeypatch, module, name):
    """Wrap module.name to record its calls; returns the call list."""
    original = getattr(module, name)
    calls = []
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or original(*a))
    return calls


class TestIsElementary:
    def test_cycle7(self):
        n, k, labels = is_elementary_caw(cycle(7))
        assert (n, k) == (7, 1)
        assert_labels_witness(cycle(7), n, k, labels)

    def test_permuted_round_trip(self):
        rng = random.Random(5)
        base = elementary_caw(9, 2)
        perm = list(range(9))
        rng.shuffle(perm)
        g = from_edges(9, [(perm[u], perm[v]) for u, v in base.edges()])
        n, k, labels = is_elementary_caw(g)
        assert (n, k) == (9, 2)
        assert_labels_witness(g, n, k, labels)

    def test_petersen_rejected(self):
        assert is_elementary_caw(oracles.petersen()) is None

    def test_complete_rejected(self):
        assert is_elementary_caw(complete(5)) is None
        assert is_elementary_caw(complete(4)) is None

    def test_empty_is_k_zero(self):
        assert is_elementary_caw(empty_graph(4)) == (4, 0, (0, 1, 2, 3))

    def test_matching_complement(self):
        g = elementary_caw(6, 2)
        n, k, labels = is_elementary_caw(g)
        assert (n, k) == (6, 2)
        assert_labels_witness(g, n, k, labels)

    def test_irregular_rejected(self):
        assert is_elementary_caw(oracles.path(4)) is None

    def test_odd_regular_rejected(self):
        k33 = from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
        assert is_elementary_caw(k33) is None

    def test_circulant_with_wrong_connection_set_rejected(self):
        g = from_edges(
            8,
            sorted(
                {
                    tuple(sorted((i, (i + d) % 8)))
                    for i in range(8)
                    for d in (1, 3)
                }
            ),
        )
        assert all(g.degree(v) == 4 for v in range(8))
        assert is_elementary_caw(g) is None

    @pytest.mark.parametrize("n,k", [(5, 1), (6, 1), (7, 2), (8, 3), (9, 3), (10, 4)])
    def test_generator_family_recognized(self, n, k):
        g = elementary_caw(n, k)
        got = is_elementary_caw(g)
        assert got is not None and got[:2] == (n, k)


class TestDecompose:
    def test_lex_c5_k2(self):
        g = lex_product(elementary_caw(5, 1), complete(2))
        out = decompose_caw(g)
        assert out.ok and (out.certificate.m, out.certificate.k, out.certificate.r) == (5, 1, 2)
        assert_certificate_witness(g, out.certificate)

    def test_path_fails_non_association(self):
        out = decompose_caw(oracles.path(4))
        assert not out.ok and out.failure_stage == STAGE_NON_ASSOCIATION

    def test_star_fails_non_association(self):
        out = decompose_caw(oracles.star(3))
        assert not out.ok and out.failure_stage == STAGE_NON_ASSOCIATION

    def test_petersen_fails_at_quotient(self):
        out = decompose_caw(oracles.petersen())
        assert not out.ok and out.failure_stage == STAGE_QUOTIENT_NOT_ELEMENTARY

    @pytest.mark.parametrize(
        "name,builder",
        [
            ("hypercube", oracles.hypercube3),
            ("K_{3,3}", lambda: oracles.complete_bipartite(3, 3)),
            ("C4xC4 torus", oracles.torus_4x4),
        ],
    )
    def test_association_but_not_circular_arc(self, name, builder):
        # association schemes outside the class must fail at the quotient
        g = builder()
        assert is_association(closure_of_graph(g)), name
        out = decompose_caw(g)
        assert not out.ok and out.failure_stage == STAGE_QUOTIENT_NOT_ELEMENTARY

    def test_complete_graph_degenerate_certificate(self):
        out = decompose_caw(complete(6))
        assert out.ok
        assert (out.certificate.m, out.certificate.k, out.certificate.r) == (1, 0, 6)

    def test_k2(self):
        out = decompose_caw(complete(2))
        assert out.ok and (out.certificate.m, out.certificate.k, out.certificate.r) == (1, 0, 2)

    def test_disjoint_cliques(self):
        g = lex_product(empty_graph(3), complete(2))
        out = decompose_caw(g)
        assert out.ok and (out.certificate.m, out.certificate.k, out.certificate.r) == (3, 0, 2)

    def test_c4(self):
        out = decompose_caw(cycle(4))
        assert out.ok and (out.certificate.m, out.certificate.k, out.certificate.r) == (4, 1, 1)

    def test_empty_graph(self):
        out = decompose_caw(empty_graph(5))
        assert out.ok and (out.certificate.m, out.certificate.k, out.certificate.r) == (5, 0, 1)

    @pytest.mark.parametrize(
        "m,k,r",
        [(m, k, r) for m in range(2, 8) for k in range(0, m) for r in (1, 2)
         if 2 * k + 1 < m and m * r <= 14],
    )
    def test_round_trip_grid(self, m, k, r):
        g = lex_product(elementary_caw(m, k), complete(r))
        out = decompose_caw(g)
        assert out.ok
        cert = out.certificate
        assert (cert.k, cert.r) == (k, r)
        assert cert.m == m
        assert_certificate_witness(g, cert)

    def test_completeness_under_relabeling(self):
        # every relabeled member of the generator family must be recognized
        import itertools

        def generators(n):
            out = []
            for m in range(1, n + 1):
                if n % m:
                    continue
                r = n // m
                ks = [0] if m == 1 else [k for k in range(0, m) if 2 * k + 1 < m]
                for k in ks:
                    out.append((m, k, r, lex_product(elementary_caw(m, k), complete(r))
                                if m > 1 else complete(r)))
            return out

        rng = random.Random(8)
        for n in range(2, 9):
            for m, k, r, g in generators(n):
                if n <= 5:
                    perms = itertools.permutations(range(n))
                else:
                    perms = []
                    for _ in range(10):
                        p = list(range(n))
                        rng.shuffle(p)
                        perms.append(tuple(p))
                for perm in perms:
                    h = from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
                    out = decompose_caw(h)
                    assert out.ok, (m, k, r, perm)
                    assert (out.certificate.k, out.certificate.r) == (k, r)

    @pytest.mark.parametrize("m, k", [(7, 1), (9, 2), (13, 4), (40, 3)])
    def test_walk_leaves_vertex_zero_towards_smaller_neighbor(self, m, k):
        # r = 1 and m > 2k+2: label 1 goes to the smaller-numbered of the
        # two vertices next to vertex 0 on the recovered cycle
        rng = random.Random(m * 100 + k)
        for _ in range(10):
            perm = list(range(m))
            rng.shuffle(perm)
            g = from_edges(m, [(perm[u], perm[v]) for u, v in elementary_caw(m, k).edges()])
            cert = decompose_caw(g).certificate
            assert_certificate_witness(g, cert)
            at = perm.index(0)
            beside = min(perm[(at + 1) % m], perm[(at - 1) % m])
            assert cert.points[0] == 0 and cert.points[beside] == 1

    def test_soundness_on_corpus(self, corpus):
        for g in corpus:
            out = decompose_caw(g)
            if out.ok:
                assert is_association(closure_of_graph(g))
                assert out.certificate.outer in (OUTER_RANK2, OUTER_FORESTAL_MATCHING,
                                                 OUTER_DIHEDRAL)

    def test_certificate_validation(self):
        with pytest.raises(ValueError):
            Decomposition(4, 2, 1, tuple(range(4)))  # 2k+1 >= m
        with pytest.raises(ValueError):
            Decomposition(2, 0, 2, (0,))  # length mismatch


class TestSchemeDecomposition:
    def test_dihedral_case(self):
        out = decompose_caw(lex_product(elementary_caw(7, 2), complete(2)))
        assert out.certificate.outer == OUTER_DIHEDRAL
        assert (out.certificate.m, out.certificate.r) == (7, 2)

    def test_matching_case(self):
        out = decompose_caw(elementary_caw(6, 2))
        assert out.certificate.outer == OUTER_FORESTAL_MATCHING
        assert (out.certificate.m, out.certificate.r) == (6, 1)

    def test_rank2_case(self):
        out = decompose_caw(lex_product(empty_graph(3), complete(2)))
        assert out.certificate.outer == OUTER_RANK2
        assert (out.certificate.m, out.certificate.r) == (3, 2)

    def test_complete_graph(self):
        out = decompose_caw(complete(6))
        assert out.certificate.outer == OUTER_RANK2
        assert (out.certificate.m, out.certificate.r) == (1, 6)

    def test_outside_class(self):
        assert decompose_caw(oracles.path(4)).certificate is None

    @pytest.mark.parametrize("m, k, r", [(30, 3, 3), (84, 5, 1), (8, 3, 5), (12, 0, 3)])
    def test_witness_maps_predicted_classes_onto_closure(self, m, k, r):
        g = lex_product(elementary_caw(m, k), complete(r))
        perm = list(range(g.n))
        random.Random(m * 100 + r).shuffle(perm)
        out = decompose_caw(from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
        kind = (OUTER_RANK2 if k == 0 else OUTER_FORESTAL_MATCHING if m == 2 * k + 2
                else OUTER_DIHEDRAL)
        assert out.certificate.outer == kind
        sigma = out.certificate.points
        assert sorted(sigma) == list(range(g.n))
        back = {x: v for v, x in enumerate(sigma)}
        predicted = oracles.scheme_pair_classes(predicted_scheme(m, k, r))
        mapped = {frozenset((back[x], back[y]) for x, y in pairs) for pairs in predicted}
        assert oracles.scheme_pair_classes(out.scheme) == mapped

    def test_mismatch_with_prediction_is_a_bug(self, monkeypatch):
        # a certified member's closure always matches X, so a wrong X of the
        # right rank must surface as a failed comparison, not a certificate
        monkeypatch.setattr(characterize_module, "_outer_colors", swapped_outer)
        with pytest.raises(AssertionError, match="differs from prediction"):
            decompose_caw(lex_product(cycle(5), complete(2)))

    def test_predicted_scheme_rank(self):
        assert predicted_scheme(7, 2, 2).rank == 5  # rank2(2) wr dihedral(7)
        assert predicted_scheme(6, 2, 1).rank == 3
        assert predicted_scheme(3, 0, 2).rank == 3
        assert predicted_scheme(1, 0, 6).rank == 2


class TestRecognizeFirst:
    # a member's closure is C_{m,k}'s, closed on one row and lifted; these
    # check that it is the full closure, and that the stages of a
    # non-member are reported as they were with the full closure first

    @pytest.mark.parametrize("kind", ["rank2", "matching", "dihedral"])
    def test_stopped_closure_equals_full_closure(self, kind):
        # a member's scheme, the lift of the row closure of C_{m,k}, is the
        # full closure on every shape of MEMBER_GRID, K_1 and K_60 among them
        grid = [(m, k, r) for m, k, r in MEMBER_GRID
                if kind == ("rank2" if k == 0 else "matching" if m == 2 * k + 2 else "dihedral")]
        assert len(grid) > 50
        if kind == "rank2":  # complete graphs K_r, K_1 among them
            assert {(1, 0, 1), (1, 0, 60)} <= set(grid)
        for m, k, r in grid:
            g = permuted_member(m, k, r, seed=m * 3600 + k * 60 + r)
            out = decompose_caw(g)
            assert out.ok, (m, k, r)
            assert (out.certificate.m, out.certificate.k, out.certificate.r) == (m, k, r)
            assert out.scheme == closure_of_graph(g), (m, k, r)

    @pytest.mark.parametrize("kind", ["rank2", "matching", "dihedral"])
    def test_lifted_closure_equals_full_closure(self, kind, monkeypatch):
        # no matrix is refined, only the row of C_{m,k}, and the lift of the
        # quotient's closure through the certificate is the full closure of g
        grid = [(m, k, r) for m, k, r in MEMBER_GRID if r <= 6
                and kind == ("rank2" if k == 0 else "matching" if m == 2 * k + 2 else "dihedral")]
        assert set(range(1, 7)) <= {r for _, _, r in grid}
        rounds = count_calls(monkeypatch, closure_module, "refine_step")
        for m, k, r in grid:
            g = permuted_member(m, k, r, seed=r * 3600 + m * 60 + k)
            del rounds[:]
            out = decompose_caw(g)
            assert rounds == []
            full = closure_of_graph(g)
            assert out.scheme == full, (m, k, r)
            if r > 1:
                a = np.array(out.certificate.points) // r
                quotient = complete(1) if m == 1 else elementary_caw(m, k)
                assert _lift(closure_of_graph(quotient).colors, a) == full, (m, k, r)

    def test_lift_of_an_inhomogeneous_quotient(self):
        # the lift is exact for every twin-free Q, also when its closure has
        # several diagonal colors; Q[K_r] puts r points at each position
        rng = random.Random(3)
        quotients = [oracles.path(n) for n in range(3, 8)]
        quotients += [q for q in (oracles.random_graph(rng, rng.randint(3, 9)) for _ in range(60))
                      if np.array_equal(twin_relation(q), np.arange(q.n))]
        assert len(quotients) > 30
        inhomogeneous = 0
        for q in quotients:
            closure = closure_of_graph(q)
            inhomogeneous += not is_association(closure)
            for r in (2, 3):
                lifted = _lift(closure.colors, np.repeat(np.arange(q.n), r))
                assert lifted == closure_of_graph(lex_product(q, complete(r))), (q, r)
        assert inhomogeneous > 20

    def test_predicted_scheme_is_coherent_of_predicted_rank(self):
        # predicted_scheme numbers its points as lex_product does, so it is
        # the closure of the unpermuted member under the identity; X has the
        # colors 0 .. rank(X) - 1
        for m, k, r in MEMBER_GRID:
            predicted = predicted_scheme(m, k, r)
            assert verify(predicted).ok, (m, k, r)
            assert predicted.rank == oracles.predicted_rank(m, k, r), (m, k, r)
            outer = _outer_colors(m, k, r)
            assert outer.shape == (m, m), (m, k, r)
            assert np.unique(outer).tolist() == list(range(oracles.predicted_rank(m, k, 1)))
            assert np.array_equal(outer, CoherentConfiguration(outer).colors), (m, k, r)
            g = complete(r) if m == 1 else lex_product(elementary_caw(m, k), complete(r))
            assert closure_of_graph(g) == predicted, (m, k, r)

    def test_predicted_rank_invalid(self):
        # _outer_colors gives the rank of X, the closed form's successor
        for m, k, r in [(0, 0, 1), (5, 1, 0), (5, -1, 1), (4, 2, 1), (3, 1, 2)]:
            for predicted in (_outer_colors, predicted_scheme, predicted_aut_order):
                with pytest.raises(ValueError):
                    predicted(m, k, r)
            with pytest.raises(ValueError):
                Decomposition(m, k, r, tuple(range(m * r)))

    @pytest.mark.parametrize("m, k, r, points", [
        (1, 0, 2, ((0,), (1,))),
        (5, 1, 1, ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0))),
        (5, 1, 1, (0, 1, 2, 3, 3)),
        # vertex 0 at position 7, point 7 * 2 + 0, beyond range(10)
        (5, 1, 2, (14, 1, 2, 3, 4, 5, 6, 7, 8, 9)),
        # vertex 0 at index r = 2, point 0 * 2 + 2, which vertex 2 also has
        (5, 1, 2, (2, 1, 2, 3, 4, 5, 6, 7, 8, 9)),
        (5, 1, 1, (0, 1, 2, 3, 10**30)),
        (5, 1, 1, (0, 1, 2, 3)),
    ], ids=["one-tuples", "pairs", "repeated", "position-outside-Z_m", "index-equals-r",
            "beyond-int64", "wrong-length"])
    def test_points_must_be_a_permutation(self, m, k, r, points):
        with pytest.raises(ValueError, match="permutation"):
            Decomposition(m, k, r, points)

    @pytest.mark.parametrize("name,builder,stage", [
        ("P4", lambda: oracles.path(4), STAGE_QUOTIENT_NOT_ELEMENTARY),
        ("K_{1,3}", lambda: oracles.star(3), STAGE_QUOTIENT_NOT_ELEMENTARY),
        ("K_2 + K_1", lambda: from_edges(3, [(0, 1)]), STAGE_UNEQUAL_TWIN_CLASSES),
    ])
    def test_non_association_reported_before_recognition(self, name, builder, stage):
        g = builder()
        assert not is_association(closure_of_graph(g)), name
        labels = twin_relation(g)
        assert (_recognize(g, labels, quotient_graph(g, labels), np.bincount(labels))
                == (None, stage))
        out = decompose_caw(g)
        assert not out.ok and out.failure_stage == STAGE_NON_ASSOCIATION
        assert out.scheme == closure_of_graph(g)

    @pytest.mark.parametrize("name,builder", [("petersen", oracles.petersen),
                                              ("hypercube", oracles.hypercube3)])
    def test_association_non_member_reports_recognition_stage(self, name, builder):
        g = builder()
        assert is_association(closure_of_graph(g)), name
        out = decompose_caw(g)
        assert not out.ok and out.failure_stage == STAGE_QUOTIENT_NOT_ELEMENTARY
        assert out.scheme == closure_of_graph(g)

    def test_irregular_graph_skips_recognition(self, monkeypatch):
        # an irregular graph has no association scheme: the stage is the
        # same as with recognition, and no recognition stage runs (the twin
        # labels are computed for the non-member closure all the same)
        rng = random.Random(5)
        graphs = [oracles.path(4), oracles.star(3), from_edges(3, [(0, 1)])]
        graphs += [oracles.random_graph(rng, rng.randint(3, 12)) for _ in range(40)]
        irregular = [g for g in graphs if not g.is_regular()]
        assert len(irregular) > 30
        recognitions = count_calls(monkeypatch, characterize_module, "_recognize")
        for g in irregular:
            out = decompose_caw(g)
            assert not out.ok and out.failure_stage == STAGE_NON_ASSOCIATION
            assert out.scheme == closure_of_graph(g)
        assert recognitions == []
        decompose_caw(oracles.petersen())  # regular: recognition runs
        assert len(recognitions) == 1

    @pytest.mark.parametrize("m, r", [(1, 1), (1, 5), (6, 1), (4, 3), (9, 6)])
    def test_k0_member_needs_no_round(self, m, r, monkeypatch):
        # the initial coloring of a k = 0 member already has the predicted
        # rank: no matrix round, and one row round, which only confirms it
        g = permuted_member(m, 0, r, seed=m + r)
        closures = count_calls(monkeypatch, closure_module, "coherent_closure")
        row_closures = count_calls(monkeypatch, characterize_module, "circulant_closure")
        rounds = count_calls(monkeypatch, closure_module, "refine_step")
        row_rounds = count_calls(monkeypatch, closure_module, "refine_row")
        out = decompose_caw(g)
        assert out.ok and out.scheme.rank == oracles.predicted_rank(m, 0, r)
        assert (len(closures), len(row_closures)) == (0, 1)
        assert (len(rounds), len(row_rounds)) == (0, 1)

    @pytest.mark.parametrize("m, k, r", [(8, 3, 5), (12, 3, 3), (40, 3, 1), (18, 4, 4),
                                         (12, 5, 6), (30, 3, 3)])
    def test_member_closes_on_row_rounds(self, m, k, r, monkeypatch):
        # every r refines only the row of C_{m,k}, one row round for each
        # matrix round of its plain closure, the confirming round included
        g = permuted_member(m, k, r, seed=7)
        full = closure_of_graph(g)
        rounds = count_calls(monkeypatch, closure_module, "refine_step")
        quotient_rank = closure_of_graph(elementary_caw(m, k)).rank
        quotient_rounds = len(rounds)
        del rounds[:]
        closures = count_calls(monkeypatch, closure_module, "coherent_closure")
        row_closures = count_calls(monkeypatch, characterize_module, "circulant_closure")
        row_rounds = count_calls(monkeypatch, closure_module, "refine_row")
        out = decompose_caw(g)
        assert out.scheme == full
        assert (len(closures), len(row_closures)) == (0, 1)
        assert (len(rounds), len(row_rounds)) == (0, quotient_rounds)
        assert all(row.shape == (m,) for row, _ in row_rounds)
        # the last round starts at the closure's rank, so it splits nothing
        assert row_rounds[-1][1] == quotient_rank

    def test_closure_command_takes_the_member_path(self, monkeypatch, tmp_path, capsys):
        # closure of a member dumps the closure decompose_caw lifts from
        # the row of C_{m,k}: no matrix round, one row closure, and the
        # bytes of the full closure
        rounds = count_calls(monkeypatch, closure_module, "refine_step")
        rounds_in_verify = count_calls(monkeypatch, schemes_module, "refine_step")
        row_closures = count_calls(monkeypatch, characterize_module, "circulant_closure")
        path, dump = tmp_path / "member.graph", tmp_path / "member.scheme"
        for m, k, r in MEMBER_GRID:
            g = permuted_member(m, k, r, seed=m * 3600 + k * 60 + r + 1)
            path.write_text(graph_to_text(g))
            full = scheme_to_text(closure_of_graph(g))
            del rounds[:], rounds_in_verify[:], row_closures[:]
            assert main(["--no-timing", "closure", str(path), "-o", str(dump)]) == 0
            assert (len(rounds), len(rounds_in_verify), len(row_closures)) == (0, 0, 1), (m, k, r)
            assert dump.read_text() == full, (m, k, r)
        capsys.readouterr()

    @pytest.mark.parametrize("m, k, r", [(1, 0, 1), (1, 0, 5), (6, 0, 1), (5, 0, 3), (6, 2, 1),
                                         (8, 3, 2), (7, 1, 1), (9, 2, 3), (12, 3, 1)])
    def test_stop_above_true_rank_is_a_bug(self, m, k, r, monkeypatch):
        # an X with one color more: the row closure of C_{m,k} has fewer
        # colors than X, so the comparison fails and decompose_caw raises
        def one_more(m, k, r):
            outer = original(m, k, r).astype(np.int64)
            outer[0, 0] = outer.max() + 1
            return outer

        original = _outer_colors
        monkeypatch.setattr(characterize_module, "_outer_colors", one_more)
        with pytest.raises(AssertionError):
            decompose_caw(permuted_member(m, k, r, seed=11))

    @pytest.mark.parametrize("m, k, r", [(1, 0, 1), (1, 0, 5), (6, 0, 1), (5, 0, 3), (6, 2, 1),
                                         (8, 3, 2), (7, 1, 1), (9, 2, 3), (12, 3, 1)])
    def test_stop_below_true_rank_is_a_bug(self, m, k, r, monkeypatch, tmp_path, capsys):
        # an X with one color fewer, its diagonal merged into its top color:
        # the row closure keeps the diagonal apart from every other pair, as
        # the initial coloring does and no round merges colors, so it differs
        # from X.  decompose_caw raises, and no certificate is reported.
        def one_fewer(m, k, r):
            outer = original(m, k, r)
            return np.where(outer == 0, outer.max(), outer) - 1

        original = _outer_colors
        monkeypatch.setattr(characterize_module, "_outer_colors", one_fewer)
        g = permuted_member(m, k, r, seed=13)
        with pytest.raises(AssertionError):
            decompose_caw(g)
        path = tmp_path / "member.graph"
        path.write_text(graph_to_text(g))
        with pytest.raises(AssertionError):
            main(["--no-timing", "decompose", str(path)])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("m, k, r", [(7, 2, 1), (7, 2, 3), (4, 1, 1), (4, 1, 2)])
    def test_every_member_closure_is_checked(self, m, k, r, monkeypatch, tmp_path, capsys):
        # a wrong X with the closure's rank for the one shape (m, k, r): the
        # colors are as many as the row closure's, so only the comparison of
        # the two matrices catches it, for every caller of decompose_caw, the
        # aut suite and the CLI among them
        original = _outer_colors
        monkeypatch.setattr(characterize_module, "_outer_colors", lambda *shape: (
            swapped_outer(*shape) if shape == (m, k, r) else original(*shape)))
        g = permuted_member(m, k, r, seed=17)
        with pytest.raises(AssertionError, match="differs from prediction"):
            decompose_caw(g)
        if m * r <= 8:
            with pytest.raises(AssertionError, match="differs from prediction"):
                run_aut_suite(8)
        path = tmp_path / "member.graph"
        path.write_text(graph_to_text(g))
        with pytest.raises(AssertionError, match="differs from prediction"):
            main(["--no-timing", "decompose", str(path)])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("r", [1, 3])
    def test_x_equal_to_an_unstable_coloring_is_a_bug(self, r, monkeypatch, tmp_path, capsys):
        # the dihedral X of C_{7,1} with distances 2 and 3 merged is the
        # initial coloring of C_7: diagonal, edges, non-edges.  It is not
        # coherent, and the closure splits it, so only a closure refined to
        # stability, not one stopped at rank(X), shows the mismatch
        def merged(*shape):
            outer = original(*shape)
            return np.minimum(outer, 2) if shape == (7, 1, r) else outer

        original = _outer_colors
        monkeypatch.setattr(characterize_module, "_outer_colors", merged)
        g = permuted_member(7, 1, r, seed=23)
        assert CoherentConfiguration(merged(7, 1, r)) == CoherentConfiguration(
            _initial_coloring(7, [elementary_caw(7, 1).adj]))
        with pytest.raises(AssertionError, match="differs from prediction"):
            decompose_caw(g)
        path = tmp_path / "member.graph"
        path.write_text(graph_to_text(g))
        with pytest.raises(AssertionError, match="differs from prediction"):
            main(["--no-timing", "decompose", str(path)])
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("m, k, r", [(2, 0, 1), (5, 0, 2), (6, 2, 1), (9, 2, 3)])
    def test_x_wrong_off_row_zero_is_a_bug(self, m, k, r, monkeypatch):
        # a new color on the last diagonal pair leaves row 0 of X as it was,
        # so the comparison must read all of the m x m matrix
        def last_split(*shape):
            outer = original(*shape).astype(np.int64)
            outer[-1, -1] = outer.max() + 1
            return outer

        original = _outer_colors
        monkeypatch.setattr(characterize_module, "_outer_colors", last_split)
        with pytest.raises(AssertionError, match="differs from prediction"):
            decompose_caw(permuted_member(m, k, r, seed=29))

    @pytest.mark.parametrize("m, k, r", [(7, 2, 1), (7, 2, 3), (6, 2, 1), (6, 2, 2)])
    def test_wrong_positions_fail_the_relabeling_check(self, m, k, r, monkeypatch):
        # recognition trusts no labeling: positions 0 and 1 of the quotient
        # swapped give a map that is not an isomorphism, and no certificate
        def swapped(q):
            n, k, labels = original(q)
            return n, k, tuple({0: 1, 1: 0}.get(x, x) for x in labels)

        original = characterize_module._elementary_walk
        monkeypatch.setattr(characterize_module, "_elementary_walk", swapped)
        g = permuted_member(m, k, r, seed=19)
        labels = twin_relation(g)
        assert (_recognize(g, labels, quotient_graph(g, labels), np.bincount(labels))
                == (None, STAGE_QUOTIENT_NOT_ELEMENTARY))
        out = decompose_caw(g)
        assert not out.ok and out.failure_stage == STAGE_QUOTIENT_NOT_ELEMENTARY
        assert out.scheme == closure_of_graph(g)
        if r == 1:
            assert is_elementary_caw(g) is None


class TestNonmemberClosure:
    # a non-member is closed on its twin quotient colored by class size:
    # discrete when vertex refinement of the quotient is, else by one
    # coherent_closure, and lifted through the twin labels; the result is
    # the plain closure byte for byte

    @staticmethod
    def blown_up(rng, n):
        # a random graph, each vertex blown up by K_s with s in 1..3, permuted
        outer = oracles.random_graph(rng, n)
        a = np.repeat(np.arange(n), [rng.randint(1, 3) for _ in range(n)])
        adj = outer.adj[np.ix_(a, a)] | (a[:, None] == a)
        perm = np.array(rng.sample(range(a.size), a.size))
        u, v = np.nonzero(np.triu(adj[np.ix_(perm, perm)], 1))
        return from_edges(a.size, list(zip(u.tolist(), v.tolist())))

    @staticmethod
    def non_reduced_arc_graphs(rng, count):
        graphs = []
        while len(graphs) < count:
            f = oracles.random_arc_function(rng, 14)
            if reduction_failures(f):
                graphs.append(intersection_graph(f))
        return graphs

    def closures_match(self, graphs, monkeypatch):
        """Assert decompose_caw's scheme is the plain closure on every graph;
        returns (discrete, fallback), the non-members closed each way."""
        calls = count_calls(monkeypatch, closure_module, "coherent_closure")
        discrete = fallback = 0
        for g in graphs:
            before = len(calls)
            out = decompose_caw(g)
            closures = len(calls) - before
            assert out.scheme.colors.tobytes() == closure_of_graph(g).colors.tobytes(), g
            if out.ok:  # a member, closed through its certificate
                continue
            assert closures <= 1, g
            discrete += closures == 0
            fallback += closures == 1
        return discrete, fallback

    @pytest.mark.parametrize("corpus", ["blown-up", "arc-models"])
    def test_twin_quotient_closure_is_the_closure(self, corpus, monkeypatch):
        rng = random.Random(26)
        if corpus == "blown-up":
            graphs = [self.blown_up(rng, rng.randint(1, 10)) for _ in range(200)]
        else:
            graphs = self.non_reduced_arc_graphs(rng, 200)
        unequal = [g for g in graphs if np.unique(np.bincount(twin_relation(g))).size > 1]
        assert len(unequal) >= 20
        discrete, fallback = self.closures_match(graphs, monkeypatch)
        assert discrete >= 20 and fallback >= 20, (discrete, fallback)

    def test_arcs_nonmembers_deck(self, tmp_path, monkeypatch):
        # the benchmark's arc-model graphs (n = 30 .. 64) of seeds 1 and 2
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        graphs = [from_edges(q.n, sorted(q.data["edges"]))
                  for seed in (1, 2)
                  for q in workloads.ArcsNonmembers().build(seed, tmp_path)]
        assert len(graphs) == 70
        discrete, _ = self.closures_match(graphs, monkeypatch)
        assert discrete >= 60

    def test_plain_closures_take_no_twin_quotient(self, monkeypatch):
        # closure_of_graph and the wreath check stay plain 2-WL, so the wreath
        # suite checks the lift against refinement, not against itself
        calls = [count_calls(monkeypatch, module, name)
                 for module, name in ((graphs_module, "quotient_graph"),
                                      (characterize_module, "quotient_graph"),
                                      (characterize_module, "_nonmember_closure"))]
        rng = random.Random(4)
        outers = [oracles.random_graph(rng, rng.randint(2, 7)) for _ in range(10)]
        for outer in outers + [complete(3), cycle(5)]:
            closure_of_graph(lex_product(outer, complete(2)))
            verify_wreath_theorem(2, outer)
        assert not any(calls)


class TestSummaryWithoutLift:
    # an outcome keeps the quotient's closure and the positions: n, rank,
    # association and the diagonal colors are counted on them, and the
    # n x n lift is built once, when scheme is first read

    @staticmethod
    def assert_counts_are_the_lifts(g, lifts):
        out = decompose_caw(g)
        counts = (out.n, out.rank, out.association, out.diagonal_count)
        assert lifts == [], g
        scheme = out.scheme
        assert len(lifts) == 1 and out.scheme is scheme, g
        assert counts == (scheme.n, scheme.rank, is_association(scheme),
                          len(scheme.diagonal_colors)), g
        del lifts[:]
        return out

    def test_permuted_members(self, monkeypatch):
        lifts = count_calls(monkeypatch, characterize_module, "_lift")
        for m, k, r in aut_cases(30):
            g = permuted_member(m, k, r, seed=m * 900 + k * 30 + r)
            assert self.assert_counts_are_the_lifts(g, lifts).ok, (m, k, r)

    def test_complete_graphs(self, monkeypatch):
        lifts = count_calls(monkeypatch, characterize_module, "_lift")
        for n in (1, 60):
            out = self.assert_counts_are_the_lifts(complete(n), lifts)
            assert (out.n, out.rank, out.diagonal_count) == (n, min(n, 2), 1)

    def test_golden_non_member_with_twins(self, monkeypatch):
        lifts = count_calls(monkeypatch, characterize_module, "_lift")
        path = Path(__file__).resolve().parent / "golden" / "arcs-twins.graph"
        g = graphs_module.read_graph(path)
        out = self.assert_counts_are_the_lifts(g, lifts)
        assert not out.ok and np.unique(np.bincount(twin_relation(g))).size == 3

    def test_blown_up_non_members(self, monkeypatch):
        # quotients closed with no 2-WL round and with coherent_closure
        lifts = count_calls(monkeypatch, characterize_module, "_lift")
        closures = count_calls(monkeypatch, closure_module, "coherent_closure")
        rng = random.Random(28)
        discrete = fallback = 0
        for _ in range(150):
            g = TestNonmemberClosure.blown_up(rng, rng.randint(1, 10))
            before = len(closures)
            out = self.assert_counts_are_the_lifts(g, lifts)
            if not out.ok:
                discrete += len(closures) == before
                fallback += len(closures) == before + 1
        assert discrete >= 20 and fallback >= 20, (discrete, fallback)


class TestOneQuotient:
    # decompose_caw builds the twin quotient once, from one vertex per
    # class, and shares it with recognition and the non-member closure

    @pytest.mark.parametrize("make_graph", [
        oracles.petersen,
        lambda: lex_product(oracles.hypercube3(), complete(2)),
        lambda: oracles.path(4),
        lambda: permuted_member(9, 2, 3, seed=9),
    ], ids=["petersen", "cube[K_2]", "P4", "C_{9,2}[K_3]"])
    def test_quotient_built_once(self, make_graph, monkeypatch):
        g = make_graph()
        calls = count_calls(monkeypatch, characterize_module, "quotient_graph")
        out = decompose_caw(g)
        assert len(calls) == 1
        assert out.scheme == closure_of_graph(g)

    def test_member_of_2000_points_allocates_less_than_an_int64_matrix(self):
        # the relabeling check gathers booleans on Z_m, not n x n int64s
        g = permuted_member(400, 5, 5, seed=2000)
        tracemalloc.start()
        try:
            out = decompose_caw(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.ok and g.n == 2000
        assert peak < 8 * g.n ** 2, peak


class TestOneRecognizer:
    # is_elementary_caw is the r = 1 case of _recognize: one walk and one
    # edge-exact comparison, on g, for each certificate

    @staticmethod
    def assert_entry_points_agree(g):
        """is_elementary_caw(g) is the (m, k, points) of decompose_caw(g)'s
        certificate when it has r = 1, else None; a labeling is checked
        pair by pair.  Returns whether g was recognized."""
        got = is_elementary_caw(g)
        cert = decompose_caw(g).certificate
        if cert is None or cert.r != 1:
            assert got is None, g
            return False
        assert got == (cert.m, cert.k, cert.points), g
        assert_labels_witness(g, *got)
        return True

    @staticmethod
    def double_edge_swapped(rng, n, k, swaps):
        """C_{n,k} after up to swaps double-edge swaps ab, cd -> ad, cb (each
        keeps every degree), with permuted labels."""
        edges = set(elementary_caw(n, k).edges())
        for _ in range(swaps):
            (a, b), (c, d) = rng.sample(sorted(edges), 2)
            new = {tuple(sorted((a, d))), tuple(sorted((c, b)))}
            if len({a, b, c, d}) == 4 and len(new) == 2 and not new & edges:
                edges = edges - {(a, b), (c, d)} | new
        perm = list(range(n))
        rng.shuffle(perm)
        return from_edges(n, [(perm[u], perm[v]) for u, v in edges])

    def test_every_circulant_up_to_12_points(self):
        recognized = twin_free = 0
        for m in range(1, 13):
            for bits in range(1 << (m // 2)):
                connection = [s for s in range(1, m // 2 + 1) if bits >> (s - 1) & 1]
                g = graphs_module.Graph(np.isin(graphs_module.circular_distances(m), connection))
                twin_free += twin_relation(g).max() == m - 1
                recognized += self.assert_entry_points_agree(g)
        assert twin_free > 60 and recognized > 30, (twin_free, recognized)

    def test_permuted_elementary_graphs(self):
        for m in range(1, 31):
            for k in range(m):
                if 2 * k + 1 < m or (m, k) == (1, 0):
                    g = permuted_member(m, k, 1, seed=m * 30 + k)
                    assert self.assert_entry_points_agree(g), (m, k)

    def test_double_edge_swapped_elementary_graphs(self):
        rng = random.Random(30)
        recognized = 0
        for _ in range(300):
            n = rng.randint(7, 16)
            k = rng.randint(1, (n - 2) // 2)
            g = self.double_edge_swapped(rng, n, k, rng.randint(1, 3))
            recognized += self.assert_entry_points_agree(g)
        assert 100 < recognized < 250, recognized  # a swap may be refused or give C_{n,k} again

    @settings(max_examples=60, deadline=None)
    @given(hypothesis_graphs(10))
    def test_hypothesis_graphs(self, g):
        self.assert_entry_points_agree(g)

    @pytest.mark.parametrize("m, k, r", [(7, 2, 1), (12, 0, 1), (10, 4, 1), (9, 2, 3),
                                         (6, 2, 2), (1, 0, 4)])
    def test_decompose_walks_once_without_is_elementary_caw(self, m, k, r, monkeypatch):
        g = permuted_member(m, k, r, seed=m + k + r)
        elementary = count_calls(monkeypatch, characterize_module, "is_elementary_caw")
        walks = count_calls(monkeypatch, characterize_module, "_elementary_walk")
        out = decompose_caw(g)
        assert out.ok and (out.certificate.m, out.certificate.k, out.certificate.r) == (m, k, r)
        assert (len(elementary), len(walks)) == (0, 1)


class TestWreathTheorem:
    def test_second_statement_instance(self):
        report = verify_wreath_theorem(2, cycle(5))
        assert report.fusion_holds and report.iso_asserted
        assert report.iso == "iso"

    def test_fusion_only_for_non_association_outer(self):
        report = verify_wreath_theorem(2, oracles.path(3))
        assert report.fusion_holds and not report.iso_asserted

    def test_complete_counterexample(self):
        # K_2[K_3] = K_6 has rank 2, the wreath has rank 3
        report = verify_wreath_theorem(3, complete(2))
        assert report.fusion_holds
        assert not report.iso_asserted
        assert report.iso == "not-iso"

    def test_verdicts_agree_with_oracle(self):
        rng = random.Random(5)
        cases = [(3, complete(2))]
        cases += [(rng.randint(1, 3), oracles.random_graph(rng, rng.randint(2, 8)))
                  for _ in range(40)]
        kinds = set()
        for r, outer in cases:
            report = verify_wreath_theorem(r, outer)
            actual = closure_of_graph(lex_product(outer, complete(r)))
            wreath = CoherentConfiguration(oracles.wreath_product_oracle(
                closure_of_graph(complete(r)), closure_of_graph(outer)))
            oracle = oracles.schemes_isomorphic(actual, wreath)
            assert report.iso == oracle.kind, (r, outer.edges())
            if report.iso == "iso":  # under the identity: the two schemes are equal
                assert actual == wreath, (r, outer.edges())
            kinds.add(oracle.kind)
        assert kinds == {"iso", "not-iso"}

    def test_equal_rank_but_unequal_scheme_is_a_bug(self, monkeypatch):
        # the closure is a fusion of the wreath product on the same points,
        # so equal ranks force equal schemes; a relabeled wreath breaks that
        def relabeled(outer, a):
            w = _lift(outer, a)
            perm = list(range(1, w.n)) + [0]
            return CoherentConfiguration(w.colors[perm][:, perm])

        monkeypatch.setattr("arcschemes.characterize._lift", relabeled)
        with pytest.raises(AssertionError, match="outer graph on 5 vertices"):
            verify_wreath_theorem(2, cycle(5))


class TestPredictedAutOrder:
    @pytest.mark.parametrize(
        "m,k,r,expected",
        [
            (5, 1, 2, 320),
            (6, 2, 1, 48),
            (3, 0, 2, 48),
            (7, 1, 1, 14),
            (1, 0, 4, 24),
            (4, 1, 1, 8),  # matching case: 2^2 * 2!
        ],
    )
    def test_values(self, m, k, r, expected):
        assert predicted_aut_order(m, k, r) == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            predicted_aut_order(5, 2, 1)
        with pytest.raises(ValueError):
            predicted_aut_order(0, 0, 1)

    @pytest.mark.parametrize(
        "m,k,r",
        [(2, 0, 3), (4, 1, 2), (6, 2, 1), (5, 1, 2), (3, 0, 2), (7, 1, 1), (2, 0, 6)],
    )
    def test_matches_brute_force(self, m, k, r):
        g = lex_product(elementary_caw(m, k), complete(r))
        assert decompose_caw(g).ok
        assert oracles.count_automorphisms(g, limit=12) == predicted_aut_order(m, k, r)

    def test_full_sweep_to_twelve_points(self):
        rows, ok = run_aut_suite(12)
        assert ok, [r for r in rows if r["status"] != "pass"]
        assert len(rows) > 30


class TestGroupWitness:
    def test_equals_the_counters_on_every_aut_case(self):
        # permutation_aut_count tries all n! permutations: up to 8 points
        for m, k, r in aut_cases(12):
            g = permuted_member(m, k, r, seed=m * 100 + k * 10 + r)
            witness = group_witness(g, decompose_caw(g))
            assert witness.lower == witness.upper, (m, k, r)
            assert witness.order == oracles.count_automorphisms(g) == predicted_aut_order(m, k, r)
            assert witness.schurian, (m, k, r)
            if g.n <= 8:
                assert witness.order == oracles.permutation_aut_count(g), (m, k, r)

    @pytest.mark.parametrize("m, k, r", [(30, 3, 3), (100, 3, 3), (12, 0, 7), (60, 0, 5),
                                         (10, 4, 6), (30, 14, 10), (1, 0, 40)])
    def test_proven_and_schurian_on_large_permuted_members(self, m, k, r):
        g = permuted_member(m, k, r, seed=m + k + r)
        witness = group_witness(g, decompose_caw(g))
        assert witness.order == predicted_aut_order(m, k, r)
        assert witness.schurian

    def test_none_for_non_members(self):
        g = oracles.petersen()
        assert group_witness(g, decompose_caw(g)) is None

    def test_aut_suite_to_thirty_points(self):
        rows, ok = run_aut_suite(30)
        assert ok and len(rows) == len(aut_cases(30))
        for (m, k, r), row in zip(aut_cases(30), rows):
            order = predicted_aut_order(m, k, r)
            assert row["detail"] == (f"counted={order} predicted={order} "
                                     "certified=True schurian=True")

    @pytest.mark.parametrize("row, lost", [(0, "rotation"), (1, "reflection")])
    def test_missing_dihedral_generator_fails_the_row(self, row, lost, monkeypatch):
        def without(m, k, r):
            gens = _certificate_generators(m, k, r)
            return np.delete(gens, row, axis=0) if k > 0 and m > 2 * k + 2 else gens

        monkeypatch.setattr(characterize_module, "_certificate_generators", without)
        rows, ok = run_aut_suite(10)
        assert not ok
        for (m, k, r), got in zip(aut_cases(10), rows):
            if k > 0 and m > 2 * k + 2:
                # without the rotation H is intransitive, of order |Aut(G)| / m;
                # without the reflection it is half of Aut(G)
                order = predicted_aut_order(m, k, r)
                lower = order // m if lost == "rotation" else order // 2
                assert got["status"] == "FAIL"
                assert got["detail"].startswith(f"lower={lower} upper={order} ")
                assert got["detail"].endswith("schurian=False")
            else:
                assert got["status"] == "pass"

    def test_non_automorphism_is_rejected(self, monkeypatch):
        def with_bad_swap(m, k, r):
            gens = _certificate_generators(m, k, r)
            swap = np.arange(m * r)
            swap[[0, r]] = r, 0  # (0, 0) <-> (1, 0): not twins
            return np.vstack([gens, swap])

        g = permuted_member(7, 2, 2, seed=3)
        outcome = decompose_caw(g)
        assert group_witness(g, outcome).order == predicted_aut_order(7, 2, 2)
        monkeypatch.setattr(characterize_module, "_certificate_generators", with_bad_swap)
        with pytest.raises(AssertionError, match="not an automorphism"):
            group_witness(g, outcome)

    def test_non_permutation_is_rejected(self):
        g = cycle(5)
        base = np.arange(5)
        with pytest.raises(AssertionError, match="not a permutation"):
            _group_bounds(g, closure_of_graph(g), [[1, 2, 3, 4, 1]], base)
        witness = _group_bounds(g, closure_of_graph(g), [[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]], base)
        assert (witness.order, witness.schurian) == (10, True)
