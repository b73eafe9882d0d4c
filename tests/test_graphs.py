import importlib.util
import random
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from arcschemes.arcs import check_neighborhood_condition
from arcschemes.characterize import is_elementary_caw
from arcschemes.graphs import (
    circular_distances,
    complete,
    cycle,
    edge_level_partition,
    elementary_caw,
    empty_graph,
    from_edges,
    graph_from_text,
    graph_to_text,
    lex_product,
    quotient_graph,
    read_graph,
    twin_relation,
)
from arcschemes.suites import aut_cases


def graphs(max_n=8):
    return st.integers(2, max_n).flatmap(
        lambda n: st.builds(
            lambda edges: from_edges(n, edges),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .filter(lambda e: e[0] < e[1]),
                unique=True,
                max_size=n * (n - 1) // 2,
            ),
        )
    )


class TestConstruction:
    def test_triangle(self):
        g = from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert g == complete(3)

    def test_empty(self):
        g = from_edges(2, [])
        assert g.n == 2 and g.edge_count() == 0

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            from_edges(4, [(0, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            from_edges(4, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            from_edges(3, [(0, 3)])

    def test_complete_single_vertex(self):
        g = complete(1)
        assert g.n == 1 and g.edge_count() == 0

    def test_cycle_minimum(self):
        assert cycle(3) == complete(3)
        with pytest.raises(ValueError):
            cycle(2)

    def test_cycle_equals_elementary(self):
        assert cycle(4) == elementary_caw(4, 1)
        assert cycle(5) == elementary_caw(5, 1)


class TestElementary:
    def test_c52_is_cycle(self):
        assert elementary_caw(5, 1) == cycle(5)

    def test_c62_is_complete_minus_matching(self):
        g = elementary_caw(6, 2)
        expected = from_edges(
            6,
            [
                (u, v)
                for u in range(6)
                for v in range(u + 1, 6)
                if v - u != 3
            ],
        )
        assert g == expected

    def test_k_zero_is_empty(self):
        assert elementary_caw(4, 0) == empty_graph(4)

    def test_parameter_violation(self):
        with pytest.raises(ValueError):
            elementary_caw(4, 2)
        with pytest.raises(ValueError):
            elementary_caw(3, 1)

    @pytest.mark.parametrize("n,k", [(5, 1), (6, 2), (7, 2), (8, 3), (9, 1), (10, 4)])
    def test_regular_and_twin_free(self, n, k):
        g = elementary_caw(n, k)
        assert all(g.degree(v) == 2 * k for v in range(n))
        assert twin_relation(g).tolist() == list(range(n))

    @pytest.mark.parametrize("m", range(41))
    def test_circular_distances_match_oracle(self, m):
        d = circular_distances(m)
        assert d.tolist() == [[oracles.circular_distance(a, b, m) for b in range(m)]
                              for a in range(m)]
        # an array of its own, never the strided circulant_matrix view
        assert d.dtype == np.int64 and d.shape == (m, m)
        assert d.flags.c_contiguous and d.flags.owndata


class TestLexProduct:
    def test_k2_lex_k2(self):
        assert lex_product(complete(2), complete(2)) == complete(4)

    def test_c5_lex_k2_regularity(self):
        g = lex_product(cycle(5), complete(2))
        assert g.n == 10
        # each vertex: two adjacent fibers of size 2, plus its fiber twin
        assert all(g.degree(v) == 5 for v in range(10))

    def test_empty_lex_k2_is_matching(self):
        g = lex_product(empty_graph(3), complete(2))
        assert g.edges() == [(0, 1), (2, 3), (4, 5)]

    def test_matches_loop_oracle(self, corpus):
        inners = [empty_graph(0), complete(1), complete(2), empty_graph(2), oracles.path(3)]
        for outer in corpus + [empty_graph(0)]:
            for inner in inners:
                assert lex_product(outer, inner) == oracles.lex_product_oracle(outer, inner)


class TestTwins:
    def test_complete_one_class(self):
        assert twin_relation(complete(4)).tolist() == [0, 0, 0, 0]

    def test_cycle_all_singletons(self):
        assert twin_relation(elementary_caw(5, 1)).tolist() == [0, 1, 2, 3, 4]

    def test_lex_fibers(self):
        labels = twin_relation(lex_product(cycle(5), complete(2)))
        assert labels.tolist() == [v // 2 for v in range(10)]

    def test_matches_pairwise_oracle(self, corpus):
        # the corpus, and blown up so that every class has 2 or 3 twins
        graphs = corpus + [lex_product(g, complete(r)) for g in corpus for r in (2, 3)]
        graphs += [lex_product(cycle(5), oracles.random_graph(random.Random(r), 4))
                   for r in range(5)]
        for g in graphs:
            assert twin_relation(g).tolist() == oracles.twin_labels_oracle(g)

    @staticmethod
    def blown_up(rng, n):
        """A random graph blown up to n vertices, each vertex by K_s with s
        in 1..4 (the last cut to fit), labels permuted."""
        sizes = []
        while sum(sizes) < n:
            sizes.append(min(rng.randint(1, 4), n - sum(sizes)))
        outer = oracles.random_graph(rng, len(sizes))
        a = np.repeat(np.arange(len(sizes)), sizes)[rng.sample(range(n), n)]
        adj = outer.adj[np.ix_(a, a)] | (a[:, None] == a)
        return from_edges(n, np.argwhere(np.triu(adj, 1)).tolist())

    def test_matches_product_oracle_at_byte_boundaries(self):
        # a packed row ends one bit into a byte, at its end, or one bit past
        rng = random.Random(28)
        twinned = unequal = 0
        for n in (0, 1, 7, 8, 9, 15, 16, 17, 64, 65):
            plain = [oracles.random_graph(rng, n, p) for p in (0.1, 0.5, 0.9)]
            for g in plain + [self.blown_up(rng, n) for _ in range(4)]:
                labels = twin_relation(g)
                assert labels.tolist() == oracles.twin_labels_product_oracle(g).tolist(), g
                sizes = np.bincount(labels)
                twinned += sizes.size < n
                unequal += np.unique(sizes).size > 1
        assert twinned >= 25 and unequal >= 25, (twinned, unequal)

    def test_matches_product_oracle_on_golden_files(self):
        files = sorted((Path(__file__).parent / "golden").glob("*.graph"))
        assert len(files) >= 6
        for path in files:
            g = read_graph(path)
            assert twin_relation(g).tolist() == oracles.twin_labels_product_oracle(g).tolist(), path

    def test_matches_product_oracle_on_permuted_members(self):
        rng = random.Random(30)
        for m, k, r in aut_cases(30):
            g = complete(r) if m == 1 else lex_product(elementary_caw(m, k), complete(r))
            perm = rng.sample(range(g.n), g.n)
            g = from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            labels = twin_relation(g)
            assert labels.tolist() == oracles.twin_labels_product_oracle(g).tolist(), (m, k, r)
            assert (np.bincount(labels) == r).all(), (m, k, r)

    @settings(max_examples=40, deadline=None)
    @given(graphs())
    def test_classes_are_cliques_with_uniform_cross_adjacency(self, g):
        labels = twin_relation(g).tolist()
        classes = [[v for v in range(g.n) if labels[v] == c] for c in range(max(labels) + 1)]
        for cls in classes:
            for u in cls:
                for v in cls:
                    if u != v:
                        assert g.adj[u, v]
        for a in classes:
            for b in classes:
                if a is b:
                    continue
                links = {bool(g.adj[u, v]) for u in a for v in b}
                assert len(links) == 1

    @settings(max_examples=40, deadline=None)
    @given(graphs())
    def test_twin_quotient_is_twin_free(self, g):
        q = quotient_graph(g, twin_relation(g))
        assert twin_relation(q).tolist() == list(range(q.n))


class TestQuotient:
    def test_complete_collapses_to_point(self):
        g = complete(4)
        assert quotient_graph(g, twin_relation(g)) == complete(1)

    def test_lex_quotient_recovers_outer(self):
        g = lex_product(cycle(5), complete(2))
        assert quotient_graph(g, twin_relation(g)) == cycle(5)

    def test_singleton_quotient_is_identity(self):
        g = cycle(6)
        assert quotient_graph(g, np.arange(6)) == g

    @pytest.mark.parametrize("g", [cycle(6), elementary_caw(9, 2), empty_graph(4),
                                   complete(1), lex_product(cycle(5), empty_graph(2))],
                             ids=["C6", "C_{9,2}", "empty-4", "K1", "C5[2K1]"])
    def test_twin_free_graph_is_its_own_quotient(self, g):
        # every class is one vertex: the quotient is g itself, not a copy
        labels = twin_relation(g)
        assert labels.tolist() == list(range(g.n))
        assert quotient_graph(g, labels) is g

    def test_malformed_partition(self):
        g = cycle(6)
        with pytest.raises(ValueError, match="label"):
            quotient_graph(g, np.arange(5))
        with pytest.raises(ValueError, match="label"):
            quotient_graph(g, [0, 0, 1, 1, 2, -1])


class TestQuotientMatchesScatter:
    # the quotient read at one vertex per twin class is the quotient with
    # every edge scattered onto its pair of classes (oracles)

    @staticmethod
    def assert_matches(g):
        labels = twin_relation(g)
        q = quotient_graph(g, labels)
        assert q == oracles.quotient_graph_oracle(g, labels), g
        assert q.adj.flags.c_contiguous, g  # the kernels view rows as bytes

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_hypothesis_graphs(self, g):
        self.assert_matches(g)

    def test_blown_up_with_unequal_classes(self):
        rng = random.Random(29)
        unequal = 0
        for n in (2, 5, 9, 17, 40):
            for _ in range(8):
                g = TestTwins.blown_up(rng, n)
                self.assert_matches(g)
                unequal += np.unique(np.bincount(twin_relation(g))).size > 1
        assert unequal >= 20, unequal

    def test_golden_files(self):
        files = sorted((Path(__file__).parent / "golden").glob("*.graph"))
        assert len(files) >= 6
        for path in files:
            self.assert_matches(read_graph(path))

    def test_permuted_members(self):
        rng = random.Random(31)
        for m, k, r in aut_cases(30):
            g = complete(r) if m == 1 else lex_product(elementary_caw(m, k), complete(r))
            perm = rng.sample(range(g.n), g.n)
            self.assert_matches(from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))

    def test_arcs_nonmembers_deck(self, tmp_path, monkeypatch):
        # the benchmark's arc-model graphs (n = 30 .. 64) of seeds 1 and 2
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        requests = [q for seed in (1, 2) for q in workloads.ArcsNonmembers().build(seed, tmp_path)]
        assert len(requests) == 70
        for q in requests:
            self.assert_matches(from_edges(q.n, sorted(q.data["edges"])))

    @pytest.mark.parametrize("g", [empty_graph(0), empty_graph(1)], ids=["n=0", "n=1"])
    def test_zero_and_one_vertex(self, g):
        self.assert_matches(g)

    @pytest.mark.parametrize("n, labels", [
        (4, [0, 0, 1]), (2, [0, 1, 1]), (2, [0, -1]), (3, [-1, -1, -1]), (3, [1, 0, 0]),
        (3, [0, 2, 1]), (3, [1, 1, 1]), (3, [0, 0, 2]), (2, [[0], [1]]), (2, [0.5, 1.7]),
        (2, [0, 2 ** 63 - 1]),
    ], ids=["short", "long", "negative", "all-negative", "not-first-appearance", "swapped",
            "no-class-0", "gap", "two-dimensional", "float", "huge"])
    def test_other_labelings_rejected(self, n, labels):
        with pytest.raises(ValueError, match="label"):
            quotient_graph(empty_graph(n), labels)


def level_pairs(levels):
    """Edge levels as frozensets of ordered pairs."""
    return {k: frozenset(map(tuple, np.argwhere(m).tolist())) for k, m in levels.items()}


class TestEdgeLevels:
    def test_triangle(self):
        levels = level_pairs(edge_level_partition(complete(3)))
        assert set(levels) == {1}
        assert levels[1] == frozenset(
            {(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)}
        )

    def test_c72_levels_by_distance(self):
        g = elementary_caw(7, 2)
        levels = level_pairs(edge_level_partition(g))
        dist1 = frozenset(
            (i, j) for i in range(7) for j in range(7)
            if (j - i) % 7 in (1, 6)
        )
        dist2 = frozenset(
            (i, j) for i in range(7) for j in range(7)
            if (j - i) % 7 in (2, 5)
        )
        assert levels == {2: dist1, 1: dist2}

    def test_empty(self):
        assert edge_level_partition(empty_graph(3)) == {}

    @settings(max_examples=40, deadline=None)
    @given(graphs())
    def test_levels_partition_the_edge_relation(self, g):
        levels = level_pairs(edge_level_partition(g))
        seen = set()
        for pairs in levels.values():
            assert not (seen & pairs)
            seen |= pairs
        expected = {(u, v) for u, v in g.edges()} | {(v, u) for u, v in g.edges()}
        assert seen == expected


@pytest.mark.parametrize("g", [
    empty_graph(0),
    empty_graph(1),
    complete(1),
    lex_product(empty_graph(0), complete(3)),
    lex_product(cycle(5), empty_graph(0)),
    lex_product(complete(1), complete(1)),
], ids=["empty-0", "empty-1", "complete-1", "lex-empty-outer", "lex-empty-inner", "lex-1-1"])
def test_zero_and_one_vertex_graphs(g):
    n = g.n
    assert n <= 1 and g.adj.shape == (n, n)
    assert g.edges() == [] and g.edge_count() == 0
    assert not g.adj.any() and g.is_regular()
    assert g == from_edges(n, []) and hash(g) == hash(from_edges(n, []))
    labels = twin_relation(g)
    assert labels.tolist() == list(range(n))
    assert quotient_graph(g, labels) == g
    assert edge_level_partition(g) == {}
    assert oracles.count_automorphisms(g) == 1
    assert graph_from_text(graph_to_text(g)) == g
    assert check_neighborhood_condition(g).ok
    assert is_elementary_caw(g) == (None if n == 0 else (1, 0, (0,)))
    assert lex_product(g, complete(2)).n == lex_product(complete(2), g).n == 2 * n


def test_edge_level_keys_are_python_ints():
    levels = edge_level_partition(oracles.petersen())
    assert list(levels) == [0] and type(next(iter(levels))) is int


class TestAutomorphisms:
    def test_cycle5(self):
        assert oracles.count_automorphisms(cycle(5)) == 10

    def test_complete4(self):
        assert oracles.count_automorphisms(complete(4)) == 24

    def test_lex_c5_k2(self):
        assert oracles.count_automorphisms(lex_product(cycle(5), complete(2))) == 320

    def test_petersen(self):
        assert oracles.count_automorphisms(oracles.petersen()) == 120

    def test_hypercube_against_oracle(self):
        g = oracles.hypercube3()
        assert oracles.count_automorphisms(g) == oracles.permutation_aut_count(g) == 48

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_cycle_group_order(self, n):
        assert oracles.count_automorphisms(elementary_caw(n, 1)) == 2 * n

    def test_triangle_group_order(self):
        # 2k+1 < n excludes (3, 1); the 3-cycle is complete and Sym(3) = D_6
        assert oracles.count_automorphisms(cycle(3)) == 6

    def test_against_permutation_oracle(self):
        rng = random.Random(7)
        for _ in range(15):
            g = oracles.random_graph(rng, rng.randint(2, 6))
            assert oracles.count_automorphisms(g) == oracles.permutation_aut_count(g)

    def test_limit(self):
        with pytest.raises(ValueError, match="limit"):
            oracles.count_automorphisms(empty_graph(13))
        assert oracles.count_automorphisms(empty_graph(13), limit=13) == 6227020800


class TestIO:
    def test_round_trip(self, tmp_path):
        g = elementary_caw(7, 2)
        text = graph_to_text(g)
        assert graph_from_text(text) == g
        assert graph_to_text(graph_from_text(text)) == text

    def test_comments_and_blanks(self):
        text = "# a triangle\n3 3\n\n0 1\n# middle\n1 2\n0 2\n"
        assert graph_from_text(text) == complete(3)

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ValueError, match="line 3"):
            graph_from_text("3 2\n0 1\n1 x\n")
        with pytest.raises(ValueError, match="line 3"):
            graph_from_text("3 2\n0 1\n0 1\n")
        with pytest.raises(ValueError, match="loop"):
            graph_from_text("3 1\n1 1\n")

    def test_header_mismatch(self):
        with pytest.raises(ValueError, match="declares"):
            graph_from_text("3 2\n0 1\n")


def read_outcome(reader, text, limit=None):
    """A reader's graph, or the type and message of what it raised."""
    try:
        return reader(text, limit)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def assert_reads_like_oracle(text, limit=None):
    got = read_outcome(graph_from_text, text, limit)
    assert got == read_outcome(oracles.graph_from_text_oracle, text, limit), text


def edge_file(g, rng, newline="\n"):
    """g as a graph file with its edges shuffled and randomly reversed."""
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges()]
    rng.shuffle(edges)
    return newline.join([f"{g.n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]) + newline


class TestReaderParity:
    """graph_from_text against the line-by-line reader in oracles."""

    # (m, k, r) of the members-decompose benchmark deck
    MEMBERS = [(8, 3, 5), (12, 3, 3), (9, 0, 6), (40, 3, 1), (56, 10, 1),
               (18, 4, 4), (12, 5, 6), (15, 0, 6), (84, 20, 1), (30, 3, 3)]

    @pytest.mark.parametrize("m, k, r", MEMBERS)
    def test_member_files(self, m, k, r):
        rng = random.Random(m * 100 + k * 10 + r)
        g = lex_product(elementary_caw(m, k), complete(r)) if m > 1 else complete(r)
        text = edge_file(g, rng)
        assert graph_from_text(text, 200) == oracles.graph_from_text_oracle(text, 200) == g

    def test_random_graphs_with_comments_blanks_and_crlf(self):
        rng = random.Random(3)
        for _ in range(60):
            g = oracles.random_graph(rng, rng.randint(1, 30), rng.random())
            lines = edge_file(g, rng, rng.choice(["\n", "\r\n"])).splitlines()
            for _ in range(rng.randint(0, 4)):
                lines.insert(rng.randint(0, len(lines)), rng.choice(["", "  ", "# note", "\t# x y"]))
            text = rng.choice(["\n", "\r\n", "\r"]).join(lines)
            assert graph_from_text(text) == oracles.graph_from_text_oracle(text) == g

    @pytest.mark.parametrize("text", [
        # width and tokens
        "3 1\n0 1 2\n", "3\n", "3 1\n0\n", "3 1\n0 x\n", "3 1\n0 1.0\n", "3 1 # c\n0 1\n",
        "x y\n", "3 1\n\n0 0x1\n",
        # int() accepts underscores, signs and Unicode digits
        "1_0 1\n0 +5\n", "+3 0\n", "\u0663 1\n\u0660 \u0661\n", "3 1\n0 1__0\n", "3 1\n0 \u00b2\n",
        # huge integers in the header and the edges
        f"{10**30} 0\n", f"3 {10**30}\n", f"3 1\n0 {10**30}\n", f"3 1\n{-10**30} 1\n",
        f"{10**30} 1\n0 {10**29}\n", f"{10**30} 1\n0 {10**30}\n", f"{2**63} 1\n{2**63 - 1} 7\n",
        f"{2**63} 2\n{2**63 - 1} 7\n7 {2**63 - 1}\n",
        # counts
        "-1 0\n", "3 -1\n", "-1 -1\n", "3 2\n0 1\n", "3 0\n0 1\n", "", "\n\n", "# only\n",
        "0 0\n", "1 0\n",
        # edges
        "3 1\n1 1\n", "3 2\n0 1\n0 1\n", "3 2\n0 1\n1 0\n", "3 3\n0 1\n1 2\n2 1\n",
        "3 1\n0 3\n", "3 1\n-1 0\n", "3 2\n0 5\n1 1\n", "3 2\n1 1\n0 5\n", "3 3\n0 1\n2 2\n1 0\n",
    ])
    def test_malformed_text(self, text):
        assert_reads_like_oracle(text)
        assert_reads_like_oracle(text, 200)

    @pytest.mark.parametrize("text", [
        "300 2\n0 0\n0 0\n", "300 1\n0 999\n", f"{10**30} 1\n0 0\n", "201 0\n",
    ])
    def test_vertex_limit_comes_before_edge_checks(self, text):
        n = text.split()[0]
        with pytest.raises(ValueError, match=rf"^graph has {n} vertices, limit is 200$"):
            graph_from_text(text, 200)
        assert_reads_like_oracle(text, 200)

    def test_mutated_files(self):
        tokens = ["0", "1", "2", "-1", "x", "1_0", "+2", "#c", "\u0663", str(10**20), ""]
        rng = random.Random(8)
        for _ in range(400):
            lines = edge_file(oracles.random_graph(rng, rng.randint(0, 7)), rng).splitlines()
            for _ in range(rng.randint(1, 3)):
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
                    lines.insert(i, f"{rng.randint(-1, 7)} {rng.randint(-1, 7)}")
            text = "\n".join(lines) + "\n"
            assert_reads_like_oracle(text)
            assert_reads_like_oracle(text, 5)

    def test_from_edges_matches_oracle(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(0, 6)
            edges = [(rng.randint(-1, n), rng.randint(-1, n)) for _ in range(rng.randint(0, 8))]
            outcomes = []
            for build in (from_edges, oracles.from_edges_oracle):
                try:
                    outcomes.append(build(n, edges))
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (n, edges)
        with pytest.raises(ValueError, match=rf"out of range in edge \(0, {10**30}\)"):
            from_edges(3, [(0, 10**30)])
        # an edge that is not a pair: the oracle fails to unpack it
        for edges in ([()], [(0, 1), (2,)], [(0, 1, 2)], [(0, 1), (2, 10**30, 1)]):
            with pytest.raises(ValueError):
                oracles.from_edges_oracle(3, edges)
            with pytest.raises(ValueError, match="^an edge is a pair of vertices$"):
                from_edges(3, edges)


@pytest.mark.parametrize("n, edges", [
    # (-1, 4) has the pair key -1 * 3 + 4 = 1 of (0, 1), and 2^62 * 3 + 2^62 + 1
    # wraps in int64 to 1 as well
    (3, [(-1, 4), (0, 1)]), (3, [(0, 1), (-1, 4)]), (3, [(0, 1), (4, -1), (1, 0)]),
    (3, [(0, 1), (2**62, 2**62 + 1)]), (3, [(2**62 + 1, 2**62), (1, 0)]),
    (2**31, [(0, 1), (2**31 - 1, 0), (1, 0)]), (2**31 + 5, [(2**31 + 4, 0), (0, 2**31 + 4)]),
    # inside 0..2^33 - 1, int64 keys would make (0, 2^31 + 1) and (2^31, 2^31 + 1) equal
    (2**33, [(0, 2**31 + 1), (2**31, 2**31 + 1), (5, 5)]),
])
def test_pair_keys_that_collide_keep_the_first_bad_edge(n, edges):
    outcomes = []
    for build in (from_edges, oracles.from_edges_oracle):
        try:
            outcomes.append(build(n, edges).adj.shape)
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
