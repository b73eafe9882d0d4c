import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import arcschemes.closure as closure_module
from arcschemes.closure import circulant_closure, closure_of_graph, coherent_closure
from arcschemes.graphs import (
    complete,
    cycle,
    edge_level_partition,
    elementary_caw,
    empty_graph,
    from_edges,
)
from arcschemes.schemes import (
    dihedral_scheme,
    is_association,
    is_fusion_of,
    verify,
)


class TestClosureExamples:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_complete_graph_gives_rank2(self, n):
        assert closure_of_graph(complete(n)) == oracles.rank2_scheme(n)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_empty_graph_gives_rank2(self, n):
        assert closure_of_graph(empty_graph(n)) == oracles.rank2_scheme(n)

    def test_cycle5_is_dihedral(self):
        cc = closure_of_graph(cycle(5))
        assert cc.rank == 3
        assert cc == dihedral_scheme(5)

    def test_path3_rank5_matrix(self):
        # hand refinement: leaf/center diagonals split, directed edge colors
        cc = closure_of_graph(oracles.path(3))
        assert cc.rank == 5
        assert not is_association(cc)
        expected = np.array([[0, 1, 2], [3, 4, 3], [2, 1, 0]])
        assert np.array_equal(cc.colors, expected)

    def test_single_vertex(self):
        assert closure_of_graph(complete(1)).rank == 1

    def test_c72(self):
        cc = closure_of_graph(elementary_caw(7, 2))
        assert cc.rank == 4 and is_association(cc)
        assert oracles.schemes_isomorphic(cc, dihedral_scheme(7)).kind == "iso"

    def test_c62(self):
        cc = closure_of_graph(elementary_caw(6, 2))
        assert cc.rank == 3 and is_association(cc)


class TestClosureProperties:
    def test_output_is_coherent_on_corpus(self, corpus):
        for g in corpus:
            if g.n <= 12:
                assert verify(closure_of_graph(g)).ok

    def test_edge_relation_is_union_of_colors(self, corpus):
        for g in corpus:
            cc = closure_of_graph(g)
            edge_colors = {int(cc.colors[u, v]) for u, v in g.edges()}
            edge_colors |= {int(cc.colors[v, u]) for u, v in g.edges()}
            count = sum(cc.sizes[c] for c in edge_colors)
            assert count == 2 * g.edge_count()

    def test_idempotent(self, corpus):
        for g in corpus:
            if g.n > 10:
                continue
            cc = closure_of_graph(g)
            classes = [
                {(u, v) for u in range(cc.n) for v in range(cc.n) if cc.colors[u, v] == c}
                for c in range(cc.rank)
            ]
            again = coherent_closure(cc.n, [oracles.membership(cc.n, c) for c in classes])
            assert again.rank == cc.rank
            assert np.array_equal(again.colors, cc.colors)

    def test_monotone_in_generators(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(2, 7)
            rel1 = {(rng.randrange(n), rng.randrange(n)) for _ in range(n)}
            rel2 = {(rng.randrange(n), rng.randrange(n)) for _ in range(n)}
            rel1, rel2 = oracles.membership(n, rel1), oracles.membership(n, rel2)
            base = coherent_closure(n, [rel1])
            bigger = coherent_closure(n, [rel1, rel2])
            assert bigger.rank >= base.rank

    @pytest.mark.parametrize("n", range(4, 17))
    def test_cycle_closure_equals_dihedral(self, n):
        verdict = oracles.schemes_isomorphic(closure_of_graph(cycle(n)), dihedral_scheme(n))
        assert verdict.kind == "iso"

    def test_minimality_against_dihedral_orbits(self):
        for n in range(5, 15):
            for k in range(1, n):
                if 2 * k + 2 >= n:
                    continue
                cc = closure_of_graph(elementary_caw(n, k))
                assert is_fusion_of(cc, dihedral_scheme(n))

    def test_edge_levels_are_unions_of_colors(self, corpus):
        cases = [elementary_caw(n, k) for n in range(4, 15) for k in range(1, n) if 2 * k + 1 < n]
        cases += [g for g in corpus if g.n <= 10]
        for g in cases:
            cc = closure_of_graph(g)
            for level in edge_level_partition(g).values():
                level_colors = set(cc.colors[level].tolist())
                assert sum(cc.sizes[c] for c in level_colors) == np.count_nonzero(level)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 7).flatmap(
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
    )
    def test_random_graph_closure_is_coherent(self, g):
        assert verify(closure_of_graph(g)).ok


class TestRelationSet:
    def test_asymmetric_generator(self):
        rel = {(0, 1), (1, 2)}
        cc = coherent_closure(3, [oracles.membership(3, rel)])
        assert verify(cc).ok
        gen_colors = {int(cc.colors[u, v]) for u, v in rel}
        assert sum(cc.sizes[c] for c in gen_colors) == len(rel)

    def test_out_of_range_pair(self):
        # on 2 points the pair (0, 2) only fits a matrix of the wrong shape
        rel = np.zeros((2, 3), dtype=bool)
        rel[0, 2] = True
        with pytest.raises(ValueError, match="shape"):
            coherent_closure(2, [rel])

    def test_needs_a_point(self):
        with pytest.raises(ValueError):
            coherent_closure(0, [])


class TestCirculantClosure:
    @pytest.mark.parametrize("m", range(1, 15))
    def test_every_symmetric_connection(self, m):
        for conn in oracles.symmetric_connections(m):
            full = coherent_closure(m, [oracles.circulant_matrix(conn)])
            assert circulant_closure(conn).tobytes() == full.colors.tobytes()

    def test_random_directed_connections(self):
        # arcs 0 -> d without 0 -> -d make colors whose transpose is another
        rng = random.Random(21)
        for _ in range(150):
            m = rng.randint(1, 40)
            conn = np.array([rng.random() < 0.3 for _ in range(m)])
            full = coherent_closure(m, [oracles.circulant_matrix(conn)])
            assert circulant_closure(conn).tobytes() == full.colors.tobytes(), conn

    def test_members(self):
        # every C_{m,k} with m < 40, the matching shapes m = 2k + 2 among them
        for m in range(3, 40):
            for k in range(1, (m - 2) // 2 + 1):
                closed = circulant_closure(elementary_caw(m, k).adj[0])
                assert np.array_equal(closed, closure_of_graph(elementary_caw(m, k)).colors)
                if m > 2 * k + 2:
                    assert np.array_equal(closed, dihedral_scheme(m).colors), (m, k)

    @pytest.mark.parametrize("m", [1, 2, 7, 12, 31])
    def test_ends_on_the_confirming_round(self, m, monkeypatch):
        # one row round per matrix round of coherent_closure, and the last
        # one splits nothing: it starts at the closure's rank and returns it
        conn = np.zeros(m, dtype=bool)
        conn[[1 % m, -1 % m, 3 % m, -3 % m]] = m > 1
        rounds = []

        def recorded(step):
            def run(colors, rank):
                out = step(colors, rank)
                rounds.append((rank, out[1]))
                return out
            return run

        monkeypatch.setattr(closure_module, "refine_step", recorded(closure_module.refine_step))
        full = coherent_closure(m, [oracles.circulant_matrix(conn)])
        matrix_rounds = rounds[:]
        del rounds[:]
        monkeypatch.setattr(closure_module, "refine_row", recorded(closure_module.refine_row))
        assert np.array_equal(circulant_closure(conn), full.colors)
        assert rounds == matrix_rounds
        assert rounds[-1] == (full.rank, full.rank)
        assert all(old < new for old, new in rounds[:-1])

    @pytest.mark.parametrize("conn", [[], [[0, 1], [1, 0]]])
    def test_needs_a_vector_of_at_least_one_point(self, conn):
        with pytest.raises(ValueError, match="connection"):
            circulant_closure(conn)
