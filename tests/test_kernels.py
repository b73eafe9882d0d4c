import random

import numpy as np
import pytest

import oracles
from arcschemes.closure import _initial_coloring, closure_of_graph
from arcschemes.graphs import elementary_caw
from arcschemes.kernels import refine_step


def random_coloring(rng, n):
    rank = rng.randint(1, max(1, n * n))
    mat = np.array(
        [[rng.randrange(rank) for _ in range(n)] for _ in range(n)], dtype=np.int64
    )
    return mat, int(mat.max()) + 1


def assert_same_round(mat, rank):
    out, new_rank = refine_step(mat, rank)
    ref_out, ref_rank = oracles.refine_step_oracle(mat, rank)
    assert new_rank == ref_rank
    assert out.dtype == np.int64
    assert np.array_equal(out, ref_out)


def test_pure_refine_splits_path_diagonal():
    # path 0-1-2: one round separates the center's diagonal from the leaves'
    mat = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=np.int64)
    out, rank = refine_step(mat, 3)
    assert rank > 3
    assert out[0, 0] == out[2, 2] != out[1, 1]


class TestParity:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_random_matrices(self, n):
        rng = random.Random(123 + n)
        for _ in range(25):
            assert_same_round(*random_coloring(rng, n))

    def test_full_closure_identical(self, corpus):
        for g in corpus:
            mat = _initial_coloring(g.n, [g.adj])
            rank = int(mat.max()) + 1
            while True:
                assert_same_round(mat, rank)
                mat, new_rank = refine_step(mat, rank)
                if new_rank == rank:
                    break
                rank = new_rank
            assert np.array_equal(mat, closure_of_graph(g).colors)

    # each side of the int16, int32 and int64 limits of rank * (rank + 1):
    # 180 * 181 = 32580 <= 32767 < 181 * 182, 46340 * 46341 <= 2**31 - 1 <
    # 46341 * 46342, and 3037000499 is the largest rank int64 holds
    @pytest.mark.parametrize("rank", [180, 181, 182, 46340, 46341, 46342, 50000, 3037000499])
    def test_ranks_at_the_type_limits(self, rank):
        rng = random.Random(rank)
        palette = [0, 1, rank // 2, rank - 2, rank - 1]
        for n in range(1, 10):
            for _ in range(4):
                # a small palette with the largest colors makes signatures
                # collide; a full-range draw makes them mostly distinct
                mat = np.array([[rng.choice(palette) for _ in range(n)] for _ in range(n)],
                               dtype=np.int64)
                assert_same_round(mat, rank)
                mat = np.array([[rng.randrange(rank) for _ in range(n)] for _ in range(n)],
                               dtype=np.int64)
                mat[rng.randrange(n), rng.randrange(n)] = rank - 1
                assert_same_round(mat, rank)

    def test_idempotent_on_stable_input(self):
        cc = closure_of_graph(elementary_caw(8, 2))
        out, rank = refine_step(cc.colors, cc.rank)
        assert rank == cc.rank
        assert np.array_equal(out, cc.colors)


class TestInputChecks:
    @pytest.mark.parametrize("bad", [-1, 3, 10**12])
    def test_color_outside_rank_raises(self, bad):
        mat = np.array([[0, 1], [2, 0]], dtype=np.int64)
        mat[1, 1] = bad
        with pytest.raises(ValueError, match=r"colors must lie in \[0, 3\)"):
            refine_step(mat, 3)

    def test_rank_beyond_int64_raises(self):
        with pytest.raises(ValueError, match="too large"):
            refine_step(np.zeros((2, 2), dtype=np.int64), 3037000500)


class TestInitialColoring:
    def test_graphs(self, corpus):
        for g in corpus:
            rs = (g.n, [g.adj])
            assert np.array_equal(_initial_coloring(*rs), oracles.initial_coloring_oracle(*rs))

    @pytest.mark.parametrize("relations", [0, 1, 2, 5, 40])
    def test_random_relations(self, relations):
        # 40 relations would overflow a code with one bit per relation
        rng = random.Random(relations)
        for _ in range(10):
            n = rng.randint(1, 9)
            rels = [
                {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n * n))}
                for _ in range(relations)
            ]
            rs = (n, [oracles.membership(n, rel) for rel in rels])
            assert np.array_equal(_initial_coloring(*rs), oracles.initial_coloring_oracle(*rs))

    def test_one_relation_per_color_class(self):
        cc = closure_of_graph(elementary_caw(12, 2))
        classes = [
            {(u, v) for u in range(cc.n) for v in range(cc.n) if cc.colors[u, v] == c}
            for c in range(cc.rank)
        ]
        rs = (cc.n, [oracles.membership(cc.n, c) for c in classes])
        assert np.array_equal(_initial_coloring(*rs), oracles.initial_coloring_oracle(*rs))
        assert np.array_equal(_initial_coloring(*rs), cc.colors)
