import random

import numpy as np
import pytest

from arcschemes import _refine_py
from arcschemes.closure import closure_of_graph
from arcschemes.kernels import BACKEND, available_backends

_cy = available_backends().get("cython")


def random_coloring(rng, n):
    rank = rng.randint(1, max(1, n))
    mat = np.array(
        [[rng.randrange(rank) for _ in range(n)] for _ in range(n)], dtype=np.int64
    )
    return mat, int(mat.max()) + 1


def test_backend_reported():
    assert BACKEND in ("pure", "cython")
    assert "pure" in available_backends()


def test_pure_refine_splits_path_diagonal():
    # path 0-1-2: one round separates the center's diagonal from the leaves'
    mat = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=np.int64)
    out, rank = _refine_py.refine_step(mat, 3)
    assert rank > 3
    assert out[0, 0] == out[2, 2] != out[1, 1]


@pytest.mark.skipif(_cy is None, reason="compiled kernel not built")
class TestParity:
    def test_random_matrices(self):
        rng = random.Random(123)
        for _ in range(40):
            mat, rank = random_coloring(rng, rng.randint(1, 12))
            pure_out, pure_rank = _refine_py.refine_step(mat, rank)
            cy_out, cy_rank = _cy.refine_step(mat, rank)
            assert pure_rank == cy_rank
            assert np.array_equal(pure_out, cy_out)

    def test_full_closure_identical(self, corpus):
        for g in corpus:
            baseline = None
            for backend in (_refine_py, _cy):
                mat = closure_with(backend, g)
                if baseline is None:
                    baseline = mat
                else:
                    assert np.array_equal(baseline, mat)

    def test_idempotent_on_stable_input(self):
        cc = closure_of_graph_matrix()
        for backend in (_refine_py, _cy):
            out, rank = backend.refine_step(cc.colors, cc.rank)
            assert rank == cc.rank
            assert np.array_equal(out, cc.colors)


def closure_with(backend, g):
    from arcschemes.closure import RelationSet, _initial_coloring

    mat = _initial_coloring(RelationSet.of_graph(g))
    rank = int(mat.max()) + 1
    while True:
        mat, new_rank = backend.refine_step(mat, rank)
        if new_rank == rank:
            return mat
        rank = new_rank


def closure_of_graph_matrix():
    from arcschemes.graphs import elementary_caw

    return closure_of_graph(elementary_caw(8, 2))

