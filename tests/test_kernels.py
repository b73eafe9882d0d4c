import random

import numpy as np
import pytest

import oracles
from arcschemes import kernels
from arcschemes.closure import _initial_coloring, circulant_closure, closure_of_graph
from arcschemes.graphs import elementary_caw
from arcschemes.kernels import first_appearance, refine_row, refine_step


def involution(rank):
    """A map t on [0, rank) with t(t(x)) = x.  Counting down from rank - 1,
    every third color is fixed and the two after it are swapped, so
    rank - 1 is fixed and rank - 2 and rank - 3 trade places."""
    def t(x):
        y = rank - 1 - x
        if y % 3 == 0 or y % 3 == 1 and x == 0:  # 0 has no partner below it
            return x
        return x - 1 if y % 3 == 1 else x + 1
    return t


def closed_coloring(rng, n, rank, draw):
    """An n x n coloring with colors from draw() that is transpose-closed:
    color(v, u) = t(color(u, v)) for the involution t of rank.  A diagonal
    color is moved to the nearest fixed point of t at or above it."""
    t = involution(rank)
    mat = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        x = draw()
        mat[u, u] = x + (rank - 1 - x) % 3
        for v in range(u + 1, n):
            x = draw()
            mat[u, v], mat[v, u] = x, t(x)
    return mat


def random_coloring(rng, n):
    rank = rng.randint(1, max(1, n * n))
    mat = np.array([[rng.randrange(rank) for _ in range(n)] for _ in range(n)], dtype=np.int64)
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

    # each side of the uint16, uint32 and uint64 limits of rank**2 - 1:
    # 256**2 - 1 = 65535, 65536**2 - 1 = 2**32 - 1 and (2**32)**2 - 1 =
    # 2**64 - 1, so 4294967296 is the largest rank; the other ranks were the
    # int16, int32 and int64 limits of rank * (rank + 1) of the signed types
    @pytest.mark.parametrize("rank", [180, 181, 182, 256, 257, 46340, 46341, 46342, 50000,
                                      65536, 65537, 3037000499, 4294967296])
    def test_ranks_at_the_type_limits(self, rank):
        rng = random.Random(rank)
        palette = [0, 1, rank // 2, rank - 3, rank - 2, rank - 1]
        for n in range(1, 10):
            for _ in range(4):
                # a small palette with the largest colors makes signatures
                # collide; a full-range draw makes them mostly distinct
                mat = closed_coloring(rng, n, rank, lambda: rng.choice(palette))
                assert_same_round(mat, rank)
                mat = closed_coloring(rng, n, rank, lambda: rng.randrange(rank))
                u, v = rng.randrange(n), rng.randrange(n)
                mat[u, v] = mat[v, u] = rank - 1  # a fixed point of the involution
                assert_same_round(mat, rank)

    # at least 32 points, a rank below n**2 / 8, and each side of the
    # uint16 limit at rank 256: a coloring pulled back from one on 3 points,
    # with at most 3 row classes, and a random one with as many classes as
    # points
    @pytest.mark.parametrize("n, rank", [(32, 3), (32, 127), (40, 199), (46, 256), (46, 257)])
    def test_half_rounds(self, n, rank):
        rng = random.Random(n * rank)
        palette = [0, 1, rank // 2, rank - 3, rank - 2, rank - 1]
        small = closed_coloring(rng, 3, rank, lambda: rng.choice(palette))
        points = np.array([rng.randrange(3) for _ in range(n)])
        assert_same_round(small[points][:, points], rank)
        mat = closed_coloring(rng, n, rank, lambda: rng.randrange(rank))
        mat[0, 1] = mat[1, 0] = rank - 1
        assert_same_round(mat, rank)

    def test_half_rounds_of_directed_closures(self):
        # a directed generator makes colors whose transpose is another color
        rng = random.Random(5)
        for n in (32, 41):
            rel = oracles.membership(n, {(rng.randrange(n), rng.randrange(n)) for _ in range(n * n // 3)})
            mat = _initial_coloring(n, [rel])
            rank = int(mat.max()) + 1
            while True:
                assert_same_round(mat, rank)
                mat, new_rank = refine_step(mat, rank)
                if new_rank == rank:
                    break
                rank = new_rank

    def test_idempotent_on_stable_input(self):
        cc = closure_of_graph(elementary_caw(8, 2))
        out, rank = refine_step(cc.colors, cc.rank)
        assert rank == cc.rank
        assert np.array_equal(out, cc.colors)


def assert_row_rounds_match(conn):
    """Every round of the closure of the circulant with connection conn,
    by refine_row on the row and by refine_step on the m x m matrix."""
    m = len(conn)
    mat = _initial_coloring(m, [oracles.circulant_matrix(conn)])
    row, rank = mat[0], int(mat.max()) + 1
    assert np.array_equal(mat, oracles.circulant_matrix(row))
    while True:
        mat, new_rank = refine_step(mat, rank)
        row, row_rank = refine_row(row, rank)
        assert row.dtype == np.int64 and row_rank == new_rank
        assert oracles.circulant_matrix(row).tobytes() == mat.tobytes()
        if new_rank == rank:
            return
        rank = new_rank


class TestCirculantMatrix:
    @pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.uint32])
    def test_against_the_oracle(self, dtype):
        rng = np.random.default_rng(40)
        for m in range(1, 41):
            row = rng.integers(0, 2 * m, size=2 * m).astype(dtype)
            for part in (row[:m], row[::2]):  # contiguous, and a stride of two
                mat = kernels.circulant_matrix(part)
                assert mat.dtype == dtype and mat.shape == (m, m)
                assert np.array_equal(mat, oracles.circulant_matrix(part))

    def test_empty_row(self):
        assert kernels.circulant_matrix(np.zeros(0, dtype=np.int64)).shape == (0, 0)
        out, rank = refine_row([], 1)
        assert out.shape == (0,) and rank == 0

    def test_read_only(self):
        mat = kernels.circulant_matrix(np.arange(5))
        with pytest.raises(ValueError, match="read-only"):
            mat[0, 1] = 7

    def test_closure_does_not_alias_the_caller_row(self):
        conn = elementary_caw(12, 2).adj[0].copy()
        closed = circulant_closure(conn)
        assert not np.shares_memory(closed, conn)
        with pytest.raises(ValueError, match="read-only"):
            closed[0, 0] = 1
        assert np.array_equal(conn, elementary_caw(12, 2).adj[0])


class TestRefineRow:
    @pytest.mark.parametrize("m", range(1, 15))
    def test_every_symmetric_connection(self, m):
        for conn in oracles.symmetric_connections(m):
            assert_row_rounds_match(conn)

    def test_random_connections_up_to_60_points(self):
        rng = random.Random(60)
        for _ in range(60):
            m = rng.randint(15, 60)
            conn = np.array([rng.random() < rng.random() for _ in range(m)])
            conn[0] = False
            if rng.random() < 0.7:
                conn |= conn[-np.arange(m)]
            assert_row_rounds_match(conn)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_any_row_against_the_oracle(self, m):
        # a row need not be transpose-closed, nor come from a closure
        rng = random.Random(m)
        for rank in (1, 2, m, m * m, 257, 65537):
            row = np.array([rng.randrange(rank) for _ in range(m)])
            out, new_rank = refine_row(row, rank)
            ref_out, ref_rank = oracles.refine_step_oracle(oracles.circulant_matrix(row), rank)
            assert new_rank == ref_rank
            assert np.array_equal(oracles.circulant_matrix(out), ref_out)

    def test_blocks_of_pairs(self, monkeypatch):
        # refine_step's blocks, which the row round shares: a block of one
        # row signs the same as one block of all 30 rows
        mat = _initial_coloring(30, [elementary_caw(30, 4).adj])
        whole = refine_step(mat, 3)
        monkeypatch.setattr(kernels, "_BLOCK_BYTES", 1)
        out = refine_step(mat, 3)
        assert out[1] == whole[1] and np.array_equal(out[0], whole[0])
        assert np.array_equal(refine_row(mat[0], 3)[0], whole[0][0])

    @pytest.mark.parametrize("bad", [-1, 3, 10**12])
    def test_color_outside_rank_raises(self, bad):
        with pytest.raises(ValueError, match=r"colors must lie in \[0, 3\)"):
            refine_row([0, 1, bad], 3)

    def test_rank_beyond_int64_raises(self):
        with pytest.raises(ValueError, match="too large for uint64"):
            refine_row([0, 1], 2**32 + 1)

    def test_matrix_raises(self):
        with pytest.raises(ValueError, match="one dimension"):
            refine_row(np.zeros((2, 2), dtype=np.int64), 1)


class TestInputChecks:
    @pytest.mark.parametrize("bad", [-1, 3, 10**12])
    def test_color_outside_rank_raises(self, bad):
        mat = np.array([[0, 1], [2, 0]], dtype=np.int64)
        mat[1, 1] = bad
        with pytest.raises(ValueError, match=r"colors must lie in \[0, 3\)"):
            refine_step(mat, 3)

    def test_rank_beyond_int64_raises(self):
        # the uint64 ceiling: rank**2 - 1 >= 2**64 from rank 2**32 + 1 on
        with pytest.raises(ValueError, match="too large for uint64"):
            refine_step(np.zeros((2, 2), dtype=np.int64), 2**32 + 1)

    @pytest.mark.parametrize("mat, closed", [
        ([[0, 1], [2, 0]], True),  # the transpose map swaps 1 and 2
        ([[0, 1], [1, 2]], True),  # symmetric
        ([[0, 1], [1, 1]], True),  # 1 is its own transpose, also on the diagonal
        ([[0, 1, 1], [2, 0, 1], [1, 1, 0]], False),  # 1 has transposes 2 and 1
        ([[0, 1, 2], [3, 0, 1], [3, 2, 0]], False),  # 3 has transposes 1 and 2
    ])
    def test_coloring_must_be_transpose_closed(self, mat, closed):
        # any coloring gets the oracle's round, transpose-closed or not
        mat = np.array(mat, dtype=np.int64)
        rank = int(mat.max()) + 1
        assert oracles.transpose_closed(mat) == closed
        assert_same_round(mat, rank)
        # a rank above n**2 changes nothing but the signature type
        assert np.array_equal(refine_step(mat, 2**31)[0], refine_step(mat, rank)[0])

    @pytest.mark.parametrize("n", [3, 9, 40])
    def test_random_colorings_that_are_not_closed_raise(self, n):
        # random colorings that are not transpose-closed get the oracle's round
        rng = random.Random(n)
        mat = np.array([[rng.randrange(n * n) for _ in range(n)] for _ in range(n)],
                       dtype=np.int64)
        mat[0, 1], mat[1, 0], mat[0, 2], mat[2, 0] = 1, 2, 1, 3
        assert not oracles.transpose_closed(mat)
        for rank in (n * n, 2**31):
            assert_same_round(mat, rank)


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


class TestFirstAppearance:
    def assert_same(self, values):
        out = first_appearance(values)
        ref = oracles.first_appearance_oracle(values)
        assert out.dtype == np.int64 and out.shape == ref.shape
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("shape", [(1,), (7,), (50,), (1, 1), (3, 5), (12, 12)])
    def test_values_below_the_size(self, shape):
        # the bincount branch, with gaps among the values
        rng = np.random.default_rng(sum(shape))
        size = int(np.prod(shape))
        for top in (1, 2, max(1, size // 3), size):
            self.assert_same(rng.integers(0, top, size=shape))

    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (12, 12)])
    def test_values_from_the_size_up(self, shape):
        # the np.unique branch: at least one value reaches the size
        rng = np.random.default_rng(sum(shape))
        size = int(np.prod(shape))
        for low, high in ((size, size + 3), (0, 2 * size + 1), (2**40, 2**40 + 4), (0, 2**62)):
            values = rng.integers(low, high, size=shape)
            values.flat[-1] = max(size, low)
            self.assert_same(values)
        self.assert_same(np.full(shape, 2**62))

    @pytest.mark.parametrize("shape", [(256, 256), (65537,), (300, 300)])
    def test_distinct_ids_at_the_uint16_limit_and_past_it(self, shape):
        # 65536 ids sort as uint16, more as int64, through either branch
        rng = np.random.default_rng(len(shape))
        size = int(np.prod(shape))
        self.assert_same(rng.permutation(size).reshape(shape))
        self.assert_same(rng.permutation(size).reshape(shape) * 7 + 2**50)

    @pytest.mark.parametrize("shape", [(0,), (0, 0), (3, 0)])
    def test_empty(self, shape):
        self.assert_same(np.zeros(shape, dtype=np.int64))
