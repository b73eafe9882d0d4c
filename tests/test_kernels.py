import random

import numpy as np
import pytest

import oracles
from arcschemes import kernels
from arcschemes.closure import _initial_coloring, closure_of_graph
from arcschemes.graphs import elementary_caw
from arcschemes.kernels import first_appearance, refine_step


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
    mat = closed_coloring(rng, n, rank, lambda: rng.randrange(rank))
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

    # half rounds: at n >= HALF_ROUND_MIN_N and a rank below n**2 / 8.  A
    # coloring pulled back from one on 3 points has at most 3 row classes,
    # so refine_step takes the half round; a random one has as many classes
    # as points and takes the full round, so it also goes through
    # _half_round directly, where tau has many colors
    @pytest.mark.parametrize("n, rank", [(32, 3), (32, 127), (40, 199), (46, 256), (46, 257)])
    def test_half_rounds(self, n, rank):
        assert n >= kernels.HALF_ROUND_MIN_N and rank * 8 < n * n
        rng = random.Random(n * rank)
        palette = [0, 1, rank // 2, rank - 3, rank - 2, rank - 1]
        small = closed_coloring(rng, 3, rank, lambda: rng.choice(palette))
        points = np.array([rng.randrange(3) for _ in range(n)])
        assert_same_round(small[points][:, points], rank)
        mat = closed_coloring(rng, n, rank, lambda: rng.randrange(rank))
        mat[0, 1] = mat[1, 0] = rank - 1
        assert_same_round(mat, rank)
        dt = next(t for t, top in kernels._SIGNATURE_TYPES if rank * rank - 1 <= top)
        for c in (small[points][:, points], mat):
            out, new_rank = kernels._half_round(c.astype(dt), dt(rank))
            ref_out, ref_rank = oracles.refine_step_oracle(c, rank)
            assert new_rank == ref_rank
            assert np.array_equal(out, ref_out)

    def test_half_round_only_where_few_colors_are_expected(self):
        pays = lambda mat, rank: kernels._half_round_pays(mat, rank)  # noqa: E731
        # a member: every row alike, so one row class
        g = elementary_caw(40, 3)
        mat = _initial_coloring(g.n, [g.adj])
        assert pays(mat, 3)
        assert not pays(mat[:31, :31], 3)  # too few points
        assert not pays(mat, 40 * 40 // 8)  # the old rank is already n^2 / 8
        # a graph whose 40 points have the 16 degrees 0..15: 16**2 * 8 >= 40**2
        adj = np.zeros((40, 40), dtype=bool)
        for u in range(15):
            adj[u, 15:15 + u + 1] = adj[15:15 + u + 1, u] = True
        assert len(set(adj.sum(axis=1).tolist())) == 16
        assert not pays(_initial_coloring(40, [adj]), 3)

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
        mat = np.array(mat, dtype=np.int64)
        rank = int(mat.max()) + 1
        assert oracles.transpose_closed(mat) == closed
        if closed:
            assert_same_round(mat, rank)
            # a rank above n**2 renumbers before the check; the round is the same
            assert np.array_equal(refine_step(mat, 2**31)[0], refine_step(mat, rank)[0])
        else:
            for r in (rank, 2**31):
                with pytest.raises(ValueError, match="not transpose-closed"):
                    refine_step(mat, r)

    @pytest.mark.parametrize("n", [3, 9, 40])
    def test_random_colorings_that_are_not_closed_raise(self, n):
        # the kind of input the parity tests drew before the precondition
        rng = random.Random(n)
        mat = np.array([[rng.randrange(n * n) for _ in range(n)] for _ in range(n)],
                       dtype=np.int64)
        mat[0, 1], mat[1, 0], mat[0, 2], mat[2, 0] = 1, 2, 1, 3
        assert not oracles.transpose_closed(mat)
        for rank in (n * n, 2**31):  # a rank above n**2 renumbers before the check
            with pytest.raises(ValueError, match="not transpose-closed"):
                refine_step(mat, rank)


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
