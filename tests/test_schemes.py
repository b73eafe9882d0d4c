import random
import tracemalloc

import numpy as np
import pytest

import oracles
from arcschemes.characterize import _lift
from arcschemes.closure import closure_of_graph
from arcschemes.graphs import complete, elementary_caw
from arcschemes.schemes import (
    ISO,
    NOT_ISO,
    CoherentConfiguration,
    dihedral_scheme,
    is_association,
    is_fusion_of,
    scheme_from_text,
    scheme_to_text,
    verify,
)


def wreath(r, outer):
    """rank2(r) wr outer (outer when r = 1), with point a * r + b at outer point a."""
    return _lift(outer.colors, np.repeat(np.arange(outer.n), r))


@pytest.fixture(scope="module")
def scheme_corpus():
    return [
        oracles.rank2_scheme(2),
        oracles.rank2_scheme(5),
        dihedral_scheme(4),
        dihedral_scheme(5),
        dihedral_scheme(6),
        dihedral_scheme(7),
        wreath(2, oracles.rank2_scheme(3)),
        wreath(2, dihedral_scheme(5)),
        closure_of_graph(oracles.path(3)),
        closure_of_graph(oracles.star(3)),
    ]


class TestVerify:
    def test_rank2_passes(self):
        assert verify(oracles.rank2_scheme(3)).ok

    def test_path_coloring_fails_with_witness(self):
        # "equal / edge / non-edge" on the 4-path is not coherent
        g = oracles.path(4)
        mat = np.zeros((4, 4), dtype=np.int64)
        for u in range(4):
            for v in range(4):
                if u != v:
                    mat[u, v] = 1 if g.adj[u, v] else 2
        report = verify(CoherentConfiguration(mat))
        assert not report.ok
        assert report.problem == "intersection"
        r, s, t, p1, p2 = report.witness
        c1 = sum(1 for w in range(4) if mat[p1[0], w] == r and mat[w, p1[1]] == s)
        c2 = sum(1 for w in range(4) if mat[p2[0], w] == r and mat[w, p2[1]] == s)
        assert c1 != c2
        assert mat[p1] == mat[p2] == t

    @pytest.mark.parametrize("n", range(3, 41))
    def test_dihedral_passes(self, n):
        # dihedral_scheme does not verify itself; its callers compare it
        # with a closure, and this pins that it is coherent on its own
        assert verify(dihedral_scheme(n)).ok

    def test_diagonal_violation(self):
        mat = [[0, 0], [1, 0]]
        report = verify(CoherentConfiguration(mat))
        assert not report.ok and report.problem == "diagonal"

    def test_pairing_violation(self):
        mat = [[0, 1, 1], [2, 0, 2], [1, 2, 0]]
        report = verify(CoherentConfiguration(mat))
        assert not report.ok and report.problem == "pairing"

    def test_diagonal_witness_is_the_smallest_color(self):
        # diagonal colors {0, 5, 8}; 5 and 8 both hold off-diagonal pairs
        cfg = CoherentConfiguration([[0, 1, 2, 3], [3, 0, 4, 5], [4, 6, 5, 7], [7, 8, 7, 8]])
        report = verify(cfg)
        assert report.witness == (5, (1, 3))
        assert report.message == "diagonal color 5 contains off-diagonal pair (1, 3)"


def random_coloring(rng: random.Random) -> CoherentConfiguration:
    """A random color matrix: any matrix; or one whose diagonal colors
    stay on the diagonal, symmetric (so it fails, if at all, at the
    intersection numbers) or not (mostly failing at the pairing); or the
    closure of a random graph."""
    n = rng.randint(1, 7)
    kind = rng.random()
    if kind < 0.3:
        return CoherentConfiguration([[rng.randrange(4) for _ in range(n)] for _ in range(n)])
    if kind < 0.85:
        cells = rng.randint(1, 2)
        symmetric = rng.random() < 0.7
        mat = np.zeros((n, n), dtype=np.int64)
        for u in range(n):
            mat[u, u] = rng.randrange(cells)
            for v in range(u):
                mat[u, v] = cells + rng.randrange(3)
                mat[v, u] = mat[u, v] if symmetric else cells + rng.randrange(3)
        return CoherentConfiguration(mat)
    return closure_of_graph(oracles.random_graph(rng, n))


class TestVerifyOracleParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_colorings(self, seed):
        rng = random.Random(seed)
        problems = set()
        for _ in range(300):
            cfg = random_coloring(rng)
            report = verify(cfg)
            # repr also tells a numpy integer in the witness from a Python int
            assert repr(report) == repr(oracles.verify_oracle(cfg))
            problems.add(report.problem)
        assert problems == {None, "diagonal", "pairing", "intersection"}


def counts_at_first_pair(cfg, t):
    """{(r, s): c_rs^t} counted at the first pair of color t."""
    return oracles._pair_counts_oracle(cfg.colors, oracles.first_pair(cfg, t))


class TestIntersectionNumbers:
    def test_dihedral5_value(self):
        assert oracles.exhaustive_intersection_counts(dihedral_scheme(5), 1, 1, 2) == {1}

    def test_diagonal_composition(self):
        d = dihedral_scheme(7)
        for s in range(d.rank):
            assert oracles.exhaustive_intersection_counts(d, 0, s, s) == {1}

    def test_rank2_value(self):
        assert oracles.exhaustive_intersection_counts(oracles.rank2_scheme(6), 1, 1, 1) == {4}

    def test_constant_over_all_representatives(self, scheme_corpus):
        for cfg in scheme_corpus:
            if cfg.n > 10:
                continue
            for t in range(cfg.rank):
                for (r, s), value in counts_at_first_pair(cfg, t).items():
                    assert oracles.exhaustive_intersection_counts(cfg, r, s, t) == {value}

    def test_valency_consistency(self, scheme_corpus):
        # sum_s c_rs^t equals the r-valency of the source point of t
        for cfg in scheme_corpus:
            if cfg.n > 12:
                continue
            for t in range(cfg.rank):
                x, _ = oracles.first_pair(cfg, t)
                counts = counts_at_first_pair(cfg, t)
                for r in range(cfg.rank):
                    total = sum(v for (rr, _s), v in counts.items() if rr == r)
                    assert total == int(np.count_nonzero(cfg.colors[x] == r))

    def test_pairing_symmetry(self, scheme_corpus):
        # c_rs^t = c_{s* r*}^{t*}
        for cfg in scheme_corpus:
            if cfg.n > 10:
                continue
            p = cfg.pairing
            for t in range(cfg.rank):
                counts = counts_at_first_pair(cfg, t)
                dual = counts_at_first_pair(cfg, p[t])
                for (r, s), value in counts.items():
                    assert dual.get((p[s], p[r]), 0) == value


class TestAssociation:
    def test_dihedral(self):
        assert is_association(dihedral_scheme(7))

    def test_path_closure_not(self):
        assert not is_association(closure_of_graph(oracles.path(3)))

    def test_rank2(self):
        assert is_association(oracles.rank2_scheme(4))


class TestConstructors:
    def test_rank2_small(self):
        cfg = oracles.rank2_scheme(2)
        assert cfg.rank == 2 and cfg.sizes == (2, 2)

    def test_rank2_sizes(self):
        assert oracles.rank2_scheme(5).sizes == (5, 20)

    def test_rank2_needs_two_points(self):
        with pytest.raises(ValueError):
            oracles.rank2_scheme(1)

    @pytest.mark.parametrize("n,rank", [(4, 3), (5, 3), (6, 4), (7, 4)])
    def test_dihedral_rank(self, n, rank):
        assert dihedral_scheme(n).rank == rank

    def test_dihedral6_antipodal_size(self):
        assert dihedral_scheme(6).sizes[3] == 6

    @pytest.mark.parametrize("n", range(3, 11))
    def test_dihedral_matches_orbit_oracle(self, n):
        assert oracles.scheme_pair_classes(dihedral_scheme(n)) == oracles.dihedral_pair_orbits(n)


class TestWreath:
    """characterize._lift, the package's one construction of rank2(r) wr X."""

    def test_rank3_on_six(self):
        w = wreath(2, oracles.rank2_scheme(3))
        assert w.n == 6 and w.rank == 3

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (4, 5)])
    def test_rank2_wreath_rank2(self, m, n):
        assert wreath(m, oracles.rank2_scheme(n)).rank == 3

    def test_rank2_wreath_dihedral(self):
        w = wreath(2, dihedral_scheme(5))
        assert w.n == 10 and w.rank == 4

    def test_rank_formula_for_association_factors(self):
        # rank(rank2(r)) + rank(outer) - 1
        for outer in (oracles.rank2_scheme(3), dihedral_scheme(5), dihedral_scheme(6)):
            for r in range(2, 5):
                assert wreath(r, outer).rank == 2 + outer.rank - 1

    def test_point_factors_degenerate(self):
        # one point per fiber, and one fiber
        d = dihedral_scheme(5)
        assert wreath(1, d) == d
        assert wreath(3, closure_of_graph(complete(1))) == oracles.rank2_scheme(3)

    def test_verified_for_corpus_products(self, scheme_corpus):
        for outer in scheme_corpus:
            for r in range(1, 5):
                if r * outer.n <= 60:
                    assert verify(wreath(r, outer)).ok

    def test_matches_blockwise_oracle(self, scheme_corpus):
        # homogeneous and inhomogeneous (path and star closures) outers alike
        outers = scheme_corpus + [closure_of_graph(complete(1))]
        for outer in outers:
            for r in range(1, 5):
                if r * outer.n <= 60:
                    inner = closure_of_graph(complete(r))  # rank2(r), or one point
                    expected = CoherentConfiguration(oracles.wreath_product_oracle(inner, outer))
                    assert wreath(r, outer) == expected, (r, outer)

    def test_inhomogeneous_factors_stay_coherent(self):
        p3 = closure_of_graph(oracles.path(3))
        assert not is_association(p3)
        for r in range(1, 5):
            assert verify(wreath(r, p3)).ok


class TestFusion:
    def test_rank2_is_minimal(self, scheme_corpus):
        for cfg in scheme_corpus:
            if cfg.n >= 2:
                assert is_fusion_of(oracles.rank2_scheme(cfg.n), cfg)

    def test_reflexive(self, scheme_corpus):
        for cfg in scheme_corpus:
            assert is_fusion_of(cfg, cfg)

    def test_dihedral_not_fusion_of_rank2(self):
        assert not is_fusion_of(dihedral_scheme(6), oracles.rank2_scheme(6))
        assert is_fusion_of(oracles.rank2_scheme(6), dihedral_scheme(6))

    def test_point_count_mismatch(self):
        with pytest.raises(ValueError):
            is_fusion_of(oracles.rank2_scheme(3), oracles.rank2_scheme(4))


class TestIsomorphism:
    """The search oracle that the library's search-free verdicts are checked against."""

    def test_dihedral_relabeled(self):
        d = dihedral_scheme(5)
        perm = [2 * i % 5 for i in range(5)]
        mat = np.empty((5, 5), dtype=np.int64)
        for u in range(5):
            for v in range(5):
                mat[perm[u], perm[v]] = d.colors[u, v]
        verdict = oracles.schemes_isomorphic(d, CoherentConfiguration(mat))
        assert verdict.kind == ISO
        assert verdict.witness is not None

    def test_rank_mismatch(self):
        verdict = oracles.schemes_isomorphic(oracles.rank2_scheme(4), dihedral_scheme(4))
        assert verdict.kind == NOT_ISO

    def test_wreath_vs_closure_of_matching_complement(self):
        w = wreath(2, oracles.rank2_scheme(3))
        cc = closure_of_graph(elementary_caw(6, 2))
        assert oracles.schemes_isomorphic(w, cc).kind == ISO

    def test_witness_is_color_preserving(self):
        a = closure_of_graph(elementary_caw(7, 2))
        b = dihedral_scheme(7)
        verdict = oracles.schemes_isomorphic(a, b)
        assert verdict.kind == ISO
        perm = verdict.witness
        mapping = {}
        for u in range(7):
            for v in range(7):
                ca, cb = int(a.colors[u, v]), int(b.colors[perm[u], perm[v]])
                assert mapping.setdefault(ca, cb) == cb

    def test_random_relabelings_are_recognized(self):
        import random

        rng = random.Random(31)
        for _ in range(15):
            g = oracles.random_graph(rng, rng.randint(2, 7))
            a = closure_of_graph(g)
            perm = list(range(a.n))
            rng.shuffle(perm)
            mat = np.empty((a.n, a.n), dtype=np.int64)
            for u in range(a.n):
                for v in range(a.n):
                    mat[perm[u], perm[v]] = a.colors[u, v]
            b = CoherentConfiguration(mat)
            assert oracles.schemes_isomorphic(a, b).kind == ISO


class TestIO:
    def test_round_trip(self):
        cfg = dihedral_scheme(6)
        text = scheme_to_text(cfg)
        assert scheme_from_text(text) == cfg
        assert scheme_to_text(scheme_from_text(text)) == text

    def test_header_checked(self):
        with pytest.raises(ValueError, match="rank"):
            scheme_from_text("2 3\n0 1\n1 0\n")
        with pytest.raises(ValueError, match="line 2"):
            scheme_from_text("2 2\n0 1 1\n1 0\n")

    @pytest.mark.parametrize("text", ["0 0\n", "0 1\n", "# c\n-1 0\n"])
    def test_header_needs_a_point(self, text):
        line = text.count("\n")
        with pytest.raises(ValueError, match=f"^line {line}: a scheme needs at least one point$"):
            scheme_from_text(text)

    def test_rank_above_pair_count_rejected_at_header(self):
        # colors below such a rank could overflow the int64 color matrix
        with pytest.raises(ValueError, match="^line 1: header declares rank 10{23} but 1 points"):
            scheme_from_text("1 100000000000000000000000\n99999999999999999999999\n")
        with pytest.raises(ValueError, match="^line 2: header declares rank 5 but 2 points"):
            scheme_from_text("# c\n2 5\n0 1\n2 3\n")

    def test_non_canonical_input_is_canonicalized(self):
        # swapped color ids on input; write-then-read is stable afterwards
        cfg = scheme_from_text("2 2\n1 0\n0 1\n")
        assert cfg == oracles.rank2_scheme(2)
        assert scheme_from_text(scheme_to_text(cfg)) == cfg

    def test_huge_color_value_costs_no_memory(self):
        # canonical ids are numbered without an array sized by the largest
        # color value, so the header's rank check is reached
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="header declares rank 1000000000"):
                scheme_from_text("1 1000000000\n999999999\n")
            assert CoherentConfiguration([[7, 2**62], [2**62, 7]]) == oracles.rank2_scheme(2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
