import random
import tracemalloc

import pytest

import oracles
from arcschemes.arcs import (
    ArcFunction,
    ReducedArcFunction,
    check_neighborhood_condition,
    condition_failures,
    intersection_graph,
    model_from_text,
    model_to_text,
    reduce,
    reduction_failures,
    standard_model,
)
from arcschemes.graphs import complete, cycle, elementary_caw, twin_relation


class TestArcFunction:
    def test_structural_validation(self):
        with pytest.raises(ValueError, match="size"):
            ArcFunction(5, [(0, 0)])
        with pytest.raises(ValueError, match="size"):
            ArcFunction(5, [(0, 5)])  # full circle is not an arc
        with pytest.raises(ValueError, match="start"):
            ArcFunction(5, [(5, 2)])

    def test_condition_two(self):
        f = ArcFunction(4, [(0, 1), (1, 2), (2, 2), (3, 2)])
        failures = condition_failures(f)
        assert any("condition (2)" in msg for msg in failures)

    def test_condition_one(self):
        # point 2 of Z_6 is interior everywhere
        f = ArcFunction(6, [(0, 2), (1, 3), (3, 2), (4, 3)])
        failures = condition_failures(f)
        assert any("condition (1)" in msg for msg in failures)


class TestIntersectionGraph:
    def test_c4_from_four_points(self):
        f = ArcFunction(4, [(0, 2), (1, 2), (2, 2), (3, 2)])
        assert intersection_graph(f) == cycle(4)

    def test_c5_standard(self):
        f = ArcFunction(5, [(i, 2) for i in range(5)])
        assert intersection_graph(f) == cycle(5)

    def test_c4_from_eight_points(self):
        f = ArcFunction(8, [(0, 4), (2, 4), (4, 4), (6, 4)])
        assert intersection_graph(f) == cycle(4)

    def test_invalid_input_rejected(self):
        f = ArcFunction(4, [(0, 1), (1, 2), (2, 2), (3, 2)])
        with pytest.raises(ValueError, match="condition"):
            intersection_graph(f)

    def test_matches_pairwise_oracle(self):
        rng = random.Random(8)
        for _ in range(300):
            f = oracles.random_arc_function(rng, max_vertices=40)
            assert intersection_graph(f) == oracles.intersection_graph_oracle(f)


class TestStandardModel:
    def test_cycle_model(self):
        f = standard_model(5, 1)
        assert f.arcs == tuple((i, 2) for i in range(5))
        assert intersection_graph(f) == elementary_caw(5, 1)

    def test_sizes_and_regularity(self):
        f = standard_model(7, 2)
        assert all(size == 3 for _, size in f.arcs)
        g = intersection_graph(f)
        assert g == elementary_caw(7, 2)
        assert all(g.degree(v) == 4 for v in range(7))

    def test_matching_complement(self):
        assert intersection_graph(standard_model(6, 2)) == elementary_caw(6, 2)

    def test_already_reduced(self):
        assert isinstance(standard_model(9, 3), ReducedArcFunction)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            standard_model(6, 0)
        with pytest.raises(ValueError):
            standard_model(4, 2)


class TestNeighborhoodCondition:
    def test_cycle_holds(self):
        assert check_neighborhood_condition(cycle(5)).ok

    def test_path_fails_at_leaf(self):
        check = check_neighborhood_condition(oracles.path(4))
        assert not check.ok
        u, v = check.witness
        assert oracles.path(4).degree(u) == 1 or oracles.path(4).degree(v) == 1

    def test_complete_fails(self):
        assert not check_neighborhood_condition(complete(4)).ok

    def test_matches_bitset_oracle(self, corpus):
        rng = random.Random(9)
        graphs = list(corpus)
        graphs += [intersection_graph(oracles.random_arc_function(rng, max_vertices=40))
                   for _ in range(300)]
        held = 0
        for g in graphs:
            check = check_neighborhood_condition(g)
            assert check.witness == oracles.neighborhood_condition_oracle(g)
            assert check.ok == (check.witness is None)
            held += check.ok
        assert 0 < held < len(graphs)


class TestReduce:
    def test_collapse_eight_to_four(self):
        f = ArcFunction(8, [(0, 4), (2, 4), (4, 4), (6, 4)])
        reduced = reduce(f)
        assert reduced.m == 4
        assert reduced.arcs == ((0, 2), (1, 2), (2, 2), (3, 2))

    def test_collapse_with_wraparound_class(self):
        f = ArcFunction(8, [(1, 4), (3, 4), (5, 4), (7, 4)])
        reduced = reduce(f)
        assert reduced.m == 4
        assert reduced.arcs == ((0, 2), (1, 2), (2, 2), (3, 2))

    def test_standard_model_is_fixed_point(self):
        f = standard_model(7, 2)
        assert reduce(f) == f

    def test_path_model_rejected(self):
        f = ArcFunction(5, [(0, 2), (1, 2), (2, 2), (3, 2)])
        assert intersection_graph(f) == oracles.path(4)
        with pytest.raises(ValueError, match=r"condition \(3.1\)"):
            reduce(f)

    def test_empty_graph_rejected(self):
        f = ArcFunction(4, [(0, 2), (2, 2)])
        with pytest.raises(ValueError, match="non-empty"):
            reduce(f)

    def test_invariants_on_random_models(self):
        rng = random.Random(42)
        checked = 0
        while checked < 30:
            f = oracles.random_arc_function(rng)
            g = intersection_graph(f)
            if g.edge_count() == 0 or not check_neighborhood_condition(g).ok:
                continue
            reduced = reduce(f)
            assert intersection_graph(reduced) == g
            assert reduction_failures(reduced) == []
            assert oracles.degree_check_oracle(reduced)
            checked += 1


class TestDegreeCheck:
    def test_standard_nine_three(self):
        assert oracles.degree_check_oracle(standard_model(9, 3))

    def test_reduced_c4(self):
        rf = ReducedArcFunction(4, [(0, 2), (1, 2), (2, 2), (3, 2)])
        assert oracles.degree_check_oracle(rf)

    def test_reduced_constructor_rejects_violations(self):
        # (iii) fails: point 0 is an end-point of three arcs
        with pytest.raises(ValueError):
            ReducedArcFunction(4, [(0, 2), (0, 3), (2, 2), (3, 2)])


class TestRegularEquivalence:
    def test_c83(self):
        assert oracles.is_regular_equivalent(elementary_caw(8, 3))

    def test_c5(self):
        assert oracles.is_regular_equivalent(cycle(5))

    def test_irregular_twin_free_model(self):
        # degrees (2,3,2,2,3): both regularity and the condition fail
        f = ArcFunction(5, [(0, 2), (1, 2), (2, 2), (3, 2), (4, 3)])
        g = intersection_graph(f)
        assert sorted(g.adj.sum(axis=1).tolist()) == [2, 2, 2, 3, 3]
        assert twin_relation(g).tolist() == list(range(5))
        assert not oracles.is_regular_equivalent(g)
        assert not check_neighborhood_condition(g).ok

    def test_preconditions(self):
        f = ArcFunction(3, [(0, 2), (0, 2), (1, 2)])
        with pytest.raises(ValueError, match="twin"):
            oracles.is_regular_equivalent(intersection_graph(f))
        from arcschemes.graphs import empty_graph

        with pytest.raises(ValueError, match="non-empty"):
            oracles.is_regular_equivalent(empty_graph(3))

    def test_biconditional_on_random_models(self):
        rng = random.Random(99)
        checked = 0
        while checked < 40:
            f = oracles.random_arc_function(rng)
            g = intersection_graph(f)
            if g.edge_count() == 0:
                continue
            if twin_relation(g).max() + 1 < g.n:
                continue
            # raises AssertionError if the equivalence ever fails
            oracles.is_regular_equivalent(g)
            checked += 1

    def test_regular_twin_free_models_are_elementary(self):
        # regular + twin-free forces the elementary shape, with the
        # connection-set radius read off the reduced arc sizes
        from arcschemes.characterize import is_elementary_caw

        rng = random.Random(424242)
        checked = 0
        while checked < 25:
            f = oracles.random_arc_function(rng)
            g = intersection_graph(f)
            if g.edge_count() == 0 or not g.is_regular():
                continue
            if twin_relation(g).max() + 1 < g.n:
                continue
            reduced = reduce(f)
            recognized = is_elementary_caw(g)
            assert recognized is not None
            n, k, _labels = recognized
            assert n == g.n
            assert {size for _, size in reduced.arcs} == {k + 1}
            checked += 1


class TestIO:
    def test_round_trip(self):
        f = standard_model(7, 2)
        text = model_to_text(f)
        assert model_from_text(text) == ArcFunction(7, f.arcs)
        assert model_to_text(model_from_text(text)) == text

    def test_comments(self):
        text = "# C4 model\n4 4\n0 2\n1 2\n2 2\n3 2\n"
        assert intersection_graph(model_from_text(text)) == cycle(4)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 3"):
            model_from_text("4 2\n0 2\n9 2\n")
        with pytest.raises(ValueError, match="declares"):
            model_from_text("4 3\n0 2\n1 2\n")

    def test_header_error_names_header_line(self):
        with pytest.raises(ValueError, match=r"^line 1: circle length must be at least 2"):
            model_from_text("1 1\n0 1\n")
        with pytest.raises(ValueError, match=r"^line 2: circle length"):
            model_from_text("# comment\n0 0\n")


def arbitrary_arc_function(rng: random.Random) -> ArcFunction:
    """Any arc-function, valid or not: mostly a circle of at most 2n + 3
    points, now and then a circle of up to 10^9 or 10^20 points."""
    n = rng.randint(0, 9)
    m = rng.choice([rng.randint(2, 2 * n + 3), rng.randint(2, 10**9), rng.randint(2, 10**20)]
                   if rng.random() < 0.2 else [rng.randint(2, 2 * n + 3)])
    return ArcFunction(m, [(rng.randrange(m), rng.randint(1, m - 1)) for _ in range(n)])


HAND_MADE_MODELS = [
    ArcFunction(5, []),
    ArcFunction(6, [(4, 3)]),
    ArcFunction(4, [(0, 1), (1, 2), (2, 2), (3, 2)]),
    ArcFunction(6, [(0, 2), (1, 3), (3, 2), (4, 3)]),
    ArcFunction(3, [(0, 2), (0, 2), (1, 2)]),
    ArcFunction(4, [(0, 2), (0, 3), (2, 2), (3, 2)]),
    ArcFunction(5, [(0, 2), (1, 2), (2, 2), (3, 2), (4, 3)]),
    ArcFunction(8, [(0, 4), (2, 4), (4, 4), (6, 4)]),
    ArcFunction(8, [(1, 4), (3, 4), (5, 4), (7, 4)]),
    ArcFunction(10**12, [(0, 2), (5, 3)]),
    ArcFunction(10**20, [(0, 5), (3, 10**20 - 1)]),
    ArcFunction(2**62, [(2**62 - 1, 2**62 - 1), (0, 2)]),
    standard_model(7, 2),
    standard_model(6, 2),
]


def outcome(call, f):
    """call(f), or the text of the ValueError it raises."""
    try:
        return call(f)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestOracleParity:
    """The array checks against the point-by-point and pair-by-pair loops
    in tests/oracles.py: the same failure lists, and the same reduced model
    or ValueError text."""

    @staticmethod
    def assert_same(f):
        assert condition_failures(f) == oracles.condition_failures_oracle(f)
        assert reduction_failures(f) == oracles.reduction_failures_oracle(f)
        assert outcome(reduce, f) == outcome(oracles.reduce_oracle, f)

    @pytest.mark.parametrize("f", HAND_MADE_MODELS, ids=repr)
    def test_hand_made_models(self, f):
        self.assert_same(f)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_valid_models(self, seed):
        rng = random.Random(seed)
        reduced = 0
        for _ in range(150):
            f = oracles.random_arc_function(rng, max_vertices=12)
            self.assert_same(f)
            reduced += not isinstance(outcome(reduce, f), str)
        assert reduced > 10

    @pytest.mark.parametrize("seed", range(4))
    def test_random_arbitrary_models(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(300):
            self.assert_same(arbitrary_arc_function(rng))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_models_with_doubled_points(self, seed):
        # a model that reduces to itself, with points doubled, reduces back
        rng = random.Random(200 + seed)
        merged = 0
        while merged < 40:
            f = oracles.random_arc_function(rng, max_vertices=12)
            if f.m != f.n_vertices or isinstance(outcome(reduce, f), str):
                continue
            doubled = oracles.doubled_points(rng, f)
            self.assert_same(doubled)
            assert reduce(doubled) == reduce(f) == f
            merged += doubled.m > f.m

    def test_reduced_models_pass_the_degree_check(self):
        rng = random.Random(7)
        for _ in range(200):
            result = outcome(reduce, oracles.random_arc_function(rng, max_vertices=12))
            if not isinstance(result, str):
                assert oracles.degree_check_oracle(result) is True


def test_checks_on_a_huge_circle_allocate_nothing_per_point():
    # the first numpy calls of a process allocate about 1 MB; warm them up
    condition_failures(ArcFunction(5, [(0, 2), (2, 3)]))
    reduction_failures(ArcFunction(5, [(0, 2), (2, 3)]))
    # an array per circle point would be 8 TB here: MemoryError, not a stall
    f = ArcFunction(10**12, [(0, 2), (5, 3)])
    tracemalloc.start()
    try:
        conditions = condition_failures(f)
        reduction = reduction_failures(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert conditions == ["condition (1): point 2 of Z_1000000000000 is not an end-point of any arc"]
    assert reduction == ["(ii): circle length 1000000000000 differs from vertex count 2",
                         "(iii): point 0 is an end-point of 1 arcs, not 2"]
    assert peak < 1_000_000
