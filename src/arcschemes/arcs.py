"""Combinatorial circular-arc models and their reduction.

An arc-function assigns to each vertex a proper circular interval of Z_m,
stored as (start, size) so the full circle is unrepresentable.  A valid
model additionally satisfies condition (1), every point of Z_m is an
end-point of some arc, and condition (2), every arc has at least two
points.  Condition (3.1) is a property of the intersection graph: for
every edge (u, v), the neighborhood of u must not be contained in the
closed neighborhood of v.  Under (3.1), reduction collapses the classes
of the "same membership pattern" relation on Z_m, shrinking the circle
to exactly one point per vertex while preserving the intersection graph;
the result satisfies (i) no arc contains another, (ii) circle length
equals vertex count, (iii) every point is an end-point of exactly two
arcs.  These labels are the ones the `arcs check` CLI report uses.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

import numpy as np

from .graphs import Graph, build_by_line, common_neighbors, int_records, twin_relation


class ArcFunction:
    """Map from vertices 0..n-1 to circular intervals of Z_m."""

    __slots__ = ("m", "arcs")

    def __init__(self, m: int, arcs):
        if m < 2:
            raise ValueError("circle length must be at least 2")
        norm = []
        for start, size in arcs:
            start, size = int(start), int(size)
            if not 0 <= start < m:
                raise ValueError(f"arc start {start} outside Z_{m}")
            if not 1 <= size <= m - 1:
                raise ValueError(
                    f"arc size {size} invalid: a proper arc of Z_{m} has 1..{m - 1} points"
                )
            norm.append((start, size))
        self.m = m
        self.arcs = tuple(norm)

    @property
    def n_vertices(self) -> int:
        return len(self.arcs)

    def points(self, v: int) -> tuple[int, ...]:
        """The elements of arc v in circular order."""
        start, size = self.arcs[v]
        return tuple((start + i) % self.m for i in range(size))

    def endpoints(self, v: int) -> tuple[int, int]:
        start, size = self.arcs[v]
        return (start, (start + size - 1) % self.m)

    def contains(self, v: int, point: int) -> bool:
        start, size = self.arcs[v]
        return (point - start) % self.m < size

    def __eq__(self, other):
        return (
            isinstance(other, ArcFunction)
            and self.m == other.m
            and self.arcs == other.arcs
        )

    def __hash__(self):
        return hash((self.m, self.arcs))

    def __repr__(self):
        return f"{type(self).__name__}(m={self.m}, n={self.n_vertices})"


def _endpoint_counts(f: ArcFunction) -> Counter:
    """Number of arcs each point is an end-point of.  Points that are no
    end-point are absent, so there are at most 2n keys whatever m is."""
    return Counter(p for v in range(f.n_vertices) for p in set(f.endpoints(v)))


def condition_failures(f: ArcFunction) -> list[str]:
    """Violations of conditions (1) and (2), as human-readable strings."""
    failures = []
    counts = _endpoint_counts(f)
    if len(counts) < f.m:
        # at most 2n points are covered, so this scan stops within 2n+1 steps
        uncovered = next(i for i in range(f.m) if i not in counts)
        failures.append(
            f"condition (1): point {uncovered} of Z_{f.m} is not an end-point of any arc"
        )
    small = [v for v in range(f.n_vertices) if f.arcs[v][1] < 2]
    if small:
        failures.append(f"condition (2): arc of vertex {small[0]} has fewer than two points")
    return failures


def require_valid(f: ArcFunction) -> None:
    failures = condition_failures(f)
    if failures:
        raise ValueError(failures[0])


def intersection_graph(f: ArcFunction) -> Graph:
    """Graph on the vertices of f; u ~ v iff their arcs share a point."""
    require_valid(f)
    # condition (1) leaves at most 2n points, so m and every start are below 2n
    start, size = np.array(f.arcs, dtype=np.int64).T
    offset = (start[None, :] - start[:, None]) % f.m  # start of v seen from u
    meet = (offset < size[:, None]) | (offset.T < size[None, :])
    np.fill_diagonal(meet, False)
    return Graph(meet)


def standard_model(n: int, k: int) -> "ReducedArcFunction":
    """Arc model {i, ..., i+k} on Z_n; its intersection graph is the
    elementary circular-arc graph with parameters (n, k)."""
    if k < 1 or 2 * k + 1 >= n:
        raise ValueError(f"standard model needs 1 <= k and 2k+1 < n, got n={n}, k={k}")
    return ReducedArcFunction(n, [(i, k + 1) for i in range(n)])


class NeighborhoodCheck(NamedTuple):
    ok: bool
    witness: tuple[int, int] | None


def check_neighborhood_condition(g: Graph) -> NeighborhoodCheck:
    """For every edge (u, v): N(u) must not be contained in {v} + N(v).

    Returns the first violating ordered edge, in row-major order, as witness.
    """
    # for an edge (u, v), N(u) is inside {v} + N(v) iff |N(u) & N(v)| = deg(u) - 1
    degree = g.adj.sum(axis=1)
    bad = g.adj & (common_neighbors(g) == degree[:, None] - 1)
    if not bad.any():
        return NeighborhoodCheck(True, None)
    return NeighborhoodCheck(False, divmod(int(bad.argmax()), g.n))


class ReducedArcFunction(ArcFunction):
    """Arc-function certified to satisfy the reduction invariants:
    (i) no arc contains another, (ii) circle length equals the vertex
    count, (iii) every circle point is an end-point of exactly two arcs.
    """

    __slots__ = ()

    def __init__(self, m: int, arcs):
        super().__init__(m, arcs)
        require_valid(self)
        problems = reduction_failures(self)
        if problems:
            raise ValueError(problems[0])


def reduction_failures(f: ArcFunction) -> list[str]:
    """Violations of the reduced-model invariants (i), (ii), (iii)."""
    failures = []
    n = f.n_vertices
    for u in range(n):
        for v in range(n):
            if u != v and _arc_contains(f, v, u):
                failures.append(f"(i): arc of vertex {u} is contained in arc of vertex {v}")
                break
        else:
            continue
        break
    if f.m != n:
        failures.append(f"(ii): circle length {f.m} differs from vertex count {n}")
    counts = _endpoint_counts(f)
    bad = next((i for i in range(f.m) if counts[i] != 2), None)
    if bad is not None:
        failures.append(f"(iii): point {bad} is an end-point of {counts[bad]} arcs, not 2")
    return failures


def _arc_contains(f: ArcFunction, outer: int, inner: int) -> bool:
    so, lo = f.arcs[outer]
    si, li = f.arcs[inner]
    return li <= lo and (si - so) % f.m <= lo - li


def reduce(f: ArcFunction) -> ReducedArcFunction:
    """Collapse same-membership circle points to get a reduced model.

    Requires a valid arc-function whose intersection graph is non-empty
    and satisfies the neighborhood condition; under those hypotheses the
    collapsed model satisfies (i), (ii), (iii) and has the same
    intersection graph, both of which are re-checked before returning.
    """
    require_valid(f)
    g = intersection_graph(f)
    if g.edge_count() == 0:
        raise ValueError("reduction needs a non-empty intersection graph")
    check = check_neighborhood_condition(g)
    if not check.ok:
        raise ValueError(
            f"condition (3.1) violated: neighborhood of {check.witness[0]} is contained "
            f"in the closed neighborhood of {check.witness[1]}"
        )

    m, n = f.m, f.n_vertices
    pattern = [0] * m
    for v in range(n):
        for p in f.points(v):
            pattern[p] |= 1 << v
    # ~ classes: points with equal membership pattern; each must be a
    # proper circular interval, otherwise the input was inconsistent
    classes: dict[int, list[int]] = {}
    for p in range(m):
        classes.setdefault(pattern[p], []).append(p)
    if len(classes) < 2:
        raise ValueError("membership classes cover the whole circle; input inconsistent")
    starts = {}
    for pat, pts in classes.items():
        members = set(pts)
        heads = [p for p in pts if (p - 1) % m not in members]
        if len(heads) != 1:
            raise ValueError(
                "membership class is not a circular interval; input inconsistent"
            )
        starts[pat] = heads[0]
    ordered = sorted(classes, key=lambda pat: starts[pat])
    index_of = {pat: i for i, pat in enumerate(ordered)}
    new_m = len(ordered)

    new_arcs = []
    for v in range(n):
        start, _ = f.arcs[v]
        new_start = index_of[pattern[start]]
        new_size = len({index_of[pattern[p]] for p in f.points(v)})
        new_arcs.append((new_start, new_size))
    reduced = ReducedArcFunction(new_m, new_arcs)
    if intersection_graph(reduced) != g:
        raise AssertionError("reduction changed the intersection graph")
    return reduced


def degree_check(rf: ReducedArcFunction) -> bool:
    """Degree formula for reduced models: deg(v) = 2|f(v)| - 2; when the
    graph is d-regular every arc must have (d + 2) / 2 points."""
    g = intersection_graph(rf)
    for v in range(rf.n_vertices):
        if g.degree(v) != 2 * rf.arcs[v][1] - 2:
            return False
    degrees = {g.degree(v) for v in range(g.n)}
    if len(degrees) == 1:
        d = degrees.pop()
        if any(2 * size != d + 2 for _, size in rf.arcs):
            return False
    return True


def is_regular_equivalent(g: Graph) -> bool:
    """For twin-free non-empty circular-arc graphs, regularity coincides
    with the neighborhood condition; asserts the equivalence and returns
    whether the graph is regular."""
    if g.edge_count() == 0:
        raise ValueError("equivalence requires a non-empty graph")
    if any(len(c) > 1 for c in twin_relation(g).classes):
        raise ValueError("equivalence requires a twin-free graph")
    regular = g.is_regular()
    condition = check_neighborhood_condition(g).ok
    if regular != condition:
        raise AssertionError(
            "regularity and the neighborhood condition disagree; "
            "input is not a circular-arc graph"
        )
    return regular


# ---------------------------------------------------------------------------
# Arc-model text format: "m n" header, then n lines "start size", '#' comments.


def model_to_text(f: ArcFunction) -> str:
    lines = [f"{f.m} {f.n_vertices}"]
    lines.extend(f"{start} {size}" for start, size in f.arcs)
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> ArcFunction:
    records = list(int_records(text, "two integers", 2))
    if not records:
        raise ValueError("empty arc-model file (missing 'm n' header)")
    (lineno, (m, n)), rows = records[0], records[1:]
    if len(rows) != n:
        raise ValueError(f"header declares {n} arcs but file has {len(rows)}")
    return build_by_line(lineno, rows, lambda arcs: ArcFunction(m, arcs))


def read_model(path) -> ArcFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_text(fh.read())


def write_model(f: ArcFunction, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_text(f))
