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

Every check is numpy on the arrays of arc starts and sizes: (i) on the
n x n containment matrix, (1) and (iii) on end-point counts of the first
2n + 1 points at most, so nothing is allocated per circle point at any m.  reduce groups the equal
rows of the m x n point-membership matrix, which condition (1) keeps at
most 2n x n.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graphs import Graph, build_by_line, common_neighbors, int_records


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


def _columns(f: ArcFunction) -> np.ndarray:
    """The 2 x n array of the arc starts and sizes.  int64 holds start +
    size exactly while m < 2^62; a larger circle gets an array of Python
    ints, so every check stays exact at any m."""
    dtype = np.int64 if f.m < 1 << 62 else object
    return np.array(f.arcs, dtype=dtype).reshape(-1, 2).T


def _end_point_counts(m: int, start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The number of arcs each of the points 0 .. min(m, 2n + 1) - 1 is an
    end-point of.  The n arcs have at most 2n end-points, so if m > 2n + 1
    a point in that range is none: the first point of Z_m violating (1) or
    (iii) always lies in it, and nothing here grows with m."""
    end = (start + size - 1) % m
    # an arc of one point has a single end-point
    points = np.concatenate([start, end[size > 1]])
    top = min(m, 2 * len(start) + 1)
    return np.bincount(points[points < top].astype(np.int64), minlength=top)


def condition_failures(f: ArcFunction) -> list[str]:
    """Violations of conditions (1) and (2), as human-readable strings."""
    failures = []
    start, size = _columns(f)
    uncovered = np.flatnonzero(_end_point_counts(f.m, start, size) == 0)
    if uncovered.size:
        failures.append(
            f"condition (1): point {uncovered[0]} of Z_{f.m} is not an end-point of any arc"
        )
    small = np.flatnonzero(size < 2)
    if small.size:
        failures.append(f"condition (2): arc of vertex {small[0]} has fewer than two points")
    return failures


def require_valid(f: ArcFunction) -> None:
    failures = condition_failures(f)
    if failures:
        raise ValueError(failures[0])


def intersection_graph(f: ArcFunction) -> Graph:
    """Graph on the vertices of f; u ~ v iff their arcs share a point.
    A model violating (1) or (2) raises ValueError; a ReducedArcFunction
    was checked when it was built, and is not checked again."""
    if not isinstance(f, ReducedArcFunction):
        require_valid(f)
    return _intersection_graph(f)


def _intersection_graph(f: ArcFunction) -> Graph:
    """intersection_graph of a model that already passed require_valid."""
    start, size = _columns(f)  # int64: condition (1) leaves at most 2n points
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
    """Violations of the reduced-model invariants (i), (ii), (iii); each
    names the first violation, for (i) in row-major order of (u, v)."""
    failures = []
    n = f.n_vertices
    start, size = _columns(f)
    # inside[u, v]: arc u lies in arc v, that is it is no longer and starts
    # at most |f(v)| - |f(u)| points after the start of arc v
    inside = (size[:, None] <= size) & ((start[:, None] - start) % f.m <= size - size[:, None])
    np.fill_diagonal(inside, False)
    if inside.any():
        u, v = divmod(int(inside.argmax()), n)
        failures.append(f"(i): arc of vertex {u} is contained in arc of vertex {v}")
    if f.m != n:
        failures.append(f"(ii): circle length {f.m} differs from vertex count {n}")
    counts = _end_point_counts(f.m, start, size)
    bad = np.flatnonzero(counts != 2)
    if bad.size:
        failures.append(f"(iii): point {bad[0]} is an end-point of {counts[bad[0]]} arcs, not 2")
    return failures


def reduce(f: ArcFunction) -> ReducedArcFunction:
    """Collapse same-membership circle points to get a reduced model.

    Requires a valid arc-function whose intersection graph is non-empty
    and satisfies the neighborhood condition; under those hypotheses the
    collapsed model satisfies (i), (ii), (iii) and has the same
    intersection graph, both of which are re-checked before returning.
    """
    require_valid(f)
    g = _intersection_graph(f)
    if g.edge_count() == 0:
        raise ValueError("reduction needs a non-empty intersection graph")
    check = check_neighborhood_condition(g)
    if not check.ok:
        raise ValueError(
            f"condition (3.1) violated: neighborhood of {check.witness[0]} is contained "
            f"in the closed neighborhood of {check.witness[1]}"
        )

    start, size = _columns(f)
    # the m x n point-membership matrix; m <= 2n by condition (1)
    member = (np.arange(f.m)[:, None] - start) % f.m < size
    patterns, class_of = np.unique(member, axis=0, return_inverse=True)
    class_of = class_of.reshape(-1)  # numpy 2.0.0 returns another shape
    # ~ classes: points with equal membership pattern; each must be a
    # proper circular interval, otherwise the input was inconsistent
    if len(patterns) < 2:
        raise ValueError("membership classes cover the whole circle; input inconsistent")
    # a head is a point whose predecessor is in another class; with two or
    # more classes each class has a head, and an interval has exactly one
    heads = np.flatnonzero(class_of != np.roll(class_of, 1))
    if len(heads) != len(patterns):
        raise ValueError("membership class is not a circular interval; input inconsistent")
    # new point i is the class of the i-th head around the circle, and an
    # arc, a union of classes, keeps the classes it holds
    index_of = np.empty(len(patterns), dtype=np.int64)
    index_of[class_of[heads]] = np.arange(len(heads))
    new_start = index_of[class_of[start]]
    reduced = ReducedArcFunction(len(heads), zip(new_start.tolist(),
                                                 patterns.sum(axis=0).tolist()))
    if intersection_graph(reduced) != g:
        raise AssertionError("reduction changed the intersection graph")
    return reduced


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
