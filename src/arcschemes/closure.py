"""Coherent closure: the smallest scheme refining a set of relations.

Computed by 2-dimensional Weisfeiler-Leman color refinement.  The initial
color of a pair (u, v) records whether u = v and the membership of (u, v)
and (v, u) in every generator relation, computed on numpy membership
matrices.  Each round of arcschemes.kernels.refine_step then replaces the
color with the sorted multiset of color pairs over all intermediate
points, until the partition stabilizes.  The stable partition is a
coherent configuration in which every generator is a union of colors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .kernels import refine_step
from .schemes import CoherentConfiguration, _canonical_relabel


@dataclass(frozen=True)
class RelationSet:
    """Generator relations on n points, as sets of ordered pairs."""

    n: int
    relations: tuple[frozenset[tuple[int, int]], ...]

    @staticmethod
    def from_relations(n: int, relations) -> "RelationSet":
        if n < 1:
            raise ValueError("relation set needs n >= 1")
        norm = []
        for rel in relations:
            pairs = frozenset((int(u), int(v)) for u, v in rel)
            for u, v in pairs:
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"pair ({u}, {v}) out of range")
            norm.append(pairs)
        return RelationSet(n, tuple(norm))

    @staticmethod
    def of_graph(g: Graph) -> "RelationSet":
        pairs = set()
        for u, v in g.edges():
            pairs.add((u, v))
            pairs.add((v, u))
        return RelationSet.from_relations(g.n, [pairs])


def _initial_coloring(rs: RelationSet) -> np.ndarray:
    """Color of (u, v): whether u = v and which generators hold (u, v) and
    (v, u), numbered by first appearance in a row-major scan."""
    n = rs.n
    mat = np.eye(n, dtype=np.int64)
    for rel in rs.relations:
        member = np.zeros((n, n), dtype=np.int64)
        if rel:
            u, v = np.array(list(rel)).T
            member[u, v] = 1
        # split every class by membership of (u, v) and of (v, u), then
        # renumber so the ids stay below n^2 however many generators there are
        _, mat = np.unique(mat * 4 + member * 2 + member.T, return_inverse=True)
        mat = mat.reshape(n, n)
    return _canonical_relabel(mat)


def coherent_closure(rs: RelationSet) -> CoherentConfiguration:
    """Smallest scheme in which every generator is a union of basic relations."""
    mat = _initial_coloring(rs)
    rank = int(mat.max()) + 1
    while True:
        mat, new_rank = refine_step(mat, rank)
        if new_rank == rank:
            break
        rank = new_rank
    return CoherentConfiguration(mat)


def closure_of_graph(g: Graph) -> CoherentConfiguration:
    """Scheme of a graph: coherent closure of its (symmetric) edge relation."""
    if g.n < 1:
        raise ValueError("closure needs a graph with at least one vertex")
    return coherent_closure(RelationSet.of_graph(g))
