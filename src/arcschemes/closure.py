"""Coherent closure: the smallest scheme refining a set of relations.

Computed by 2-dimensional Weisfeiler-Leman color refinement.  The initial
color of a pair (u, v) records whether u = v and the membership of (u, v)
and (v, u) in every generator relation, each an n x n boolean membership
matrix (for a graph, its adjacency matrix).  Each round of
arcschemes.kernels.refine_step then replaces the color with the sorted
multiset of color pairs over all intermediate points, until the partition
stabilizes.  The stable partition is a coherent configuration in which
every generator is a union of colors.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, _canonical_relabel
from .kernels import refine_step
from .schemes import CoherentConfiguration


def _initial_coloring(n: int, relations) -> np.ndarray:
    """Color of (u, v): whether u = v and which generators hold (u, v) and
    (v, u), numbered by first appearance in a row-major scan."""
    if n < 1:
        raise ValueError("closure needs n >= 1")
    mat = np.eye(n, dtype=np.int64)
    for rel in relations:
        member = np.asarray(rel, dtype=bool)
        if member.shape != (n, n):
            raise ValueError(f"relation of shape {member.shape}, expected ({n}, {n})")
        member = member.astype(np.int64)
        # split every class by membership of (u, v) and of (v, u), then
        # renumber so the ids stay below n^2 however many generators there are
        _, mat = np.unique(mat * 4 + member * 2 + member.T, return_inverse=True)
        mat = mat.reshape(n, n)
    return _canonical_relabel(mat)


def coherent_closure(n: int, relations) -> CoherentConfiguration:
    """Smallest scheme on n points in which every generator is a union of
    basic relations.  Each generator is an n x n membership matrix, read
    through bool; any other shape raises ValueError."""
    mat = _initial_coloring(n, relations)
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
    return coherent_closure(g.n, [g.adj])
