"""Coherent closure: the smallest scheme refining a set of relations.

Computed by 2-dimensional Weisfeiler-Leman color refinement.  The initial
color of a pair (u, v) records whether u = v and the membership of (u, v)
and (v, u) in every generator relation, each an n x n boolean membership
matrix (for a graph, its adjacency matrix).  Each round of
arcschemes.kernels.refine_step then replaces the color with the sorted
multiset of color pairs over all intermediate points, until the partition
stabilizes.  The stable partition is a coherent configuration in which
every generator is a union of colors.

A caller that knows the rank of the closure C in advance can pass it as
stop_rank.  Refinement then returns the first partition W_i of that rank
and skips the last round, which would only confirm that nothing splits.
This is exact: refinement is monotone and C is stable, so every W_i is
coarser than C, and a partition coarser than C with rank(C) colors is C.
decompose_caw (arcschemes.characterize) takes the rank from a verified
certificate.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph
from .kernels import first_appearance, refine_step
from .schemes import CoherentConfiguration


def _initial_coloring(n: int, relations) -> np.ndarray:
    """Color of (u, v): whether u = v and which generators hold (u, v) and
    (v, u), numbered by first appearance in a row-major scan."""
    if n < 1:
        raise ValueError("closure needs n >= 1")
    mat = 1 - np.eye(n, dtype=np.int64)  # canonical: the diagonal comes first
    for rel in relations:
        member = np.asarray(rel, dtype=bool)
        if member.shape != (n, n):
            raise ValueError(f"relation of shape {member.shape}, expected ({n}, {n})")
        # split every class by membership of (u, v) and of (v, u); the ids
        # stay below n^2 however many generators there are
        mat = first_appearance(mat * 4 + member * 2 + member.T)
    return mat


def coherent_closure(n: int, relations, stop_rank: int | None = None) -> CoherentConfiguration:
    """Smallest scheme on n points in which every generator is a union of
    basic relations.  Each generator is an n x n membership matrix, read
    through bool; any other shape raises ValueError.

    With stop_rank, refinement returns the first partition with exactly
    stop_rank colors, so stop_rank must be the rank of the closure.  A
    partition that is stable below stop_rank, or one that has more colors,
    shows that it is not: AssertionError.
    """
    mat = _initial_coloring(n, relations)
    rank = int(mat.max()) + 1
    while rank != stop_rank:
        if stop_rank is not None and rank > stop_rank:
            raise AssertionError(f"refinement reached rank {rank}, past the stop rank {stop_rank}")
        mat, new_rank = refine_step(mat, rank)
        if new_rank == rank:
            if stop_rank is not None:
                raise AssertionError(f"refinement is stable at rank {rank}, "
                                     f"below the stop rank {stop_rank}")
            break
        rank = new_rank
    return CoherentConfiguration(mat)


def closure_of_graph(g: Graph, stop_rank: int | None = None) -> CoherentConfiguration:
    """Scheme of a graph: coherent closure of its (symmetric) edge relation,
    stopped at stop_rank colors if given (see coherent_closure)."""
    if g.n < 1:
        raise ValueError("closure needs a graph with at least one vertex")
    return coherent_closure(g.n, [g.adj], stop_rank)
