"""Coherent closure: the smallest scheme refining a set of relations.

Computed by 2-dimensional Weisfeiler-Leman color refinement.  The initial
color of a pair (u, v) records whether u = v and the membership of (u, v)
and (v, u) in every generator relation, each an n x n boolean membership
matrix (for a graph, its adjacency matrix).  Each round of
arcschemes.kernels.refine_step then replaces the color with the sorted
multiset of color pairs over all intermediate points, until a round
splits nothing (the confirming round).  The stable partition is a
coherent configuration in which every generator is a union of colors.

circulant_closure closes a Cayley graph on Z_m (a circulant) by rounds of
kernels.refine_row on the row of its coloring at 0, exact as the kernels
docstring says; the closure is a Schur ring over Z_m (H. Wielandt, Finite
Permutation Groups, 1964, ch. IV).  Its initial row is numbered by
kernels.first_appearance, like every initial coloring.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph
from .kernels import circulant_matrix, first_appearance, refine_row, refine_step
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


def _stable(step, colors: np.ndarray) -> np.ndarray:
    """colors refined by step(colors, rank) until a round splits nothing."""
    rank = int(colors.max()) + 1
    while True:
        colors, new_rank = step(colors, rank)
        if new_rank == rank:
            return colors
        rank = new_rank


def coherent_closure(n: int, relations) -> CoherentConfiguration:
    """Smallest scheme on n points in which every generator is a union of
    basic relations.  Each generator is an n x n membership matrix, read
    through bool; any other shape raises ValueError."""
    return CoherentConfiguration(_stable(refine_step, _initial_coloring(n, relations)))


def circulant_closure(connection) -> np.ndarray:
    """Closure of the Cayley graph on Z_m whose arcs are u -> v for
    connection[(v - u) mod m], read through bool, computed on one row.
    Returns its canonical m x m color matrix, the colors of coherent_closure
    of the adjacency matrix bit for bit, as a read-only circulant_matrix
    view.  An empty or multi-dimensional connection raises ValueError."""
    conn = np.asarray(connection, dtype=bool)
    if conn.ndim != 1 or conn.size < 1:
        raise ValueError(f"connection of shape {conn.shape}, expected (m,) with m >= 1")
    d = np.arange(conn.size)
    # the initial color of (0, v): against the diagonal, and the arcs 0 -> v
    # and v -> 0
    row = first_appearance((d != 0) * 4 + conn * 2 + conn[-d])
    return circulant_matrix(_stable(refine_row, row))


def closure_of_graph(g: Graph) -> CoherentConfiguration:
    """Scheme of a graph: coherent closure of its (symmetric) edge relation."""
    if g.n < 1:
        raise ValueError("closure needs a graph with at least one vertex")
    return coherent_closure(g.n, [g.adj])
