"""Finite simple graphs and the constructions the package is built on.

Vertices are dense integers ``0..n-1``.  A graph is its adjacency matrix:
one read-only n x n boolean numpy array, symmetric with a False diagonal,
so a graph costs n^2 bytes.  Every graph operation (products, twins,
quotients, common-neighbor counts) is numpy on that matrix, and every
value is immutable after construction and safe to share between threads.
A vertex partition, such as the twin classes, is a vector of one int
label per vertex, with classes numbered by their smallest vertex.
"""

from __future__ import annotations

import numpy as np


class Graph:
    """Undirected graph without loops or multiple edges."""

    __slots__ = ("n", "adj")

    def __init__(self, adj):
        # Trusted constructor: adj must be a symmetric 0/1 matrix with a
        # zero diagonal.  Use from_edges() and the generators below for
        # validated input.
        adj = np.array(adj, dtype=bool)
        adj.flags.writeable = False
        self.n = adj.shape[0]
        self.adj = adj

    def degree(self, v: int) -> int:
        return int(np.count_nonzero(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        """Edges as sorted (u, v) pairs with u < v, in row-major order."""
        return [tuple(e) for e in np.argwhere(np.triu(self.adj)).tolist()]

    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adj)) // 2

    def is_regular(self) -> bool:
        return len(set(self.adj.sum(axis=1).tolist())) <= 1

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.adj, other.adj)
        )

    def __hash__(self):
        return hash((self.n, self.adj.tobytes()))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"


def from_edges(n: int, edges) -> Graph:
    """Build a graph on n vertices from an edge list.

    Loops, out-of-range endpoints and duplicate edges are rejected so
    malformed input surfaces immediately instead of being repaired.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    edges = list(edges)
    try:
        try:
            uv = np.array(edges, dtype=np.int64)
        except OverflowError:  # exact Python ints for endpoints beyond int64
            uv = np.array(edges, dtype=object)
    except ValueError:  # ragged: the edges are not all of one length
        raise ValueError("an edge is a pair of vertices") from None
    if not edges:
        uv = uv.reshape(0, 2)
    if uv.ndim != 2 or uv.shape[1] != 2:
        raise ValueError("an edge is a pair of vertices")
    bad = _first_bad_edge(n, uv)
    if bad is not None:
        raise ValueError(bad[1])
    return _graph_of_edges(n, uv)


def _first_bad_edge(n: int, uv: np.ndarray):
    """The index and the message of the first edge of the E x 2 array uv
    that has an endpoint outside 0..n-1, is a loop, or repeats an earlier
    edge in either orientation, checked in that order; None if none does.

    Exact for endpoints of any size: uv holds int64 or Python ints."""
    if n > np.iinfo(np.int64).max:
        uv = uv.astype(object)
    u, v = uv[:, 0], uv[:, 1]
    outside = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    loop = u == v
    low, high = np.minimum(u, v), np.maximum(u, v)
    # lexsort is stable, so each repeat sorts after the edges it repeats
    order = np.lexsort((high, low))
    repeat = np.zeros(len(uv), dtype=bool)
    repeat[order[1:]] = (low[order[1:]] == low[order[:-1]]) & (high[order[1:]] == high[order[:-1]])
    bad = outside | loop | repeat
    if not bad.any():
        return None
    i = int(bad.argmax())
    a, b = uv[i].tolist()
    if outside[i]:
        return i, f"vertex out of range in edge ({a}, {b})"
    if loop[i]:
        return i, f"loop edge ({a}, {b}) not allowed"
    return i, f"duplicate edge ({a}, {b})"


def _graph_of_edges(n: int, uv: np.ndarray) -> Graph:
    """The graph of an E x 2 edge array that _first_bad_edge accepts."""
    adj = np.zeros((n, n), dtype=bool)
    u, v = uv.astype(np.intp).T
    adj[u, v] = adj[v, u] = True
    return Graph(adj)


def empty_graph(n: int) -> Graph:
    return from_edges(n, [])


def circulant(m: int, k: int) -> np.ndarray:
    """Adjacency matrix on Z_m: labels a != b are adjacent iff their
    circular distance is at most k."""
    d = np.arange(m)
    row = (np.minimum(d, m - d) <= k) & (d != 0)  # the neighbors of 0
    return row[(d[None, :] - d[:, None]) % m]


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(circulant(n, n // 2))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(circulant(n, 1))


def elementary_caw(n: int, k: int) -> Graph:
    """Circulant on Z_n with connection set {+-1, ..., +-k}; needs 2k+1 < n.

    k = 0 gives the empty graph, k = 1 the n-cycle.  The result is
    2k-regular and has no twins.
    """
    if k < 0 or 2 * k + 1 >= n:
        raise ValueError(f"elementary circular-arc graph needs 0 <= 2k+1 < n, got n={n}, k={k}")
    return Graph(circulant(n, k))


def lex_product(outer: Graph, inner: Graph) -> Graph:
    """Lexicographic product: blow each outer vertex up into a copy of inner.

    Vertex (a, b) is encoded as a * inner.n + b.  (a, b) ~ (c, d) iff
    a ~ c in the outer graph, or a = c and b ~ d in the inner graph: the
    matrix kron(outer, ones) | kron(eye, inner), built as one broadcast
    over the axes (a, b, c, d).
    """
    m, r = outer.n, inner.n
    fibers = np.eye(m, dtype=bool)[:, None, :, None] & inner.adj[None, :, None, :]
    return Graph((outer.adj[:, None, :, None] | fibers).reshape(m * r, m * r))


def common_neighbors(g: Graph) -> np.ndarray:
    """The n x n matrix of |N(u) & N(v)|, as int32.

    The product runs in float32 so that it goes through BLAS with half the
    memory of float64; it is exact, because every partial sum is an
    integer at most n < 2^24.
    """
    adj = g.adj.astype(np.float32)
    return (adj @ adj).astype(np.int32)


def _canonical_relabel(mat: np.ndarray) -> np.ndarray:
    """Number the values of an array by first appearance in a row-major
    scan.

    Works on the distinct values only, so memory does not depend on how
    large the values are.
    """
    _, first, inverse = np.unique(mat.ravel(), return_index=True, return_inverse=True)
    # the new id of each distinct value is the rank of its first index
    return np.argsort(np.argsort(first))[inverse].reshape(mat.shape)


def twin_relation(g: Graph) -> np.ndarray:
    """One label per vertex naming its class of pairwise twins (adjacent,
    equal closed neighborhoods); a vertex without a twin is alone in its
    class.  Classes are numbered 0, 1, ... by their smallest vertex.

    Equal closed neighborhoods are the pairwise definition: u ~twin~ v
    forces u and v adjacent, hence N[u] = N[v].  N[u] = N[v] exactly when
    |N[u] & N[v]| equals both sizes, so one float32 product (exact, as in
    common_neighbors) gives every vertex's smallest twin.
    """
    closed = (g.adj | np.eye(g.n, dtype=bool)).astype(np.float32)
    overlap = closed @ closed
    size = np.diagonal(overlap)
    twins = (overlap == size[:, None]) & (overlap == size)
    # each vertex's smallest twin; initial lets a graph of no vertices through
    smallest = np.where(twins, np.arange(g.n), g.n).min(axis=1, initial=g.n)
    return _canonical_relabel(smallest)


def quotient_graph(g: Graph, labels) -> Graph:
    """Graph on the classes of a vertex labeling whose labels are 0..k-1,
    as twin_relation gives them; X ~ Y iff some x in X is adjacent to some
    y in Y."""
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (g.n,) or (labels < 0).any():
        raise ValueError(f"expected one non-negative label for each of {g.n} vertices")
    k = int(labels.max()) + 1 if g.n else 0
    u, v = np.nonzero(g.adj)
    adj = np.zeros((k, k), dtype=bool)
    adj[labels[u], labels[v]] = True
    np.fill_diagonal(adj, False)
    return Graph(adj)


def edge_level_partition(g: Graph) -> dict[int, np.ndarray]:
    """Split the edge relation by number of common neighbors.

    Level k is the boolean matrix of the ordered pairs (u, v) with u ~ v
    and |N(u) & N(v)| = k.  The levels are disjoint, each is symmetric,
    and their union is the adjacency matrix.
    """
    common = common_neighbors(g)
    return {k: g.adj & (common == k) for k in np.unique(common[g.adj]).tolist()}


def count_automorphisms(g: Graph, limit: int = 12) -> int:
    """Exact order of the automorphism group.

    Uses the orbit-stabilizer chain: the orbit of a pivot vertex is found
    by one backtracking existence search per candidate image, then the
    pivot is individualized and the stabilizer is counted recursively.
    This counts huge groups (e.g. 12! for the empty graph on 12 vertices)
    without enumerating their elements.
    """
    n = g.n
    if n > limit:
        raise ValueError(f"graph has {n} vertices, automorphism limit is {limit}")
    if n <= 1:
        return 1
    adj = g.adj.tolist()

    def exists_automorphism(colors: list[int], src: int, dst: int) -> bool:
        # Any color-preserving automorphism mapping src to dst?
        if colors[src] != colors[dst]:
            return False
        order = [src] + [v for v in range(n) if v != src]
        perm = [-1] * n
        used = [False] * n
        perm[src] = dst
        used[dst] = True

        def backtrack(i: int) -> bool:
            if i == n:
                return True
            v = order[i]
            for w in range(n):
                if used[w] or colors[w] != colors[v]:
                    continue
                ok = True
                for j in range(i):
                    u = order[j]
                    if adj[v][u] != adj[w][perm[u]]:
                        ok = False
                        break
                if ok:
                    perm[v] = w
                    used[w] = True
                    if backtrack(i + 1):
                        return True
                    used[w] = False
                    perm[v] = -1
            return False

        return backtrack(1)

    def group_order(colors: list[int], fresh: int) -> int:
        pivot = -1
        for v in range(n):
            if colors.count(colors[v]) > 1:
                pivot = v
                break
        if pivot == -1:
            return 1  # all classes singletons: only the identity survives
        orbit = 0
        for w in range(n):
            if colors[w] == colors[pivot] and (
                w == pivot or exists_automorphism(colors, pivot, w)
            ):
                orbit += 1
        stab_colors = list(colors)
        stab_colors[pivot] = fresh
        return orbit * group_order(stab_colors, fresh + 1)

    return group_order(g.adj.sum(axis=1).tolist(), n + 1)


# ---------------------------------------------------------------------------
# Text formats.  Graph files, arc models and scheme dumps are all a header
# line and then records, one line of integers each, read by int_records.


def int_records(text: str, what: str, width: int | None = None):
    """Yield (line number, integers) for each line that is neither blank nor
    a '#' comment; a line that is not integers, width of them if given,
    raises ValueError.  Lazy, so a reader can reject a bad header first."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = [int(x) for x in line.split()]
        except ValueError:
            values = []
        if not values or width is not None and len(values) != width:
            raise ValueError(f"line {lineno}: expected {what}, got {raw!r}")
        yield lineno, values


def build_by_line(lineno: int, rows, build):
    """Return build(values), where values lazily yields the values of rows,
    int_records' (line number, values) pairs.  A ValueError from build gets
    the line of the row it was reading, or lineno before the first row."""

    def values():
        nonlocal lineno
        for lineno, value in rows:
            yield value

    try:
        return build(values())
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


# Edge-list format: "n e" header, then e lines "u v".


def graph_to_text(g: Graph) -> str:
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


class VertexLimitError(ValueError):
    """A graph file declares more vertices than the caller allows."""

    def __init__(self, n: int, limit: int):
        super().__init__(f"graph has {n} vertices, limit is {limit}")
        self.n = n


def graph_from_text(text: str, max_vertices: int | None = None) -> Graph:
    """Parse a graph file.  One declaring more than max_vertices vertices
    raises VertexLimitError before its edges are checked or the graph is
    built, so up to then memory grows with the file's length only.

    Each line is split once; the integers are converted in one numpy call
    (int() semantics) and the edges are checked on arrays.  A file that
    numpy cannot read as n x 2 int64 goes through int_records, which names
    the first malformed line or returns the exact Python ints."""
    tokens = [line.split() for line in text.splitlines()]
    if "#" in text or not all(tokens):  # skip blank and comment lines
        kept = [i for i, words in enumerate(tokens) if words and words[0][0] != "#"]
        tokens = [tokens[i] for i in kept]
    else:
        kept = range(len(tokens))
    if not kept:
        raise ValueError("empty graph file (missing 'n e' header)")
    try:
        values = np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        values = None
    if values is None or values.shape != (len(kept), 2):
        values = np.array([row for _, row in int_records(text, "two integers", 2)], dtype=object)
    (n, e), edges = values[0].tolist(), values[1:]
    if n < 0 or e < 0:
        raise ValueError(f"line {kept[0] + 1}: negative count in header")
    if len(edges) != e:
        raise ValueError(f"header declares {e} edges but file has {len(edges)}")
    if max_vertices is not None and n > max_vertices:
        raise VertexLimitError(n, max_vertices)
    bad = _first_bad_edge(n, edges)
    if bad is not None:
        raise ValueError(f"line {kept[bad[0] + 1] + 1}: {bad[1]}")
    try:
        return _graph_of_edges(n, edges)
    except ValueError as exc:  # numpy refuses an n x n matrix this large
        raise ValueError(f"line {kept[-1] + 1}: {exc}") from None


def read_graph(path, max_vertices: int | None = None) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_text(fh.read(), max_vertices)
