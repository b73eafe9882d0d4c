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

import io

import numpy as np

from .kernels import circulant_matrix, number_rows


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

    Exact for endpoints of any size: uv holds int64 or Python ints.

    An edge repeats when its key low * n + high matches an earlier edge's.
    The key is one-to-one on edges inside 0..n-1; a match with an edge
    outside (int64 wraps for large endpoints) flags only edges after one
    that is already bad, so the first bad edge and its message stay."""
    if n >= 1 << 31:  # keys of edges inside 0..n-1 would exceed int64
        uv = uv.astype(object)
    u, v = uv[:, 0], uv[:, 1]
    outside = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    loop = u == v
    key = np.minimum(u, v) * n + np.maximum(u, v)
    # a stable sort puts each repeat after the edges it repeats
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(len(uv), dtype=bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
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


def circular_distance_row(m: int) -> np.ndarray:
    """The circular distances min(d, m - d) from 0 to d = 0 .. m - 1 on Z_m."""
    d = np.arange(m)
    return np.minimum(d, m - d)


def circular_distances(m: int) -> np.ndarray:
    """The m x m matrix of circular distances min(d, m - d) on Z_m, where
    d = (b - a) mod m for the labels a and b: circulant_matrix of
    circular_distance_row, copied, as its consumers run slower on a strided
    view."""
    return circulant_matrix(circular_distance_row(m)).copy()


def circulant(m: int, k: int) -> np.ndarray:
    """Adjacency matrix on Z_m: labels a != b are adjacent iff their
    circular distance is at most k."""
    d = circular_distances(m)
    return (d <= k) & (d != 0)


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


def twin_relation(g: Graph) -> np.ndarray:
    """One label per vertex naming its class of pairwise twins (adjacent,
    equal closed neighborhoods); a vertex without a twin is alone in its
    class.  Classes are numbered 0, 1, ... by their smallest vertex.

    Equal closed neighborhoods are the pairwise definition: u ~twin~ v
    forces u and v adjacent, hence N[u] = N[v].  Each closed neighborhood
    is packed into ceil(n / 8) bytes (np.packbits), and kernels.number_rows
    numbers the packed rows in vertex order, each read as one bytes key:
    equal keys are exactly equal closed neighborhoods, and each class is
    numbered where its smallest vertex first appears.  About n^2 / 8 bytes
    of keys, and no product.
    """
    if g.n == 0:
        return np.zeros(0, dtype=np.int64)
    return number_rows({}, [np.packbits(g.adj | np.eye(g.n, dtype=bool), axis=1)])


def quotient_graph(g: Graph, labels) -> Graph:
    """The twin quotient: the graph on the twin classes of g, X ~ Y iff
    X x Y holds an edge, for labels numbered 0, 1, ... by first appearance,
    as twin_relation gives them; any other labeling raises ValueError.

    Q is read at the first vertex of each class, one t x t gather of
    g.adj: twins have equal closed neighborhoods, so for classes X != Y,
    X x Y is all edges or none.  Class j starts where the running maximum
    of the labels first reaches j.  When every class is one vertex (g is
    twin-free, and the labels are 0 .. n - 1), Q is g itself, not a
    copy."""
    labels = np.asarray(labels)
    if labels.shape != (g.n,) or g.n and labels.dtype.kind not in "iu" or (labels < 0).any():
        raise ValueError(f"expected one non-negative integer label for each of {g.n} vertices")
    top = np.maximum.accumulate(labels)
    # no label by first appearance reaches n, so a larger one allocates nothing
    classes = np.arange(min(top[-1], g.n - 1) + 1 if g.n else 0)
    first = top.searchsorted(classes)
    if (labels[first] != classes).any():
        raise ValueError("labels must number the classes 0, 1, ... by first appearance")
    if classes.size == g.n:
        return g  # n classes numbered by first appearance: the labels are 0 .. n - 1
    return Graph(g.adj.take(first, axis=0).take(first, axis=1))


def edge_level_partition(g: Graph) -> dict[int, np.ndarray]:
    """Split the edge relation by number of common neighbors.

    Level k is the boolean matrix of the ordered pairs (u, v) with u ~ v
    and |N(u) & N(v)| = k.  The levels are disjoint, each is symmetric,
    and their union is the adjacency matrix.
    """
    common = common_neighbors(g)
    return {k: g.adj & (common == k) for k in np.unique(common[g.adj]).tolist()}


# ---------------------------------------------------------------------------
# Text formats.  Graph files, arc models and scheme dumps are all a header
# line and then records, one line of integers each.  int_records lexes them
# line by line; the two-integer formats read through int_pairs below.


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


# Two-integer formats: graph files ("n e", then "u v") and arc models
# ("m n", then "start size") share one lexer, int_pairs.

# A plain text is ASCII digits, spaces and newlines only; mapping every digit
# to b"0" leaves b"0 \n" and lets a bytes search find the long tokens
_ZEROS = bytes.maketrans(b"123456789", b"0" * 9)


def int_pairs(text: str):
    """The records of a two-integer format: the line number of each line
    that is neither blank nor a '#' comment, and an R x 2 array of their
    integers, int64 or, where one does not fit, exact Python ints.

    A plain text (ASCII digits, spaces and line ends only, '\n' or '\r\n',
    no token of 19 or more digits) is read by one C call, np.loadtxt, on
    the text with '\r\n' made '\n': splitlines breaks a line once at
    either, so every line number stays.  Any other text, and a plain one
    whose rows are not all two wide, is lexed as it is, line by line, by
    int_records, which names the first malformed line and reads the ints
    with int() semantics.  Both read the same records: a plain text holds
    nothing that int() would read otherwise."""
    plain = text.replace("\r\n", "\n")
    values = _plain_table(plain)
    if values is not None and values.shape[1] == 2:
        if len(values) == plain.count("\n") + (not plain.endswith("\n")):
            return range(1, len(values) + 1), values  # no blank line
        lines = plain.split("\n")
        return [i for i, line in enumerate(lines, start=1) if line.strip()], values
    records = list(int_records(text, "two integers", 2))
    rows = [row for _, row in records]
    try:
        values = np.array(rows, dtype=np.int64)
    except OverflowError:
        values = np.array(rows, dtype=object)
    return [lineno for lineno, _ in records], values.reshape(-1, 2)


def _plain_table(text: str):
    """The int64 table of a plain text with at least one token, by one C
    call; None for any other text, or one whose rows differ in width."""
    if not text.isascii():
        return None
    zeroed = text.encode("ascii").translate(_ZEROS)
    # 19 digits can exceed int64, and numpy 1.x's loadtxt then parses the
    # token as a float, with a DeprecationWarning: such a text is not plain
    if zeroed.translate(None, b"0 \n") or b"0" not in zeroed or b"0" * 19 in zeroed:
        return None
    try:
        return np.loadtxt(io.StringIO(text), dtype=np.int64, ndmin=2)
    except ValueError:
        return None


def graph_to_text(g: Graph) -> str:
    """The graph file: header "n e", then the edges u < v in row-major order."""
    edges = np.argwhere(np.triu(g.adj))
    return ("%d %d\n" * (len(edges) + 1)) % (g.n, len(edges), *edges.ravel().tolist())


def graph_from_text(text: str, max_vertices: int | None = None) -> Graph:
    """Parse a graph file.  One declaring more than max_vertices vertices
    raises ValueError before its edges are checked or the graph is built,
    so up to then memory grows with the file's length only.

    int_pairs reads the integers (a plain file by one C call), and the
    edges are checked on arrays."""
    kept, values = int_pairs(text)
    if not len(kept):
        raise ValueError("empty graph file (missing 'n e' header)")
    (n, e), edges = values[0].tolist(), values[1:]
    if n < 0 or e < 0:
        raise ValueError(f"line {kept[0]}: negative count in header")
    if len(edges) != e:
        raise ValueError(f"header declares {e} edges but file has {len(edges)}")
    if max_vertices is not None and n > max_vertices:
        raise ValueError(f"graph has {n} vertices, limit is {max_vertices}")
    bad = _first_bad_edge(n, edges)
    if bad is not None:
        raise ValueError(f"line {kept[bad[0] + 1]}: {bad[1]}")
    try:
        return _graph_of_edges(n, edges)
    except ValueError as exc:  # numpy refuses an n x n matrix this large
        raise ValueError(f"line {kept[-1]}: {exc}") from None


def read_graph(path, max_vertices: int | None = None) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_text(fh.read(), max_vertices)
