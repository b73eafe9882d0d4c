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

from .kernels import circulant_matrix


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
    is packed into ceil(n / 8) bytes (np.packbits) and read as one bytes
    key, so equal keys are exactly equal closed neighborhoods.  Numbering
    the keys through a dict in vertex order, as kernels._number numbers
    signatures, numbers each class where its smallest vertex first
    appears.  About n^2 / 8 bytes of keys, and no product.
    """
    if g.n == 0:
        return np.zeros(0, dtype=np.int64)
    packed = np.packbits(g.adj | np.eye(g.n, dtype=bool), axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()
    ids: dict[bytes, int] = {}
    return np.array([ids.setdefault(key, len(ids)) for key in keys], dtype=np.int64)


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
    integers, int64 or, where they do not fit, exact Python ints.

    A plain text (ASCII digits, spaces and '\n' only, no token of 19 or
    more digits) is read by one C call, np.loadtxt.  Any other text, and a
    plain one whose rows are not all two wide, goes through _token_pairs,
    which names the first malformed line or gives the exact ints (int()
    semantics).  Both read the same records: a plain text holds nothing
    that int() would read otherwise."""
    values = _plain_table(text)
    if values is not None and values.shape[1] == 2:
        if len(values) == text.count("\n") + (not text.endswith("\n")):
            return range(1, len(values) + 1), values  # no blank line
        lines = text.split("\n")
        return [i for i, line in enumerate(lines, start=1) if line.strip()], values
    return _token_pairs(text)


def _token_pairs(text: str):
    """int_pairs of any text: each line is split once and the integers are
    converted in one numpy call (int() semantics).  A text that numpy
    cannot read as R x 2 int64 goes through int_records, which names the
    first malformed line or returns the exact Python ints."""
    tokens = [line.split() for line in text.splitlines()]
    if "#" in text or not all(tokens):  # skip blank and comment lines
        kept = [i for i, words in enumerate(tokens, start=1) if words and words[0][0] != "#"]
        tokens = [tokens[i - 1] for i in kept]
    else:
        kept = range(1, len(tokens) + 1)
    try:
        values = np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        values = None
    if values is None or values.shape != (len(kept), 2):
        rows = [row for _, row in int_records(text, "two integers", 2)]
        values = np.array(rows, dtype=object).reshape(-1, 2)
    return kept, values


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
