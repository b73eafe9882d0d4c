"""Decomposition certificates for circular-arc graphs with association schemes.

The characterized class consists exactly of the lexicographic products of
an elementary circular-arc graph with a complete graph.  decompose_caw
recovers such a product structure (or a named reason why none exists)
and computes one closure.  _recognize is the one recognizer, and
is_elementary_caw its r = 1 case.  A member's closure is that of its
twin quotient C_{m,k}, closed on one row of Z_m
(closure.circulant_closure), checked against the outer scheme X
(_outer_colors) on the m points of Z_m, and lifted to rank2(r) wr X
through the certificate's points.  A
non-member's is that of its twin quotient colored by class size, lifted
through the twin labels: discrete when vertex refinement of the quotient
separates every class, else closed by coherent_closure.  The outcome
holds the quotient's closure and builds the n x n lift when it is read.
predicted_aut_order evaluates the closed-form automorphism group order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import closure
from .closure import _NO_VERTEX, circulant_closure, closure_of_graph
from .graphs import (
    Graph,
    circular_distance_row,
    circular_distances,
    common_neighbors,
    complete,
    lex_product,
    quotient_graph,
    twin_relation,
)
from .kernels import number_rows
from .schemes import CoherentConfiguration, identity_verdict, is_association, is_fusion_of

OUTER_RANK2 = "RANK2"
OUTER_FORESTAL_MATCHING = "FORESTAL_MATCHING"
OUTER_DIHEDRAL = "DIHEDRAL"

STAGE_NON_ASSOCIATION = "non-association"
STAGE_UNEQUAL_TWIN_CLASSES = "unequal twin classes"
STAGE_QUOTIENT_NOT_ELEMENTARY = "quotient not elementary"


def _outer_kind(m: int, k: int, r: int) -> str:
    """The outer scheme X of C_{m,k}[K_r], whose scheme is rank2(r) wr X:
    the rank-2 scheme for k = 0 (the point scheme when m = 1), the matching
    scheme for m = 2k + 2 and the dihedral scheme for m > 2k + 2.  Any
    other (m, k), or r < 1, is not a member's: ValueError."""
    if r >= 1:
        if k == 0 and m >= 1:
            return OUTER_RANK2
        if k >= 1 and m == 2 * k + 2:
            return OUTER_FORESTAL_MATCHING
        if k >= 1 and m > 2 * k + 2:
            return OUTER_DIHEDRAL
    raise ValueError(f"invalid parameters m={m}, k={k}, r={r}")


@dataclass(frozen=True)
class Decomposition:
    """Certificate that a graph is C_{m,k} blown up by K_r.

    Vertex v maps to point points[v] = a * r + b of C_{m,k}[K_r], at
    position a on Z_m and index b inside the fiber, as lex_product numbers
    it; the map is an isomorphism.  points must be a permutation of
    range(m * r).  The only certificate violating 2k+1 < m is the
    degenerate (m=1, k=0) form used for complete graphs, whose fiber is
    the whole vertex set; _outer_kind rejects every other (m, k), and r < 1.
    """

    m: int
    k: int
    r: int
    points: tuple[int, ...]

    def __post_init__(self):
        _outer_kind(self.m, self.k, self.r)
        # no dtype: pairs make a 2-d array, an entry beyond int64 an object one
        p = np.array(self.points)
        if (p.shape != (self.m * self.r,) or p.dtype.kind not in "iu"
                or (np.sort(p) != np.arange(p.size)).any()):
            raise ValueError("points must be a permutation of range(m * r)")

    @property
    def outer(self) -> str:
        """The outer kind X of the scheme rank2(r) wr X(m) (see _outer_kind)."""
        return _outer_kind(self.m, self.k, self.r)


@dataclass(frozen=True, eq=False)  # holds arrays: compared by identity
class DecomposeOutcome:
    """A certificate or the first failed stage, and the closure decided on.

    The closure C of the graph is held as the closure C_Q of its twin
    quotient (quotient_colors: its canonical t x t color matrix) and the
    point of C_Q under each vertex (positions: points // r for a member,
    the twin labels for a non-member): C is their lift L =
    _lift(quotient_colors, positions) (see decompose_caw and
    _nonmember_closure).  The n x n
    matrix is built only when scheme is first read; n, rank, association
    and diagonal_count are read off C_Q by counting.

    Why the counts are L's.  _lift gives the pair (u, v) at positions
    (x, y) the color 3 C_Q(x, y) + t, with t = 0 on the diagonal, t = 1
    for u != v in one fiber (then x = y) and t = 2 across fibers (then
    x != y).  C_Q is a coherent configuration, so its diagonal colors D
    and its off-diagonal colors are disjoint, and every position holds a
    point.  So L's colors are 3c for each c in D, 3c + 1 for each c in D
    on a position holding at least two points, and 3c + 2 for each
    off-diagonal color c of C_Q, all distinct: rank(L) = rank(C_Q) + the
    colors of D on positions of size >= 2.  L's diagonal colors are the
    3c, one per color of D, and canonical numbering keeps both counts.
    """

    certificate: Decomposition | None
    failure_stage: str | None
    quotient_colors: np.ndarray
    positions: np.ndarray

    @property
    def ok(self) -> bool:
        return self.certificate is not None

    @cached_property
    def scheme(self) -> CoherentConfiguration:
        """The closure of the graph: the lift of quotient_colors, n x n,
        built on first read."""
        return _lift(self.quotient_colors, self.positions)

    @property
    def n(self) -> int:
        return self.positions.size

    @property
    def rank(self) -> int:
        """rank(C_Q) + the diagonal colors of C_Q on positions of size >= 2."""
        diagonal = np.diagonal(self.quotient_colors)
        shared = np.bincount(self.positions, minlength=diagonal.size) >= 2
        return int(self.quotient_colors.max()) + 1 + np.unique(diagonal[shared]).size

    @property
    def diagonal_count(self) -> int:
        """The number of diagonal colors, C_Q's."""
        return np.unique(np.diagonal(self.quotient_colors)).size

    @property
    def association(self) -> bool:
        """Whether the diagonal is a single color (schemes.is_association)."""
        return self.diagonal_count == 1


@dataclass(frozen=True)
class GroupWitness:
    """Bounds lower <= |Aut(G)| <= upper and a Schurity check, made from a
    certificate's automorphisms (see group_witness)."""

    lower: int
    upper: int
    schurian: bool

    @property
    def order(self) -> int | None:
        """|Aut(G)| when the two bounds meet, else None."""
        return self.upper if self.lower == self.upper else None


@dataclass(frozen=True)
class WreathTheoremReport:
    """Checked relation between a lexicographic product and the wreath
    product of the factor schemes."""

    fusion_holds: bool
    iso_asserted: bool
    iso: str  # ISO or NOT_ISO


def is_elementary_caw(g: Graph):
    """Recognize elementary circular-arc graphs.

    Returns (n, k, labels) with labels[v] the recovered position on Z_n,
    or None.  This is the r = 1 case of recognizing C_{m,k}[K_r]: g is
    taken as its own quotient, each class one vertex, through _recognize,
    so the labels are the points of its certificate.  Empty graphs are
    C_{n,0}; the walk (_elementary_walk) guesses the circular order, and
    the recovered labeling is always verified edge-exactly, once, so a
    wrong guess cannot escape.  The empty graph on no vertex is None.
    """
    if g.n == 0:
        return None
    cert, _ = _recognize(g, np.arange(g.n), g, np.ones(g.n, dtype=np.int64))
    return None if cert is None else (cert.m, cert.k, cert.points)


def _elementary_walk(q: Graph):
    """The positions on Z_m that make q, a graph with a vertex, C_{m,k} if
    anything does: (m, k, labels) with labels[x] the position of x, or
    None.  Nothing here is verified; _recognize compares the guess.

    Empty graphs are C_{m,0}, in vertex order; a 2k-regular graph on 2k+2
    vertices must be a complete graph minus a perfect matching, whose
    partner pairs go to positions i and i + k + 1; beyond that the level
    of edges with exactly 2k-2 common neighbors, the one edge level the
    walk reads (q.adj & (common_neighbors(q) == 2k - 2)), must form a
    single Hamiltonian cycle, which fixes the circular order; an empty
    level fails the degree check, and a cycle closing early is rejected.
    The walk leaves vertex 0 towards its smaller-numbered cycle neighbor.
    """
    n = q.n
    if q.edge_count() == 0:
        return (n, 0, list(range(n)))
    if not q.is_regular():
        return None
    d = q.degree(0)
    if d % 2 != 0:
        return None
    k = d // 2

    if n == 2 * k + 2:
        # by regularity every vertex has exactly one non-neighbor, its
        # partner; the k+1 partner pairs go to labels i and i+k+1
        partner = (~(q.adj | np.eye(n, dtype=bool))).argmax(axis=1).tolist()
        labels = [-1] * n
        for i, v in enumerate(v for v in range(n) if v < partner[v]):
            labels[v], labels[partner[v]] = i, i + k + 1
    elif n > 2 * k + 2:
        cyc = q.adj & (common_neighbors(q) == 2 * k - 2)
        if (cyc.sum(axis=1) != 2).any():
            return None
        succ = np.nonzero(cyc)[1].reshape(n, 2).tolist()  # both cycle neighbors, ascending
        labels = [-1] * n
        labels[0] = 0
        prev, cur = -1, 0
        for step in range(1, n):
            a, b = succ[cur]
            nxt_v = b if a == prev else a
            if labels[nxt_v] != -1:
                return None  # short cycle: relation is not Hamiltonian
            labels[nxt_v] = step
            prev, cur = cur, nxt_v
    else:
        return None  # d = n - 1 would mean a complete graph, never elementary
    return (n, k, labels)


def _recognize(g: Graph, labels: np.ndarray, quot: Graph, sizes: np.ndarray):
    """(certificate, None) for a member of the class, else (None, the first
    recognition stage that fails), given g's twin labels (twin_relation),
    its twin quotient quot and the class sizes; g has a vertex.  This is
    the one recognizer of C_{m,k}[K_r]; is_elementary_caw is its r = 1
    case, a graph taken as its own quotient.

    The walk on Q (_elementary_walk) guesses positions qlabels on Z_m, and
    vertex v goes to position a = qlabels[labels[v]].  Then one edge-exact
    comparison: g.adj against C_{m,k}[K_r] pulled back through a, where
    u != v are adjacent when their positions are at circular distance at
    most k (0 in a fiber).  A walk that finds no order, or a comparison
    that fails, is STAGE_QUOTIENT_NOT_ELEMENTARY.

    Why one comparison, on g, is enough.  The twin labels are exact
    (equal closed neighborhoods), and Q is g read at one vertex per class
    (quotient_graph).  So g is exactly Q blown up by its classes: twins
    are adjacent, and for classes X != Y, X x Y is all edges or none, as
    Q's pair (X, Y) says.  The pullback is blown up through the same
    classes, each a fiber.  So g equals C_{m,k}[K_r] pulled back through
    qlabels[labels] exactly when Q equals C_{m,k} at qlabels: the
    comparison on g implies the comparison on Q, and the reverse holds
    too.  A wrong guess fails it, and so does a library bug: either way
    there is no certificate.
    """
    if (sizes != sizes[0]).any():
        return None, STAGE_UNEQUAL_TWIN_CLASSES
    r = int(sizes[0])

    walked = _elementary_walk(quot)
    if walked is None:
        return None, STAGE_QUOTIENT_NOT_ELEMENTARY
    m, k, qlabels = walked

    a = np.asarray(qlabels)[labels]
    member = (circular_distances(m) <= k).take(a, axis=0).take(a, axis=1)
    np.fill_diagonal(member, False)
    if not np.array_equal(g.adj, member):
        return None, STAGE_QUOTIENT_NOT_ELEMENTARY
    # v goes to point a * r + b: a is the position of its class on Z_m, and
    # b its rank inside the class.  A stable sort by position lists the
    # classes in position order, each one's r vertices in ascending order.
    points = np.empty(g.n, dtype=np.int64)
    points[np.argsort(a, kind="stable")] = np.arange(g.n)
    return Decomposition(m, k, r, tuple(points.tolist())), None


def decompose_caw(g: Graph) -> DecomposeOutcome:
    """Decide membership in the characterized class, with certificate.

    A failure is reported at the first of three stages that fails:
    STAGE_NON_ASSOCIATION (the graph has no association scheme),
    STAGE_UNEQUAL_TWIN_CLASSES (its twin classes have no common size r)
    and STAGE_QUOTIENT_NOT_ELEMENTARY (its twin quotient is not C_{m,k}:
    the walk finds no order, or the one edge-exact comparison of the
    certificate fails; see _recognize).  The twin labels, the class sizes
    and the twin quotient Q (quotient_graph; g itself when g is twin-free)
    are built once, here, and shared by recognition (_recognize) and the
    non-member closure (_nonmember_closure); the empty graph is rejected
    here, before either.  Recognition comes first, as it needs no closure;
    non-association is reported before any recognition stage.  So g's n^2
    entries are read three times: by the twin labels, by the regularity
    test and by the edge-exact check of a certificate, and no matrix is
    compared with Q.  A member closes Q, which is C_{m,k} in position
    order, on one row of Z_m (circulant_closure), to stability: its last round splits nothing, so
    C_Q is Q's closure whatever X is.  One m x m comparison of canonical
    color matrices checks C_Q against X = _outer_colors(m, k, r); a
    mismatch is a library bug or a counterexample to the theorem:
    AssertionError, and no certificate.  G's m * r points are never
    refined: its closure C is the lift L of C_Q, rank2(r) wr C_Q pulled
    back through the positions a = points // r.  For r = 1, L is C_Q
    pulled back through a, an isomorphism from G onto Q, and a closure
    commutes with isomorphisms.

    The outcome keeps C_Q and the positions (the twin labels for a
    non-member), and builds L only when its scheme is read; its n, rank
    and diagonal colors are counted on C_Q (see DecomposeOutcome).  So
    non-association, the diagonal of L not a single color, is read off
    C_Q's diagonal, and L's n x n color matrix is not made here.

    Why C = L for r >= 2.  L is coherent and holds G's edges, so C is
    coarser than L.  The twins T are a union of C's colors: M =
    (A+I)(J-A-I) + (J-A-I)(A+I) is in the coherent algebra and M(u, v) =
    |N[u] ^ N[v]| is 0 exactly on T and the diagonal.  Swapping two twins is an
    automorphism, so C is constant on X x Y for twin classes X, Y.  C read
    at one point per class is a partition D of Q's pairs; points of X + Y
    add only colors in T or the diagonal, so D's intersection numbers are
    C's divided by r: D is coherent, holds Q's edges and is finer than C_Q.
    rank(C) = rank(D) + the colors in T, and as r >= 2 each diagonal color
    of C (they are D's) is the left diagonal of one of those.  So rank(C)
    >= rank(C_Q) + the diagonal colors of C_Q, which is rank(L): C = L.
    """
    if g.n == 0:
        raise ValueError(_NO_VERTEX)
    labels = twin_relation(g)
    sizes = np.bincount(labels)
    quot = quotient_graph(g, labels)
    # the edges of an association scheme are a union of basic relations, each
    # of constant valency, so an irregular graph has none: skip recognition
    cert, stage = (_recognize(g, labels, quot, sizes) if g.is_regular()
                   else (None, STAGE_NON_ASSOCIATION))
    if cert is not None:
        m, k, r = cert.m, cert.k, cert.r
        d = circular_distance_row(m)  # row 0 of C_{m,k} is its connection
        closed = circulant_closure((d <= k) & (d != 0))
        if not np.array_equal(closed, _outer_colors(m, k, r)):
            raise AssertionError(f"closure of certified C_{{{m},{k}}}[K_{r}] "
                                 "differs from prediction")
        return DecomposeOutcome(cert, None, closed, np.array(cert.points) // r)
    outcome = DecomposeOutcome(None, stage, _nonmember_closure(quot, sizes), labels)
    if not outcome.association:
        outcome = replace(outcome, failure_stage=STAGE_NON_ASSOCIATION)
    return outcome


def _nonmember_closure(quot: Graph, sizes: np.ndarray) -> np.ndarray:
    """The canonical color matrix of the closure C_Q of the twin quotient
    quot = Q of a graph g with a vertex, each class colored by its size
    (sizes, one per class; one diagonal relation per size); the closure C
    of g is its lift through g's twin labels by _lift.  C_Q is discrete, no
    2-WL round run, when vertex refinement of Q from the sizes ends
    discrete (_vertex_refinement_discrete); else it is coherent_closure's.

    Why C is the lift L of C_Q.  L is coherent: a class's size is constant
    on a diagonal color of C_Q, as the size relations are unions of its
    colors.  L holds G's edges, so C is coarser than L.  The twins T are a
    union of C's colors (see decompose_caw), so a class's size |T(u)| + 1
    is read off u's diagonal color, and C is constant on X x Y for twin
    classes X, Y.  C read at one point per class is a partition D of Q's
    pairs.  The points w counted by an intersection number of C, for
    colors outside T and the diagonal, fill whole classes of one size,
    which the color of (u, w) names; so D's intersection numbers are C's
    divided by that size, D is coherent, holds Q's edges and the size
    relations, and is finer than C_Q.  rank(C) = rank(D) + the colors in
    T, and each diagonal color of C on classes of size >= 2 is the left
    diagonal of one of those; so rank(C) >= rank(C_Q) + the diagonal
    colors of C_Q on classes of size >= 2, which is rank(L): C = L.

    Why C_Q is discrete when vertex refinement is.  Q's edges and the size
    relations are unions of C_Q's colors, so the fibers of C_Q (its
    diagonal colors) are an equitable partition of Q that refines the
    sizes: each point of a fiber X has as many Q-neighbors in a fiber Y.
    Vertex refinement from the sizes ends in the coarsest such partition,
    so the fibers refine it.  When it is discrete, every fiber is a point,
    and every color of C_Q lies in one {x} x {y}.
    """
    t = sizes.size
    if _vertex_refinement_discrete(quot.adj, sizes):
        return np.arange(t * t).reshape(t, t)
    sized = [np.diag(sizes == s) for s in np.unique(sizes)]
    # through the closure module: every 2-WL closure goes through one binding
    return closure.coherent_closure(t, [quot.adj] + sized).colors


def _vertex_refinement_discrete(adj: np.ndarray, colors: np.ndarray) -> bool:
    """Whether 1-dimensional refinement (color refinement) of the graph adj
    from the vertex colors ends with every vertex in its own class.  A
    round numbers the rows [color(v), color(w) + 1 where w ~ v, else 0],
    each sorted after its first entry, by kernels.number_rows, the
    numbering of every 2-WL round.  A row holds its old color, so a round
    only splits, and one that splits nothing is stable.  t^2 per round."""
    t = len(colors)
    count = len(np.unique(colors))
    while count < t:
        ids: dict[bytes, int] = {}
        rows = np.column_stack((colors, np.where(adj, colors + 1, 0)))
        rows[:, 1:].sort(axis=1)
        colors = number_rows(ids, [rows])
        if len(ids) == count:
            return False
        count = len(ids)
    return True


def _lift(outer: np.ndarray, a: np.ndarray) -> CoherentConfiguration:
    """rank2(r) wr outer (outer when r = 1), pulled back to points at
    positions a, r at each: a pair in one fiber is diagonal or not, tagged
    by its position's diagonal color; across fibers, the positions' color.
    DecomposeOutcome.scheme, predicted_scheme and verify_wreath_theorem all
    use it."""
    same = a[:, None] == a
    return CoherentConfiguration(outer[np.ix_(a, a)] * 3 + 2 - same - np.eye(a.size, dtype=bool))


def _outer_colors(m: int, k: int, r: int) -> np.ndarray:
    """The outer scheme X of C_{m,k}[K_r] (see _outer_kind) as its m x m
    color matrix in canonical form: colors 0 .. rank(X) - 1, which first
    appear in row 0 in that order, as d grows.  Each X is a fusion of the
    dihedral scheme on Z_m by circular distance d: the rank-2 scheme splits
    d = 0 from d > 0, the matching scheme also splits off the partner at
    d = k + 1, and the dihedral scheme keeps every d."""
    kind = _outer_kind(m, k, r)
    d = circular_distances(m)
    if kind == OUTER_RANK2:
        return d > 0
    if kind == OUTER_FORESTAL_MATCHING:
        return np.where(d == k + 1, 2, d > 0)
    return d


def predicted_scheme(m: int, k: int, r: int) -> CoherentConfiguration:
    """The scheme the certificate (m, k, r) predicts for the graph:
    rank2(r) wr X, with point a * r + b for position a on Z_m and b inside
    the fiber, as lex_product numbers C_{m,k}[K_r]."""
    return _lift(_outer_colors(m, k, r), np.repeat(np.arange(m), r))


def _certificate_generators(m: int, k: int, r: int) -> np.ndarray:
    """Automorphisms of C_{m,k}[K_r], one permutation of the points a * r + b
    per row: first the outer group acting on a with b fixed, then the
    adjacent transpositions (a, b)(a, b + 1) inside every fiber.

    The outer rows are the adjacent fiber swaps (i, i + 1) for k = 0; for
    m = 2k + 2 the swap i <-> i + k + 1 of each of the k + 1 non-adjacent
    pairs, then the adjacent pair transpositions (j, j + 1)(j + k + 1,
    j + k + 2); otherwise the rotation a -> a + 1, then the reflection
    a -> -a.
    """
    ident = np.arange(m)

    def swaps(*pairs):
        f = ident.copy()
        for x, y in pairs:
            f[[x, y]] = y, x
        return f

    kind = _outer_kind(m, k, r)
    if kind == OUTER_RANK2:
        outer = [swaps((i, i + 1)) for i in range(m - 1)]
    elif kind == OUTER_FORESTAL_MATCHING:
        outer = ([swaps((i, i + k + 1)) for i in range(k + 1)]
                 + [swaps((j, j + 1), (j + k + 1, j + k + 2)) for j in range(k)])
    else:
        outer = [(ident + 1) % m, -ident % m]
    n = m * r
    a, b = np.divmod(np.arange(n), r)
    p = np.flatnonzero(b < r - 1)  # p = (a, b) and p + 1 = (a, b + 1)
    fiber = np.tile(np.arange(n), (p.size, 1))
    rows = np.arange(p.size)
    fiber[rows, p], fiber[rows, p + 1] = p + 1, p
    return np.concatenate([np.array([f[a] * r + b for f in outer], dtype=np.intp).reshape(-1, n),
                           fiber])


def _group_bounds(g: Graph, scheme: CoherentConfiguration, gens, base) -> GroupWitness:
    """The bounds and the Schurity check of group_witness, for permutations
    gens of the vertices (one per row) and base points base that list every
    vertex.  scheme must be the closure of g.  A row that is not an
    automorphism of g is a library bug: AssertionError."""
    n = g.n
    gens = np.asarray(gens, dtype=np.intp).reshape(-1, n)
    base = np.asarray(base, dtype=np.intp)
    ident = np.arange(n)
    if not (np.sort(gens, axis=1) == ident).all():
        raise AssertionError("a generator is not a permutation of the vertices")
    # with adj symmetric, p is an automorphism iff adj[p[u], p] = adj[u] for
    # every point u that p moves; all (p, u) at once, one row each
    i, u = np.nonzero(gens != ident)
    pu = gens[i, u]
    bad = (g.adj[pu[:, None], gens[i]] != g.adj[u]).any(axis=1)
    if bad.any():
        raise AssertionError(f"generator {i[bad][0]} is not an automorphism")

    colors = scheme.colors
    upper = 1
    key = np.zeros(n, dtype=np.int64)  # the partition by colors to the base points so far
    for v in base:
        upper *= int(np.count_nonzero(key == key[v]))
        _, key = np.unique(key * scheme.rank + colors[v], return_inverse=True)
        if key.max() == n - 1:
            break  # the partition is discrete: every later cell is one point

    # S_{j+1}, the generators that fix base[:j], are those whose first moved
    # base point comes at j or later.  Their orbits are the components of
    # the edges u -- p(u); they are joined in a union-find in decreasing j.
    moves = gens[:, base] != base
    first = np.where(moves.any(axis=1), moves.argmax(axis=1), n)[i]
    order = np.argsort(-first, kind="stable")
    edges = zip(first[order].tolist(), u[order].tolist(), pu[order].tolist())
    parent, size = list(range(n)), [1] * n

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    lower, schurian = 1, False
    edge = next(edges, None)
    for j in range(n - 1, -1, -1):
        while edge is not None and edge[0] >= j:
            x, y = find(edge[1]), find(edge[2])
            if x != y:
                parent[y] = x
                size[x] += size[y]
            edge = next(edges, None)
        lower *= size[find(base[j])]
        if j == min(1, n - 1):  # the orbits of S_2 (for n = 1, S_1 = S_2)
            orbit = [find(x) for x in range(n)]
            row = colors[base[0]].tolist()
            schurian = len(set(orbit)) == len(set(row)) == len(set(zip(orbit, row)))
    schurian &= size[find(base[0])] == n  # transitive
    return GroupWitness(lower, upper, schurian)


def group_witness(g: Graph, outcome: DecomposeOutcome) -> GroupWitness | None:
    """Prove |Aut(G)| and that the scheme of a member is Schurian, from its
    certificate and closure; None for non-members.

    Generators.  In the certificate's coordinates (a, b), point a * r + b
    of C_{m,k}[K_r], the outer group acting on a and the transpositions
    inside the fibers (_certificate_generators) are automorphisms.  Each is
    pulled back through the certificate's points and checked against
    g.adj, so H = <gens> is a subgroup of Aut(G) whatever the certificate
    says.

    Upper bound.  The base points v_1, ..., v_n are the vertices in point
    order.  Closure colors are Aut(G)-invariant, so an automorphism that
    fixes v_1, ..., v_{i-1} maps v_i into its cell {w : c(v_j, w) =
    c(v_j, v_i) for all j < i}.  By orbit-stabilizer along the base,
    |Aut(G)| <= prod |cell_i|.  Once the cells are single points (the
    partition is discrete), every later factor is 1.

    Lower bound.  The generators S_i that fix v_1, ..., v_{i-1} lie in the
    pointwise stabilizer H_(i-1) of those points in H, so the orbit of v_i
    under <S_i> lies inside its orbit under H_(i-1).  Hence prod |orbit_i|
    <= |H| <= |Aut(G)|, with no Schreier-Sims.  When lower = upper, the
    order is proven and Aut(G) = H.

    Schurity.  Say H is transitive, and the orbits of S_2 (the generators
    fixing v_1) are exactly the color classes of row v_1.  Those classes
    are unions of orbits of the stabilizer of v_1 in H, which contains
    <S_2>, so each class is one such orbit.  Any pair (u, w) is moved by H
    to a pair (v_1, w') of the same color, so every color is a single
    orbit of H on pairs: the scheme is the 2-orbit scheme of H.

    This is the orbit pruning of McKay & Piperno (arXiv:1301.1493), with
    the automorphisms taken from the certificate instead of found by a
    search.  Memory is O(n^2): there are fewer than n generators, and each
    is checked on the rows it moves.
    """
    if not outcome.ok:
        return None
    cert = outcome.certificate
    points = np.array(cert.points, dtype=np.intp)  # the point of each vertex
    base = np.argsort(points)  # the vertex at each point
    gens = base[_certificate_generators(cert.m, cert.k, cert.r)[:, points]]
    return _group_bounds(g, outcome.scheme, gens, base)


def verify_wreath_theorem(inner_complete_size: int, outer: Graph) -> WreathTheoremReport:
    """Check, on one instance, that the scheme of outer[K_r] is a fusion of
    fis(K_r) wr fis(outer), and compare the two schemes for isomorphism.

    Both closures come from plain refinement (closure_of_graph, with no
    twin quotient); the wreath product is _lift of fis(outer), so every
    outer, association or not, checks the lift.
    The isomorphism is a theorem only when outer is twin-free and has an
    association scheme (iso_asserted reports whether that hypothesis
    holds); the iso verdict itself is always computed so counterexamples
    like complete[complete] are visible.  lex_product and _lift both put
    (outer, inner) at outer * r + inner, so the verdict compares the two
    schemes under the identity (identity_verdict).
    """
    r = inner_complete_size
    if r < 1:
        raise ValueError("inner complete graph needs at least one vertex")
    lex = lex_product(outer, complete(r))
    actual = closure_of_graph(lex)
    outer_scheme = closure_of_graph(outer)
    wreath = _lift(outer_scheme.colors, np.repeat(np.arange(outer.n), r))
    fusion = is_fusion_of(actual, wreath)
    twin_free = np.array_equal(twin_relation(outer), np.arange(outer.n))
    asserted = twin_free and is_association(outer_scheme)
    case = f"outer graph on {outer.n} vertices with edges {outer.edges()}, r={r}"
    verdict = identity_verdict(actual, wreath, case)
    return WreathTheoremReport(fusion, asserted, verdict)


def predicted_aut_order(m: int, k: int, r: int) -> int:
    """Automorphism group order of C_{m,k}[K_r]: (r!)^m times the order of
    the quotient group, which is Sym(m) for the empty case, the signed
    permutations of the matching for m = 2k+2, and the dihedral group of
    the m-cycle otherwise."""
    kind = _outer_kind(m, k, r)
    if kind == OUTER_RANK2:
        outer_order = math.factorial(m)
    elif kind == OUTER_FORESTAL_MATCHING:
        outer_order = 2 ** (k + 1) * math.factorial(k + 1)
    else:
        outer_order = 2 * m
    return math.factorial(r) ** m * outer_order
