"""Decomposition certificates for circular-arc graphs with association schemes.

The characterized class consists exactly of the lexicographic products of
an elementary circular-arc graph with a complete graph.  decompose_caw
recovers such a product structure (or a named reason why none exists)
and computes one closure, which for a member stops at the predicted rank
(predicted_rank); scheme_decomposition checks, through the certificate's
points, that the closure is rank2(r) wreathed with a rank-2 /
matching-forestal / dihedral scheme;
predicted_aut_order evaluates the closed-form automorphism group order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closure import closure_of_graph
from .graphs import (
    Graph,
    circulant,
    circular_distances,
    complete,
    edge_level_partition,
    lex_product,
    quotient_graph,
    twin_relation,
)
from .schemes import CoherentConfiguration, identity_verdict, is_association, is_fusion_of

OUTER_RANK2 = "RANK2"
OUTER_FORESTAL_MATCHING = "FORESTAL_MATCHING"
OUTER_DIHEDRAL = "DIHEDRAL"

STAGE_NON_ASSOCIATION = "non-association"
STAGE_UNEQUAL_TWIN_CLASSES = "unequal twin classes"
STAGE_QUOTIENT_NOT_ELEMENTARY = "quotient not elementary"
STAGE_RELABELING_FAILED = "relabeling verification failed"


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


@dataclass(frozen=True)
class DecomposeOutcome:
    """A certificate or the first failed stage, and the closure decided on."""

    certificate: Decomposition | None
    failure_stage: str | None
    scheme: CoherentConfiguration

    @property
    def ok(self) -> bool:
        return self.certificate is not None


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
    or None.  Empty graphs are C_{n,0}; a 2k-regular graph on 2k+2
    vertices must be a complete graph minus a perfect matching; beyond
    that the level of edges with exactly 2k-2 common neighbors must form
    a single Hamiltonian cycle, which fixes the circular order; the walk
    leaves vertex 0 towards its smaller-numbered cycle neighbor.  The
    recovered labeling is always re-verified edge-exactly, so a wrong
    guess cannot escape.
    """
    n = g.n
    if n == 0:
        return None
    if g.edge_count() == 0:
        return (n, 0, tuple(range(n)))
    if not g.is_regular():
        return None
    d = g.degree(0)
    if d % 2 != 0:
        return None
    k = d // 2

    if n == 2 * k + 2:
        # by regularity every vertex has exactly one non-neighbor, its
        # partner; the k+1 partner pairs go to labels i and i+k+1
        partner = (~(g.adj | np.eye(n, dtype=bool))).argmax(axis=1).tolist()
        labels = [-1] * n
        for i, v in enumerate(v for v in range(n) if v < partner[v]):
            labels[v], labels[partner[v]] = i, i + k + 1
    elif n > 2 * k + 2:
        cyc = edge_level_partition(g).get(2 * k - 2)
        if cyc is None or (cyc.sum(axis=1) != 2).any():
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

    if not np.array_equal(g.adj, circulant(n, k)[np.ix_(labels, labels)]):
        return None
    return (n, k, tuple(labels))


def _recognize(g: Graph):
    """(certificate, None) for a member of the class, else (None, the first
    recognition stage that fails).  The assembled map onto C_{m,k}[K_r]
    is verified edge-exactly before a certificate is made."""
    labels = twin_relation(g)
    sizes = np.bincount(labels)
    if g.n == 0 or (sizes != sizes[0]).any():  # closure_of_graph rejects n = 0
        return None, STAGE_UNEQUAL_TWIN_CLASSES
    r = int(sizes[0])

    quot = quotient_graph(g, labels)
    recognized = is_elementary_caw(quot)
    if recognized is None:
        return None, STAGE_QUOTIENT_NOT_ELEMENTARY
    m, k, qlabels = recognized

    # v goes to point a * r + b: a is the position of its class on Z_m, and
    # b its rank inside the class.  A stable sort by position lists the
    # classes in position order, each one's r vertices in ascending order.
    a = np.asarray(qlabels)[labels]
    points = np.empty(g.n, dtype=np.int64)
    points[np.argsort(a, kind="stable")] = np.arange(g.n)
    member = lex_product(Graph(circulant(m, k)), complete(r))
    if not np.array_equal(g.adj, member.adj[np.ix_(points, points)]):
        return None, STAGE_RELABELING_FAILED
    return Decomposition(m, k, r, tuple(points.tolist())), None


def decompose_caw(g: Graph) -> DecomposeOutcome:
    """Decide membership in the characterized class, with certificate.

    The graph must have an association scheme, its twin classes a common
    size r, and its twin quotient must be elementary; a failure is
    reported at the first of these stages that fails.  Recognition comes
    first, as it needs no closure.  A non-member then gets the full
    closure, and non-association is reported before any recognition
    stage.  A member closes its twin quotient Q = C_{m,k} (G itself when
    r = 1) and stops at predicted_rank(m, k, 1) colors, without the round
    that would only confirm it is stable: each round's partition is
    coarser than the closure C_Q, which is coarser than the coherent
    prediction P holding Q's edges, so a round with rank(P) colors is C_Q.
    For r >= 2, G's m * r points are never refined: its closure C is the
    lift L of C_Q, rank2(r) wr C_Q pulled back through the certificate.

    Why C = L.  L is coherent and holds G's edges, so C is coarser than
    L.  The twins T are a union of C's colors: M = (A+I)(J-A-I) +
    (J-A-I)(A+I) is in the coherent algebra and M(u, v) = |N[u] ^ N[v]|
    is 0 exactly on T and the diagonal.  Swapping two twins is an
    automorphism, so C is constant on X x Y for twin classes X, Y.  C read
    at one point per class is a partition D of Q's pairs; points of X + Y
    add only colors in T or the diagonal, so D's intersection numbers are
    C's divided by r: D is coherent, holds Q's edges and is finer than C_Q.
    rank(C) = rank(D) + the colors in T, and as r >= 2 each diagonal color
    of C (they are D's) is the left diagonal of one of those.  So rank(C)
    >= rank(C_Q) + the diagonal colors of C_Q, which is rank(L): C = L.
    """
    # the edges of an association scheme are a union of basic relations, each
    # of constant valency, so an irregular graph has none: skip recognition
    cert, stage = _recognize(g) if g.is_regular() else (None, STAGE_NON_ASSOCIATION)
    if cert is not None:
        m, k, r = cert.m, cert.k, cert.r
        cc = closure_of_graph(g if r == 1 else Graph(circulant(m, k)), predicted_rank(m, k, 1))
        if r > 1:
            cc = _lift(cc.colors, np.array(cert.points) // r)
        return DecomposeOutcome(cert, None, cc)
    cc = closure_of_graph(g)
    if not is_association(cc):
        stage = STAGE_NON_ASSOCIATION
    return DecomposeOutcome(None, stage, cc)


def _lift(outer: np.ndarray, a: np.ndarray) -> CoherentConfiguration:
    """rank2(r) wr outer (outer when r = 1), pulled back to points at
    positions a, r at each: a pair in one fiber is diagonal or not, tagged
    by its position's diagonal color; across fibers, the positions' color.
    decompose_caw, predicted_scheme and verify_wreath_theorem all use it."""
    same = a[:, None] == a
    return CoherentConfiguration(outer[np.ix_(a, a)] * 3 + 2 - same - np.eye(a.size, dtype=bool))


def predicted_scheme(m: int, k: int, r: int) -> CoherentConfiguration:
    """The scheme the certificate (m, k, r) predicts for the graph:
    rank2(r) wr X, with point a * r + b for position a on Z_m and b inside
    the fiber, as lex_product numbers C_{m,k}[K_r].  Each outer scheme X is
    a fusion of the dihedral scheme on Z_m by circular distance d: the
    rank-2 scheme splits d = 0 from d > 0, the matching scheme also splits
    off the partner at d = k + 1, and the dihedral scheme keeps every d."""
    kind = _outer_kind(m, k, r)
    d = circular_distances(m)
    if kind == OUTER_RANK2:
        outer = d > 0
    elif kind == OUTER_FORESTAL_MATCHING:
        outer = np.where(d == k + 1, 2, d > 0)
    else:
        outer = d
    return _lift(outer, np.repeat(np.arange(m), r))


def scheme_decomposition(outcome: DecomposeOutcome) -> str | None:
    """The outer kind X of a member's scheme rank2(r) wr X(m), checked
    against its closure; None for non-members.

    The witness is the certificate: vertex v is point points[v] of
    predicted_scheme(m, k, r), so the prediction pulled back to the
    vertices is the lift of predicted_scheme(m, k, 1) through the
    positions points // r.  The certificate is edge-verified and the
    closure does not depend on labels, so a closure that differs from it
    is a library bug or a counterexample to the theorem: AssertionError.
    """
    if not outcome.ok:
        return None
    cert = outcome.certificate
    m, k, r = cert.m, cert.k, cert.r
    if _lift(predicted_scheme(m, k, 1).colors, np.array(cert.points) // r) != outcome.scheme:
        raise AssertionError(f"closure of certified C_{{{m},{k}}}[K_{r}] differs from prediction")
    return _outer_kind(m, k, r)


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

    Both closures come from plain refinement; the wreath product is _lift
    of fis(outer), so every outer, association or not, checks the lift.
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


def predicted_rank(m: int, k: int, r: int) -> int:
    """Rank of predicted_scheme(m, k, r), in closed form: rank(inner) +
    rank(outer) - 1, as for every wreath product of association schemes.
    The outer scheme has rank 1 on one point, 2 for k = 0, 3 in the
    matching case and m // 2 + 1 for the dihedral scheme."""
    kind = _outer_kind(m, k, r)
    inner = 1 if r == 1 else 2
    if kind == OUTER_RANK2:
        outer = 1 if m == 1 else 2
    elif kind == OUTER_FORESTAL_MATCHING:
        outer = 3
    else:
        outer = m // 2 + 1
    return inner + outer - 1


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
