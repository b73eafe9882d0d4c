"""Decomposition certificates for circular-arc graphs with association schemes.

The characterized class consists exactly of the lexicographic products of
an elementary circular-arc graph with a complete graph.  decompose_caw
recovers such a product structure (or a named reason why none exists)
and computes one closure, which for a member stops at the predicted rank
(predicted_rank); scheme_decomposition checks, through its relabeling, that
the closure is rank2(r) wreathed with a rank-2 / matching-forestal / dihedral scheme;
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
    complete,
    edge_level_partition,
    lex_product,
    quotient_graph,
    twin_relation,
)
from .schemes import (
    ISO,
    CoherentConfiguration,
    IsoVerdict,
    identity_verdict,
    is_association,
    is_fusion_of,
    point_scheme,
    rank2_scheme,
    wreath_product,
)

OUTER_RANK2 = "RANK2"
OUTER_FORESTAL_MATCHING = "FORESTAL_MATCHING"
OUTER_DIHEDRAL = "DIHEDRAL"

STAGE_NON_ASSOCIATION = "non-association"
STAGE_UNEQUAL_TWIN_CLASSES = "unequal twin classes"
STAGE_QUOTIENT_NOT_ELEMENTARY = "quotient not elementary"
STAGE_RELABELING_FAILED = "relabeling verification failed"


def _outer_kind(m: int, k: int) -> str:
    """The outer scheme X of C_{m,k}[K_r], whose scheme is rank2(r) wr X:
    the rank-2 scheme for k = 0 (the point scheme when m = 1), the matching
    scheme for m = 2k + 2 and the dihedral scheme for m > 2k + 2.  Any
    other (m, k) is not a member's: ValueError."""
    if k == 0 and m >= 1:
        return OUTER_RANK2
    if k >= 1 and m == 2 * k + 2:
        return OUTER_FORESTAL_MATCHING
    if k >= 1 and m > 2 * k + 2:
        return OUTER_DIHEDRAL
    raise ValueError(f"invalid parameters m={m}, k={k}")


@dataclass(frozen=True)
class Decomposition:
    """Certificate that a graph is C_{m,k} blown up by K_r.

    relabeling[v] = (position in Z_m, index inside the fiber).  The only
    certificate violating 2k+1 < m is the degenerate (m=1, k=0) form used
    for complete graphs, whose fiber is the whole vertex set; _outer_kind
    rejects every other (m, k).
    """

    m: int
    k: int
    r: int
    relabeling: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.m * self.r != len(self.relabeling):
            raise ValueError("relabeling length must be m * r")
        _outer_kind(self.m, self.k)


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
class SchemeDecomposition:
    """Certificate that the scheme is rank2(r) wreathed with the named outer scheme."""

    inner_rank2_size: int
    outer_kind: str
    outer_size: int
    witness: IsoVerdict


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
    iso: IsoVerdict


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
    recognition stage that fails).  The assembled relabeling onto
    C_{m,k}[K_r] is verified edge-exactly before a certificate is made."""
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

    # v goes to (a, b): a is the position of its class on Z_m, and b its
    # rank inside the class, read off a stable sort of the labels, which
    # puts each class's r vertices next to each other in ascending order
    a = np.asarray(qlabels)[labels]
    b = np.empty(g.n, dtype=np.int64)
    b[np.argsort(labels, kind="stable")] = np.arange(g.n) % r
    # (a, b) is point a * r + b of C_{m,k}[K_r], as lex_product numbers it
    member = lex_product(Graph(circulant(m, k)), complete(r))
    sigma = a * r + b
    if not np.array_equal(g.adj, member.adj[np.ix_(sigma, sigma)]):
        return None, STAGE_RELABELING_FAILED
    return Decomposition(m, k, r, tuple(zip(a.tolist(), b.tolist()))), None


def decompose_caw(g: Graph) -> DecomposeOutcome:
    """Decide membership in the characterized class, with certificate.

    The graph must have an association scheme, its twin classes a common
    size r, and its twin quotient must be elementary; a failure is
    reported at the first of these stages that fails.  Recognition comes
    first, as it needs no closure.  A non-member then gets the full
    closure, and non-association is reported before any recognition
    stage.  A member gets a closure that stops at predicted_rank(m, k, r)
    colors, without the round that would only confirm it is stable; its
    scheme is the association scheme P below, so the association stage
    cannot fail for it.

    Why the stop is exact.  Let W_i be the partition after round i, C the
    closure, and P the predicted scheme pulled back through the verified
    relabeling.  W_i is coarser than C, because refinement is monotone
    and C is stable.  C is coarser than P, because P is coherent and the
    edge relation, pulled back from C_{m,k}[K_r], is a union of its
    colors.  So rank(W_i) <= rank(C) <= rank(P), and once the ranks are
    equal, W_i = C = P: the canonical matrix is the one the full closure
    gives.  scheme_decomposition compares the closure with the pulled-back
    prediction independently.
    """
    # the edges of an association scheme are a union of basic relations, each
    # of constant valency, so an irregular graph has none: skip recognition
    cert, stage = _recognize(g) if g.is_regular() else (None, STAGE_NON_ASSOCIATION)
    if cert is not None:
        cc = closure_of_graph(g, predicted_rank(cert.m, cert.k, cert.r))
        return DecomposeOutcome(cert, None, cc)
    cc = closure_of_graph(g)
    if not is_association(cc):
        stage = STAGE_NON_ASSOCIATION
    return DecomposeOutcome(None, stage, cc)


def _scheme_of_complete(r: int) -> CoherentConfiguration:
    return point_scheme() if r == 1 else rank2_scheme(r)


def predicted_scheme(m: int, k: int, r: int) -> CoherentConfiguration:
    """The scheme the certificate (m, k, r) predicts for the graph:
    rank2(r) wr X, with point a * r + b for position a on Z_m and b inside
    the fiber, as lex_product numbers C_{m,k}[K_r].  Each outer scheme X is
    a fusion of the dihedral scheme on Z_m by circular distance d: the
    rank-2 scheme splits d = 0 from d > 0, the matching scheme also splits
    off the partner at d = k + 1, and the dihedral scheme keeps every d."""
    kind = _outer_kind(m, k)
    d = np.subtract.outer(np.arange(m), np.arange(m)) % m
    d = np.minimum(d, m - d)
    if kind == OUTER_RANK2:
        outer = d > 0
    elif kind == OUTER_FORESTAL_MATCHING:
        outer = np.where(d == k + 1, 2, d > 0)
    else:
        outer = d
    return wreath_product(_scheme_of_complete(r), CoherentConfiguration(outer))


def scheme_decomposition(outcome: DecomposeOutcome) -> SchemeDecomposition | None:
    """Classify the scheme of a decompose_caw outcome; None for non-members.

    The witness is the certificate's relabeling: v with relabeling (a, b)
    is point a * r + b of the predicted wreath product.  The relabeling is
    edge-verified and the closure does not depend on labels, so a closure
    that differs from the pulled-back prediction is a library bug or a
    counterexample to the theorem: AssertionError.
    """
    if not outcome.ok:
        return None
    cert = outcome.certificate
    m, k, r = cert.m, cert.k, cert.r
    a, b = np.asarray(cert.relabeling, dtype=np.int64).T
    sigma = a * r + b
    predicted = predicted_scheme(m, k, r).colors[np.ix_(sigma, sigma)]
    if CoherentConfiguration(predicted) != outcome.scheme:
        raise AssertionError(f"closure of certified C_{{{m},{k}}}[K_{r}] differs from prediction")
    return SchemeDecomposition(r, _outer_kind(m, k), m, IsoVerdict(ISO, tuple(sigma.tolist())))


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

    kind = _outer_kind(m, k)
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
    pulled back through the relabeling and checked against g.adj, so
    H = <gens> is a subgroup of Aut(G) whatever the certificate says.

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
    a, b = np.asarray(cert.relabeling, dtype=np.intp).T
    sigma = a * cert.r + b  # the point of each vertex
    base = np.argsort(sigma)  # the vertex at each point
    gens = base[_certificate_generators(cert.m, cert.k, cert.r)[:, sigma]]
    return _group_bounds(g, outcome.scheme, gens, base)


def verify_wreath_theorem(
    inner_complete_size: int, outer: Graph, size_limit: int = 60
) -> WreathTheoremReport:
    """Check, on one instance, that the scheme of outer[K_r] is a fusion of
    fis(K_r) wr fis(outer), and compare the two schemes for isomorphism.

    The isomorphism is a theorem only when outer is twin-free and has an
    association scheme (iso_asserted reports whether that hypothesis
    holds); the iso verdict itself is always computed so counterexamples
    like complete[complete] are visible.  lex_product and wreath_product
    both put (outer, inner) at outer * r + inner, so the verdict compares
    the two schemes under the identity (identity_verdict).
    """
    r = inner_complete_size
    if r < 1:
        raise ValueError("inner complete graph needs at least one vertex")
    n = outer.n * r
    if n > size_limit:
        raise ValueError(f"product on {n} points exceeds limit {size_limit}")
    lex = lex_product(outer, complete(r))
    actual = closure_of_graph(lex)
    outer_scheme = closure_of_graph(outer)
    wreath = wreath_product(_scheme_of_complete(r), outer_scheme)
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
    kind = _outer_kind(m, k)
    if r < 1:
        raise ValueError(f"invalid parameters m={m}, k={k}, r={r}")
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
    kind = _outer_kind(m, k)
    if r < 1:
        raise ValueError(f"invalid parameters m={m}, k={k}, r={r}")
    if kind == OUTER_RANK2:
        outer_order = math.factorial(m)
    elif kind == OUTER_FORESTAL_MATCHING:
        outer_order = 2 ** (k + 1) * math.factorial(k + 1)
    else:
        outer_order = 2 * m
    return math.factorial(r) ** m * outer_order
