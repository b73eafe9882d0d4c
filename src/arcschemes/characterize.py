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
    dihedral_scheme,
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


@dataclass(frozen=True)
class Decomposition:
    """Certificate that a graph is C_{m,k} blown up by K_r.

    relabeling[v] = (position in Z_m, index inside the fiber).  The only
    certificate violating 2k+1 < m is the degenerate (m=1, k=0) form used
    for complete graphs, whose fiber is the whole vertex set.
    """

    m: int
    k: int
    r: int
    relabeling: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.m * self.r != len(self.relabeling):
            raise ValueError("relabeling length must be m * r")
        if not (2 * self.k + 1 < self.m or (self.m == 1 and self.k == 0)):
            raise ValueError(f"invalid parameters m={self.m}, k={self.k}")


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
    cert, stage = _recognize(g)
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
    """The scheme the certificate (m, k, r) predicts for the graph."""
    inner = _scheme_of_complete(r)
    if k == 0:
        outer = point_scheme() if m == 1 else rank2_scheme(m)
    elif m == 2 * k + 2:
        outer = wreath_product(rank2_scheme(2), rank2_scheme(k + 1))
    elif m > 2 * k + 2:
        outer = dihedral_scheme(m)
    else:
        raise ValueError(f"invalid parameters m={m}, k={k}")
    return wreath_product(inner, outer)


def scheme_decomposition(outcome: DecomposeOutcome) -> SchemeDecomposition | None:
    """Classify the scheme of a decompose_caw outcome; None for non-members.

    The witness is the certificate's relabeling: v with relabeling (a, b)
    is point a * r + b of the predicted wreath product, with a renumbered
    in the matching case to the point order of rank2(2) wr rank2(k+1).
    The relabeling is edge-verified and the closure does not depend on
    labels, so a closure that differs from the pulled-back prediction is a
    library bug or a counterexample to the theorem: AssertionError.
    """
    if not outcome.ok:
        return None
    cert = outcome.certificate
    m, k, r = cert.m, cert.k, cert.r
    a, b = np.asarray(cert.relabeling, dtype=np.int64).T
    if k == 0:
        kind = OUTER_RANK2
    elif m == 2 * k + 2:
        kind = OUTER_FORESTAL_MATCHING
        a = a % (k + 1) * 2 + a // (k + 1)
    else:
        kind = OUTER_DIHEDRAL
    sigma = a * r + b
    predicted = predicted_scheme(m, k, r).colors[np.ix_(sigma, sigma)]
    if CoherentConfiguration(predicted) != outcome.scheme:
        raise AssertionError(f"closure of certified C_{{{m},{k}}}[K_{r}] differs from prediction")
    return SchemeDecomposition(r, kind, m, IsoVerdict(ISO, tuple(sigma.tolist())))


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
    The outer scheme has rank 1 on one point, 2 for k = 0, 3 for the
    matching case rank2(2) wr rank2(k+1), and m // 2 + 1 for the
    dihedral scheme."""
    if r < 1 or m < 1 or k < 0:
        raise ValueError(f"invalid parameters m={m}, k={k}, r={r}")
    inner = 1 if r == 1 else 2
    if k == 0:
        outer = 1 if m == 1 else 2
    elif m == 2 * k + 2:
        outer = 3
    elif m > 2 * k + 2:
        outer = m // 2 + 1
    else:
        raise ValueError(f"invalid parameters m={m}, k={k}")
    return inner + outer - 1


def predicted_aut_order(m: int, k: int, r: int) -> int:
    """Automorphism group order of C_{m,k}[K_r]: (r!)^m times the order of
    the quotient group, which is Sym(m) for the empty case, the signed
    permutations of the matching for m = 2k+2, and the dihedral group of
    the m-cycle otherwise."""
    if r < 1 or m < 1 or k < 0:
        raise ValueError(f"invalid parameters m={m}, k={k}, r={r}")
    if k == 0:
        outer_order = math.factorial(m)
    elif m == 2 * k + 2:
        outer_order = 2 ** (k + 1) * math.factorial(k + 1)
    elif m > 2 * k + 2:
        outer_order = 2 * m
    else:
        raise ValueError(f"invalid parameters m={m}, k={k}")
    return math.factorial(r) ** m * outer_order
