"""Independent oracles and generators used by the test suite.

Everything here is deliberately naive (group orbits, permutation
enumeration, per-pair counting) and shares no code path with the library
routines it checks.  The paper's lemma checkers degree_check_oracle and
is_regular_equivalent check the theory, not the library: no command
needs them, and is_regular_equivalent is built on the library's twin
classes and neighborhood condition.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import NamedTuple

import numpy as np

from arcschemes.arcs import ArcFunction, check_neighborhood_condition, condition_failures
from arcschemes.graphs import (
    Graph, build_by_line, from_edges, int_records, twin_relation,
)
from arcschemes.schemes import ISO, NOT_ISO, CoherentConfiguration, VerifyReport


def circular_distance(i: int, j: int, n: int) -> int:
    """Distance between i and j on the n-cycle."""
    d = (j - i) % n
    return min(d, n - d)


def rank2_scheme(n: int) -> CoherentConfiguration:
    """Trivial scheme: diagonal plus its complement."""
    if n < 2:
        raise ValueError("rank-2 scheme needs n >= 2")
    mat = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(mat, 0)
    return CoherentConfiguration(mat)


def predicted_rank(m: int, k: int, r: int) -> int:
    """Rank of the scheme rank2(r) wr X of C_{m,k}[K_r], in closed form:
    rank(inner) + rank(outer) - 1, as for every wreath product of
    association schemes.  The outer scheme X has rank 1 on one point, 2 for
    k = 0, 3 in the matching case m = 2k + 2 and m // 2 + 1 (the circular
    distances) for the dihedral scheme."""
    if k == 0:
        outer = 1 if m == 1 else 2
    else:
        outer = 3 if m == 2 * k + 2 else m // 2 + 1
    return (1 if r == 1 else 2) + outer - 1


def dihedral_pair_orbits(n: int) -> set[frozenset]:
    """Orbits of the dihedral group D_2n acting on ordered pairs of Z_n."""
    perms = []
    for a in range(n):
        perms.append(tuple((i + a) % n for i in range(n)))
        perms.append(tuple((a - i) % n for i in range(n)))
    orbits = []
    assigned = set()
    for u in range(n):
        for v in range(n):
            if (u, v) in assigned:
                continue
            orbit = set()
            stack = [(u, v)]
            while stack:
                x, y = stack.pop()
                if (x, y) in orbit:
                    continue
                orbit.add((x, y))
                for p in perms:
                    stack.append((p[x], p[y]))
            orbits.append(frozenset(orbit))
            assigned |= orbit
    return set(orbits)


def scheme_pair_classes(cfg) -> set[frozenset]:
    """Color classes of a configuration as a set of pair sets."""
    classes: dict[int, set] = {}
    n = cfg.n
    for u in range(n):
        for v in range(n):
            classes.setdefault(int(cfg.colors[u, v]), set()).add((u, v))
    return {frozenset(pairs) for pairs in classes.values()}


def permutation_aut_count(g: Graph) -> int:
    """Automorphism count by checking all n! permutations; keep n small."""
    n = g.n
    count = 0
    pairs = list(itertools.combinations(range(n), 2))
    for perm in itertools.permutations(range(n)):
        if all(g.adj[perm[u], perm[v]] == g.adj[u, v] for u, v in pairs):
            count += 1
    return count


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


def exhaustive_intersection_counts(cfg, r: int, s: int, t: int) -> set[int]:
    """The multiset of c_rs^t candidates over every pair of color t; a
    coherent configuration yields a singleton."""
    mat = cfg.colors
    n = cfg.n
    counts = set()
    for x in range(n):
        for y in range(n):
            if mat[x, y] == t:
                counts.add(
                    sum(1 for w in range(n) if mat[x, w] == r and mat[w, y] == s)
                )
    return counts


def refine_step_oracle(colors, rank: int):
    """One 2-WL refinement round, pair by pair in pure Python.

    The signature of (u, v) is its old color with the sorted multiset of
    color(u, w) * rank + color(w, v) over all w; new ids follow first
    appearance in a row-major scan.  Returns (new color matrix, new rank).
    """
    rows = np.asarray(colors).tolist()  # Python ints: no overflow at any rank
    n = len(rows)
    cols = [tuple(rows[w][v] for w in range(n)) for v in range(n)]
    ids: dict[tuple, int] = {}
    out = []
    for u in range(n):
        out_row = []
        for v in range(n):
            sig = sorted(rows[u][w] * rank + cols[v][w] for w in range(n))
            out_row.append(ids.setdefault((rows[u][v], tuple(sig)), len(ids)))
        out.append(out_row)
    return np.array(out, dtype=np.int64), len(ids)


def transpose_closed(colors) -> bool:
    """Whether color(u, v) = color(u', v') always implies color(v, u) =
    color(v', u'), pair by pair."""
    rows = np.asarray(colors).tolist()
    transpose: dict[int, int] = {}
    return all(transpose.setdefault(rows[u][v], rows[v][u]) == rows[v][u]
               for u in range(len(rows)) for v in range(len(rows)))


def first_appearance_oracle(values) -> np.ndarray:
    """values numbered 0, 1, ... by first appearance in a row-major scan,
    one element at a time through a dict."""
    values = np.asarray(values)
    ids: dict[int, int] = {}
    flat = [ids.setdefault(v, len(ids)) for v in values.ravel().tolist()]
    return np.array(flat, dtype=np.int64).reshape(values.shape)


def first_pair(cfg, t: int) -> tuple[int, int]:
    """The first pair (u, v), row-major, of color t."""
    return next((u, v) for u in range(cfg.n) for v in range(cfg.n) if cfg.colors[u, v] == t)


def membership(n: int, pairs) -> np.ndarray:
    """The n x n boolean membership matrix of a set of ordered pairs."""
    mat = np.zeros((n, n), dtype=bool)
    for u, v in pairs:
        mat[u, v] = True
    return mat


def circulant_matrix(row) -> np.ndarray:
    """The m x m matrix whose entry (u, v) is row[(v - u) mod m]."""
    m = len(row)
    return np.array([[row[(v - u) % m] for v in range(m)] for u in range(m)])


def symmetric_connections(m: int):
    """Every connection set on Z_m closed under d -> -d and without 0, as
    boolean vectors: one for each set of distances 1 .. m // 2."""
    for distances in itertools.product((False, True), repeat=m // 2):
        conn = np.zeros(m, dtype=bool)
        for d, present in enumerate(distances, 1):
            conn[[d, -d]] = present
        yield conn


def initial_coloring_oracle(n: int, relations) -> np.ndarray:
    """Initial 2-WL coloring of n x n membership matrices, pair by pair:
    the key of (u, v) is u == v with the membership of (u, v) and of
    (v, u) in every relation; ids follow first appearance in a row-major
    scan."""
    mat = np.zeros((n, n), dtype=np.int64)
    ids: dict[tuple, int] = {}
    for u in range(n):
        for v in range(n):
            key = (
                u == v,
                tuple(bool(rel[u][v]) for rel in relations),
                tuple(bool(rel[v][u]) for rel in relations),
            )
            mat[u, v] = ids.setdefault(key, len(ids))
    return mat


def wreath_product_oracle(inner, outer) -> np.ndarray:
    """Color matrix of the wreath product, assigned fiber block by fiber
    block: point (a, b) is b * inner.n + a; a block inside one fiber holds
    the inner colors tagged with the fiber's diagonal color, a block across
    fibers b != c holds the outer color of (b, c) tagged with the diagonal
    colors of both inner points."""
    ni, no = inner.n, outer.n
    in_mat, out_mat = inner.colors, outer.colors
    in_diag = np.diagonal(in_mat)
    out_diag = np.diagonal(out_mat)
    mat = np.empty((ni * no, ni * no), dtype=np.int64)
    base = inner.rank * outer.rank
    cross = base + (np.add.outer(in_diag * inner.rank, in_diag)) * outer.rank
    for b in range(no):
        rb = slice(b * ni, (b + 1) * ni)
        for c in range(no):
            rc = slice(c * ni, (c + 1) * ni)
            if b == c:
                mat[rb, rc] = out_diag[b] * inner.rank + in_mat
            else:
                mat[rb, rc] = cross + out_mat[b, c]
    return mat


def _color_profile(cfg) -> tuple:
    """Relabeling-invariant summary of the intersection tensor: per color,
    whether it meets the diagonal, its size, whether its first pair's
    transpose has the same color and the sorted counts c_rs^t at that pair."""
    mat = cfg.colors
    n = cfg.n
    diagonal = set(np.diagonal(mat).tolist())
    profiles = []
    for t in range(cfg.rank):
        xs, ys = np.nonzero(mat == t)
        x, y = int(xs[0]), int(ys[0])
        counts: dict[tuple[int, int], int] = {}
        for w in range(n):
            key = (int(mat[x, w]), int(mat[w, y]))
            counts[key] = counts.get(key, 0) + 1
        profiles.append((t in diagonal, len(xs), int(mat[y, x]) == t, tuple(sorted(counts.values()))))
    return tuple(sorted(profiles))


def _search_point_bijection(a, b):
    """Backtracking search for a color-respecting point bijection a -> b."""
    n = a.n
    A, B = a.colors, b.colors
    amap = [-1] * a.rank  # a color -> b color
    bused = [False] * b.rank
    perm = [-1] * n
    used = [False] * n

    def bind(ca: int, cb: int, journal: list[int]) -> bool:
        if amap[ca] == cb:
            return True
        if amap[ca] != -1 or bused[cb]:
            return False
        amap[ca] = cb
        bused[cb] = True
        journal.append(ca)
        return True

    def backtrack(i: int) -> bool:
        if i == n:
            return True
        for w in range(n):
            if used[w]:
                continue
            journal: list[int] = []
            ok = bind(int(A[i, i]), int(B[w, w]), journal)
            if ok:
                for j in range(i):
                    pj = perm[j]
                    if not (
                        bind(int(A[i, j]), int(B[w, pj]), journal)
                        and bind(int(A[j, i]), int(B[pj, w]), journal)
                    ):
                        ok = False
                        break
            if ok:
                perm[i] = w
                used[w] = True
                if backtrack(i + 1):
                    return True
                perm[i] = -1
                used[w] = False
            for ca in journal:
                bused[amap[ca]] = False
                amap[ca] = -1
        return False

    if backtrack(0):
        return tuple(perm)
    return None


class SearchVerdict(NamedTuple):
    """Result of schemes_isomorphic: ISO with a point bijection, or NOT_ISO."""

    kind: str
    witness: tuple[int, ...] | None = None


def schemes_isomorphic(a, b) -> SearchVerdict:
    """Decide isomorphism of two schemes by exhaustive search.

    Point count, rank and the intersection profiles must agree; then a
    backtracking search finds a color-respecting point bijection (the
    witness) or proves there is none.  Exponential: keep n to about 14.
    """
    if a.n != b.n or a.rank != b.rank or _color_profile(a) != _color_profile(b):
        return SearchVerdict(NOT_ISO)
    witness = _search_point_bijection(a, b)
    if witness is None:
        return SearchVerdict(NOT_ISO)
    return SearchVerdict(ISO, witness)


def from_edges_oracle(n: int, edges) -> Graph:
    """from_edges edge by edge: range, loop and duplicate checks in file
    order, with a set of the edges seen so far."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex out of range in edge ({u}, {v})")
        if u == v:
            raise ValueError(f"loop edge ({u}, {v}) not allowed")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add(key)
    adj = np.zeros((n, n), dtype=bool)
    u, v = np.array(list(seen), dtype=np.intp).reshape(-1, 2).T
    adj[u, v] = adj[v, u] = True
    return Graph(adj)


def graph_from_text_oracle(text: str, max_vertices: int | None = None) -> Graph:
    """The graph reader line by line: int_records lexes every line first,
    then the header checks, the vertex limit, and from_edges_oracle with
    the line of the edge it was reading."""
    records = list(int_records(text, "two integers", 2))
    if not records:
        raise ValueError("empty graph file (missing 'n e' header)")
    (lineno, (n, e)), edges = records[0], records[1:]
    if n < 0 or e < 0:
        raise ValueError(f"line {lineno}: negative count in header")
    if len(edges) != e:
        raise ValueError(f"header declares {e} edges but file has {len(edges)}")
    if max_vertices is not None and n > max_vertices:
        raise ValueError(f"graph has {n} vertices, limit is {max_vertices}")
    return build_by_line(lineno, edges, lambda pairs: from_edges_oracle(n, pairs))


def graph_to_text_oracle(g: Graph) -> str:
    """The graph file line by line: the header, then one f-string per edge."""
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def model_to_text_oracle(f: ArcFunction) -> str:
    """The arc-model file line by line."""
    lines = [f"{f.m} {f.n_vertices}"]
    lines.extend(f"{start} {size}" for start, size in f.arcs)
    return "\n".join(lines) + "\n"


def scheme_to_text_oracle(cfg: CoherentConfiguration) -> str:
    """The scheme dump, one str() per color."""
    lines = [f"{cfg.n} {cfg.rank}"]
    lines.extend(" ".join(map(str, row)) for row in cfg.colors.tolist())
    return "\n".join(lines) + "\n"


def model_from_text_oracle(text: str) -> ArcFunction:
    """The arc-model reader line by line: int_records lexes every line
    first, then the header count, then ArcFunction with the line of the
    arc it was reading."""
    records = list(int_records(text, "two integers", 2))
    if not records:
        raise ValueError("empty arc-model file (missing 'm n' header)")
    (lineno, (m, n)), rows = records[0], records[1:]
    if len(rows) != n:
        raise ValueError(f"header declares {n} arcs but file has {len(rows)}")
    return build_by_line(lineno, rows, lambda arcs: ArcFunction(m, arcs))


def lex_product_oracle(outer: Graph, inner: Graph) -> Graph:
    """Lexicographic product edge by edge: (a, b) is a * inner.n + b, and
    (a, b) ~ (c, d) iff a ~ c, or a = c and b ~ d."""
    ni = inner.n
    edges = []
    for a in range(outer.n):
        for c in range(a, outer.n):
            if a == c:
                for b, d in inner.edges():
                    edges.append((a * ni + b, a * ni + d))
            elif outer.adj[a, c]:
                for b in range(ni):
                    for d in range(ni):
                        edges.append((a * ni + b, c * ni + d))
    return from_edges(outer.n * ni, edges)


def intersection_graph_oracle(f: ArcFunction) -> Graph:
    """Intersection graph pair by pair: arcs meet iff one starts inside the other."""
    def meet(u: int, v: int) -> bool:
        su, lu = f.arcs[u]
        sv, lv = f.arcs[v]
        return (sv - su) % f.m < lu or (su - sv) % f.m < lv

    n = f.n_vertices
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if meet(u, v)])


def neighborhood_condition_oracle(g: Graph):
    """The first ordered edge (u, v), row-major, with N(u) inside {v} + N(v),
    on one Python-int bitmask per vertex; None if there is none."""
    mask = [0] * g.n
    for u, v in g.edges():
        mask[u] |= 1 << v
        mask[v] |= 1 << u
    for u in range(g.n):
        for v in range(g.n):
            if mask[u] >> v & 1 and mask[u] & ~(mask[v] | 1 << v) == 0:
                return (u, v)
    return None


def _arc_points(f: ArcFunction, v: int) -> list[int]:
    start, size = f.arcs[v]
    return [(start + i) % f.m for i in range(size)]


def _endpoint_counts(f: ArcFunction) -> Counter:
    """Number of arcs each point is an end-point of; points that are no
    end-point are absent, so there are at most 2n keys whatever m is."""
    return Counter(p for start, size in f.arcs for p in {start, (start + size - 1) % f.m})


def condition_failures_oracle(f: ArcFunction) -> list[str]:
    """Conditions (1) and (2), scanning circle points and vertices in order."""
    failures = []
    counts = _endpoint_counts(f)
    if len(counts) < f.m:
        # at most 2n points are covered, so this scan stops within 2n+1 steps
        uncovered = next(i for i in range(f.m) if i not in counts)
        failures.append(
            f"condition (1): point {uncovered} of Z_{f.m} is not an end-point of any arc"
        )
    small = [v for v in range(f.n_vertices) if f.arcs[v][1] < 2]
    if small:
        failures.append(f"condition (2): arc of vertex {small[0]} has fewer than two points")
    return failures


def reduction_failures_oracle(f: ArcFunction) -> list[str]:
    """Invariants (i), (ii), (iii), pair by pair and point by point."""
    failures = []
    n = f.n_vertices

    def contains(outer: int, inner: int) -> bool:
        so, lo = f.arcs[outer]
        si, li = f.arcs[inner]
        return li <= lo and (si - so) % f.m <= lo - li

    inside = next(((u, v) for u in range(n) for v in range(n) if u != v and contains(v, u)),
                  None)
    if inside is not None:
        failures.append(f"(i): arc of vertex {inside[0]} is contained in arc of vertex "
                        f"{inside[1]}")
    if f.m != n:
        failures.append(f"(ii): circle length {f.m} differs from vertex count {n}")
    counts = _endpoint_counts(f)
    # every point past the 2n end-points has count 0, so this stops early
    bad = next((i for i in range(f.m) if counts[i] != 2), None)
    if bad is not None:
        failures.append(f"(iii): point {bad} is an end-point of {counts[bad]} arcs, not 2")
    return failures


def reduce_oracle(f: ArcFunction) -> ArcFunction:
    """Reduction on one Python-int membership bitmask per circle point.

    Raises the library's ValueError texts for the same inputs; the
    hypotheses (conditions (1), (2), a non-empty graph, (3.1)) and the
    invariants of the result are checked with the oracles above.
    """
    failures = condition_failures_oracle(f)
    if failures:
        raise ValueError(failures[0])
    g = intersection_graph_oracle(f)
    if g.edge_count() == 0:
        raise ValueError("reduction needs a non-empty intersection graph")
    witness = neighborhood_condition_oracle(g)
    if witness is not None:
        raise ValueError(
            f"condition (3.1) violated: neighborhood of {witness[0]} is contained "
            f"in the closed neighborhood of {witness[1]}"
        )
    m, n = f.m, f.n_vertices
    pattern = [0] * m
    for v in range(n):
        for p in _arc_points(f, v):
            pattern[p] |= 1 << v
    classes: dict[int, list[int]] = {}
    for p in range(m):
        classes.setdefault(pattern[p], []).append(p)
    if len(classes) < 2:
        raise ValueError("membership classes cover the whole circle; input inconsistent")
    starts = {}
    for pat, pts in classes.items():
        members = set(pts)
        heads = [p for p in pts if (p - 1) % m not in members]
        if len(heads) != 1:
            raise ValueError("membership class is not a circular interval; input inconsistent")
        starts[pat] = heads[0]
    index_of = {pat: i for i, pat in enumerate(sorted(classes, key=starts.get))}
    new_arcs = [
        (index_of[pattern[f.arcs[v][0]]], len({index_of[pattern[p]] for p in _arc_points(f, v)}))
        for v in range(n)
    ]
    reduced = ArcFunction(len(index_of), new_arcs)
    problems = condition_failures_oracle(reduced) + reduction_failures_oracle(reduced)
    if problems:
        raise ValueError(problems[0])
    return reduced


def degree_check_oracle(rf: ArcFunction) -> bool:
    """deg(v) = 2|f(v)| - 2 vertex by vertex, and on a d-regular graph
    2|f(v)| = d + 2 for every arc, checked separately."""
    g = intersection_graph_oracle(rf)
    if any(g.degree(v) != 2 * size - 2 for v, (_, size) in enumerate(rf.arcs)):
        return False
    degrees = {g.degree(v) for v in range(g.n)}
    return len(degrees) != 1 or all(2 * size == min(degrees) + 2 for _, size in rf.arcs)


def is_regular_equivalent(g: Graph) -> bool:
    """For twin-free non-empty circular-arc graphs, regularity coincides
    with the neighborhood condition; asserts the equivalence and returns
    whether the graph is regular."""
    if g.edge_count() == 0:
        raise ValueError("equivalence requires a non-empty graph")
    if not np.array_equal(twin_relation(g), np.arange(g.n)):
        raise ValueError("equivalence requires a twin-free graph")
    regular = g.is_regular()
    if regular != check_neighborhood_condition(g).ok:
        raise AssertionError(
            "regularity and the neighborhood condition disagree; "
            "input is not a circular-arc graph"
        )
    return regular


def twin_labels_oracle(g: Graph) -> list[int]:
    """Twin classes pair by pair: u and v are twins iff u = v, or they are
    adjacent and agree on every other vertex.  A vertex is labeled by its
    smallest twin, and the labels are then numbered by first appearance."""
    n = g.n

    def twins(u: int, v: int) -> bool:
        return u == v or g.adj[u, v] and all(
            g.adj[u, w] == g.adj[v, w] for w in range(n) if w not in (u, v))

    smallest = [next(v for v in range(n) if twins(u, v)) for u in range(n)]
    ids: dict[int, int] = {}
    return [ids.setdefault(v, len(ids)) for v in smallest]


def twin_labels_product_oracle(g: Graph) -> np.ndarray:
    """Twin labels from one float32 product of closed neighborhoods (the
    library's former twin_relation): N[u] = N[v] exactly when |N[u] & N[v]|
    equals both sizes, exact as every partial sum is an integer below
    2^24.  Each vertex goes to its smallest twin, and as a class's smallest
    vertex is where it first appears, numbering those in sorted order
    numbers the classes by first appearance."""
    closed = (g.adj | np.eye(g.n, dtype=bool)).astype(np.float32)
    overlap = closed @ closed
    size = np.diagonal(overlap)
    twins = (overlap == size[:, None]) & (overlap == size)
    # initial lets a graph of no vertices through
    smallest = np.where(twins, np.arange(g.n), g.n).min(axis=1, initial=g.n)
    return np.unique(smallest, return_inverse=True)[1].reshape(g.n)


def quotient_graph_oracle(g: Graph, labels) -> Graph:
    """The graph on the classes of a labeling whose labels are 0..t-1 (the
    library's former quotient_graph): every edge scattered onto its pair of
    classes, X ~ Y iff some x in X is adjacent to some y in Y, X != Y."""
    labels = np.asarray(labels, dtype=np.intp)
    t = int(labels.max()) + 1 if g.n else 0
    u, v = np.nonzero(g.adj)
    adj = np.zeros((t, t), dtype=bool)
    adj[labels[u], labels[v]] = True
    np.fill_diagonal(adj, False)
    return Graph(adj)


def _pair_counts_oracle(mat: np.ndarray, pair) -> dict:
    """{(r, s): #w with color(x, w) = r and color(w, y) = s}, point by point."""
    x, y = pair
    counts: dict[tuple[int, int], int] = {}
    for w in range(mat.shape[0]):
        key = (int(mat[x, w]), int(mat[w, y]))
        counts[key] = counts.get(key, 0) + 1
    return counts


def verify_oracle(cfg) -> VerifyReport:
    """The scheme axioms with loops over colors and pairs: diagonal colors
    in ascending order, then the pairing of each pair, then one
    refine_step_oracle round and a row-major scan for the first pair whose
    refined color differs from that of its color's first pair."""
    mat = cfg.colors
    n, rank = cfg.n, cfg.rank
    for d in sorted(cfg.diagonal_colors):
        pair = next(((u, v) for u in range(n) for v in range(n)
                     if u != v and mat[u, v] == d), None)
        if pair is not None:
            return VerifyReport(False, "diagonal", (d, pair),
                                f"diagonal color {d} contains off-diagonal pair {pair}")
    transpose: dict[int, int] = {}
    for u in range(n):
        for v in range(n):
            transpose.setdefault(int(mat[u, v]), int(mat[v, u]))
    for u in range(n):
        for v in range(n):
            if transpose[int(mat[u, v])] != mat[v, u]:
                return VerifyReport(
                    False, "pairing", ((u, v), int(mat[u, v]), int(mat[v, u])),
                    f"transpose of color {int(mat[u, v])} is not a single color "
                    f"(witness pair ({u}, {v}))",
                )
    refined, new_rank = refine_step_oracle(mat, rank)
    if new_rank == rank:
        return VerifyReport(True)
    rep_pair: dict[int, tuple[int, int]] = {}
    for u in range(n):
        for v in range(n):
            t = int(mat[u, v])
            first = rep_pair.setdefault(t, (u, v))
            if refined[u, v] != refined[first]:
                c1 = _pair_counts_oracle(mat, first)
                c2 = _pair_counts_oracle(mat, (u, v))
                r, s = next(rs for rs in sorted(set(c1) | set(c2))
                            if c1.get(rs, 0) != c2.get(rs, 0))
                return VerifyReport(
                    False, "intersection", (r, s, t, first, (u, v)),
                    f"c_{{{r},{s}}}^{{{t}}} differs between pairs "
                    f"{first} ({c1.get((r, s), 0)}) and {(u, v)} ({c2.get((r, s), 0)})",
                )
    raise AssertionError("refinement split a color but no pair differs")


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return from_edges(10, edges)


def hypercube3() -> Graph:
    edges = [
        (a, a ^ bit) for a in range(8) for bit in (1, 2, 4) if a < a ^ bit
    ]
    return from_edges(8, edges)


def complete_bipartite(a: int, b: int) -> Graph:
    return from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def torus_4x4() -> Graph:
    def vid(x, y):
        return 4 * x + y

    edges = set()
    for x in range(4):
        for y in range(4):
            for nx, ny in ((x + 1) % 4, y), (x, (y + 1) % 4):
                u, v = vid(x, y), vid(nx, ny)
                edges.add((min(u, v), max(u, v)))
    return from_edges(16, sorted(edges))


def path(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(leaves: int) -> Graph:
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def doubled_points(rng: random.Random, f: ArcFunction) -> ArcFunction:
    """f with some points doubled.  A point that starts one arc and ends
    another may become two points: the first starts those arcs, the second
    ends them.  Every arc keeps the points it held, so the conditions and
    the intersection graph stay those of f, and reduce merges each pair
    again.  Random models rarely have points to merge (m > n); these do."""
    starts = {start for start, _ in f.arcs}
    ends = {(start + size - 1) % f.m for start, size in f.arcs}
    copies = [1 + (p in starts and p in ends and rng.random() < 0.5) for p in range(f.m)]
    first = list(itertools.accumulate([0] + copies))  # new index of each point's first copy
    return ArcFunction(first[-1], [
        (first[start], sum(copies[(start + i) % f.m] for i in range(size)))
        for start, size in f.arcs
    ])


def random_arc_function(rng: random.Random, max_vertices: int = 10) -> ArcFunction:
    """Random valid arc-function: conditions (1) and (2) hold.

    Mixes two families.  Pool pairing seeds the 2n end-point slots with
    all of Z_m before pairing them into arcs, so coverage is forced and m
    can exceed n; pairs giving a singleton or the full circle are
    resampled.  Spread starts puts one arc start on every circle point
    (m = n) with random sizes, which keeps models that satisfy the
    neighborhood condition frequent.
    """
    while True:
        if max_vertices >= 4 and rng.random() < 0.5:
            n = rng.randint(4, max_vertices)
            f = ArcFunction(n, [(i, rng.randint(2, n - 2)) for i in range(n)])
            assert not condition_failures(f)
            return f
        n = rng.randint(2, max_vertices)
        m = rng.randint(3, 2 * n)
        points = list(range(m)) + [rng.randrange(m) for _ in range(2 * n - m)]
        rng.shuffle(points)
        pairs = [(points[2 * i], points[2 * i + 1]) for i in range(n)]
        if any((end - start) % m in (0, m - 1) for start, end in pairs):
            continue
        f = ArcFunction(m, [(start, (end - start) % m + 1) for start, end in pairs])
        assert not condition_failures(f)
        return f
