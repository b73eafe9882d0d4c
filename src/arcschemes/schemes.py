"""Coherent configurations as verified partitions of V x V.

A configuration is stored as an n x n color matrix in canonical form:
color ids follow first appearance in a row-major scan, so color 0 is
always the diagonal color of point 0 and two equal partitions get equal
matrices.  All values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import circular_distances, int_records
from .kernels import first_appearance, refine_step

ISO = "iso"
NOT_ISO = "not-iso"


class CoherentConfiguration:
    """Partition of V x V given by its canonical color matrix.

    The constructor only canonicalizes the colors (kernels.first_appearance,
    the package's one numbering rule) and records the diagonal colors;
    sizes and pairing are computed from the matrix on access.
    Whether the partition satisfies the scheme axioms is decided by
    verify(), which reports the first violation instead of raising.
    """

    __slots__ = ("n", "colors", "rank", "diagonal_colors")

    def __init__(self, colors):
        colors = np.ascontiguousarray(colors, dtype=np.int64)
        if colors.ndim != 2 or colors.shape[0] != colors.shape[1]:
            raise ValueError("color matrix must be square")
        if colors.shape[0] == 0:
            raise ValueError("configuration needs at least one point")
        if colors.min() < 0:
            raise ValueError("colors must be non-negative integers")
        colors = first_appearance(colors)
        colors.flags.writeable = False
        self.n = colors.shape[0]
        self.colors = colors
        self.rank = int(colors.max()) + 1
        self.diagonal_colors = frozenset(np.diagonal(colors).tolist())

    @property
    def sizes(self) -> tuple[int, ...]:
        """Number of pairs of each color."""
        return tuple(np.bincount(self.colors.ravel(), minlength=self.rank).tolist())

    @property
    def pairing(self) -> tuple[int, ...]:
        """Color of (v, u) for the first pair (u, v) of each color."""
        _, first = np.unique(self.colors.ravel(), return_index=True)
        return tuple(self.colors.T.ravel()[first].tolist())

    def __eq__(self, other):
        return (
            isinstance(other, CoherentConfiguration)
            and self.n == other.n
            and np.array_equal(self.colors, other.colors)
        )

    def __hash__(self):
        return hash((self.n, self.rank, self.colors.tobytes()))

    def __repr__(self):
        return f"CoherentConfiguration(n={self.n}, rank={self.rank})"


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of the exhaustive axiom check."""

    ok: bool
    problem: str | None = None  # "diagonal" | "pairing" | "intersection"
    witness: tuple | None = None
    message: str = "ok"

    def __bool__(self) -> bool:
        return self.ok


def verify(cfg: CoherentConfiguration) -> VerifyReport:
    """Exhaustively check the scheme axioms.

    Checks, in order: diagonal colors contain no off-diagonal pair; the
    transpose map is a well-defined involution on colors; and the
    intersection numbers c_rs^t are independent of the representative of
    t.  Each witness is the first violation: the smallest bad diagonal
    color with its first off-diagonal pair in row-major order; the first
    pair whose transpose breaks the pairing; and for the last check
    (r, s, t, (v, u), (v', u')), where (v', u') is the first pair whose
    refined color differs from that of (v, u), the first pair of its
    color t, and (r, s) the smallest key whose counts differ.
    """
    mat = cfg.colors
    n = cfg.n

    stray = ~np.eye(n, dtype=bool) & np.isin(mat, np.diagonal(mat))
    if stray.any():
        d = int(mat[stray].min())
        witness = (d, divmod(int(np.argmax(stray & (mat == d))), n))
        return VerifyReport(
            False, "diagonal", witness,
            f"diagonal color {d} contains off-diagonal pair {witness[1]}",
        )

    p = np.array(cfg.pairing, dtype=np.int64)
    if not np.array_equal(p[mat], mat.T):
        bad = np.nonzero(p[mat] != mat.T)
        u, v = int(bad[0][0]), int(bad[1][0])
        return VerifyReport(
            False, "pairing", ((u, v), int(mat[u, v]), int(mat[v, u])),
            f"transpose of color {int(mat[u, v])} is not a single color "
            f"(witness pair ({u}, {v}))",
        )

    refined, new_rank = refine_step(mat, cfg.rank)
    if new_rank != cfg.rank:
        # the signature keeps the old color, so a split color has a pair
        # whose refined color differs from that of the color's first pair,
        # and the two pairs differ in the count of some (r, s)
        colors, refined = mat.ravel(), refined.ravel()
        _, first = np.unique(colors, return_index=True)
        second = int(np.argmax(refined != refined[first[colors]]))
        t = int(colors[second])
        pairs = [divmod(int(first[t]), n), divmod(second, n)]
        keys, counts = _pair_counts(mat, pairs)
        i = int(np.argmax(counts[0] != counts[1]))
        r, s = keys[i].tolist()
        c1, c2 = counts[:, i].tolist()
        return VerifyReport(
            False, "intersection", (r, s, t, *pairs),
            f"c_{{{r},{s}}}^{{{t}}} differs between pairs "
            f"{pairs[0]} ({c1}) and {pairs[1]} ({c2})",
        )

    return VerifyReport(True)


def _pair_counts(mat: np.ndarray, pairs):
    """The keys (r, s), ascending, that some pair (x, y) of pairs has as
    (color(x, w), color(w, y)) for a point w, as a k x 2 array, and the
    len(pairs) x k array of how many points w give each key at each pair.
    Counted with np.unique, so memory grows with n, never with the rank."""
    x, y = np.array(pairs).T
    keys = np.stack([mat[x], mat[:, y].T], axis=2).reshape(-1, 2)
    keys, which = np.unique(keys, axis=0, return_inverse=True)
    cell = np.repeat(np.arange(len(pairs)), mat.shape[0]) * len(keys) + which.reshape(-1)
    return keys, np.bincount(cell, minlength=len(pairs) * len(keys)).reshape(len(pairs), -1)


def is_association(cfg: CoherentConfiguration) -> bool:
    """True iff the diagonal is a single basic relation."""
    return len(cfg.diagonal_colors) == 1


def dihedral_scheme(n: int) -> CoherentConfiguration:
    """Orbit scheme of the dihedral group on Z_n: colors are circular distances.

    Rank is floor(n/2) + 1.  Its colors are the orbits of the dihedral
    group on pairs, so it is coherent.
    """
    if n < 3:
        raise ValueError("dihedral scheme needs n >= 3")
    return CoherentConfiguration(circular_distances(n))


def is_fusion_of(coarse: CoherentConfiguration, fine: CoherentConfiguration) -> bool:
    """True iff every color of coarse is a union of colors of fine.

    That holds exactly when each fine color meets one coarse color, that
    is when there are fine.rank distinct (fine, coarse) color pairs.
    """
    if coarse.n != fine.n:
        raise ValueError("point-count mismatch")
    pairs = fine.colors.ravel() * coarse.rank + coarse.colors.ravel()
    return len(np.unique(pairs)) == fine.rank


def identity_verdict(
    actual: CoherentConfiguration, expected: CoherentConfiguration, case: str
) -> str:
    """Decide isomorphism of two schemes on one point order, without search.

    Equal matrices give ISO, with the identity as the witness; a different
    point count or rank gives NOT_ISO, since an isomorphism keeps both.
    Callers pass an actual that the theory makes a fusion of expected, and
    a fusion of equal rank is equal, so the remaining case is a library bug
    or a counterexample to that theory: AssertionError naming the case.
    """
    if actual == expected:
        return ISO
    if actual.n != expected.n or actual.rank != expected.rank:
        return NOT_ISO
    raise AssertionError(f"{case}: equal rank {actual.rank} but a different partition")


# ---------------------------------------------------------------------------
# Scheme dump format: "n rank" header, then n rows of n color indices.


def scheme_to_text(cfg: CoherentConfiguration) -> str:
    """The dump, formatted by one %d template per block of rows.  A block
    holds at most 2^16 colors, so only its Python ints are alive at a time:
    a dump of thousands of points needs little more memory than its text."""
    n = cfg.n
    step = max(1, (1 << 16) // n)
    row = " ".join(["%d"] * n) + "\n"
    blocks = [cfg.colors[i:i + step] for i in range(0, n, step)]
    return "%d %d\n" % (n, cfg.rank) + "".join(
        [(row * len(block)) % tuple(block.ravel().tolist()) for block in blocks])


def scheme_from_text(text: str) -> CoherentConfiguration:
    records = int_records(text, "integers")
    header = next(records, None)
    if header is None:
        raise ValueError("empty scheme file (missing 'n rank' header)")
    lineno, values = header
    if len(values) != 2:
        raise ValueError(f"line {lineno}: expected 'n rank' header")
    n, rank = values
    if n < 1:
        raise ValueError(f"line {lineno}: a scheme needs at least one point")
    if rank > n * n:
        # also keeps every accepted color inside int64
        raise ValueError(f"line {lineno}: header declares rank {rank} but {n} points "
                         f"have {n * n} pairs")
    rows = list(records)
    if len(rows) != n:
        raise ValueError(f"header declares {n} rows but file has {len(rows)}")
    for lineno, values in rows:
        if len(values) != n:
            raise ValueError(f"line {lineno}: expected {n} colors, got {len(values)}")
        for c in values:
            if not 0 <= c < rank:
                raise ValueError(f"line {lineno}: color {c} outside 0..{rank - 1}")
    cfg = CoherentConfiguration([values for _, values in rows])
    if cfg.rank != rank:
        raise ValueError(f"header declares rank {rank} but matrix uses {cfg.rank} colors")
    return cfg


def read_scheme(path) -> CoherentConfiguration:
    with open(path, "r", encoding="utf-8") as fh:
        return scheme_from_text(fh.read())
