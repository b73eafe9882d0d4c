"""The 2-WL refinement round, and the numbering of colors by first
appearance.

The signature of a pair (u, v) is its old color together with the sorted
multiset of color(u, w) * rank + color(w, v) over all points w.  New
color ids are assigned by first appearance of a signature in a row-major
scan of the pair matrix, so equal partitions give equal matrices.  That
is the one canonical form of every color matrix in the package:
first_appearance numbers any array by it, and the initial coloring, the
half round, CoherentConfiguration and the twin labels all go through it.

Signatures are built and sorted in numpy, a block of pairs at a time, and
each one is read as a single bytes key.  Two keys are equal exactly when
the signatures are, so the round is exact: no hashing, no randomness.

Half of the pairs suffice.  The coloring must be transpose-closed: a map
t on colors gives color(v, u) = t(color(u, v)) for every pair (the
initial coloring of a closure is, and refine_step checks it in one pass
through a table of t).  The signature of (v, u) is then t(color(u, v))
with the multiset of t(color(w, v)) * rank + t(color(u, w)) over all w,
a function tau of the signature of (u, v).  So the new color of (v, u) is
tau of the new color of (u, v), and the new coloring is transpose-closed
again.  A half round signs the pairs u <= v, then (v, u) at one pair
(u, v) of each new color, which gives tau (any pair of the color gives
the same key), and fills the lower triangle through tau.  It renumbers
the colors by first appearance in the full row-major scan
(first_appearance), and the result is the full round's, bit for bit.

The half round has a fixed cost (index gathers, tau's signatures, the
renumbering) that small rounds, and rounds that end with many colors, do
not earn back.  A round on fewer than HALF_ROUND_MIN_N points, or one
expected to end with n^2 / 8 colors or more, signs all n^2 pairs in
row-major order, which numbers them directly.  The new rank is at least
the old one, and about the square of the number of row classes (a new
color fixes the classes of both of its points), which the row sums tell
apart.  The limits were measured on 2 CPUs: at low rank the half round
breaks even at about 20-24 points; on the first round of the arc-model
graphs (rank 3, row classes by degree) it took 1.12x the full round's
time where n^2 / classes^2 lay in [4, 6), 1.04x in [6, 8), 0.96x in
[8, 12).

Sorting and keying scale with the item size, so a signature is held in
the narrowest of uint16, uint32 and uint64 that holds rank**2 - 1.  No
entry can wrap: colors lie in [0, rank), so the old color is below rank
and every product entry is at most (rank - 1) * rank + rank - 1 =
rank**2 - 1.  A key compares the whole signature in any type, so the
numbering is the same in all three.
"""

from __future__ import annotations

import numpy as np

# target size of the signature block built at once, in bytes: a pair's
# signature is itemsize * (n + 1) bytes, and a block holds as many pairs
# as fit, but never fewer than one
_BLOCK_BYTES = 1 << 17

# the signature types, narrowest first, with their largest value
_SIGNATURE_TYPES = [(t, int(np.iinfo(t).max)) for t in (np.uint16, np.uint32, np.uint64)]

# the smallest n whose rounds sign half of the pairs (see the module docstring)
HALF_ROUND_MIN_N = 32


def _transpose_closed(c: np.ndarray, rank: int) -> bool:
    """Whether color(v, u) is a function of color(u, v)."""
    if c.tobytes() == c.T.tobytes():  # symmetric: the identity (the cheapest test)
        return True
    if rank > c.size:  # renumber, so the table below has at most n^2 entries
        c = first_appearance(c)
        rank = c.size
    colors, transposed = c.ravel(), c.T.ravel()
    transpose = np.empty(rank, dtype=c.dtype)
    transpose[colors] = transposed
    return bool((transpose[colors] == transposed).all())


def _row_blocks(c: np.ndarray, scale):
    """The signatures of all pairs in row-major order, a block of rows at
    a time, as (pairs, n + 1) arrays."""
    n = len(c)
    width = n + 1
    rows = max(1, _BLOCK_BYTES // max(1, c.itemsize * n * width))
    for start in range(0, n, rows):
        cu = c[start:start + rows]
        # block[u, v] = [c[u, v], c[u, w] * rank + c[w, v] for every w]
        block = np.empty((len(cu), n, width), dtype=c.dtype)
        block[:, :, 0] = cu
        np.add((cu * scale)[:, None, :], c.T, out=block[:, :, 1:])
        yield block.reshape(-1, width)


def _pair_blocks(c: np.ndarray, scaled: np.ndarray, transposed: np.ndarray, first, second):
    """The signatures of the pairs (first[i], second[i]), a block of pairs
    at a time; scaled is c * rank and transposed is c.T, contiguous."""
    width = len(c) + 1
    step = max(1, _BLOCK_BYTES // (c.itemsize * width))
    for start in range(0, len(first), step):
        u, v = first[start:start + step], second[start:start + step]
        block = np.empty((len(u), width), dtype=c.dtype)
        block[:, 0] = c[u, v]
        np.add(scaled[u], transposed[v], out=block[:, 1:])
        yield block


def _number(ids: dict, blocks) -> np.ndarray:
    """The ids of the signatures in blocks, each numbered in ids by first
    appearance."""
    out: list[int] = []
    setdefault = ids.setdefault
    for block in blocks:
        block[:, 1:].sort(axis=1)
        keys = block.view(np.dtype((np.void, block.itemsize * block.shape[1]))).ravel().tolist()
        # a list comprehension: the round took 6% less time than with
        # np.fromiter over a generator (arc-model rounds, rank ~ n^2 / 2)
        out += [setdefault(key, len(ids)) for key in keys]
    return np.array(out, dtype=np.int64)


def refine_step(colors, rank: int):
    """One refinement round.  Returns (new color matrix, new rank).

    Every color must lie in [0, rank), rank**2 - 1 must fit in uint64,
    and the coloring must be transpose-closed; otherwise ValueError.  The
    returned matrix is int64.
    """
    c = np.asarray(colors, dtype=np.int64)
    n = c.shape[0]
    # one pass: a negative color reads as at least 2**63 in uint64
    if c.size and int(c.view(np.uint64).max()) >= rank:
        raise ValueError(f"colors must lie in [0, {rank}), "
                         f"found {int(c.min())}..{int(c.max())}")
    for dt, top in _SIGNATURE_TYPES:
        if rank * rank - 1 <= top:
            break
    else:
        raise ValueError(f"rank {rank} is too large for uint64 signatures")
    if not _transpose_closed(c, rank):
        raise ValueError("coloring is not transpose-closed: "
                         "color(v, u) is not a function of color(u, v)")
    c = c.astype(dt)
    # rank as a dt scalar, so that numpy 1.x and 2.x keep the product in dt
    scale = dt(rank)
    if _half_round_pays(c, rank):
        return _half_round(c, scale)
    ids: dict[bytes, int] = {}
    return _number(ids, _row_blocks(c, scale)).reshape(n, n), len(ids)


def _half_round_pays(c: np.ndarray, rank: int) -> bool:
    """Whether the round has at least HALF_ROUND_MIN_N points and should
    end with fewer than n^2 / 8 colors: the new rank is at least the old
    one, and about the square of the number of row classes, as told apart
    by their sums (a new color fixes the classes of both of its points)."""
    n = len(c)
    if n < HALF_ROUND_MIN_N or rank * 8 >= n * n:
        return False
    classes = len(set(c.sum(axis=1).tolist()))
    return classes * classes * 8 < n * n


def _half_round(c: np.ndarray, scale):
    """(new colors, new rank) from the signatures of the pairs u <= v and
    one transposed signature per new color (see the module docstring)."""
    n = len(c)
    first, second = np.triu_indices(n)
    below = first != second
    scaled, transposed = c * scale, np.ascontiguousarray(c.T)
    ids: dict[bytes, int] = {}
    upper = _number(ids, _pair_blocks(c, scaled, transposed, first, second))
    # tau, from the transpose of any one pair of each color
    rep = np.empty(len(ids), dtype=np.intp)
    rep[upper] = np.arange(len(upper))
    tau = _number(ids, _pair_blocks(c, scaled, transposed, second[rep], first[rep]))
    out = np.empty((n, n), dtype=np.int64)
    out[first, second] = upper
    out[second[below], first[below]] = tau[upper[below]]
    return first_appearance(out), len(ids)


def first_appearance(values) -> np.ndarray:
    """The ids 0, 1, ... of the non-negative integers in values, numbered
    by first appearance in a row-major scan, as int64 of the same shape.

    The values are first made dense: through a bincount when all lie
    below the array's size, otherwise through np.unique, so memory never
    depends on how large a value is.  A stable sort of the dense ids then
    lists the positions of each id in scan order, so each id first
    appears where its run starts (uint16 sorts by radix).
    """
    values = np.asarray(values, dtype=np.int64)
    flat = values.ravel()
    if flat.size and int(flat.max()) < flat.size:
        counts = np.bincount(flat)
        present = counts > 0
        dense = (np.cumsum(present) - 1)[flat]
        counts = counts[present]
    else:
        # a 1-d input keeps np.unique's inverse 1-d on every numpy
        _, dense, counts = np.unique(flat, return_inverse=True, return_counts=True)
    rank = len(counts)
    order = np.argsort(dense.astype(np.uint16 if rank <= 1 << 16 else np.int64), kind="stable")
    new = np.empty(rank, dtype=np.int64)
    new[np.argsort(order[np.cumsum(counts) - counts])] = np.arange(rank)
    return new[dense].reshape(values.shape)
