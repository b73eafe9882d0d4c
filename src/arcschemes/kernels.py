"""The 2-WL refinement round, and the numbering of colors by first
appearance.

The signature of a pair (u, v) is its old color together with the sorted
multiset of color(u, w) * rank + color(w, v) over all points w.  New
color ids are assigned by first appearance of a signature in a row-major
scan of the pair matrix, so equal partitions give equal matrices.  That
is the one canonical form of every color matrix in the package:
first_appearance numbers any array by it, and the initial coloring,
CoherentConfiguration and the twin labels all go through it.

Signatures are built and sorted in numpy, a block of pairs at a time, and
each one is read as a single bytes key.  Two keys are equal exactly when
the signatures are, so the round is exact: no hashing, no randomness.

Sorting and keying scale with the item size, so a signature is held in
the narrowest of uint16, uint32 and uint64 that holds rank**2 - 1.  No
entry can wrap: colors lie in [0, rank), so the old color is below rank
and every product entry is at most (rank - 1) * rank + rank - 1 =
rank**2 - 1.  A key compares the whole signature in any type, so the
numbering is the same in all three.

refine_row is the round of a circulant coloring on Z_m, c(u, v) =
row[(v - u) mod m], given by its row at 0.  The rotation u -> u + 1 is an
automorphism of such a coloring, and every round commutes with it, so the
signature of (u, v) is that of (0, v - u): row[v] with the sorted
row[w] * rank + row[(v - w) mod m] over all w.  That is m + 1 entries for
each of the m pairs (0, v), m^2 per round in place of m^3.  Row 0 holds
every color of a circulant, so numbering its signatures by first
appearance along the row is the row-major numbering of the full matrix:
the new row is row 0 of refine_step's result, bit for bit.  refine_step
stays the only round on n x n matrices.
"""

from __future__ import annotations

import numpy as np

# target size of the signature block built at once, in bytes: a pair's
# signature is itemsize * (n + 1) bytes, and a block holds as many pairs
# as fit, but never fewer than one
_BLOCK_BYTES = 1 << 17

# the signature types, narrowest first, with their largest value
_SIGNATURE_TYPES = [(t, int(np.iinfo(t).max)) for t in (np.uint16, np.uint32, np.uint64)]

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


def _circulant_blocks(row: np.ndarray, scale):
    """The signatures of the pairs (0, v) of the circulant coloring of row,
    in the order of v, a block of pairs at a time, as (pairs, m + 1)
    arrays."""
    m = len(row)
    width = m + 1
    step = max(1, _BLOCK_BYTES // (row.itemsize * width))
    # over w = -u, the products row[w] * rank + row[(v - w) mod m] are
    # row[-u] * rank + row[(v + u) mod m]; np.resize repeats row from v on
    # in rows of m + 1 entries, so entry (v, u) of the result is row[(v + u)
    # mod m], and the multiset, hence the sorted signature, is the same
    scaled = (row * scale)[-np.arange(m)]
    ext = np.concatenate([row, row])
    for start in range(0, m, step):
        count = min(step, m - start)
        block = np.empty((count, width), dtype=row.dtype)
        block[:, 0] = row[start:start + count]
        np.add(scaled, np.resize(ext[start:start + m], (count, width))[:, :m], out=block[:, 1:])
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

    Every color must lie in [0, rank) and rank**2 - 1 must fit in uint64;
    otherwise ValueError.  The returned matrix is int64.
    """
    c = np.asarray(colors, dtype=np.int64)
    n = c.shape[0]
    dt = _signature_type(c, rank)
    ids: dict[bytes, int] = {}
    # rank as a dt scalar, so that numpy 1.x and 2.x keep the product in dt
    return _number(ids, _row_blocks(c.astype(dt), dt(rank))).reshape(n, n), len(ids)


def refine_row(row, rank: int):
    """One refinement round of the circulant coloring c(u, v) = row[(v - u)
    mod m] (see the module docstring).  Returns (new row, new rank); the
    new coloring is the circulant of the new row.

    Every color must lie in [0, rank) and rank**2 - 1 must fit in uint64;
    otherwise ValueError.  The returned row is int64.
    """
    c = np.asarray(row, dtype=np.int64)
    if c.ndim != 1:
        raise ValueError(f"row of shape {c.shape}, expected one dimension")
    dt = _signature_type(c, rank)
    ids: dict[bytes, int] = {}
    return _number(ids, _circulant_blocks(c.astype(dt), dt(rank))), len(ids)


def _signature_type(c: np.ndarray, rank: int):
    """The narrowest of _SIGNATURE_TYPES that holds rank**2 - 1, for int64
    colors c; ValueError if a color lies outside [0, rank) or no type
    holds it."""
    # one pass: a negative color reads as at least 2**63 in uint64
    if c.size and int(c.view(np.uint64).max()) >= rank:
        raise ValueError(f"colors must lie in [0, {rank}), "
                         f"found {int(c.min())}..{int(c.max())}")
    for dt, top in _SIGNATURE_TYPES:
        if rank * rank - 1 <= top:
            return dt
    raise ValueError(f"rank {rank} is too large for uint64 signatures")


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
