"""The 2-WL refinement round, and the numbering of colors by first
appearance.

The signature of a pair (u, v) is its old color together with the sorted
multiset of color(u, w) * rank + color(w, v) over all points w.  New
color ids are assigned by first appearance of a signature in a row-major
scan of the pair matrix, so equal partitions give equal matrices.  That
is the one canonical form of every color matrix in the package:
first_appearance numbers any array by it, and the initial coloring and
CoherentConfiguration go through it.

Signatures are built and sorted in numpy, a block of pairs at a time
(_row_blocks), and number_rows reads each one as a single bytes key.  Two
keys are equal exactly when the signatures are, so the round is exact: no
hashing, no randomness.

Sorting and keying scale with the item size, so a signature is held in
the narrowest of uint16, uint32 and uint64 that holds rank**2 - 1.  No
entry can wrap: colors lie in [0, rank), so the old color is below rank
and every product entry is at most (rank - 1) * rank + rank - 1 =
rank**2 - 1.  A key compares the whole signature in any type, so the
numbering is the same in all three.

refine_row is the round of a circulant coloring on Z_m, c(u, v) =
row[(v - u) mod m], which circulant_matrix(row) holds as a read-only view
of 2m - 1 entries.  Every round commutes with the rotation u -> u + 1, so
it maps a circulant to a circulant.  The row round is _row_blocks on row 0
of circulant_matrix(row), and row 0 holds every color, so its
first-appearance numbering is the matrix's: the new row is row 0 of
refine_step's result, bit for bit, from m^2 signature entries, not m^3.
"""

from __future__ import annotations

import numpy as np

# target size of the signature block built at once, in bytes: a pair's
# signature is itemsize * (n + 1) bytes, and a block holds as many rows of
# pairs as fit, but never fewer than one
_BLOCK_BYTES = 1 << 17

# the signature types, narrowest first, with their largest value
_SIGNATURE_TYPES = [(t, int(np.iinfo(t).max)) for t in (np.uint16, np.uint32, np.uint64)]

def _row_blocks(c: np.ndarray, scale, rows: int):
    """The signatures of the pairs (u, v) with u < rows in row-major
    order, a block of rows at a time, as (pairs, n + 1) arrays: the old
    color, then the multiset of products, sorted."""
    n = len(c)
    width = n + 1
    step = max(1, _BLOCK_BYTES // max(1, c.itemsize * n * width))
    for start in range(0, rows, step):
        cu = c[start:min(start + step, rows)]
        # block[u, v] = [c[u, v], c[u, w] * rank + c[w, v] for every w]
        block = np.empty((len(cu), n, width), dtype=c.dtype)
        block[:, :, 0] = cu
        np.add((cu * scale)[:, None, :], c.T, out=block[:, :, 1:])
        block = block.reshape(-1, width)
        block[:, 1:].sort(axis=1)
        yield block


def circulant_matrix(row) -> np.ndarray:
    """The m x m matrix row[(v - u) mod m], as a read-only view of 2m - 1
    entries: (u, v) is entry m - 1 + v - u of row[1:] followed by row."""
    row = np.asarray(row)
    m, step = len(row), row.itemsize
    buffer = np.concatenate((row[1:], row)).data.toreadonly()
    # the ndarray constructor on a read-only buffer: about 2 us for m = 12 on
    # a 2-CPU Xeon, against 5 us through as_strided
    return np.ndarray((m, m), row.dtype, buffer, max(m - 1, 0) * step, (-step, step))


def number_rows(ids: dict, blocks) -> np.ndarray:
    """The ids of the rows of blocks, in order, each row numbered in ids by
    first appearance.  A block is a C-contiguous 2-d array, and each of its
    rows is read as one bytes key, so equal ids are exactly equal rows (of
    one dtype and width).  The 2-WL rounds number their signatures with
    it, vertex refinement its rows, graphs.twin_relation the packed
    closed neighborhoods and arcs.reduce the point-membership rows."""
    out: list[int] = []
    setdefault = ids.setdefault
    for block in blocks:
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
    dt = _signature_type(c, rank)
    ids: dict[bytes, int] = {}
    # rank as a dt scalar, so that numpy 1.x and 2.x keep the product in dt
    return number_rows(ids, _row_blocks(c.astype(dt), dt(rank), len(c))).reshape(c.shape), len(ids)


def refine_row(row, rank: int):
    """refine_step's round of circulant_matrix(row), on its row 0 (see the
    module docstring).  Returns (new row, new rank).

    Every color must lie in [0, rank) and rank**2 - 1 must fit in uint64;
    otherwise ValueError.  The returned row is int64.
    """
    c = np.asarray(row, dtype=np.int64)
    if c.ndim != 1:
        raise ValueError(f"row of shape {c.shape}, expected one dimension")
    dt = _signature_type(c, rank)
    ids: dict[bytes, int] = {}
    return number_rows(ids, _row_blocks(circulant_matrix(c.astype(dt)), dt(rank), 1)), len(ids)


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
