"""The 2-WL refinement round.

The signature of a pair (u, v) is its old color together with the sorted
multiset of color(u, w) * rank + color(w, v) over all points w.  New
color ids are assigned by first appearance of a signature in a row-major
scan of the pair matrix, so equal partitions give equal matrices.

Signatures are built and sorted in numpy, a block of rows at a time, and
each one is read as a single bytes key.  Two keys are equal exactly when
the signatures are, so the round is exact: no hashing, no randomness.

Sorting and keying scale with the item size, so a signature is held in
the narrowest of int16, int32 and int64 that holds rank * (rank + 1).
No entry can wrap: colors lie in [0, rank), so the old color is below
rank and every product entry is at most (rank - 1) * rank + rank - 1 =
rank**2 - 1.  A key compares the whole signature in any type, so the
numbering is the same in all three.
"""

from __future__ import annotations

import numpy as np

# target size of the signature block built at once, in bytes: a row of
# the block is itemsize * n * (n + 1) bytes, and a block holds as many
# rows as fit, but never fewer than one (one row of 0.64 MB for an int32
# round at n = 400)
_BLOCK_BYTES = 1 << 17

# the signature types, narrowest first, with their largest value
_SIGNATURE_TYPES = [(t, int(np.iinfo(t).max)) for t in (np.int16, np.int32, np.int64)]


def refine_step(colors, rank: int):
    """One refinement round.  Returns (new color matrix, new rank).

    Every color must lie in [0, rank), and rank * (rank + 1) must fit in
    int64; otherwise ValueError.  The returned matrix is int64.
    """
    c = np.asarray(colors, dtype=np.int64)
    n = c.shape[0]
    # one pass: a negative color reads as at least 2**63 in uint64
    if c.size and int(c.view(np.uint64).max()) >= rank:
        raise ValueError(f"colors must lie in [0, {rank}), "
                         f"found {int(c.min())}..{int(c.max())}")
    dt = next((t for t, top in _SIGNATURE_TYPES if rank * (rank + 1) <= top), None)
    if dt is None:
        raise ValueError(f"rank {rank} is too large for int64 signatures")
    c = c.astype(dt, copy=False)
    # rank as a dt scalar, so that numpy 1.x and 2.x keep the product in dt
    scale = dt(rank)
    width = n + 1
    rows = max(1, _BLOCK_BYTES // max(1, c.itemsize * n * width))
    key_type = np.dtype((np.void, c.itemsize * width))
    ids: dict[bytes, int] = {}
    out: list[int] = []
    for start in range(0, n, rows):
        cu = c[start:start + rows]
        # block[u, v] = [c[u, v], c[u, w] * rank + c[w, v] for every w]
        block = np.empty((len(cu), n, width), dtype=dt)
        block[:, :, 0] = cu
        np.add((cu * scale)[:, None, :], c.T, out=block[:, :, 1:])
        block[:, :, 1:].sort(axis=2)
        out.extend(ids.setdefault(key, len(ids))
                   for key in block.view(key_type).ravel().tolist())
    return np.array(out, dtype=np.int64).reshape(n, n), len(ids)
