"""The 2-WL refinement round.

The signature of a pair (u, v) is its old color together with the sorted
multiset of color(u, w) * rank + color(w, v) over all points w.  New
color ids are assigned by first appearance of a signature in a row-major
scan of the pair matrix, so equal partitions give equal matrices.

Signatures are built and sorted in numpy, a block of rows at a time, and
each one is read as a single bytes key.  Two keys are equal exactly when
the signatures are, so the round is exact: no hashing, no randomness.
"""

from __future__ import annotations

import numpy as np

# target size of the signature block built at once, in bytes: a block
# holds as many rows as fit, but never fewer than one, so for n >= 128 it
# is a single row of 8 * n * (n + 1) bytes (1.3 MB at n = 400)
_BLOCK_BYTES = 1 << 17


def refine_step(colors, rank: int):
    """One refinement round.  Returns (new color matrix, new rank)."""
    c = np.asarray(colors, dtype=np.int64)
    n = c.shape[0]
    width = n + 1
    rows = max(1, _BLOCK_BYTES // (8 * width * width))
    key_type = np.dtype((np.void, 8 * width))
    ids: dict[bytes, int] = {}
    out: list[int] = []
    for start in range(0, n, rows):
        cu = c[start:start + rows]
        # block[u, v] = [c[u, v], c[u, w] * rank + c[w, v] for every w];
        # entries stay below rank**2 <= n**4, exact in int64 while n < 55000
        block = np.empty((len(cu), n, width), dtype=np.int64)
        block[:, :, 0] = cu
        np.add((cu * rank)[:, None, :], c.T, out=block[:, :, 1:])
        block[:, :, 1:].sort(axis=2)
        out.extend(ids.setdefault(key, len(ids))
                   for key in block.view(key_type).ravel().tolist())
    return np.array(out, dtype=np.int64).reshape(n, n), len(ids)
