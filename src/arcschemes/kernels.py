"""Kernel backend selection.

The compiled refinement round (arcschemes._refine_cy, built by setup.py)
is used when it can be imported; otherwise the pure-Python twin takes
over.  available_backends() reaches both, e.g. for parity tests and
benchmarks/bench_refine.py.
"""

from __future__ import annotations

from . import _refine_py

try:
    from . import _refine_cy as _backend
except ImportError:
    _backend = _refine_py

refine_step = _backend.refine_step
BACKEND: str = _backend.BACKEND


def available_backends() -> dict[str, object]:
    """Name -> module for every importable backend."""
    out: dict[str, object] = {"pure": _refine_py}
    try:
        from . import _refine_cy

        out["cython"] = _refine_cy
    except ImportError:
        pass
    return out
