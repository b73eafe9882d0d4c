"""Span tracer that wraps arcschemes' public functions from outside.

The tracer replaces every module-level binding of each traced function
with a wrapper that records one span per call: name, start, end, the
index of the enclosing span and the request id.  Spans stay in memory;
the benchmark writes them out when it ends.  Nothing inside the library
is changed, and uninstall() restores every binding it replaced.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "arcschemes"

# layer module -> traced functions, named <module>.<function> in metrics
TRACED = {
    "cli": ("main",),
    "graphs": ("read_graph", "twin_relation", "quotient_graph", "edge_level_partition",
               "count_automorphisms"),
    "arcs": ("read_model", "condition_failures", "intersection_graph",
             "check_neighborhood_condition"),
    "closure": ("closure_of_graph", "coherent_closure"),
    "kernels": ("refine_step",),
    "schemes": ("verify", "schemes_isomorphic", "wreath_product", "dihedral_scheme",
                "scheme_to_text"),
    "characterize": ("decompose_caw", "scheme_decomposition", "is_elementary_caw",
                     "predicted_scheme", "verify_wreath_theorem"),
    "suites": ("run_dihedral_suite", "run_wreath_suite", "run_aut_suite"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


# Notes keep the few facts the derived metrics need from a call.
def _note_refine(args, result):
    return len(args[0])  # n: the round compares n^2 signatures of n pairs each


def _note_closure(args, result):
    return [result.n, result.rank]


def _note_iso(args, result):
    return result.kind


NOTES = {
    "kernels.refine_step": _note_refine,
    "closure.coherent_closure": _note_closure,
    "schemes.schemes_isomorphic": _note_iso,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Collects spans for the calls made while it is installed."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, request id, note]
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []
        self._bindings: list[tuple] | None = None  # (module, attribute, original, wrapper)
        self.originals: dict[str, object] = {}
        self.missing: list[str] = []  # traced names the library no longer has

    def _find_bindings(self) -> list[tuple]:
        modules = _package_modules()
        found = []
        for mod, fns in TRACED.items():
            home = sys.modules.get(f"{PACKAGE}.{mod}")
            for fn in fns:
                name = f"{mod}.{fn}"
                orig = getattr(home, fn, None)
                if not callable(orig):
                    self.missing.append(name)
                    continue
                self.originals[name] = orig
                wrapped = self._wrap(name, orig, NOTES.get(name))
                found += [(m, attr, orig, wrapped) for m in modules
                          for attr, value in vars(m).items() if value is orig]
        return found

    def install(self) -> None:
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for m, attr, _, wrapped in self._bindings:
            setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for m, attr, orig, _ in self._bindings or ():
            setattr(m, attr, orig)

    def unwrapped_bindings(self) -> list[str]:
        """Module attributes that still refer to an original function."""
        originals = {id(f): name for name, f in self.originals.items()}
        return [f"{m.__name__}.{attr} -> {originals[id(value)]}"
                for m in _package_modules()
                for attr, value in vars(m).items() if id(value) in originals]

    def _wrap(self, name, fn, note):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def closures_by_request(spans) -> dict:
    """request id -> [[n, final rank, rounds], ...], one entry per closure."""
    rounds: dict[int, int] = {}
    for name, _, _, parent, _, _ in spans:
        if name == "kernels.refine_step" and parent >= 0 and spans[parent][0] == "closure.coherent_closure":
            rounds[parent] = rounds.get(parent, 0) + 1
    out: dict = {}
    for i, (name, _, _, _, req, note) in enumerate(spans):
        if name == "closure.coherent_closure":
            out.setdefault(req, []).append(note + [rounds.get(i, 0)])
    return out


def layer_metrics(spans, requests: int, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each a (value, unit) pair, averaged per request."""
    if requests < 1:
        raise ValueError("layer metrics need at least one traced request")
    calls = dict.fromkeys(SPAN_NAMES, 0)
    total = dict.fromkeys(SPAN_NAMES, 0.0)
    own_total = dict.fromkeys(SPAN_NAMES, 0.0)
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        calls[name] += 1
        total[name] += span[2] - span[1]
        own_total[name] += own
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name] / requests, "count/req")
        out[f"{name}.ms"] = (total[name] * 1000 / requests, "ms/req")
        out[f"{name}.self_ms"] = (own_total[name] * 1000 / requests, "ms/req")

    closures = [c for cs in closures_by_request(spans).values() for c in cs]
    rounds = sum(c[2] for c in closures)
    signatures = sum(s[5] ** 3 for s in spans if s[0] == "kernels.refine_step")
    verdicts = [s[5] for s in spans if s[0] == "schemes.schemes_isomorphic"]
    definitive = sum(1 for v in verdicts if v in ("iso", "not-iso"))
    out["closure.calls_per_request"] = (len(closures) / requests, "count/req")
    out["closure.rounds_per_closure"] = (rounds / len(closures) if closures else 0.0, "count")
    out["kernels.pair_signatures"] = (signatures / requests, "count/req")
    # ratio of definitive verdicts; its base is schemes.iso_verdicts (0 when no verdict)
    out["schemes.iso_definitive_ratio"] = (definitive / len(verdicts) if verdicts else 0.0, "ratio")
    out["schemes.iso_verdicts"] = (len(verdicts) / requests, "count/req")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
