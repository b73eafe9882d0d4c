"""Command-line surface.

Subcommands: gen (graph generators), closure (scheme of a graph),
decompose (certificate for the characterized class), arcs (arc-model
operations) and verify (sweep suites).  Exit codes are a stable contract:
0 for success or a certificate, 1 for a negative mathematical result,
2 for input or usage errors.  A command returns 0 or 1 and raises on
error; main alone turns an exception into an exit code, by its type:
arcs.NeighborhoodConditionError (a model whose graph has no edge or
violates condition (3.1): reduce does not apply) gives 1, and any other
OSError or ValueError gives 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import arcs as arcmod
from . import suites
from .characterize import decompose_caw, predicted_aut_order, scheme_decomposition
from .closure import closure_of_graph
from .graphs import (
    complete,
    cycle,
    elementary_caw,
    empty_graph,
    graph_to_text,
    lex_product,
    read_graph,
    VertexLimitError,
)
from .schemes import ISO, CoherentConfiguration, is_association, scheme_to_text

DEFAULT_CLOSURE_LIMIT = 200


def _limit(args) -> int:
    """The size limit of a command: --limit, then CAW_LIMIT, then
    DEFAULT_CLOSURE_LIMIT.  verify takes none: its bound is its own."""
    if args.limit is not None:
        return args.limit
    env = os.environ.get("CAW_LIMIT")
    if env is None:
        return DEFAULT_CLOSURE_LIMIT
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"invalid CAW_LIMIT value {env!r}") from None


_GENERATORS = {  # family: (parameter count, builder); the first parameter is the vertex count
    "cnk": (2, elementary_caw),
    "cycle": (1, cycle),
    "complete": (1, complete),
    "empty": (1, empty_graph),
    "mkn": (2, None),  # mkn:M:N is lex empty:M complete:N
}


def _parse_gen_spec(spec: str):
    """Family spec strings like cnk:7:2, cycle:5, complete:3, empty:4, mkn:3:2.
    Returns the vertex count and a function that builds the graph, so the
    count can be checked before anything is built."""
    family, *args = spec.split(":")
    try:
        nums = [int(x) for x in args]
    except ValueError:
        raise ValueError(f"non-integer parameter in spec {spec!r}") from None
    if family not in _GENERATORS or len(nums) != _GENERATORS[family][0]:
        raise ValueError(f"unknown generator spec {spec!r}")
    if min(nums) < 0:
        raise ValueError(f"negative parameter in spec {spec!r}")
    if family == "mkn":
        m, n = nums
        return _product((m, lambda: empty_graph(m)), (n, lambda: complete(n)))
    return nums[0], lambda: _GENERATORS[family][1](*nums)


def _product(outer, inner):
    """The lexicographic product of two (vertex count, build) pairs.  Both
    factors are built too, so an empty factor must not hide a large one."""
    (n_outer, build_outer), (n_inner, build_inner) = outer, inner
    return (max(n_outer, n_inner, n_outer * n_inner),
            lambda: lex_product(build_outer(), build_inner()))


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _render_report(report: dict, fmt: str, timing_ms: float | None) -> str:
    if timing_ms is not None:
        report = dict(report, **{"timing-ms": round(timing_ms, 3)})
    if fmt == "machine":
        return json.dumps(report, sort_keys=True) + "\n"
    return "".join(f"{key}: {value}\n" for key, value in report.items())


def _scheme_summary(path: str, cc: CoherentConfiguration) -> dict:
    """The summary keys closure and decompose reports open with."""
    return {
        "input": path,
        "n": cc.n,
        "rank": cc.rank,
        "association": is_association(cc),
        "diagonal-colors": len(cc.diagonal_colors),
    }


def _render_table(rows: list[dict]) -> str:
    width = max((len(r["case"]) for r in rows), default=4)
    lines = [f"{r['case']:<{width}}  {r['status']:<4}  {r['detail']}" for r in rows]
    return "\n".join(lines) + "\n"


def cmd_gen(args) -> int:
    limit = _limit(args)
    try:
        if args.family == "lex":
            if len(args.params) != 2:
                raise ValueError("lex takes two generator specs, e.g. cnk:5:1 complete:2")
            n, build = _product(*map(_parse_gen_spec, args.params))
        else:
            n, build = _parse_gen_spec(":".join([args.family] + args.params))
        if n > limit:
            raise VertexLimitError(n, limit)
        g = build()
    except VertexLimitError:
        raise  # a valid spec over the limit needs no usage line
    except ValueError as exc:
        raise ValueError(
            f"{exc}\nusage: gen {{cnk N K | cycle N | complete N | mkn M N | lex SPEC SPEC}}"
        ) from None
    _emit(graph_to_text(g), args.output)
    return 0


def cmd_closure(args) -> int:
    limit = _limit(args)
    try:
        g = read_graph(args.graph, max_vertices=limit)  # checked before the graph is built
    except VertexLimitError as exc:
        raise ValueError(f"graph has {exc.n} vertices, closure limit is {limit}") from None
    start = time.perf_counter()
    cc = closure_of_graph(g)
    elapsed = (time.perf_counter() - start) * 1000
    if args.output:
        _emit(scheme_to_text(cc), args.output)
    report = _scheme_summary(args.graph, cc)
    sys.stdout.write(_render_report(report, args.format, None if args.no_timing else elapsed))
    return 0


def cmd_decompose(args) -> int:
    g = read_graph(args.graph, max_vertices=_limit(args))
    start = time.perf_counter()
    outcome = decompose_caw(g)
    report = _scheme_summary(args.graph, outcome.scheme)
    # absent results are encoded explicitly so every report carries all keys
    report.update({
        "certificate": "none",
        "relabeling": "none",
        "predicted-aut-order": "none",
        "scheme-decomposition": "none",
        "scheme-verdict": "none",
        "failure-stage": "none",
    })
    if outcome.ok:
        cert = outcome.certificate
        report["certificate"] = f"m={cert.m} k={cert.k} r={cert.r}"
        report["relabeling"] = " ".join(f"{v}:{p // cert.r},{p % cert.r}"
                                        for v, p in enumerate(cert.points))
        report["predicted-aut-order"] = predicted_aut_order(cert.m, cert.k, cert.r)
        outer = scheme_decomposition(outcome)  # raises unless the closure is the prediction
        report["scheme-decomposition"] = f"rank2({cert.r}) wr {outer}({cert.m})"
        report["scheme-verdict"] = ISO
    else:
        report["failure-stage"] = outcome.failure_stage
    elapsed = (time.perf_counter() - start) * 1000
    sys.stdout.write(_render_report(report, args.format, None if args.no_timing else elapsed))
    return 0 if outcome.ok else 1


def cmd_arcs(args) -> int:
    limit = _limit(args)
    model = arcmod.read_model(args.model)
    if model.n_vertices > limit:
        raise ValueError(f"model has {model.n_vertices} arcs, limit is {limit}")

    if args.action == "check":
        def rows_for(labels, failures, prefix=""):
            """A row per label, failed by the first failure that starts with it."""
            found = [next((f for f in failures if f.startswith(label)), "") for label in labels]
            return [suites.row(prefix + label, not msg, msg) for label, msg in zip(labels, found)]

        failures = arcmod.condition_failures(model)
        rows = rows_for(("condition (1)", "condition (2)"), failures)
        if not failures:
            g = arcmod._intersection_graph(model)  # the conditions were just checked
            check = arcmod.check_neighborhood_condition(g)
            rows.append(suites.row("condition (3.1)", check.ok,
                                   "" if check.ok else f"witness edge {check.witness}"))
            rows += rows_for(("(i)", "(ii)", "(iii)"), arcmod.reduction_failures(model), "reduced ")
        sys.stdout.write(_render_table(rows))
        return 0 if all(r["status"] == "pass" for r in rows) else 1

    if args.action == "graph":
        text = graph_to_text(arcmod.intersection_graph(model))
    else:
        text = arcmod.model_to_text(arcmod.reduce(model))
    _emit(text, args.output)
    return 0


# verify's bound when none is given (--limit and CAW_LIMIT do not set it);
# all stays at 12, where perfbench's verify-sweep workload expects
# aut_cases(min(bound, 12)) rows (see suites.run)
_VERIFY_BOUNDS = {"dihedral": 30, "wreath": 24, "aut": 30, "all": 12}


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else 0
    bound = args.bound if args.bound is not None else _VERIFY_BOUNDS[args.suite]
    if bound < 2:
        raise ValueError(f"verify bound must be at least 2, got {bound}")
    start = time.perf_counter()
    tables = suites.run(args.suite, bound, seed=seed)
    elapsed = (time.perf_counter() - start) * 1000
    ok_all = True
    if args.format == "machine":
        doc = {name: rows for name, (rows, _ok) in tables.items()}
        doc["ok"] = all(ok for _, ok in tables.values())
        if not args.no_timing:
            doc["timing-ms"] = round(elapsed, 3)
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
        ok_all = doc["ok"]
    else:
        for name, (rows, ok) in tables.items():
            sys.stdout.write(f"== {name} ==\n")
            sys.stdout.write(_render_table(rows))
            ok_all &= ok
        sys.stdout.write(f"result: {'pass' if ok_all else 'FAIL'}\n")
        if not args.no_timing:
            sys.stdout.write(f"timing-ms: {elapsed:.3f}\n")
    return 0 if ok_all else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once and shared by every main() call.
    Building it takes about 0.9 ms on a 2-CPU Xeon, and argparse objects
    refer to each other, so a parser per call also leaves cyclic garbage."""
    parser = argparse.ArgumentParser(
        prog="arcschemes",
        description="Coherent closure, circular-arc models and decomposition certificates.",
    )
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    parser.add_argument("--no-timing", action="store_true",
                        help="omit timing fields (for golden-file comparisons)")
    parser.add_argument("--limit", type=int, default=None,
                        help="size limit override (default from CAW_LIMIT or built-in)")
    parser.add_argument("--seed", type=int, default=None, help="seed for random sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("family", choices=("cnk", "cycle", "complete", "mkn", "lex"))
    p.add_argument("params", nargs="*", help="family parameters")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("closure", help="compute the scheme of a graph")
    p.add_argument("graph")
    p.add_argument("-o", "--output", default=None, help="write the scheme dump here")
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("decompose", help="decompose into C_{m,k}[K_r] if possible")
    p.add_argument("graph")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("arcs", help="operate on an arc-model file")
    p.add_argument("model")
    p.add_argument("action", choices=("graph", "reduce", "check"))
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_arcs)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("suite", choices=("dihedral", "wreath", "aut", "all"))
    p.add_argument("bound", nargs="?", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, arcmod.NeighborhoodConditionError) else 2


if __name__ == "__main__":
    sys.exit(main())
