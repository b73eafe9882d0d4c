#!/usr/bin/env python3
"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

1. The tracer replaces every module binding of each traced function
   (refine_step in closure and schemes, closure_of_graph in cli,
   characterize and suites, ...) and restores them all on uninstall.
2. One traced `decompose` of C_{30,3}[K_3] reports exactly 4 closures.
3. A corrupted output is caught by the checks and counted as an error.
4. The metrics a run reports are the ones BENCHMARK.json declares, with
   the same units.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import CheckError, MembersDecompose, expect  # noqa: E402

SHARED_BINDINGS = (
    ("closure", "refine_step"), ("schemes", "refine_step"), ("kernels", "refine_step"),
    ("cli", "closure_of_graph"), ("characterize", "closure_of_graph"),
    ("suites", "closure_of_graph"),
)


def test_every_binding_wrapped(cli) -> None:
    tr = tracing.Tracer()
    tr.install()
    try:
        left = tr.unwrapped_bindings()
        expect(not left, f"unwrapped bindings: {left}")
        expect(not tr.missing, f"traced functions not found: {tr.missing}")
        for mod, attr in SHARED_BINDINGS:
            value = getattr(sys.modules[f"{run.PACKAGE}.{mod}"], attr)
            expect(hasattr(value, "__wrapped__"), f"{mod}.{attr} is not wrapped")
    finally:
        tr.uninstall()
    wrapped = [f"{m.__name__}.{attr}" for m in tracing._package_modules()
               for attr, value in vars(m).items()
               if callable(value) and hasattr(value, "__wrapped__")]
    expect(not wrapped, f"still wrapped after uninstall: {wrapped}")


def test_four_closures(cli, workdir: Path) -> None:
    members = MembersDecompose()
    req = members._request(random.Random(0), workdir, 0, (30, 3, 3))
    tr = tracing.Tracer()
    rec = run.run_request(members, cli, req, 0, tr)
    expect(rec["error"] is None, rec["error"])
    closures = tracing.closures_by_request(tr.spans)[0]
    expect(len(closures) == 4, f"{len(closures)} closures")
    metrics = tracing.layer_metrics(tr.spans, 1, 1.0)
    expect(metrics["closure.calls_per_request"][0] == 4, "calls_per_request is not 4")


class Corrupting(MembersDecompose):
    """Swaps the labels of vertex 0 and a vertex in another fiber."""

    def execute(self, cli, req):
        result = super().execute(cli, req)
        head, sep, tail = result["out"].partition('"relabeling": "')
        labels, rest = tail.split('"', 1)
        tokens = labels.split()
        fiber = tokens[0].split(":")[1].split(",")[0]
        j = next(i for i, t in enumerate(tokens) if t.split(":")[1].split(",")[0] != fiber)
        lab0, labj = tokens[0].split(":")[1], tokens[j].split(":")[1]
        tokens[0], tokens[j] = f"0:{labj}", f"{j}:{lab0}"
        result["out"] = head + sep + " ".join(tokens) + '"' + rest
        return result


def test_corrupted_output_counted(cli, workdir: Path) -> None:
    members = MembersDecompose()
    req = members._request(random.Random(0), workdir, 1, (12, 3, 3))
    records = [run.run_request(members, cli, req, 0),
               run.run_request(Corrupting(), cli, req, 1)]
    expect(records[0]["error"] is None, records[0]["error"])
    expect("relabeling fails" in (records[1]["error"] or ""), records[1]["error"])
    metrics, _ = run.end_to_end(members, records, [1.0])
    expect(metrics["success_rate"][0] == 0.5, f"success rate {metrics['success_rate'][0]}")


def test_metrics_match_benchmark_json(cli, workdir: Path) -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    record = {"latency_ms": 1.0, "error": None}
    reported = {
        "end_to_end": run.end_to_end(MembersDecompose(), [record], [1.0])[0],
        "per_layer": tracing.layer_metrics([], 1, 1.0),
    }
    for kind, metrics in reported.items():
        want = {m["name"]: m["unit"] for m in declared[kind]}
        got = {name: unit for name, (_, unit) in metrics.items()}
        expect(got == want, f"{kind}: {sorted(set(got.items()) ^ set(want.items()))} differ")


def main() -> int:
    workdir = run.OUT / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli = run.import_package()
        failures = 0
        for test, args in ((test_every_binding_wrapped, (cli,)),
                           (test_four_closures, (cli, workdir)),
                           (test_corrupted_output_counted, (cli, workdir)),
                           (test_metrics_match_benchmark_json, (cli, workdir))):
            try:
                test(*args)
                print(f"PASS {test.__name__}")
            except CheckError as exc:
                failures += 1
                print(f"FAIL {test.__name__}: {exc}")
        return 1 if failures else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
