#!/usr/bin/env python3
"""arcschemes benchmark: CLI workloads with end-to-end and per-layer metrics.

One run measures one workload in its own process.  Requests go through
arcschemes.cli.main in-process, one at a time (a closed loop with one
client), and every output is checked.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload members-decompose --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, untraced and traced, seed 1

--trace 0 reports the end-to-end metrics; --trace 1 wraps the library's
public functions from outside and reports the per-layer metrics.  Seed 1
is the primary seed and seed 2 the holdout: a gain claimed on seed 1
must also hold on seed 2.  Records and spans are written under
.bench_build/perfbench/ in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
PACKAGE = "arcschemes"

PRIMARY_SEED = 1
HOLDOUT_SEED = 2
DEFAULT_SECONDS = 30
# The host's speed shifts by up to 1.6x for minutes at a time, so set-up
# is timed before the first pass and again after every pass: its median
# then spans the run, like the request metrics, instead of one moment.
SETUP_REPEATS = 3
SETUP_REPEATS_PER_PASS = 2
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_package():
    """Import arcschemes afresh from the checkout's src/ and return its cli module."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(f"{PACKAGE}.cli")
    where = Path(sys.modules[PACKAGE].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"{PACKAGE} imported from {where}, not from {SRC}")
    return cli


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed(workload, cli, req):
    """Execute one request; return (ms, result), result being the traceback text on error."""
    start = time.perf_counter()
    try:
        result = workload.execute(cli, req)
    except Exception:  # a crash inside the library is a failed request, not a dead run
        result = traceback.format_exc()
    return (time.perf_counter() - start) * 1000, result


def checked(workload, req, result) -> tuple[dict | None, str | None]:
    """(info, None) when the output is right, (None, reason) otherwise."""
    if isinstance(result, str):
        return None, result.strip().splitlines()[-1]
    try:
        return workload.check(req, result), None
    except Exception as exc:  # malformed output fails the request, whatever it raises
        return None, f"{type(exc).__name__}: {exc}"


def run_request(workload, cli, req, idx: int, tracer=None) -> dict:
    """One request, checked.  With a tracer the request runs twice, untraced
    and traced, so the two times pair up; the order alternates between
    requests because a repeat runs a little faster than its first run."""
    if tracer is None:
        modes = (False,)
    else:
        modes = (True, False) if idx % 2 else (False, True)
    outcome = {}
    for traced in modes:
        if traced:
            tracer.request = idx
            tracer.install()
        try:
            ms, result = timed(workload, cli, req)
        finally:
            if traced:
                tracer.uninstall()
        outcome[traced] = (ms, *checked(workload, req, result))
    ms, info, error = outcome[False]
    rec = {"request": idx, "label": req.label, "n": req.n, "latency_ms": ms, "error": error}
    rec.update(info or {})
    if tracer is not None:
        rec["traced_ms"], _, traced_error = outcome[True]
        rec["error"] = error or traced_error
    return rec


def set_up(workload, seed: int, workdir: Path):
    """Import, input generation and one checked warm-up request."""
    start = time.perf_counter()
    cli = import_package()
    deck = workload.build(seed, workdir)
    warm = workload.warmup(workdir)
    _, result = timed(workload, cli, warm)
    elapsed = time.perf_counter() - start
    _, error = checked(workload, warm, result)
    return elapsed, cli, deck, error


def measure(workload, cli, deck, seed: int, seconds: float, tracer=None,
            after_pass=None) -> tuple[list, int]:
    """Play the deck in whole passes until `seconds` have elapsed, calling
    after_pass() after each pass.  A pass that runs past three times the
    budget is cut, to bound the run."""
    rng = random.Random(f"{seed}/order")
    records: list[dict] = []
    start = time.perf_counter()
    passes = 0
    while time.perf_counter() - start < seconds:
        for req in workload.order(rng, deck):
            records.append(run_request(workload, cli, req, len(records), tracer))
            if time.perf_counter() - start > 3 * seconds:
                return records, passes
        passes += 1
        if after_pass is not None:
            after_pass()
    return records, passes


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank p-th percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload, records, setup_times) -> tuple[dict, dict]:
    latencies = [r["latency_ms"] for r in records]
    failed = sum(1 for r in records if r["error"])
    tail, beyond = percentile(latencies, workload.tail_percentile)
    metrics = {
        "throughput_rps": (len(records) / (sum(latencies) / 1000), "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "success_rate": ((len(records) - failed) / len(records), "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "latency_tail": f"p{workload.tail_percentile}, {beyond} of {len(records)} samples above it",
        "setup_s_all": setup_times,
    }
    return metrics, notes


def run_workload(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    workload = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        try:
            import numpy  # imported once, before the timed set-ups
        except ImportError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        setups = []
        for _ in range(SETUP_REPEATS):
            try:
                elapsed, cli, deck, warm_error = set_up(workload, args.seed, workdir)
            except ImportError as exc:
                print(f"error: cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
                return 2
            setups.append(elapsed)

        def set_up_again():
            # Timed only; the run keeps the modules and deck of the first set-ups.
            for _ in range(SETUP_REPEATS_PER_PASS):
                setups.append(set_up(workload, args.seed, workdir)[0])
        pkg = sys.modules[PACKAGE]
        meta = {
            "workload": workload.name, "seed": args.seed, "holdout_seed": HOLDOUT_SEED,
            "seconds": args.seconds, "trace": args.trace,
            "kernel_backend": getattr(pkg, "BACKEND", "unknown"),
            "nproc": NPROC, "thread_cap": {v: os.environ[v] for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_revision": git_revision(), "clients": 1, "loop": "closed",
        }
        tracer = tracing.Tracer() if args.trace else None
        records, passes = measure(workload, cli, deck, args.seed, args.seconds, tracer,
                                  None if tracer else set_up_again)
        meta["passes"] = passes
        warm_failed = int(warm_error is not None)  # a failed warm-up counts as one more request
        failed = sum(1 for r in records if r["error"]) + warm_failed
        extra: dict = {"warmup_error": warm_error}
        if tracer is None:
            metrics, notes = end_to_end(workload, records, setups)
            extra.update(notes)
        else:
            overhead = sum(r["traced_ms"] for r in records) / sum(r["latency_ms"] for r in records)
            metrics = tracing.layer_metrics(tracer.spans, len(records), overhead)
            closures = tracing.closures_by_request(tracer.spans)
            for r in records:
                r["closures"] = closures.get(r["request"], [])  # [n, final rank, rounds] each
            extra["untraced_functions"] = tracer.missing
            own = {k[:-len(".self_ms")]: v for k, (v, _) in metrics.items() if k.endswith(".self_ms")}
            top = sorted(own.items(), key=lambda kv: -kv[1])[:5]
            extra["self_time_split"] = ", ".join(
                f"{k} {100 * v / sum(own.values()):.1f}%" for k, v in top)
        result = {
            "correct": failed == 0, "attempted": len(records) + warm_failed, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
        record = dict(meta=meta, **extra, result=result, requests=records)
        (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if tracer is not None:
            with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
        print("# meta " + json.dumps(meta, sort_keys=True))
        for key, value in extra.items():
            print(f"# {key}: {value}")
        for r in records:
            if r["error"]:
                print(f"# FAILED request {r['request']} {r['label']}: {r['error']}")
        if tracer is None:  # failures over attempts; the JSON carries it as success_rate
            metrics_shown = dict(metrics, error_rate=(failed / len(records), "ratio"))
        else:
            metrics_shown = metrics
        for name, (value, unit) in metrics_shown.items():
            print(f"{name:<48} {value:>16.6f} {unit}")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"== {name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            print(f"== {name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            print("\n".join(line for line in lines[:-1] if not line.startswith("# meta")))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="workload to run (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=PRIMARY_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
