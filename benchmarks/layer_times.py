#!/usr/bin/env python3
"""CPU time of the closure, decompose and automorphism-order layers on members.

Each record is one function on one permuted member of C_{m,k}[K_r] for
one source tree: the minimum CPU time (time.process_time, all threads of
the process) over --repeats calls, the number of refinement rounds
(refine_step calls) of one further call, the closure's n and rank, and
the CPU count and git revision the numbers were taken with.  Labels are
permuted by a fixed seed.

- closure_of_graph and decompose_caw run on the ten shapes of the
  perfbench members-decompose workload (imported from its deck).
- The automorphism-order layer runs on the shapes of the perfbench
  verify-sweep aut rows, aut_cases(12), plus C_{30,3}[K_3] (n = 90) and
  C_{100,3}[K_3] (n = 300).  It is group_witness on the member's
  decompose_caw outcome (computed outside the timing) where the tree
  has it, and otherwise the backtracking count_automorphisms, which
  takes at most 12 points, so the two larger members have no record.

    python3 benchmarks/layer_times.py --repeats 1 --out layer_times.json
    python3 benchmarks/layer_times.py --src parent=../parent/src --src change=src \\
        --repeats 15 --out BENCH_group_witness.json

Each --src LABEL=DIR imports the arcschemes package in DIR (default: this
checkout's src/ as "change").  Several trees are measured in one process,
with their calls interleaved, repeat by repeat, so that a slow spell of a
shared machine hits every tree alike.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.workloads import MEMBERS, aut_cases  # noqa: E402  (m, k, r) of each member

PACKAGE = "arcschemes"
SEED = 1  # of the label permutations
AUT_SHAPES = aut_cases(12) + [(30, 3, 3), (100, 3, 3)]


def git_revision(src: Path) -> str:
    """HEAD of the repository holding src, with -dirty for local changes."""
    try:
        out = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty",
                              "--abbrev=40"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def load_tree(src: Path) -> dict:
    """The graphs, closure and characterize modules of the package in src.
    Earlier trees' modules stay alive through the returned references."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}")
                for name in ("graphs", "closure", "characterize")}
    finally:
        sys.path.remove(str(src))
    where = Path(mods["graphs"].__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"{PACKAGE} imported from {where}, not from {src}")
    return mods


def permuted_member(graphs, m: int, k: int, r: int):
    g = (graphs.complete(r) if m == 1
         else graphs.lex_product(graphs.elementary_caw(m, k), graphs.complete(r)))
    perm = list(range(g.n))
    random.Random(f"{SEED}/{m}/{k}/{r}").shuffle(perm)
    return graphs.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def count_rounds(closure_mod, fn) -> int:
    """refine_step calls made by one call of fn."""
    original = closure_mod.refine_step
    calls = []
    closure_mod.refine_step = lambda *a: calls.append(None) or original(*a)
    try:
        fn()
    finally:
        closure_mod.refine_step = original
    return len(calls)


def aut_order_case(mods, g):
    """(function name, zero-argument call) of the tree's automorphism-order
    layer on g, or None where the tree cannot run it."""
    char = mods["characterize"]
    if hasattr(char, "group_witness"):
        outcome = char.decompose_caw(g)
        return "group_witness", lambda: char.group_witness(g, outcome)
    if g.n <= 12:
        return "count_automorphisms", lambda: mods["graphs"].count_automorphisms(g)
    return None


def tree_cases(mods) -> dict:
    """(shape, function) -> zero-argument call, for one tree."""
    cases = {}
    for shape in MEMBERS:
        g = permuted_member(mods["graphs"], *shape)
        cases[shape, "closure_of_graph"] = lambda c=mods["closure"], g=g: c.closure_of_graph(g)
        cases[shape, "decompose_caw"] = lambda c=mods["characterize"], g=g: c.decompose_caw(g)
    for shape in AUT_SHAPES:
        case = aut_order_case(mods, permuted_member(mods["graphs"], *shape))
        if case is not None:
            cases[shape, case[0]] = case[1]
    return cases


def measure(trees: dict, repeats: int) -> list[dict]:
    cases = {label: tree_cases(mods) for label, mods in trees.items()}
    best = {label: dict.fromkeys(tree, float("inf")) for label, tree in cases.items()}
    labels = list(trees)
    for rep in range(repeats):
        for label in labels if rep % 2 == 0 else labels[::-1]:
            for key, fn in cases[label].items():
                start = time.process_time()
                fn()
                best[label][key] = min(best[label][key], time.process_time() - start)
    cpu_count = len(os.sched_getaffinity(0))
    records = []
    for label, tree in cases.items():
        mods = trees[label]
        for ((m, k, r), name), fn in tree.items():
            closure = mods["closure"].closure_of_graph(permuted_member(mods["graphs"], m, k, r))
            records.append({
                "label": label, "revision": mods["revision"], "cpu_count": cpu_count,
                "graph": f"C_{{{m},{k}}}[K_{r}]", "m": m, "k": k, "r": r, "n": closure.n,
                "rank": closure.rank, "function": name, "repeats": repeats, "seed": SEED,
                "cpu_ms": round(best[label][(m, k, r), name] * 1000, 4),
                "rounds": count_rounds(mods["closure"], fn),
            })
    return records


def parse_src(text: str) -> tuple[str, Path]:
    label, sep, path = text.partition("=")
    if not sep or not label or not path:
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR, got {text!r}")
    return label, Path(path).resolve()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=parse_src, action="append", default=None,
                        metavar="LABEL=DIR", help="a source tree to measure (repeatable)")
    parser.add_argument("--repeats", type=int, default=5, help="calls per timing (min taken)")
    parser.add_argument("--out", type=Path, default=None, help="JSON output (default: stdout)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    sources = dict(args.src or [("change", ROOT / "src")])

    trees = {}
    for label, src in sources.items():
        trees[label] = dict(load_tree(src), revision=git_revision(src))
    doc = {
        "what": "CPU ms (min of repeats, trees interleaved) of closure_of_graph, "
                "decompose_caw and the automorphism-order layer (group_witness or "
                "count_automorphisms) on permuted members; rounds are refine_step calls "
                "per call",
        "command": "python3 benchmarks/layer_times.py " + " ".join(
            f"--src {label}=DIR" for label in sources) + f" --repeats {args.repeats}",
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "records": measure(trees, args.repeats),
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
