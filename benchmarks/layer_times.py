#!/usr/bin/env python3
"""CPU time of the reader, kernel, closure, decompose, scheme-certificate,
automorphism-order and wreath layers.

Each record is one function on one graph: the minimum CPU time
(time.process_time, all threads of the process) over --repeats calls,
the number of refinement rounds (refine_step calls) of one call, the
closure's n and rank, and the CPU count, BLAS thread count and git
revision the numbers were taken with.  Member labels are permuted by a
fixed seed.  BLAS runs on one thread: process_time counts every thread,
and idle OpenBLAS workers spin for a while after a matrix product, which
would be charged to whichever layer is timed next.

- read_graph reads the ten graph files of the perfbench members-decompose
  deck (seed 1, written to a temporary directory).
- refine_step runs every round of a closure, each from the round's own
  input, one after another: on the members-decompose shapes; on the
  verify-sweep sizes, the aut_cases(12) members and C_{n,k} for
  n = 13 .. 24; and on the 35 arc-model graphs of the arcs-nonmembers
  deck (seed 1), whose rounds run at a rank of about n^2 / 2.
- closure_of_graph and decompose_caw run on the ten shapes of the
  perfbench members-decompose workload (imported from its deck).
- scheme_decomposition, the scheme-certificate layer, runs on the same
  ten shapes, on each member's decompose_caw outcome (computed outside
  the timing): one lift of the predicted outer scheme through the
  certificate, compared with the closure.
- decompose_caw and the automorphism-order layer run on the shapes of
  the perfbench verify-sweep aut rows, aut_cases(12), plus C_{30,3}[K_3]
  (n = 90) and C_{100,3}[K_3] (n = 300).  The aut rows are tiny members,
  so decompose_caw there shows its fixed cost per call.  The
  automorphism-order layer is group_witness on the member's
  decompose_caw outcome (computed outside the timing).
- run_wreath_suite is `verify wreath 14` with seed 1: 25 checks of
  verify_wreath_theorem, each a closure of outer[K_r], a closure of
  outer and its lift, on small random outers.  Its record has no n or
  rank, since it closes many graphs.

    python3 benchmarks/layer_times.py --repeats 1 --out layer_times.json
    python3 benchmarks/layer_times.py --src ../parent/src --repeats 15 --out parent.json

--src DIR imports the arcschemes package in DIR (default: this checkout's
src/).  A process measures one tree: a tree loaded after another one in
the same process can read up to a fifth slower on identical code.  So a
comparison is two fresh processes, one per tree, run in alternating
order, as many times as the spread needs.
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
import tempfile
import time
from pathlib import Path

BLAS_THREADS = 1
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)  # before numpy is first imported

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.workloads import (  # noqa: E402  (m, k, r) of each member, and the decks
    MEMBERS, ArcsNonmembers, MembersDecompose, aut_cases,
)

PACKAGE = "arcschemes"
SEED = 1  # of the label permutations
AUT_SHAPES = aut_cases(12) + [(30, 3, 3), (100, 3, 3)]
# members at the verify-sweep sizes: the aut rows and C_{n,k} up to 24 points
SMALL_SHAPES = aut_cases(12) + [(n, k, 1) for n in range(13, 25) for k in (1, 2, 5) if 2 * k + 1 < n]
WREATH_BOUND = 14  # the wreath rows of `verify all 14`, the verify-sweep request


def git_revision(src: Path) -> str:
    """HEAD of the repository holding src, with -dirty for local changes."""
    try:
        out = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty",
                              "--abbrev=40"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def load_tree(src: Path) -> dict:
    """The graphs, kernels, closure, characterize and suites modules of the package in src."""
    sys.path.insert(0, str(src))
    try:
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}")
                for name in ("graphs", "kernels", "closure", "characterize", "suites")}
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


def closure_rounds(mods, g) -> list:
    """The input (colors, rank) of every round of the closure of g."""
    mat = mods["closure"]._initial_coloring(g.n, [g.adj])
    rank = int(mat.max()) + 1
    rounds = []
    while True:
        rounds.append((mat, rank))
        mat, new_rank = mods["kernels"].refine_step(mat, rank)
        if new_rank == rank:
            return rounds
        rank = new_rank


def member_label(m: int, k: int, r: int) -> dict:
    return {"graph": f"C_{{{m},{k}}}[K_{r}]", "m": m, "k": k, "r": r}


def tree_cases(mods, decks) -> dict:
    """(graph label, function) -> (zero-argument call, graph, label fields)."""
    graphs, kernels, char = mods["graphs"], mods["kernels"], mods["characterize"]
    cases = {}

    def kernel_case(label, g):
        rounds = closure_rounds(mods, g)
        cases[label["graph"], "refine_step"] = (
            lambda: [kernels.refine_step(*args) for args in rounds], g, label)

    for i, path in enumerate(decks["members"]):
        label = dict(member_label(*MEMBERS[i]), file=path.name)
        cases[label["graph"], "read_graph"] = (
            lambda p=path: graphs.read_graph(p, 200), graphs.read_graph(path, 200), label)
    for shape in list(MEMBERS) + SMALL_SHAPES:
        kernel_case(member_label(*shape), permuted_member(graphs, *shape))
    for n, m, edges in decks["arcs"]:
        kernel_case({"graph": f"arcs n={n} m={m}"}, graphs.from_edges(n, edges))
    for shape in MEMBERS:
        g = permuted_member(graphs, *shape)
        cases[member_label(*shape)["graph"], "closure_of_graph"] = (
            lambda g=g: mods["closure"].closure_of_graph(g), g, member_label(*shape))
        cases[member_label(*shape)["graph"], "decompose_caw"] = (
            lambda g=g: char.decompose_caw(g), g, member_label(*shape))
        outcome = char.decompose_caw(g)
        cases[member_label(*shape)["graph"], "scheme_decomposition"] = (
            lambda outcome=outcome: char.scheme_decomposition(outcome), g, member_label(*shape))
    for shape in AUT_SHAPES:
        g = permuted_member(graphs, *shape)
        outcome = char.decompose_caw(g)
        cases[member_label(*shape)["graph"], "decompose_caw"] = (
            lambda g=g: char.decompose_caw(g), g, member_label(*shape))
        cases[member_label(*shape)["graph"], "group_witness"] = (
            lambda g=g, outcome=outcome: char.group_witness(g, outcome), g, member_label(*shape))
    label = {"graph": f"verify wreath {WREATH_BOUND} seed {SEED}"}
    cases[label["graph"], "run_wreath_suite"] = (
        lambda: mods["suites"].run_wreath_suite(WREATH_BOUND, seed=SEED), None, label)
    return cases


def build_decks(workdir: Path) -> dict:
    """The members-decompose graph files and the arcs-nonmembers graphs
    (n, m, sorted edges) of the perfbench decks, seed 1."""
    members = [Path(q.data["path"]) for q in MembersDecompose().build(SEED, workdir)]
    arcs = [(q.n, q.data["m"], sorted(q.data["edges"]))
            for q in ArcsNonmembers().build(SEED, workdir)]
    return {"members": members, "arcs": arcs}


def measure(mods: dict, repeats: int) -> list[dict]:
    with tempfile.TemporaryDirectory() as workdir:  # read_graph reads its files to the end
        cases = tree_cases(mods, build_decks(Path(workdir)))
        best = dict.fromkeys(cases, float("inf"))
        for _ in range(repeats):
            for key, (fn, _, _) in cases.items():
                start = time.process_time()
                fn()
                best[key] = min(best[key], time.process_time() - start)
        return [record(mods, key, case, best[key], repeats) for key, case in cases.items()]


def record(mods, key, case, seconds: float, repeats: int) -> dict:
    (_, name), (fn, g, fields) = key, case
    closure = mods["closure"].closure_of_graph(g) if g is not None else None
    rounds = (len(closure_rounds(mods, g)) if name == "refine_step"
              else count_rounds(mods["closure"], fn))
    return {
        "revision": mods["revision"],
        "cpu_count": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS, **fields,
        "n": closure.n if closure else None, "rank": closure.rank if closure else None,
        "function": name, "repeats": repeats, "seed": SEED,
        "cpu_ms": round(seconds * 1000, 4), "rounds": rounds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=lambda p: Path(p).resolve(), default=ROOT / "src",
                        metavar="DIR", help="the source tree to measure (default: src/)")
    parser.add_argument("--repeats", type=int, default=5, help="calls per timing (min taken)")
    parser.add_argument("--out", type=Path, default=None, help="JSON output (default: stdout)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    mods = dict(load_tree(args.src), revision=git_revision(args.src))
    doc = {
        "what": "CPU ms (min of repeats) of read_graph on the members-decompose deck "
                "files, refine_step over all rounds of a closure, closure_of_graph, "
                "decompose_caw (also on the aut shapes), the scheme-certificate layer "
                "(scheme_decomposition), the automorphism-order layer "
                "(group_witness) and run_wreath_suite (verify wreath 14, seed 1), with "
                "BLAS on one thread; rounds are refine_step calls per call",
        "command": f"python3 benchmarks/layer_times.py --src DIR --repeats {args.repeats}",
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "records": measure(mods, args.repeats),
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
