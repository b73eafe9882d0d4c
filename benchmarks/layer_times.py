#!/usr/bin/env python3
"""CPU time of the text-format, kernel, closure, decompose,
automorphism-order and wreath layers.

Each record is one function on one graph: the minimum and the median
CPU time (time.process_time, all threads of the process) over --repeats
calls, the refinement rounds of one call (the refine_step and refine_row
calls it makes through the closure module, as rounds_of observes them),
the n and rank of decompose_caw(g).scheme (closed on the twin
quotient, as the CLI's closure does), and the CPU count, BLAS thread
count, git revision and tree digest the numbers were taken with.  The
tree digest (tree_digest) names the measured source where git cannot: a
`git archive` copy has the revision `unknown`, and uncommitted work
`<HEAD>-dirty`.  Member labels are permuted by a fixed seed.  BLAS runs
on one thread: process_time counts every thread, and idle OpenBLAS
workers spin for a while after a matrix product, which would be charged
to whichever layer is timed next.

- read_graph reads the ten graph files of the perfbench members-decompose
  deck (seed 1, written to a temporary directory).
- The arcs-nonmembers deck (seed 1) gives the other text-format records:
  read_model reads its 35 arc-model files, graph_to_text writes their 35
  graphs, and scheme_to_text dumps those graphs' closures
  (decompose_caw(g).scheme, as the CLI's closure -o writes them) and the
  closure of C_{400,3} (permuted), a dump of 160,000 colors.
- refine_step runs, through closure.refine_step, the rounds of
  closure_of_graph(g) on their own inputs, one after another: on the
  members-decompose shapes; on the verify-sweep sizes, the aut_cases(12)
  members and C_{n,k} for n = 13 .. 24; and on the 35 arc-model graphs
  of the arcs-nonmembers deck (seed 1), whose rounds run at a rank of
  about n^2 / 2.
- closure_of_graph and decompose_caw run on the ten shapes of the
  perfbench members-decompose workload (imported from its deck).  The
  scheme certificate is part of decompose_caw: it compares the
  quotient's closure with the outer scheme on m points before the lift.
- circulant_closure closes C_{m,k} on one row of Z_m, for the quotients
  of the members-decompose shapes, for C_{200,3} and C_{400,3}, and for
  the quotients of the aut_cases(12) shapes with m > 1, where the fixed
  cost of a row round shows; a tree without it has no such record.
  decompose_caw also runs on C_{200,3} and C_{400,3} (permuted, n = m),
  whose member check is that closure.
- decompose_caw runs on three permuted members of 2000 points,
  C_{1000,3}[K_2], C_{400,5}[K_5] and C_{2000,3}, where the n-point
  costs of recognition (the twin labels, the quotient's edge level) and
  of the report show.  The n and rank of their records come from the
  lift, built outside the timing.
- decompose_caw also runs on the 35 arc-model graphs of the
  arcs-nonmembers deck (seed 1): non-members, closed on their twin
  quotient colored by class size, most with no 2-WL round at all.
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
import hashlib
import importlib
import json
import os
import platform
import random
import statistics
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
# members past the CLI's default size limit, whose check closes a large C_{m,k}
LARGE_SHAPES = [(200, 3, 1), (400, 3, 1)]
# members of 2000 points, whose decompose_caw shows the n-point costs of
# recognition and the report (twin labels, edge levels, the lift)
SCALE_SHAPES = [(1000, 3, 2), (400, 5, 5), (2000, 3, 1)]
DUMP_SHAPE = (400, 3, 1)  # the member whose closure scheme_to_text also dumps
# the functions whose calls are refinement rounds, where a tree has them
ROUNDS = ("refine_step", "refine_row")


def git_revision(src: Path) -> str:
    """HEAD of the repository holding src, with -dirty for local changes."""
    try:
        out = subprocess.run(["git", "-C", str(src), "describe", "--always", "--dirty",
                              "--abbrev=40"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def tree_digest(package: Path) -> str:
    """SHA-256 of the package's *.py files, each its name, a NUL byte and
    its bytes, in sorted name order."""
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def load_tree(src: Path) -> dict:
    """The graphs, arcs, schemes, closure, characterize and suites modules
    of the package in src."""
    sys.path.insert(0, str(src))
    try:
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}")
                for name in ("graphs", "arcs", "schemes", "closure", "characterize", "suites")}
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


def rounds_of(closure_mod, fn) -> list:
    """The arguments of every refinement round (ROUNDS call) that one call
    of fn makes through closure_mod, in call order."""
    originals = {name: getattr(closure_mod, name) for name in ROUNDS
                 if hasattr(closure_mod, name)}
    calls = []
    for name, original in originals.items():
        setattr(closure_mod, name, lambda *a, f=original: calls.append(a) or f(*a))
    try:
        fn()
    finally:
        for name, original in originals.items():
            setattr(closure_mod, name, original)
    return calls


def member_label(m: int, k: int, r: int) -> dict:
    return {"graph": f"C_{{{m},{k}}}[K_{r}]", "m": m, "k": k, "r": r}


def tree_cases(mods, decks) -> dict:
    """(graph label, function) -> (zero-argument call, graph, label fields)."""
    graphs, closure, char = mods["graphs"], mods["closure"], mods["characterize"]
    arcs, schemes = mods["arcs"], mods["schemes"]
    cases = {}

    def kernel_case(label, g):
        rounds = rounds_of(closure, lambda: closure.closure_of_graph(g))
        cases[label["graph"], "refine_step"] = (
            lambda: [closure.refine_step(*args) for args in rounds], g, label)

    for i, path in enumerate(decks["members"]):
        label = dict(member_label(*MEMBERS[i]), file=path.name)
        cases[label["graph"], "read_graph"] = (
            lambda p=path: graphs.read_graph(p, 200), graphs.read_graph(path, 200), label)
    for shape in list(MEMBERS) + SMALL_SHAPES:
        kernel_case(member_label(*shape), permuted_member(graphs, *shape))
    for n, m, edges, model in decks["arcs"]:
        g, label = graphs.from_edges(n, edges), {"graph": f"arcs n={n} m={m}"}
        kernel_case(label, g)
        cases[label["graph"], "decompose_caw"] = (lambda g=g: char.decompose_caw(g), g, label)
        cases[label["graph"], "read_model"] = (
            lambda p=model: arcs.read_model(p), g, dict(label, file=model.name))
        cases[label["graph"], "graph_to_text"] = (lambda g=g: graphs.graph_to_text(g), g, label)
        cases[label["graph"], "scheme_to_text"] = (
            lambda s=char.decompose_caw(g).scheme: schemes.scheme_to_text(s), g, label)
    for shape in MEMBERS:
        g = permuted_member(graphs, *shape)
        cases[member_label(*shape)["graph"], "closure_of_graph"] = (
            lambda g=g: closure.closure_of_graph(g), g, member_label(*shape))
        cases[member_label(*shape)["graph"], "decompose_caw"] = (
            lambda g=g: char.decompose_caw(g), g, member_label(*shape))
    if hasattr(closure, "circulant_closure"):
        quotients = list(MEMBERS) + LARGE_SHAPES + aut_cases(12)
        for m, k in dict.fromkeys((m, k) for m, k, _ in quotients if m > 1):
            g = graphs.elementary_caw(m, k)
            cases[f"C_{{{m},{k}}}", "circulant_closure"] = (
                lambda row=g.adj[0]: closure.circulant_closure(row),
                g, {"graph": f"C_{{{m},{k}}}", "m": m, "k": k})
    for shape in LARGE_SHAPES + SCALE_SHAPES:
        g = permuted_member(graphs, *shape)
        cases[member_label(*shape)["graph"], "decompose_caw"] = (
            lambda g=g: char.decompose_caw(g), g, member_label(*shape))
    g = permuted_member(graphs, *DUMP_SHAPE)
    cases[member_label(*DUMP_SHAPE)["graph"], "scheme_to_text"] = (
        lambda s=char.decompose_caw(g).scheme: schemes.scheme_to_text(s), g,
        member_label(*DUMP_SHAPE))
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
    (n, m, sorted edges, arc-model file) of the perfbench decks, seed 1."""
    members = [Path(q.data["path"]) for q in MembersDecompose().build(SEED, workdir)]
    arcs = [(q.n, q.data["m"], sorted(q.data["edges"]), Path(q.data["model"]))
            for q in ArcsNonmembers().build(SEED, workdir)]
    return {"members": members, "arcs": arcs}


def measure(mods: dict, repeats: int) -> list[dict]:
    with tempfile.TemporaryDirectory() as workdir:  # the readers read their files to the end
        cases = tree_cases(mods, build_decks(Path(workdir)))
        times = {key: [] for key in cases}
        for _ in range(repeats):
            for key, (fn, _, _) in cases.items():
                start = time.process_time()
                fn()
                times[key].append(time.process_time() - start)
        return [record(mods, key, case, times[key]) for key, case in cases.items()]


def record(mods, key, case, seconds: list) -> dict:
    (_, name), (fn, g, fields) = key, case
    scheme = mods["characterize"].decompose_caw(g).scheme if g is not None else None
    return {
        "revision": mods["revision"], "tree": mods["tree"],
        "cpu_count": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS, **fields,
        "n": scheme.n if scheme else None, "rank": scheme.rank if scheme else None,
        "function": name, "repeats": len(seconds), "seed": SEED,
        "cpu_ms": round(min(seconds) * 1000, 4),
        "cpu_ms_median": round(statistics.median(seconds) * 1000, 4),
        "rounds": len(rounds_of(mods["closure"], fn)),
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
    mods = load_tree(args.src)
    mods.update(revision=git_revision(args.src),
                tree=tree_digest(Path(mods["graphs"].__file__).parent))
    doc = {
        "what": "CPU ms (min and median of repeats) of read_graph on the members-decompose "
                "deck files, read_model, graph_to_text and scheme_to_text on the "
                "arcs-nonmembers deck (and scheme_to_text on C_{400,3}), refine_step "
                "over all rounds of a closure, closure_of_graph, "
                "circulant_closure, decompose_caw with its scheme-certificate check (also "
                "on the aut shapes, C_{200,3}, C_{400,3} and the 2000-point members "
                "C_{1000,3}[K_2], C_{400,5}[K_5], C_{2000,3}) and on the arcs-nonmembers "
                "deck graphs, the automorphism-order layer "
                "(group_witness) and run_wreath_suite (verify wreath 14, seed 1), with "
                "BLAS on one thread; rounds are refine_step and refine_row calls per call",
        "command": f"python3 benchmarks/layer_times.py --src DIR --repeats {args.repeats}",
        "tree": mods["tree"],
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
