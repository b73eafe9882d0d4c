"""The benchmark's three workloads: inputs, CLI requests and output checks.

Inputs come only from the workload seed.  Each workload builds a deck of
requests during set-up; a run plays the deck in whole passes, each pass
in a fresh seeded order, so every run sees the same mix of sizes.  The
checks recompute what they can from the generator's own data and never
take the library's verdict on trust.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path


class CheckError(Exception):
    """An output that does not match what the generator implies."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


@dataclass
class Request:
    label: str
    n: int
    data: dict = field(default_factory=dict)


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run arcschemes.cli.main in-process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def write_graph(path: Path, n: int, edges) -> None:
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_graph_edges(path: Path) -> tuple[int, set]:
    rows = [tuple(map(int, line.split())) for line in path.read_text().splitlines()
            if line.strip() and not line.startswith("#")]
    n, e = rows[0]
    edges = {(min(u, v), max(u, v)) for u, v in rows[1:]}
    expect(len(rows) - 1 == e and len(edges) == e, f"graph file {path.name}: bad edge count")
    return n, edges


def _circ(a: int, b: int, m: int) -> int:
    d = (a - b) % m
    return min(d, m - d)


# ---------------------------------------------------------------------------
# members-decompose: permuted members of C_{m,k}[K_r], one `decompose` each.

# (m, k, r); r = 1 is the dihedral family C_{m,k}.  Fixed so that every
# seed has the same cost mix; the seed picks labels and order.  Each tier
# holds one member of each family.  Single requests vary by up to 20%
# between repeats on a shared machine, so the middle tier is made of
# requests of near-equal cost (about 1 s with the pure kernel): the
# median and the p65 tail then fall among a dozen alike samples instead
# of between two unlike ones.
MEMBERS = (
    # cheap: matching, lex product, k = 0, dihedral
    (8, 3, 5), (12, 3, 3), (9, 0, 6), (40, 3, 1),
    # middle: dihedral, lex product, matching, k = 0
    (56, 10, 1), (18, 4, 4), (12, 5, 6), (15, 0, 6),
    # heavy: dihedral at n = 84 and C_{30,3}[K_3]
    (84, 20, 1), (30, 3, 3),
)
MEMBER_WARMUP = (12, 2, 1)


def member_adjacent(m: int, k: int, x: tuple[int, int], y: tuple[int, int]) -> bool:
    """Adjacency in C_{m,k}[K_r] between distinct vertices (a, b)."""
    if x[0] == y[0]:
        return True
    return _circ(x[0], y[0], m) <= k


def member_rank(m: int, k: int, r: int) -> int:
    """rank(rank2(r) wr outer) = rank(inner) + rank(outer) - 1."""
    inner = 1 if r == 1 else 2
    if k == 0:
        outer = 2
    elif m == 2 * k + 2:
        outer = 3  # rank2(2) wr rank2(k+1)
    else:
        outer = m // 2 + 1  # dihedral scheme on Z_m
    return inner + outer - 1


def member_aut_order(m: int, k: int, r: int) -> int:
    """|Aut(C_{m,k}[K_r])| = (r!)^m times the order of the quotient's group."""
    if k == 0:
        outer = math.factorial(m)
    elif m == 2 * k + 2:
        outer = 2 ** (k + 1) * math.factorial(k + 1)
    else:
        outer = 2 * m
    return math.factorial(r) ** m * outer


def member_kind(m: int, k: int) -> str:
    if k == 0:
        return "RANK2"
    return "FORESTAL_MATCHING" if m == 2 * k + 2 else "DIHEDRAL"


class MembersDecompose:
    name = "members-decompose"
    tail_percentile = 65

    def _request(self, rng: random.Random, workdir: Path, idx: int, mkr) -> Request:
        m, k, r = mkr
        n = m * r
        perm = list(range(n))
        rng.shuffle(perm)
        edges = sorted(
            (min(perm[x], perm[y]), max(perm[x], perm[y]))
            for x in range(n) for y in range(x + 1, n)
            if member_adjacent(m, k, divmod(x, r), divmod(y, r))
        )
        path = workdir / f"member{idx}.graph"
        write_graph(path, n, edges)
        return Request(f"C_{{{m},{k}}}[K_{r}]", n,
                       {"m": m, "k": k, "r": r, "path": str(path), "edges": set(edges)})

    def build(self, seed: int, workdir: Path) -> list[Request]:
        rng = random.Random(seed)
        return [self._request(rng, workdir, i, mkr) for i, mkr in enumerate(MEMBERS)]

    def warmup(self, workdir: Path) -> Request:
        return self._request(random.Random(0), workdir, len(MEMBERS), MEMBER_WARMUP)

    def order(self, rng: random.Random, deck: list[Request]) -> list[Request]:
        return rng.sample(deck, len(deck))

    def execute(self, cli, req: Request) -> dict:
        rc, out = call_cli(cli, ["--format", "machine", "--no-timing", "decompose",
                                 req.data["path"]])
        return {"rc": rc, "out": out}

    def check(self, req: Request, result: dict) -> dict:
        d = req.data
        m, k, r, n = d["m"], d["k"], d["r"], req.n
        expect(result["rc"] == 0, f"exit code {result['rc']}, want 0")
        rep = json.loads(result["out"])
        expect(rep["n"] == n, "n differs")
        expect(rep["certificate"] == f"m={m} k={k} r={r}", f"certificate {rep['certificate']}")
        expect(rep["association"] is True, "association is not true")
        expect(rep["failure-stage"] == "none", f"failure stage {rep['failure-stage']}")
        expect(rep["rank"] == member_rank(m, k, r), f"rank {rep['rank']}")
        expect(rep["predicted-aut-order"] == member_aut_order(m, k, r), "aut order differs")
        expect(rep["scheme-decomposition"] == f"rank2({r}) wr {member_kind(m, k)}({m})",
               f"scheme decomposition {rep['scheme-decomposition']}")
        expect(rep["scheme-verdict"] in ("iso", "algebraic-only"),
               f"scheme verdict {rep['scheme-verdict']}")
        labels = []
        for v, token in enumerate(rep["relabeling"].split()):
            vv, ab = token.split(":")
            a, b = ab.split(",")
            expect(int(vv) == v, "relabeling out of order")
            labels.append((int(a), int(b)))
        expect(len(labels) == n, "relabeling has the wrong length")
        expect(sorted(labels) == [(a, b) for a in range(m) for b in range(r)],
               "relabeling is not a bijection onto Z_m x [r]")
        edges = d["edges"]
        for u in range(n):
            for v in range(u + 1, n):
                expect(((u, v) in edges) == member_adjacent(m, k, labels[u], labels[v]),
                       f"relabeling fails on pair ({u}, {v})")
        return {"n": n, "rank": rep["rank"]}


# ---------------------------------------------------------------------------
# arcs-nonmembers: random non-reduced arc models whose graphs are irregular.

ARC_SIZES = tuple(range(30, 65))  # one model per n; m is drawn in (n, 2n]
ARC_WARMUP = 12


def _random_model(rng: random.Random, n: int) -> tuple[int, list[tuple[int, int]]]:
    """Arc model with m in (n, 2n] meeting conditions (1) and (2) and an
    irregular intersection graph.  Every point of Z_m is used as an
    end-point, and the remaining 2n - m end-points are drawn at random."""
    while True:
        m = rng.randint(n + 1, 2 * n)
        ends = list(range(m)) + [rng.randrange(m) for _ in range(2 * n - m)]
        rng.shuffle(ends)
        arcs = [(ends[2 * i], (ends[2 * i + 1] - ends[2 * i]) % m + 1) for i in range(n)]
        if any(not 2 <= size <= m - 1 for _, size in arcs):
            continue
        edges = _arc_edges(m, arcs)
        degrees = [0] * n
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        if len(set(degrees)) > 1:
            return m, arcs


def _arc_edges(m: int, arcs) -> set:
    points = [{(s + i) % m for i in range(size)} for s, size in arcs]
    return {(u, v) for u in range(len(arcs)) for v in range(u + 1, len(arcs))
            if points[u] & points[v]}


class ArcsNonmembers:
    name = "arcs-nonmembers"
    tail_percentile = 90

    def _request(self, rng: random.Random, workdir: Path, idx: int, n: int, action: str) -> Request:
        m, arcs = _random_model(rng, n)
        model = workdir / f"model{idx}.arcs"
        model.write_text(f"{m} {n}\n" + "".join(f"{s} {size}\n" for s, size in arcs),
                         encoding="utf-8")
        return Request(f"arcs n={n} m={m} {action}", n, {
            "m": m, "action": action, "model": str(model), "edges": _arc_edges(m, arcs),
            "graph": str(workdir / f"model{idx}.graph"),
            "scheme": str(workdir / f"model{idx}.scheme"),
        })

    def build(self, seed: int, workdir: Path) -> list[Request]:
        rng = random.Random(seed)
        return [self._request(rng, workdir, i, n, ("closure", "decompose")[i % 2])
                for i, n in enumerate(ARC_SIZES)]

    def warmup(self, workdir: Path) -> Request:
        return self._request(random.Random(0), workdir, len(ARC_SIZES), ARC_WARMUP, "closure")

    def order(self, rng: random.Random, deck: list[Request]) -> list[Request]:
        """Shuffle, then alternate closure and decompose requests."""
        by_action = {a: [q for q in deck if q.data["action"] == a] for a in ("closure", "decompose")}
        for reqs in by_action.values():
            rng.shuffle(reqs)
        pairs = itertools.zip_longest(by_action["closure"], by_action["decompose"])
        return [q for pair in pairs for q in pair if q is not None]

    def execute(self, cli, req: Request) -> dict:
        d = req.data
        check = call_cli(cli, ["arcs", d["model"], "check"])
        graph = call_cli(cli, ["arcs", d["model"], "graph", "-o", d["graph"]])
        if d["action"] == "closure":
            last = call_cli(cli, ["--format", "machine", "--no-timing", "closure", d["graph"],
                                  "-o", d["scheme"]])
        else:
            last = call_cli(cli, ["--format", "machine", "--no-timing", "decompose", d["graph"]])
        return {"check": check, "graph": graph, "last": last}

    def check(self, req: Request, result: dict) -> dict:
        d = req.data
        n, edges = req.n, d["edges"]
        rc, out = result["check"]
        rows = {}
        for line in out.splitlines():
            for label in ("condition (1)", "condition (2)", "condition (3.1)",
                          "reduced (i)", "reduced (ii)", "reduced (iii)"):
                if line.startswith(label + " "):
                    rows[label] = line[len(label):].split()[0]
        expect(rows.get("condition (1)") == "pass", "check: condition (1) not pass")
        expect(rows.get("condition (2)") == "pass", "check: condition (2) not pass")
        expect(rows.get("reduced (ii)") == "FAIL", "check: m > n but (ii) not FAIL")
        expect(len(rows) == 6, "check: missing rows")
        expect(rc == 1, f"check: exit code {rc}, want 1")

        rc, _ = result["graph"]
        expect(rc == 0, f"graph: exit code {rc}")
        gn, gedges = read_graph_edges(Path(d["graph"]))
        expect(gn == n and gedges == edges, "graph: edges differ from the arc model")

        rc, out = result["last"]
        rep = json.loads(out)
        expect(rep["n"] == n, "n differs")
        expect(rep["association"] is False, "association is not false on an irregular graph")
        if d["action"] == "decompose":
            expect(rc == 1, f"decompose: exit code {rc}, want 1")
            expect(rep["failure-stage"] == "non-association",
                   f"failure stage {rep['failure-stage']}")
            expect(rep["certificate"] == "none", "certificate on a non-member")
        else:
            expect(rc == 0, f"closure: exit code {rc}")
            self._check_dump(Path(d["scheme"]), n, rep["rank"], edges)
        return {"n": n, "rank": rep["rank"]}

    @staticmethod
    def _check_dump(path: Path, n: int, rank: int, edges: set) -> None:
        """The dump is an n x n coloring with `rank` colors in which the
        diagonal and the edge relation are unions of colors."""
        lines = [line.split() for line in path.read_text().splitlines() if line.strip()]
        expect([int(x) for x in lines[0]] == [n, rank], "scheme dump header differs")
        colors = [[int(x) for x in row] for row in lines[1:]]
        expect(len(colors) == n and all(len(row) == n for row in colors), "scheme dump shape")
        kind: dict[int, tuple] = {}
        for u in range(n):
            for v in range(n):
                rel = ("diagonal",) if u == v else ("edge", (min(u, v), max(u, v)) in edges)
                expect(kind.setdefault(colors[u][v], rel) == rel,
                       f"color {colors[u][v]} mixes relations at ({u}, {v})")
        expect(len(kind) == rank, "scheme dump rank differs")


# ---------------------------------------------------------------------------
# verify-sweep: `--seed s verify all 14`, s drawn per request.

VERIFY_BOUND = 14
VERIFY_WARMUP_BOUND = 8
VERIFY_PER_PASS = 10
WREATH_ROWS = 4 + 20 + 1  # fixed cases topped up with random ones, plus K_2[K_3]


def dihedral_cases(bound: int) -> list[tuple[int, int]]:
    return [(n, k) for n in range(5, bound + 1) for k in range(1, n) if 2 * k + 2 < n]


def aut_cases(bound: int) -> list[tuple[int, int, int]]:
    return [(m, k, r) for m in range(1, bound + 1) for r in range(1, bound // m + 1)
            for k in range(m) if 2 * k + 1 < m or (m == 1 and k == 0)]


class VerifySweep:
    name = "verify-sweep"
    tail_percentile = 85

    def build(self, seed: int, workdir: Path) -> list[Request]:
        return [Request(f"verify all {VERIFY_BOUND}", VERIFY_BOUND, {"bound": VERIFY_BOUND})
                for _ in range(VERIFY_PER_PASS)]

    def warmup(self, workdir: Path) -> Request:
        return Request(f"verify all {VERIFY_WARMUP_BOUND}", VERIFY_WARMUP_BOUND,
                       {"bound": VERIFY_WARMUP_BOUND, "seed": 0})

    def order(self, rng: random.Random, deck: list[Request]) -> list[Request]:
        """Each request gets its own sweep seed, drawn from the order stream."""
        return [Request(q.label, q.n, dict(q.data, seed=rng.randrange(2 ** 31))) for q in deck]

    def execute(self, cli, req: Request) -> dict:
        rc, out = call_cli(cli, ["--seed", str(req.data["seed"]), "--format", "machine",
                                 "--no-timing", "verify", "all", str(req.data["bound"])])
        return {"rc": rc, "out": out}

    def check(self, req: Request, result: dict) -> dict:
        bound = req.data["bound"]
        expect(result["rc"] == 0, f"exit code {result['rc']}, want 0")
        doc = json.loads(result["out"])
        expect(doc["ok"] is True, "sweep not ok")
        for table in ("dihedral", "wreath", "aut"):
            bad = [row["case"] for row in doc[table] if row["status"] != "pass"]
            expect(not bad, f"{table}: failing rows {bad[:3]}")
        want = [f"C_{{{n},{k}}}" for n, k in dihedral_cases(bound)]
        expect([row["case"] for row in doc["dihedral"]] == want, "dihedral: cases differ")
        for (n, _), row in zip(dihedral_cases(bound), doc["dihedral"]):
            expect(f"rank={n // 2 + 1} " in row["detail"], f"dihedral: rank in {row['case']}")
        expect(len(doc["wreath"]) == WREATH_ROWS, "wreath: row count differs")
        cases = aut_cases(min(bound, 12))
        expect(len(doc["aut"]) == len(cases), "aut: row count differs")
        for (m, k, r), row in zip(cases, doc["aut"]):
            order = member_aut_order(m, k, r)
            expect(row["case"] == f"(m={m}, k={k}, r={r})", f"aut: case {row['case']}")
            expect(f"counted={order} predicted={order} " in row["detail"],
                   f"aut: order in {row['case']}")
        return {"n": bound, "seed": req.data["seed"]}


WORKLOADS = {w.name: w for w in (MembersDecompose(), ArcsNonmembers(), VerifySweep())}
