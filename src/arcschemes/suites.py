"""Sweep suites behind the `verify` CLI subcommand.

Each suite returns a list of row dicts (case / status / detail) plus an
overall pass flag, so the CLI can render them as a table or as JSON.
"""

from __future__ import annotations

import random

from .characterize import (
    decompose_caw,
    group_witness,
    predicted_aut_order,
    verify_wreath_theorem,
)
from .closure import closure_of_graph
from .graphs import (
    Graph,
    complete,
    cycle,
    elementary_caw,
    empty_graph,
    from_edges,
    lex_product,
)
from .schemes import ISO, NOT_ISO, dihedral_scheme, identity_verdict, is_association


def row(case: str, ok: bool, detail: str = "") -> dict:
    return {"case": case, "status": "pass" if ok else "FAIL", "detail": detail}


def dihedral_cases(bound: int) -> list[tuple[int, int]]:
    return [
        (n, k)
        for n in range(5, bound + 1)
        for k in range(1, n)
        if 2 * k + 2 < n
    ]


def run_dihedral_suite(bound: int) -> tuple[list[dict], bool]:
    """closure(C_{n,k}) must be the dihedral scheme for all 2k+2 < n <= bound.

    elementary_caw puts vertex i at position i of Z_n, and the dihedral
    group acts on C_{n,k} by automorphisms, so the closure is a fusion of
    dihedral_scheme(n) on the same points and identity_verdict decides.
    """
    rows = []
    ok_all = True
    for n, k in dihedral_cases(bound):
        cc = closure_of_graph(elementary_caw(n, k))
        want_rank = n // 2 + 1
        verdict = identity_verdict(cc, dihedral_scheme(n), f"closure of C_{{{n},{k}}}")
        ok = is_association(cc) and cc.rank == want_rank and verdict == ISO
        detail = f"rank={cc.rank} association={is_association(cc)} iso={verdict}"
        rows.append(row(f"C_{{{n},{k}}}", ok, detail))
        ok_all &= ok
    return rows, ok_all


def _random_graph(rng: random.Random, n: int) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    ]
    return from_edges(n, edges)


# random cases per wreath run; one value, since perfbench's verify-sweep
# check counts 4 fixed + 20 random + 1 counterexample wreath rows
_WREATH_SAMPLES = 20


def run_wreath_suite(bound: int, seed: int = 0) -> tuple[list[dict], bool]:
    """Fusion/isomorphism checks between lexicographic products and wreath
    products of schemes, including the complete[complete] counterexample."""
    if bound < 2:
        raise ValueError(f"wreath suite bound must be at least 2, got {bound}")
    rng = random.Random(seed)
    rows = []
    ok_all = True

    fixed = [
        (2, cycle(5)),
        (2, from_edges(3, [(0, 1), (1, 2)])),  # path: non-association outer
        (3, empty_graph(3)),
        (2, elementary_caw(6, 2)),
    ]
    cases = [c for c in fixed if c[0] * c[1].n <= bound]
    while len(cases) < len(fixed) + _WREATH_SAMPLES:
        r = rng.randint(1, 3)
        n = rng.randint(2, 8)
        if r * n <= bound:
            cases.append((r, _random_graph(rng, n)))

    for i, (r, outer) in enumerate(cases):
        report = verify_wreath_theorem(r, outer)
        ok = report.fusion_holds and (not report.iso_asserted or report.iso == ISO)
        detail = (
            f"fusion={report.fusion_holds} iso_asserted={report.iso_asserted} "
            f"iso={report.iso}"
        )
        rows.append(row(f"wreath[{i}] r={r} outer_n={outer.n}", ok, detail))
        ok_all &= ok

    # complete[complete]: fusion holds but the schemes differ (rank 2 vs 3)
    counter = verify_wreath_theorem(3, complete(2))
    ok = counter.fusion_holds and counter.iso == NOT_ISO and not counter.iso_asserted
    rows.append(
        row(
            "counterexample K_2[K_3]",
            ok,
            f"fusion={counter.fusion_holds} iso={counter.iso}",
        )
    )
    ok_all &= ok
    return rows, ok_all


def aut_cases(bound: int) -> list[tuple[int, int, int]]:
    out = []
    for m in range(1, bound + 1):
        for r in range(1, bound // m + 1):
            for k in range(0, m):
                if 2 * k + 1 < m or (m == 1 and k == 0):
                    out.append((m, k, r))
    return out


def run_aut_suite(bound: int) -> tuple[list[dict], bool]:
    """The automorphism order proven from each member's certificate
    (group_witness) must be the closed-form order, and its scheme Schurian.
    A row whose bounds do not meet fails and names both."""
    rows = []
    ok_all = True
    for m, k, r in aut_cases(bound):
        g = lex_product(elementary_caw(m, k), complete(r)) if m > 1 else complete(r)
        predicted = predicted_aut_order(m, k, r)
        witness = group_witness(g, decompose_caw(g))
        if witness is None:
            ok, detail = False, f"counted=none predicted={predicted} certified=False"
        else:
            ok = witness.order == predicted and witness.schurian
            found = (f"counted={witness.order}" if witness.order is not None
                     else f"lower={witness.lower} upper={witness.upper}")
            detail = f"{found} predicted={predicted} certified=True schurian={witness.schurian}"
        rows.append(row(f"(m={m}, k={k}, r={r})", ok, detail))
        ok_all &= ok
    return rows, ok_all


# suite name -> runner(bound, seed); the lambdas look the runners up at
# call time, so a wrapper bound to the module attribute sees every call
_SUITES = {
    "dihedral": lambda bound, seed: run_dihedral_suite(bound),
    "wreath": lambda bound, seed: run_wreath_suite(bound, seed=seed),
    "aut": lambda bound, seed: run_aut_suite(bound),
}


def run(suite: str, bound: int, seed: int = 0) -> dict[str, tuple[list[dict], bool]]:
    """{name: (rows, ok)} for one suite, or for every suite when suite is "all".

    Under "all" the aut suite runs at min(bound, 12): the verify-sweep
    workload of perfbench checks aut_cases(min(bound, 12)) rows.
    """
    if suite != "all":
        return {suite: _SUITES[suite](bound, seed)}
    return {
        name: runner(min(bound, 12) if name == "aut" else bound, seed)
        for name, runner in _SUITES.items()
    }
