"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Expected values are either independently derived here
(group-orbit oracles, per-model re-verification) or frozen constants
cross-checked against closed-form counts.
"""

import random
import time

import numpy as np

import oracles
from arcschemes.arcs import (
    check_neighborhood_condition,
    intersection_graph,
    reduce,
    reduction_failures,
)
from arcschemes.characterize import (
    OUTER_DIHEDRAL,
    OUTER_FORESTAL_MATCHING,
    OUTER_RANK2,
    STAGE_NON_ASSOCIATION,
    decompose_caw,
    predicted_aut_order,
    verify_wreath_theorem,
)
from arcschemes.closure import closure_of_graph
from arcschemes.graphs import (
    complete,
    cycle,
    edge_level_partition,
    elementary_caw,
    empty_graph,
    lex_product,
    twin_relation,
)
from arcschemes.schemes import (
    CoherentConfiguration,
    dihedral_scheme,
    is_association,
    verify,
)
from arcschemes.suites import run_dihedral_suite


def _finish(num: int, name: str, failures: list, started: float, budget: float | None):
    elapsed = time.perf_counter() - started
    if budget is not None and elapsed >= budget:
        failures.append(f"runtime {elapsed:.2f}s exceeded budget {budget}s")
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} ({elapsed:.2f}s)")
    assert not failures, f"{name}: " + "; ".join(str(f) for f in failures[:5])


def test_criterion_1_dihedral_sweep():
    started = time.perf_counter()
    failures = []
    cases = [(n, k) for n in range(5, 15) for k in range(1, n) if 2 * k + 2 < n]
    assert cases
    rows, _ = run_dihedral_suite(14)
    assert [row["case"] for row in rows] == [f"C_{{{n},{k}}}" for n, k in cases]
    for (n, k), row in zip(cases, rows):
        cc = closure_of_graph(elementary_caw(n, k))
        target = dihedral_scheme(n)
        if oracles.scheme_pair_classes(target) != oracles.dihedral_pair_orbits(n):
            failures.append(f"dihedral_scheme({n}) disagrees with the orbit oracle")
        if not is_association(cc):
            failures.append(f"C_{{{n},{k}}}: closure not association")
        if cc.rank != n // 2 + 1:
            failures.append(f"C_{{{n},{k}}}: rank {cc.rank}, expected {n // 2 + 1}")
        verdict = oracles.schemes_isomorphic(cc, target)
        if verdict.kind != "iso":
            failures.append(f"C_{{{n},{k}}}: oracle verdict {verdict.kind}, expected iso")
        if row["status"] != "pass" or f"iso={verdict.kind}" not in row["detail"].split():
            failures.append(f"C_{{{n},{k}}}: suite row {row} disagrees with the oracle")
    _finish(1, "dihedral theorem sweep", failures, started, budget=10.0)


def test_criterion_2_matching_case():
    started = time.perf_counter()
    failures = []
    for k in range(1, 6):
        g = elementary_caw(2 * k + 2, k)
        cc = closure_of_graph(g)
        if cc.rank != 3:
            failures.append(f"k={k}: rank {cc.rank} != 3")
        target = CoherentConfiguration(
            oracles.wreath_product_oracle(oracles.rank2_scheme(2), oracles.rank2_scheme(k + 1)))
        verdict = oracles.schemes_isomorphic(cc, target)
        if verdict.kind != "iso":
            failures.append(f"k={k}: oracle verdict {verdict.kind}")
        library = decompose_caw(g).certificate.outer  # decompose_caw raises on a mismatch
        if library != OUTER_FORESTAL_MATCHING:
            failures.append(f"k={k}: library outer scheme {library}, expected matching")
    _finish(2, "matching-case scheme", failures, started, budget=1.0)


def _check_certificate(g, cert) -> str | None:
    seen = set()
    for u in range(g.n):
        au, bu = divmod(cert.points[u], cert.r)
        if not (0 <= au < cert.m and 0 <= bu < cert.r):
            return f"label ({au},{bu}) out of range"
        seen.add((au, bu))
        for v in range(u + 1, g.n):
            av, bv = divmod(cert.points[v], cert.r)
            if au == av:
                want = bu != bv
            else:
                want = 1 <= oracles.circular_distance(au, av, cert.m) <= cert.k
            if g.adj[u, v] != want:
                return f"adjacency mismatch at ({u},{v})"
    if len(seen) != g.n:
        return "points are not a permutation"
    return None


def test_criterion_3_round_trip():
    started = time.perf_counter()
    failures = []
    cases = [
        (m, k, r)
        for m in range(2, 25)
        for k in range(0, m)
        for r in range(1, 25)
        if 2 * k + 1 < m and m * r <= 24
    ]
    assert len(cases) > 100
    for m, k, r in cases:
        g = lex_product(elementary_caw(m, k), complete(r))
        out = decompose_caw(g)
        if not out.ok:
            failures.append(f"(m={m},k={k},r={r}): failed at {out.failure_stage}")
            continue
        cert = out.certificate
        problem = _check_certificate(g, cert)
        if problem:
            failures.append(f"(m={m},k={k},r={r}): {problem}")
        if (cert.k, cert.r) != (k, r):
            failures.append(f"(m={m},k={k},r={r}): recovered k={cert.k}, r={cert.r}")
        if k >= 1 and cert.m != m:
            failures.append(f"(m={m},k={k},r={r}): recovered m={cert.m}")
        kind = (OUTER_RANK2 if k == 0 else OUTER_FORESTAL_MATCHING if m == 2 * k + 2
                else OUTER_DIHEDRAL)
        outer = cert.outer  # decompose_caw raised if the closure were not rank2(r) wr X
        if outer != kind:
            failures.append(f"(m={m},k={k},r={r}): outer scheme {outer}, expected {kind}")
    _finish(3, "decomposition round-trip", failures, started, budget=60.0)


def test_criterion_4_negative_completeness():
    started = time.perf_counter()
    failures = []
    named = {
        "P_4": oracles.path(4),
        "Petersen": oracles.petersen(),
        "K_{1,3}": oracles.star(3),
    }
    for name, g in named.items():
        out = decompose_caw(g)
        if out.ok:
            failures.append(f"{name}: false positive")
        elif not out.failure_stage:
            failures.append(f"{name}: missing failure stage")
    p4 = decompose_caw(named["P_4"])
    if p4.failure_stage != STAGE_NON_ASSOCIATION:
        failures.append(f"P_4 failed at {p4.failure_stage!r}, expected non-association")

    rng = random.Random(20240915)
    found = 0
    while found < 50:
        f = oracles.random_arc_function(rng, max_vertices=10)
        g = intersection_graph(f)
        if g.is_regular() or twin_relation(g).max() + 1 < g.n:
            continue
        found += 1
        out = decompose_caw(g)
        if out.ok:
            failures.append(f"irregular model #{found}: false positive (arcs {f.arcs})")
        elif not out.failure_stage:
            failures.append(f"irregular model #{found}: missing failure stage")
    _finish(4, "negative completeness", failures, started, budget=None)


def test_criterion_5_wreath_theorem():
    started = time.perf_counter()
    failures = []
    rng = random.Random(20240916)
    for i in range(50):
        r = rng.randint(1, 3)
        n = rng.randint(2, 8)
        outer = oracles.random_graph(rng, n)
        report = verify_wreath_theorem(r, outer)
        if not report.fusion_holds:
            failures.append(f"case {i}: fusion fails (r={r}, edges={outer.edges()})")
        if report.iso_asserted and report.iso != "iso":
            failures.append(f"case {i}: asserted iso is {report.iso}")
        inner = closure_of_graph(complete(r))
        wreath = CoherentConfiguration(oracles.wreath_product_oracle(inner, closure_of_graph(outer)))
        actual = closure_of_graph(lex_product(outer, complete(r)))
        oracle = oracles.schemes_isomorphic(actual, wreath)
        if report.iso != oracle.kind:
            failures.append(f"case {i}: verdict {report.iso}, oracle {oracle.kind}")
    counter = verify_wreath_theorem(3, complete(2))
    if not counter.fusion_holds:
        failures.append("K_2[K_3]: fusion should hold")
    if counter.iso != "not-iso":
        failures.append(f"K_2[K_3]: iso verdict {counter.iso}, expected not-iso")
    _finish(5, "wreath theorem both statements", failures, started, budget=None)


def test_criterion_6_automorphism_order():
    started = time.perf_counter()
    failures = []
    instances = [
        ("C_5[K_2]", lex_product(cycle(5), complete(2)), (5, 1, 2), 320),
        ("K_6 minus matching", elementary_caw(6, 2), (6, 2, 1), 48),
        ("3K_2", lex_product(empty_graph(3), complete(2)), (3, 0, 2), 48),
        ("C_7", cycle(7), (7, 1, 1), 14),
    ]
    for name, g, (m, k, r), expected in instances:
        counted = oracles.count_automorphisms(g)
        predicted = predicted_aut_order(m, k, r)
        if not (counted == predicted == expected):
            failures.append(f"{name}: counted {counted}, predicted {predicted}, expected {expected}")
    _finish(6, "automorphism order formula", failures, started, budget=30.0)


def test_criterion_7_reduction_correctness():
    started = time.perf_counter()
    failures = []
    rng = random.Random(20240917)
    accepted = 0
    while accepted < 100:
        f = oracles.random_arc_function(rng, max_vertices=10)
        g = intersection_graph(f)
        if g.edge_count() == 0 or not check_neighborhood_condition(g).ok:
            continue
        accepted += 1
        try:
            reduced = reduce(f)
        except ValueError as exc:
            failures.append(f"model #{accepted} (arcs {f.arcs}): reduce raised {exc}")
            continue
        if intersection_graph(reduced) != g:
            failures.append(f"model #{accepted}: intersection graph changed")
        problems = reduction_failures(reduced)
        if problems:
            failures.append(f"model #{accepted}: {problems[0]}")
        for v in range(reduced.n_vertices):
            if g.degree(v) != 2 * reduced.arcs[v][1] - 2:
                failures.append(f"model #{accepted}: degree formula fails at vertex {v}")
                break
    _finish(7, "reduction correctness", failures, started, budget=None)


def test_criterion_8_closure_coherence(corpus):
    started = time.perf_counter()
    failures = []
    graphs = [g for g in corpus if g.n <= 12]
    graphs += [
        elementary_caw(n, k)
        for n in range(4, 13)
        for k in range(1, n)
        if 2 * k + 1 < n
    ]
    assert graphs
    for g in graphs:
        cc = closure_of_graph(g)
        report = verify(cc)
        if not report.ok:
            failures.append(f"{g}: closure not coherent ({report.message})")
        for level, member in edge_level_partition(g).items():
            colors = set(cc.colors[member].tolist())
            if sum(cc.sizes[c] for c in colors) != np.count_nonzero(member):
                failures.append(f"{g}: level {level} is not a union of colors")
    _finish(8, "closure coherence and edge levels", failures, started, budget=None)
