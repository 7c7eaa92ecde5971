"""End-to-end acceptance checks.

Each test covers one acceptance criterion, prints a single PASS/FAIL line
directly to the terminal (bypassing capture), and then asserts.  All values
are exact; there are no numeric tolerances anywhere in this module.
"""
import random
import time
from fractions import Fraction
from math import comb

from conftest import record_criterion

from symdef.asymptotics import (
    fit_quasipolynomial,
    jacobian_rank_full,
    resurgence_lower_bound,
    waldschmidt,
)
from symdef.covers import (
    classify_indecomposable_2cover,
    cover_ideal,
    indecomposability_by_membership,
    minimal_mcovers,
    ordinary_power,
    symbolic_power,
)
from symdef.graphs import Graph, complete, cycle, path
from symdef.monomials import Monomial, MonomialIdeal, all_ones
from symdef.sdefect import (
    check_indecomposability_exhaustive,
    sdefect_brute,
    sdefect_cycle,
    sdefect_recursive,
    staircase_ideal,
    verify_triangle_tail,
)

DIAMOND = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
TWO_TRIANGLES = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
TRIPOD_TRIANGLE = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    line = f"[criterion {number:2d}] {name}: {status}{suffix}"
    print(line)
    record_criterion(line)


def test_criterion_01_complete_graph_closed_form():
    started = time.monotonic()
    failures = []
    for n in (3, 4, 5, 6):
        G = complete(n)
        for m in range(2, 9):
            k, parity = divmod(m - 1, 2)
            expected = n * k + 1 if parity == 1 else n * k
            got = sdefect_brute(G, m).value
            if got != expected:
                failures.append((n, m, got, expected))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 60.0
    report(1, "complete graphs closed form, n=3..6, m=2..8", ok, f"{elapsed:.1f}s")
    assert ok, (failures, elapsed)


def test_criterion_02_bipartite_vanishing(connected_atlas):
    failures = []
    for G in connected_atlas:
        if not G.is_bipartite():
            continue
        for m in range(1, 5):
            if sdefect_brute(G, m).value != 0:
                failures.append((G, m, "sdefect"))
            if symbolic_power(G, m) != ordinary_power(G, m):
                failures.append((G, m, "ideal"))
    ok = not failures
    report(2, "bipartite vanishing on all connected graphs <= 6 vertices, m <= 4", ok)
    assert ok, failures


def test_criterion_03_decomposition_identity(connected_atlas):
    failures = []
    for G in connected_atlas:
        for m in (3, 4, 5):
            lhs = symbolic_power(G, m)
            rhs = ordinary_power(G, m).add(
                symbolic_power(G, 2).multiply(symbolic_power(G, m - 2))
            )
            if lhs != rhs:
                failures.append((G, m))
    ok = not failures
    report(3, "symbolic-power decomposition identity, m=3..5, all graphs <= 6 vertices", ok)
    assert ok, failures


def test_criterion_04_2cover_classification_soundness(connected_atlas):
    disagreements = []
    for G in connected_atlas:
        if G.is_bipartite():
            continue
        for f in minimal_mcovers(G, 2):
            structural = classify_indecomposable_2cover(G, f) is not None
            if structural != indecomposability_by_membership(G, f):
                disagreements.append((G, f))
    ok = not disagreements
    report(4, "2-cover classification matches membership on non-bipartite graphs", ok)
    assert ok, disagreements


def test_criterion_05_unique_extra_2cover_criterion(connected_atlas):
    mismatches = []
    for G in connected_atlas:
        predicted = (not G.is_bipartite()) and G.every_vertex_adjacent_to_every_odd_cycle()
        actual = sdefect_brute(G, 2).value == 1
        if predicted != actual:
            mismatches.append(G)
    ok = not mismatches
    report(5, "structural criterion for a unique extra 2-cover generator", ok)
    assert ok, mismatches


def test_criterion_06_triangle_tail_recursion():
    reports = {n: verify_triangle_tail(n) for n in (5, 6, 7)}
    # one fixed convention must explain every instance, and be named
    ok = all(
        rep.holds and rep.right_by_convention.get("edges") == rep.left
        for rep in reports.values()
    ) and all(rep.convention == "edges" for rep in reports.values())
    report(6, "triangle-tail recursion, n=5..7, path measured in edges", ok)
    assert ok, reports


def test_criterion_07_odd_cycle_recursion():
    failures = []
    ranges = {5: 8, 7: 6, 9: 5}
    for n, m_max in ranges.items():
        for m in range(1, m_max + 1):
            got = sdefect_cycle(cycle(n), m).value
            want = sdefect_brute(cycle(n), m).value
            if got != want:
                failures.append((n, m, got, want))
    seq = [sdefect_brute(cycle(5), m).value for m in range(1, 11)]
    qp = fit_quasipolynomial(seq, start=1, period=2)
    degree_ok = qp.degree == 2 and qp.period <= 2
    ok = not failures and degree_ok
    detail = "; ".join(f"C{n} m={m}: recursion {g} != brute {w}" for n, m, g, w in failures)
    report(7, "odd-cycle recursion C5/C7/C9 and C5 fitted degree 2", ok, detail)
    assert degree_ok
    assert ok, failures


def test_criterion_08_indecomposability_counterexample():
    ok_flag, counter = check_indecomposability_exhaustive(TRIPOD_TRIANGLE, 3)
    found = (
        not ok_flag
        and counter is not None
        and counter.k == 1
        and len(counter.factors) == 1
        and len(counter.decomposition) == 3
        and counter.product == all_ones(6) * counter.factors[0]
    )
    formula = sdefect_recursive(TRIPOD_TRIANGLE, 3, unchecked=True).value
    brute = sdefect_brute(TRIPOD_TRIANGLE, 3).value
    ok = found and formula > brute
    report(
        8,
        "counterexample graph: product check finds F*g1 = g2*g3*g4, formula overcounts at m=3",
        ok,
        f"formula {formula} vs brute {brute}",
    )
    assert ok, (counter, formula, brute)


def test_criterion_09_waldschmidt_and_resurgence():
    checks = []
    for n in (3, 4, 5):
        G = complete(n)
        value = waldschmidt(G).value
        checks.append(value == Fraction(n, 2))
        checks.append(value == Fraction(symbolic_power(G, 2).alpha(), 2))
    c5 = waldschmidt(cycle(5)).value
    checks.append(c5 == Fraction(5, 2))
    checks.append(c5 == Fraction(symbolic_power(cycle(5), 2).alpha(), 2))
    checks.append(resurgence_lower_bound(complete(3)) == Fraction(4, 3))
    checks.append(resurgence_lower_bound(cycle(5)) == Fraction(6, 5))
    ok = all(checks)
    report(9, "Waldschmidt constants K3/K4/K5 = n/2, C5 = 5/2; resurgence bounds 4/3, 6/5", ok)
    assert ok, checks


def test_criterion_10_binomial_generator_counts():
    generator_sets = [
        MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        cover_ideal(complete(3)),
        staircase_ideal(5),
    ]
    failures = []
    for I in generator_sets:
        s = I.mu()
        if not jacobian_rank_full(I.gens):
            failures.append((I, "rank"))
            continue
        for m in range(1, 9):
            if I.power(m).mu() != comb(m + s - 1, s - 1):
                failures.append((I, m))
    ok = not failures
    report(10, "independent generators give binomial mu(I^m), three certified sets, m <= 8", ok)
    assert ok, failures


REGRESSION_SET = {
    "K3": complete(3),
    "K4": complete(4),
    "K5": complete(5),
    "C4": cycle(4),
    "C5": cycle(5),
    "C7": cycle(7),
    "P4": path(4),
    "diamond": DIAMOND,
    "two-triangles": TWO_TRIANGLES,
    "tripod-triangle": TRIPOD_TRIANGLE,
}

# frozen by two independent brute-force routes (edge-power intersection and
# direct exponent-vector enumeration)
FROZEN_SEQUENCES = {
    "K3": [0, 1, 3, 4, 6, 7, 9, 10, 12, 13],
    "K4": [0, 1, 4, 5, 8, 9, 12, 13, 16, 17],
    "K5": [0, 1, 5, 6, 10, 11, 15, 16, 20, 21],
    "C4": [0] * 10,
    "C5": [0, 1, 5, 11, 20, 31, 45, 61, 80, 101],
    "C7": [0, 1, 7, 22, 49, 92, 154, 239, 350, 491],
    "P4": [0] * 10,
    "diamond": [0, 1, 3, 4, 6, 7, 9, 10, 12, 13],
    "two-triangles": [0, 1, 5, 10, 18, 27, 39, 52, 68, 85],
    "tripod-triangle": [0, 1, 3, 7, 13, 22, 34, 50, 70, 95],
}


def test_criterion_11_quasipolynomial_regression_set():
    failures = []
    for name, G in REGRESSION_SET.items():
        seq = [sdefect_brute(G, m).value for m in range(1, 11)]
        if seq != FROZEN_SEQUENCES[name]:
            failures.append((name, "sequence drifted", seq))
            continue
        try:
            qp = fit_quasipolynomial(seq, start=1, period=2)
        except Exception as exc:
            failures.append((name, "no fit", str(exc)))
            continue
        if qp.onset > 4:
            failures.append((name, "onset", qp.onset))
        if [qp.evaluate(m) for m in range(qp.onset, 11)] != seq[qp.onset - 1:]:
            failures.append((name, "fit does not reproduce samples"))
    ok = not failures
    report(11, "period-2 fit succeeds with onset <= 4 on the 10-graph regression set", ok)
    assert ok, failures


def _random_monomial(rng, n=4, max_exp=4):
    return Monomial(tuple(rng.randint(0, max_exp) for _ in range(n)))


def _random_ideal(rng, n=4):
    return MonomialIdeal(n, [_random_monomial(rng, n) for _ in range(rng.randint(1, 5))])


def test_criterion_12_property_suites():
    rng = random.Random(414243)
    cases = 10_000
    failures = 0
    for case in range(cases):
        law = case % 5
        if law == 0:
            a, b = _random_monomial(rng), _random_monomial(rng)
            if a.divides(b) != (a.lcm(b) == b):
                failures += 1
            if (a * b).degree != a.degree + b.degree:
                failures += 1
        elif law == 1:
            I, m = _random_ideal(rng), _random_monomial(rng)
            if I.contains(m) != any(g.divides(m) for g in I.gens):
                failures += 1
        elif law == 2:
            I, J, m = _random_ideal(rng), _random_ideal(rng), _random_monomial(rng)
            if I.intersect(J).contains(m) != (I.contains(m) and J.contains(m)):
                failures += 1
            if I.add(J).contains(m) != (I.contains(m) or J.contains(m)):
                failures += 1
        elif law == 3:
            I, J = _random_ideal(rng), _random_ideal(rng)
            if I.multiply(J).alpha() != I.alpha() + J.alpha():
                failures += 1
        else:
            I = _random_ideal(rng)
            if MonomialIdeal(I.n, I.gens) != I:
                failures += 1
            a, b = rng.randint(0, 2), rng.randint(0, 2)
            if I.power(a + b) != I.power(a).multiply(I.power(b)):
                failures += 1

    # local saturation: if f times every "all variables but two" monomial
    # lies in the symbolic power, f was already in it
    saturation_failures = 0
    for G in (cycle(5), TWO_TRIANGLES):
        pairs = [(a, b) for a in range(G.n) for b in range(a + 1, G.n)]
        for m in (2, 3):
            sym = symbolic_power(G, m)
            for _ in range(100):
                f = _random_monomial(rng, G.n, 3)
                everywhere = all(
                    sym.contains(
                        f * Monomial(tuple(0 if i in (a, b) else 1 for i in range(G.n)))
                    )
                    for a, b in pairs
                )
                if everywhere and not sym.contains(f):
                    saturation_failures += 1

    containment_failures = 0
    for G in REGRESSION_SET.values():
        for m in range(1, 6):
            if not symbolic_power(G, m).contains_each(ordinary_power(G, m).gens).all():
                containment_failures += 1

    ok = failures == 0 and saturation_failures == 0 and containment_failures == 0
    report(
        12,
        f"property suites: {cases} randomized algebra cases, saturation implication, containment",
        ok,
    )
    assert ok, (failures, saturation_failures, containment_failures)
