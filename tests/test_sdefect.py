"""Symbolic defect: brute force, the two-step recursion, odd cycles,
triangle tails, indecomposability evidence."""
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from symdef import monomials
from symdef import sdefect as sdefect_module
from symdef.covers import (
    _cover_sum_chains,
    _decomposable_covers,
    _minimal_cover_rows,
    cover_ideal,
    ordinary_power,
    symbolic_power,
)
from symdef.graphs import (
    MAX_VERTICES,
    Graph,
    GraphTooLargeError,
    complete,
    cycle,
    path,
    triangle_tail,
)
from symdef.monomials import (
    AmbientMismatchError,
    GeneratorCapExceeded,
    Monomial,
    MonomialIdeal,
    _power_chains,
    all_ones,
    generator_cap,
)
from symdef.sdefect import (
    ODD_CYCLE,
    PreconditionError,
    SdefectReport,
    check_indecomposability_conditions,
    check_indecomposability_exhaustive,
    has_unique_extra_2cover,
    nu,
    sdefect_brute,
    sdefect_cycle,
    sdefect_recursive,
    staircase_ideal,
    verify_triangle_tail,
)

# frozen m = 1..10 sequences, computed by two independent brute-force routes
SEQ_K3 = [0, 1, 3, 4, 6, 7, 9, 10, 12, 13]
SEQ_C5 = [0, 1, 5, 11, 20, 31, 45, 61, 80, 101]


def test_brute_k3_sequence():
    G = complete(3)
    assert [sdefect_brute(G, m).value for m in range(1, 11)] == SEQ_K3


def test_brute_c5_sequence():
    G = cycle(5)
    assert [sdefect_brute(G, m).value for m in range(1, 11)] == SEQ_C5


def test_brute_witnesses_are_outside_ordinary_power():
    G = cycle(5)
    rep = sdefect_brute(G, 3)
    assert rep.value == len(rep.witnesses) == 5
    ordinary = ordinary_power(G, 3)
    sym = symbolic_power(G, 3)
    for w in rep.witnesses:
        assert sym.gens.count(w) == 1
        assert not ordinary.contains(w)


def test_brute_vanishes_on_bipartite():
    for G in (cycle(4), cycle(6), path(5)):
        for m in (1, 2, 3, 4):
            assert sdefect_brute(G, m).value == 0


def _membership_witnesses(G, m):
    """Oracle: the generators of J^(m) that the built J^m does not contain."""
    sym = symbolic_power(G, m)
    inside = ordinary_power(G, m).contains_each(sym.gens)
    return tuple(g for g, hit in zip(sym.gens, inside) if not hit)


class TestBruteWithoutOrdinaryPower:
    def test_witnesses_match_membership_on_atlas(self, connected_atlas):
        rng = random.Random(20180)
        for H in connected_atlas:
            perm = list(range(H.n))
            rng.shuffle(perm)
            G = Graph.from_edges(H.n, [(perm[i], perm[j]) for i, j in H.edges])
            for m in range(1, 6):
                rep = sdefect_brute(G, m)
                expected = _membership_witnesses(G, m)
                # the count mu(J^(m)) - |D_m| against the membership route
                assert rep.value == len(expected), (sorted(G.edges), m)
                assert rep.witnesses == expected, (sorted(G.edges), m)
                # the chain holds generators of J^(m) only: the rest are witnesses
                D, _ = _decomposable_covers(G, m, cover_ideal(G))
                assert len(D) + rep.value == len(symbolic_power(G, m))

    def test_witnesses_match_membership_without_edges_at_some_vertex(self):
        edgeless = Graph.from_edges(3, [])
        isolated = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])  # x4 has no edge
        for G in (edgeless, isolated):
            for m in range(1, 6):
                assert sdefect_brute(G, m).witnesses == _membership_witnesses(G, m)
        assert sdefect_brute(edgeless, 5).value == 0

    def test_known_values(self):
        assert sdefect_brute(cycle(11), 6).value == 485
        assert sdefect_brute(cycle(13), 5).value == 312

    def test_builds_no_ordinary_power(self, monkeypatch):
        calls = []
        multiply, contains_each = MonomialIdeal.multiply, MonomialIdeal.contains_each

        def counting_multiply(self, other):
            calls.append("multiply")
            return multiply(self, other)

        def counting_contains_each(self, queries):
            calls.append("contains_each")
            return contains_each(self, queries)

        monkeypatch.setattr(MonomialIdeal, "multiply", counting_multiply)
        monkeypatch.setattr(MonomialIdeal, "contains_each", counting_contains_each)
        assert sdefect_brute(cycle(9), 7).value == 435
        assert calls == []

    def test_chain_counts_against_cap(self):
        # the usable pairs (d, c_j) with last(d) <= j: 125 for C7 at m = 4,
        # where all |D_3| * |G(J)| = 42 * 7 = 294 sums were formed before
        G = cycle(7)
        J = cover_ideal(G)
        last = _decomposable_covers(G, 3, J)[1]
        count = sum(int((last <= j).sum()) for j in range(len(J)))
        assert count == 125
        # the rows held before level 4 count first, and stay below the pairs
        assert sum(len(D) for D, _, _ in _cover_sum_chains(G, J)[:4]) == 71
        expected = _decomposable_covers(G, 4, J)
        # each cap keeps a chain of its own: every level is built under the cap
        with generator_cap(count - 1):
            with pytest.raises(GeneratorCapExceeded) as exc:
                _decomposable_covers(G, 4, J)
            assert exc.value.candidates == count
        with generator_cap(count):
            built = _decomposable_covers(G, 4, J)
            assert all(map(np.array_equal, built, expected))

    def test_one_row_blocks_change_nothing(self, monkeypatch):
        # one dedup over many blocks keeps, of equal rows, the one with the
        # least j, as one block does
        G = cycle(7)
        J = cover_ideal(G)
        expected = [sdefect_brute(G, m).witnesses for m in range(1, 7)]
        levels = list(_cover_sum_chains(G, J))
        monkeypatch.setattr(monomials, "_BLOCK_WORDS", 1)
        _cover_sum_chains.cache_clear()
        try:
            assert [sdefect_brute(G, m).witnesses for m in range(1, 7)] == expected
            blocked = _cover_sum_chains(G, J)
            assert len(blocked) == len(levels) == 7
            for (D, last, _), (D1, last1, _) in zip(levels, blocked):
                assert np.array_equal(D, D1) and np.array_equal(last, last1)
        finally:
            _cover_sum_chains.cache_clear()


class TestLazyWitnesses:
    def test_value_builds_no_monomial(self, monkeypatch):
        built = []
        real = sdefect_module._row_monomial

        def counting(row):
            built.append(row)
            return real(row)

        monkeypatch.setattr(sdefect_module, "_row_monomial", counting)
        rep = sdefect_brute(cycle(7), 4)
        assert rep.value == 22
        assert built == [] and "witnesses" not in vars(rep)
        assert len(rep.witnesses) == len(built) == 22
        assert rep.witnesses is rep.witnesses and len(built) == 22  # built once

    def test_witnesses_outlive_the_caches(self):
        G, m = cycle(7), 4
        rep = sdefect_brute(G, m)
        symbolic_power.cache_clear()
        _cover_sum_chains.cache_clear()
        witnesses = rep.witnesses
        # the report read its own rows, no cache
        assert symbolic_power.cache_info().currsize == 0
        assert _cover_sum_chains.cache_info().currsize == 0
        assert witnesses == _membership_witnesses(G, m)

    def test_reports_compare_by_value_not_rows(self):
        G = cycle(5)
        first, second = sdefect_brute(G, 3), sdefect_brute(G, 3)
        first.witnesses  # built on one report only
        bare = SdefectReport(first.graph, 3, 5, "brute")
        assert first == second == bare
        assert hash(first) == hash(second) == hash(bare)
        assert repr(first) == repr(bare)
        assert bare.witnesses == ()
        assert sdefect_cycle(cycle(5), 3).witnesses == ()
        assert sdefect_recursive(G, 3).witnesses == ()

    def test_count_peak_memory(self):
        # with J^(6) and D_6 of C13 cached, the count reads two lengths; the
        # set of D_6 rows and the witness monomials peaked at 7.0 MB here
        G, m = cycle(13), 6
        sdefect_brute(G, m)
        tracemalloc.start()
        try:
            rep = sdefect_brute(G, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.value == 937
        assert peak < 1_000_000


def test_m_validation():
    with pytest.raises(ValueError):
        sdefect_brute(complete(3), 0)
    # past the m whose rows int64 holds, J^(m) refuses before the chain is extended
    top = (2**63 - 1) // 3
    with pytest.raises(ValueError, match=f"needs 0 <= m <= {top}"):
        sdefect_brute(complete(3), top + 1)


def test_brute_refuses_a_huge_m_at_the_first_vertex():
    # J^(m) of K2 copies m + 1 rows at its first vertex: past the cap at once,
    # before any level of the chain is built
    _cover_sum_chains.cache_clear()
    with pytest.raises(GeneratorCapExceeded) as exc:
        sdefect_brute(complete(2), 10**9)
    assert exc.value.candidates == 10**9 + 1
    assert _cover_sum_chains.cache_info().currsize == 0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: nu(cover_ideal(complete(3)), -1, all_ones(3)), "nu needs m >= 0"),
        (lambda: sdefect_recursive(complete(3), 0), "sdefect needs m >= 1"),
        (lambda: sdefect_cycle(cycle(5), 0), "sdefect needs m >= 1"),
    ],
    ids=["nu-negative-m", "recursion-m-zero", "cycle-m-zero"],
)
def test_refusal(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestNu:
    def test_m_zero_is_one(self):
        I = cover_ideal(complete(3))
        assert nu(I, 0, all_ones(3)) == 1

    def test_m_one_counts_all_generators(self):
        I = cover_ideal(complete(3))
        assert nu(I, 1, all_ones(3)) == I.mu() == 3

    def test_excludes_divisible_generators(self):
        I = cover_ideal(complete(3))
        # in I^2, only the three squares g_i^2 avoid divisibility by x1x2x3
        assert nu(I, 2, all_ones(3)) == 3

    def test_array_count_matches_monomial_loop(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 4)
            rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(rng.randint(0, 6))]
            P = MonomialIdeal(n, rows)
            # 2**70 does not fit int64: no generator reaches it
            F = Monomial([rng.choice((0, 1, 2, 3, 2**70)) for _ in range(n)])
            assert nu(P, 1, F) == sum(1 for g in P.gens if not F.divides(g))
        with pytest.raises(AmbientMismatchError):
            nu(cover_ideal(complete(3)), 2, all_ones(2))

    def test_unit_ideal_answers_at_once(self):
        assert nu(MonomialIdeal.unit(3), 10**9, all_ones(3)) == 1


class TestRecursion:
    def test_matches_brute_on_complete_graphs(self):
        for n in (3, 4, 5):
            G = complete(n)
            for m in range(1, 9):
                assert sdefect_recursive(G, m).value == sdefect_brute(G, m).value

    def test_matches_brute_on_c5(self):
        G = cycle(5)
        for m in range(1, 9):
            assert sdefect_recursive(G, m).value == SEQ_C5[m - 1]

    def test_matches_brute_on_two_triangles(self, two_triangles):
        for m in range(1, 7):
            got = sdefect_recursive(two_triangles, m).value
            assert got == sdefect_brute(two_triangles, m).value

    def test_exhaustive_check_stays_within_max_m(self):
        # no generator-shape condition holds, so the exhaustive check runs;
        # it tests products of level 2k + s <= m only, one capped batch per
        # (k, s), so it runs past m = 12 as well
        G = Graph.from_edges(5, [(0, 1), (0, 2), (0, 4), (1, 2), (2, 3)])
        for m, expected in zip(range(8, 17), (28, 36, 45, 55, 66, 78, 91, 105, 120)):
            rep = sdefect_recursive(G, m)
            assert rep.method == "recursion(exhaustive-check)"
            assert rep.value == sdefect_brute(G, m).value == expected

    def test_powers_come_from_the_ordinary_power_cache(self, monkeypatch):
        calls = []
        real = MonomialIdeal.multiply

        def counting(self, other):
            calls.append(1)
            return real(self, other)

        _power_chains.cache_clear()
        monkeypatch.setattr(MonomialIdeal, "multiply", counting)
        G = complete(6)
        values = [sdefect_recursive(G, m).value for m in range(1, 13)]
        # J^2, ..., J^10, each built once for all twelve calls
        assert len(calls) == 9
        assert values == [sdefect_brute(G, m).value for m in range(1, 13)]

    def test_rejects_bipartite(self):
        with pytest.raises(PreconditionError):
            sdefect_recursive(cycle(4), 3)

    def test_rejects_tripod_triangle(self, tripod_triangle):
        with pytest.raises(PreconditionError, match="Indecomposability"):
            sdefect_recursive(tripod_triangle, 3)

    def test_unchecked_overcounts_on_tripod_triangle(self, tripod_triangle):
        formula = sdefect_recursive(tripod_triangle, 3, unchecked=True)
        assert formula.method == "recursion-unchecked"
        assert formula.value == 4
        assert sdefect_brute(tripod_triangle, 3).value == 3

    def test_rejects_an_extra_generator_other_than_all_ones(self, triangle_plus_isolated):
        # sdefect(J, 2) = 1, but the extra generator is x1x2x3: the formula
        # would give 7 at m = 4, where the brute count is 4
        assert sdefect_brute(triangle_plus_isolated, 2).witnesses == (Monomial((1, 1, 1, 0)),)
        assert sdefect_brute(triangle_plus_isolated, 4).value == 4
        for unchecked in (False, True):
            with pytest.raises(PreconditionError) as exc:
                sdefect_recursive(triangle_plus_isolated, 4, unchecked=unchecked)
            assert exc.value.hypothesis == sdefect_module.UNIQUE_EXTRA_2COVER

    def test_matches_brute_on_the_connected_atlas(self, connected_atlas):
        # m = 3..6 on the 143 connected graphs with at most 6 vertices; they
        # reach condition 3 and the three-degree branch of
        # check_indecomposability_conditions as well as the exhaustive check
        outcomes = Counter()
        for G in connected_atlas:
            for m in range(3, 7):
                try:
                    rep = sdefect_recursive(G, m)
                except PreconditionError as exc:
                    unique = exc.hypothesis == sdefect_module.UNIQUE_EXTRA_2COVER
                    outcomes["refused: " + ("2-cover" if unique else "indecomposability")] += 1
                    continue
                outcomes[rep.method] += 1
                assert rep.value == sdefect_brute(G, m).value, (sorted(G.edges), m)
        assert outcomes == {
            "recursion": 188,
            "recursion(exhaustive-check)": 72,
            "refused: 2-cover": 308,
            "refused: indecomposability": 4,
        }


class TestIndecomposabilityEvidence:
    def test_complete_graphs_hit_equal_degree_condition(self):
        for n in (3, 4, 5):
            assert check_indecomposability_conditions(complete(n)).condition == 1

    def test_c5_hits_equal_degree_condition(self):
        assert check_indecomposability_conditions(cycle(5)).condition == 1

    def test_k4_minus_an_edge_hits_the_shared_variables_condition(self):
        # the covers of degree 3 all hold x3 and x4, the one of degree 2 neither
        G = Graph.from_edges(4, [e for e in complete(4).edges if e != (2, 3)])
        cert = check_indecomposability_conditions(G)
        assert (cert.condition, cert.alphas, cert.variables) == (3, (2, 3), (2, 3))

    def test_three_cover_degrees_give_no_condition(self):
        G = Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
        cert = check_indecomposability_conditions(G)
        assert (cert.condition, cert.alphas) == (None, (2, 3, 4))

    def test_tripod_triangle_has_counterexample(self, tripod_triangle):
        assert check_indecomposability_conditions(tripod_triangle).condition is None
        ok, counter = check_indecomposability_exhaustive(tripod_triangle, 3)
        assert not ok
        assert counter.k == 1 and len(counter.factors) == 1
        # the offending product factors into three 1-covers
        assert len(counter.decomposition) == 3
        prod = counter.decomposition[0]
        for g in counter.decomposition[1:]:
            prod = prod * g
        assert prod == counter.product

    def test_exhaustive_clean_on_c5(self):
        ok, counter = check_indecomposability_exhaustive(cycle(5), 6)
        assert ok and counter is None

    def test_exhaustive_builds_a_monomial_for_its_hit_only(self, monkeypatch, tripod_triangle):
        built = []
        real = sdefect_module._row_monomial

        def counting(row):
            built.append(row)
            return real(row)

        monkeypatch.setattr(sdefect_module, "_row_monomial", counting)
        assert check_indecomposability_exhaustive(cycle(5), 6) == (True, None)
        assert built == []
        ok, counter = check_indecomposability_exhaustive(tripod_triangle, 3)
        assert not ok
        assert built == [list(counter.product.exps)]

    def test_exhaustive_batch_counts_against_cap(self):
        # T5 has 11 minimal covers; at m = 10 the batch k = 1, s = 8 holds
        # C(18, 8) = 43,758 products, more than any multiply before it
        G = triangle_tail(5)
        with generator_cap(43_757):
            with pytest.raises(GeneratorCapExceeded) as exc:
                check_indecomposability_exhaustive(G, 10)
            assert exc.value.candidates == 43_758


class TestOddCycles:
    def test_staircase_ideal_c5(self):
        I = staircase_ideal(5)
        assert I.mu() == 5
        assert all(g.degree == 3 for g in I.gens)
        assert I == cover_ideal(cycle(5))

    def test_staircase_differs_from_cover_ideal_at_9(self):
        assert staircase_ideal(9) != cover_ideal(cycle(9))

    def test_staircase_needs_odd(self):
        with pytest.raises(ValueError):
            staircase_ideal(4)
        with pytest.raises(ValueError):
            sdefect_cycle(cycle(6), 2)

    def test_staircase_refuses_more_vertices_than_a_graph(self):
        assert staircase_ideal(MAX_VERTICES - 1).mu() == MAX_VERTICES - 1
        for n in (MAX_VERTICES + 1, MAX_VERTICES + 2):
            with pytest.raises(GraphTooLargeError):
                staircase_ideal(n)

    def test_refuses_a_graph_that_is_not_an_odd_cycle(self):
        two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        for G in (cycle(4), path(5), complete(4), two_triangles):
            with pytest.raises(PreconditionError) as exc:
                sdefect_cycle(G, 2)
            assert exc.value.hypothesis == ODD_CYCLE

    def test_any_labelling_gives_the_value_of_the_canonical_cycle(self):
        # C7 under the labels 1 4 2 6 3 7 5 around the cycle
        order = [0, 3, 1, 5, 2, 6, 4]
        relabeled = Graph.from_edges(7, zip(order, order[1:] + order[:1]))
        assert relabeled != cycle(7)
        for m in range(1, 9):
            assert sdefect_cycle(relabeled, m) == sdefect_cycle(cycle(7), m)

    def test_c5_small_values(self):
        assert sdefect_cycle(cycle(5), 3).value == 5

    def test_c5_matches_brute(self):
        for m in range(1, 9):
            assert sdefect_cycle(cycle(5), m).value == SEQ_C5[m - 1]

    def test_c7_matches_brute(self):
        for m in range(1, 7):
            assert sdefect_cycle(cycle(7), m).value == sdefect_brute(cycle(7), m).value

    def test_c9_matches_brute_below_five(self):
        for m in range(1, 5):
            assert sdefect_cycle(cycle(9), m).value == sdefect_brute(cycle(9), m).value

    def test_c9_recursion_at_five(self):
        assert sdefect_cycle(cycle(9), 5).value == sdefect_brute(cycle(9), 5).value

    # minimal covers divisible by F first matter here (a rule that skipped
    # them gave 217 and 176)
    def test_c9_recursion_at_six(self):
        assert sdefect_cycle(cycle(9), 6).value == sdefect_brute(cycle(9), 6).value == 226

    def test_c11_recursion_at_five(self):
        assert sdefect_cycle(cycle(11), 5).value == sdefect_brute(cycle(11), 5).value == 187

    def test_larger_cycles_match_brute(self):
        for n, ms in ((11, [6]), (13, range(1, 6)), (15, range(1, 4))):
            for m in ms:
                assert sdefect_cycle(cycle(n), m).value == sdefect_brute(cycle(n), m).value


class TestPowerChain:
    def test_cycle_recursion_walks_one_chain(self, monkeypatch):
        calls = []
        real = MonomialIdeal.multiply

        def counting(self, other):
            calls.append(1)
            return real(self, other)

        monkeypatch.setattr(MonomialIdeal, "multiply", counting)
        rep = sdefect_cycle(cycle(7), 8)
        # the chain of sums of staircase covers: no power S^k is built
        assert calls == []
        assert rep.value == sdefect_brute(cycle(7), 8).value

    def test_chain_levels_are_the_minimal_covers_of_staircase_powers(self):
        # the definition: the rows of G(S^k) that are minimal k-covers
        for n, m_max in ((5, 12), (7, 10), (9, 8), (11, 7), (13, 6), (15, 5)):
            G, S = cycle(n), staircase_ideal(n)
            levels = []
            for k in range(m_max - 1):
                P = S.power(k)._arr
                expected = P[_minimal_cover_rows(G, P, k)]
                assert np.array_equal(_decomposable_covers(G, k, S)[0], expected), (n, k)
                levels.append(len(expected))
            for m in range(1, m_max + 1):
                assert sdefect_cycle(cycle(n), m).value == sum(levels[m % 2 : m - 1 : 2]), (n, m)


class TestTriangleTail:
    def test_recursion_holds_for_small_tails(self):
        for n in (5, 6, 7):
            rep = verify_triangle_tail(n)
            assert rep.holds
            # one fixed convention works across the whole range:
            # the path factor has n - 4 edges (n - 3 vertices)
            assert rep.right_by_convention["edges"] == rep.left

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            verify_triangle_tail(4)


def test_has_unique_extra_2cover(triangle_plus_isolated):
    assert has_unique_extra_2cover(complete(3))
    assert has_unique_extra_2cover(cycle(5))
    assert not has_unique_extra_2cover(cycle(4))
    assert not has_unique_extra_2cover(triangle_plus_isolated)


def test_has_unique_extra_2cover_matches_brute_on_the_atlas():
    # every graph with 1-7 vertices, connected or not: the structural test
    # holds iff the one generator of J^(2) outside J^2 is all_ones
    import networkx as nx

    for H in nx.graph_atlas_g():
        n = H.number_of_nodes()
        if not 1 <= n <= 7:
            continue
        G = Graph.from_edges(n, H.edges())
        brute = sdefect_brute(G, 2).witnesses == (all_ones(n),)
        assert has_unique_extra_2cover(G) == brute, sorted(G.edges)
