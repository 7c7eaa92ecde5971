"""Symbolic defect: brute force, the two-step recursion, odd cycles,
triangle tails, indecomposability evidence."""
import random
from itertools import islice

import numpy as np
import pytest

from symdef import monomials
from symdef import sdefect as sdefect_module
from symdef.covers import _decomposable_covers, cover_ideal, ordinary_power, symbolic_power
from symdef.graphs import Graph, complete, cycle, path, triangle_tail
from symdef.monomials import (
    AmbientMismatchError,
    GeneratorCapExceeded,
    Monomial,
    MonomialIdeal,
    all_ones,
    generator_cap,
)
from symdef.sdefect import (
    PreconditionError,
    _not_divisible_count,
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
                assert rep.witnesses == _membership_witnesses(G, m), (sorted(G.edges), m)
                # the chain holds generators of J^(m) only: the rest are witnesses
                assert len(_decomposable_covers(G, m)) + rep.value == len(symbolic_power(G, m))

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
        G = cycle(7)
        count = len(_decomposable_covers(G, 3)) * len(cover_ideal(G))
        build = _decomposable_covers.__wrapped__  # uncached: every call runs under the cap
        with generator_cap(count - 1):
            with pytest.raises(GeneratorCapExceeded):
                build(G, 4)
        with generator_cap(count):
            assert np.array_equal(build(G, 4), _decomposable_covers(G, 4))

    def test_one_row_blocks_change_nothing(self, monkeypatch):
        G = cycle(7)
        expected = [sdefect_brute(G, m).witnesses for m in range(1, 7)]
        monkeypatch.setattr(monomials, "_BLOCK_WORDS", 1)
        _decomposable_covers.cache_clear()
        try:
            assert [sdefect_brute(G, m).witnesses for m in range(1, 7)] == expected
        finally:
            _decomposable_covers.cache_clear()


def test_m_validation():
    with pytest.raises(ValueError):
        sdefect_brute(complete(3), 0)
    with pytest.raises(ValueError):
        sdefect_brute(complete(3), 99)


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
            assert _not_divisible_count(P, F) == sum(1 for g in P.gens if not F.divides(g))
        with pytest.raises(AmbientMismatchError):
            nu(cover_ideal(complete(3)), 2, all_ones(2))


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
        # it tests products of level 2k + s <= m only, so m up to MAX_M works
        G = Graph.from_edges(5, [(0, 1), (0, 2), (0, 4), (1, 2), (2, 3)])
        for m, expected in zip(range(8, 13), (28, 36, 45, 55, 66)):
            rep = sdefect_recursive(G, m)
            assert rep.method == "recursion(exhaustive-check)"
            assert rep.value == sdefect_brute(G, m).value == expected

    def test_powers_come_from_the_ordinary_power_cache(self, monkeypatch):
        calls = []
        real = MonomialIdeal.multiply

        def counting(self, other):
            calls.append(1)
            return real(self, other)

        ordinary_power.cache_clear()
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


class TestIndecomposabilityEvidence:
    def test_complete_graphs_hit_equal_degree_condition(self):
        for n in (3, 4, 5):
            assert check_indecomposability_conditions(complete(n)).condition == 1

    def test_c5_hits_equal_degree_condition(self):
        assert check_indecomposability_conditions(cycle(5)).condition == 1

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
            sdefect_cycle(6, 2)

    def test_c5_small_values(self):
        assert sdefect_cycle(5, 3).value == 5

    def test_c5_matches_brute(self):
        for m in range(1, 9):
            assert sdefect_cycle(5, m).value == SEQ_C5[m - 1]

    def test_c7_matches_brute(self):
        for m in range(1, 7):
            assert sdefect_cycle(7, m).value == sdefect_brute(cycle(7), m).value

    def test_c9_matches_brute_below_five(self):
        for m in range(1, 5):
            assert sdefect_cycle(9, m).value == sdefect_brute(cycle(9), m).value

    def test_c9_recursion_at_five(self):
        assert sdefect_cycle(9, 5).value == sdefect_brute(cycle(9), 5).value

    # minimal covers divisible by F first matter here (a rule that skipped
    # them gave 217 and 176)
    def test_c9_recursion_at_six(self):
        assert sdefect_cycle(9, 6).value == sdefect_brute(cycle(9), 6).value == 226

    def test_c11_recursion_at_five(self):
        assert sdefect_cycle(11, 5).value == sdefect_brute(cycle(11), 5).value == 187

    def test_larger_cycles_match_brute(self):
        for n, ms in ((11, [6]), (13, range(1, 6)), (15, range(1, 4))):
            for m in ms:
                assert sdefect_cycle(n, m).value == sdefect_brute(cycle(n), m).value


class TestPowerChain:
    def test_powers_match_power(self):
        I = cover_ideal(cycle(5))
        assert list(islice(I.powers(), 5)) == [I.power(k) for k in range(5)]

    def test_cycle_recursion_walks_one_chain(self, monkeypatch):
        calls = []
        real = MonomialIdeal.multiply

        def counting(self, other):
            calls.append(1)
            return real(self, other)

        monkeypatch.setattr(MonomialIdeal, "multiply", counting)
        rep = sdefect_cycle(7, 8)
        # one chain S^0, ..., S^6, not each S^k rebuilt (9 multiplies)
        assert len(calls) <= 8 - 2
        assert rep.value == sdefect_brute(cycle(7), 8).value


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


def test_has_unique_extra_2cover():
    assert has_unique_extra_2cover(complete(3))
    assert has_unique_extra_2cover(cycle(5))
    assert not has_unique_extra_2cover(cycle(4))
