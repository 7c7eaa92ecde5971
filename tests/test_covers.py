"""Cover ideals, symbolic powers, m-covers, 2-cover classification."""
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from symdef.covers import (
    _cover_sum_chains,
    _decomposable_covers,
    _elimination_plan,
    _minimal_cover_rows,
    _row_dtype,
    classify_indecomposable_2cover,
    cover_ideal,
    enumerate_minimal_mcovers,
    indecomposability_by_membership,
    is_m_cover,
    is_minimal_mcover,
    minimal_mcovers,
    ordinary_power,
    symbolic_power,
)
from symdef.graphs import Graph, complete, cycle, path, triangle_tail
from symdef.monomials import (
    GeneratorCapExceeded,
    Monomial,
    MonomialIdeal,
    _DEFAULT_GENERATOR_CAP,
    _minimal_rows,
    _power_chains,
    all_ones,
    generator_cap,
)
from symdef.sdefect import staircase_ideal


def _relabeled(H: Graph, rng: random.Random) -> Graph:
    perm = list(range(H.n))
    rng.shuffle(perm)
    return Graph.from_edges(H.n, [(perm[i], perm[j]) for i, j in H.edges])


def test_cover_ideal_k3():
    I = cover_ideal(complete(3))
    assert I.gens == (Monomial((1, 1, 0)), Monomial((1, 0, 1)), Monomial((0, 1, 1)))
    assert I.alpha() == 2


def test_cover_ideal_edgeless_is_unit():
    assert cover_ideal(Graph.from_edges(2, [])).is_unit()


def test_cover_ideal_generators_are_minimal_covers():
    for G in (cycle(5), path(4), triangle_tail(2)):
        for g in cover_ideal(G).gens:
            assert g.is_squarefree()
            assert is_m_cover(G, g, 1)
            # dropping any support vertex breaks some edge
            for i in g.support():
                smaller = Monomial(tuple(0 if j == i else e for j, e in enumerate(g.exps)))
                assert not is_m_cover(G, smaller, 1)


def test_symbolic_power_zero_and_one():
    G = cycle(4)
    assert symbolic_power(G, 0).is_unit()
    assert symbolic_power(G, 1) == cover_ideal(G)


def test_symbolic_power_against_direct_enumeration():
    for G in (complete(3), complete(4), cycle(5), path(4), triangle_tail(2)):
        for m in (1, 2, 3):
            assert minimal_mcovers(G, m) == enumerate_minimal_mcovers(G, m)


def test_minimal_cover_rows_match_direct_enumeration(connected_atlas):
    # the equation shared by D_m and the cycle recursion, against the
    # oracle on every row of {0..m}^n
    for G in connected_atlas:
        if G.n > 5:
            continue
        for m in range(4):
            grid = np.indices((m + 1,) * G.n).reshape(G.n, -1).T
            minimal = {g.exps for g in enumerate_minimal_mcovers(G, m)}
            expected = [tuple(row) in minimal for row in grid.tolist()]
            assert _minimal_cover_rows(G, grid, m).tolist() == expected


def test_is_minimal_mcover_refuses_another_ring():
    with pytest.raises(ValueError, match="monomial on 3 variables, graph on 5"):
        is_minimal_mcover(cycle(5), Monomial((1, 1, 1)), 2)


def test_is_minimal_mcover_matches_direct_enumeration(connected_atlas):
    # on up to 5 vertices every row of {0..m}^n, covers or not; on 6 the
    # minimal m-covers and each of them raised at one vertex, an m-cover
    # that is not minimal
    for G in connected_atlas:
        for m in range(4):
            minimal = {g.exps for g in enumerate_minimal_mcovers(G, m)}
            if G.n <= 5:
                cases = itertools.product(range(m + 1), repeat=G.n)
            else:
                raised = {e[:v] + (e[v] + 1,) + e[v + 1 :] for e in minimal for v in range(G.n)}
                cases = minimal | raised
            for exps in cases:
                got = is_minimal_mcover(G, Monomial(exps), m)
                assert got == (exps in minimal), (sorted(G.edges), m, exps)


def test_is_minimal_mcover_past_the_generator_cap():
    # J^(12) of C17 has 27.6M generators; the test reads the edges alone, not J^(m)
    G, f = cycle(17), Monomial((6,) * 17)
    assert is_minimal_mcover(G, f, 12)
    assert not is_minimal_mcover(G, f * Monomial((1,) + (0,) * 16), 12)
    assert not is_minimal_mcover(G, f, 13)


def _intersection_fold(G: Graph, m: int) -> MonomialIdeal:
    """Oracle: J^(m) as the intersection over the edges of (x_i, x_j)^m."""
    result = MonomialIdeal.unit(G.n)
    for i, j in G.edge_list():
        rows = np.zeros((m + 1, G.n), dtype=np.int64)
        rows[:, i] = np.arange(m, -1, -1)
        rows[:, j] = np.arange(m + 1)
        result = result.intersect(MonomialIdeal(G.n, rows.tolist()))
    return result


def test_symbolic_power_equals_intersection_fold(connected_atlas):
    rng = random.Random(20070)
    cases = [(_relabeled(H, rng), 6) for H in connected_atlas]
    # sparse graphs, where each step re-checks the drop rule only at a
    # strict subset of the fixed vertices
    for H in (path(9), cycle(11), triangle_tail(10), cycle(13)):
        cases += [(H, 5), (_relabeled(H, rng), 5)]
    for G, top in cases:
        for m in range(top):
            assert symbolic_power(G, m) == _intersection_fold(G, m), (sorted(G.edges), m)


def test_kernel_keeps_symbolic_power_output(connected_atlas):
    # the construction emits its antichain unchecked; the kernel on that
    # output must keep every row, in the same order
    rng = random.Random(20071)
    cases = [(_relabeled(H, rng), m) for H in connected_atlas for m in range(6)]
    for G, m in cases + [(cycle(13), 5)]:
        rows = symbolic_power(G, m)._arr
        assert np.array_equal(_minimal_rows(rows), rows), (sorted(G.edges), m)


def test_symbolic_power_without_edges_at_some_vertex():
    edgeless = Graph.from_edges(3, [])
    isolated = Graph.from_edges(4, [(0, 1), (1, 2)])  # vertex x4 has no edge
    for G in (edgeless, isolated):
        for m in range(4):
            assert symbolic_power(G, m) == _intersection_fold(G, m)
    assert all(symbolic_power(edgeless, m).is_unit() for m in range(4))


def test_symbolic_power_partial_rows_stay_small():
    # the drop rule for vertices without a tight neighbour keeps K7 at
    # m = 10 to at most 141 partial rows per vertex; without it, 423,541
    build = symbolic_power.__wrapped__  # uncached: every call runs under the cap
    with generator_cap(20_000):
        assert len(build(complete(7), 10)) == 36
    with generator_cap(100):
        with pytest.raises(GeneratorCapExceeded):
            build(complete(7), 10)


def test_nested_cap_blocks_restore_the_outer_cap():
    # the inner block caches J^(10) of K7, built under 20,000; leaving it
    # steps the cap down to 100 again, which must empty that cache
    with generator_cap(100):
        with generator_cap(20_000):
            assert len(symbolic_power(complete(7), 10)) == 36
        with pytest.raises(GeneratorCapExceeded):
            symbolic_power(complete(7), 10)


def test_symbolic_power_touched_vertices_prune_like_all_fixed():
    # re-checking the drop rule only where step v changed something keeps
    # the same partial rows as re-checking every fixed vertex: on C13 at
    # m = 4 the largest step copies 13,255 rows either way, and skipping
    # the free neighbours' neighbours would copy 14,890
    build = symbolic_power.__wrapped__  # uncached: every call runs under the cap
    with generator_cap(13_255):
        assert len(build(cycle(13), 4)) == 3836
    with generator_cap(13_254):
        with pytest.raises(GeneratorCapExceeded):
            build(cycle(13), 4)


def test_elimination_plan_serves_the_right_graph(connected_atlas):
    # more graphs than the plan cache holds, visited round robin so each
    # plan is evicted between uses: relabelings of one graph, and one
    # graph built from two edge lists in different orders
    rng = random.Random(20072)
    T = triangle_tail(4)
    graphs = [H for H in connected_atlas if H.n >= 4][:12]
    graphs += [_relabeled(cycle(7), rng) for _ in range(6)]
    graphs += [T, Graph.from_edges(T.n, [(j, i) for i, j in reversed(T.edge_list())])]
    assert len(set(graphs)) > _elimination_plan.cache_info().maxsize
    caches = (_elimination_plan, symbolic_power, _cover_sum_chains)

    def cold(G, m):
        for f in caches:
            f.cache_clear()
        J_m = symbolic_power.__wrapped__(G, m)._arr
        return J_m, _decomposable_covers(G, m, cover_ideal(G))

    expected = {(G, m): cold(G, m) for G in graphs for m in (1, 2, 3)}
    for f in caches:
        f.cache_clear()
    for m in (1, 2, 3):
        for G in graphs + graphs[::-1]:
            J, D = expected[G, m]
            assert np.array_equal(symbolic_power.__wrapped__(G, m)._arr, J), (sorted(G.edges), m)
            _cover_sum_chains.cache_clear()  # every level reads the plan cache again
            D_m, last = _decomposable_covers(G, m, cover_ideal(G))
            assert np.array_equal(D_m, D[0]) and np.array_equal(last, D[1]), (sorted(G.edges), m)


def test_symbolic_power_peak_memory():
    # one array of (e | low) rows and one check per touched vertex keep
    # the peak of C13 at m = 6 near 27 MB; a temporary of rows x touched
    # vertices x neighbours per step would break the bound
    tracemalloc.start()
    try:
        symbolic_power.__wrapped__(cycle(13), 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28_000_000


def test_symbolic_power_peak_memory_in_narrow_rows():
    # the rows are int8 at this m, also as they are sorted and deduplicated:
    # a 25.1 MB peak measured, where int64 rows peaked at 142.2 MB
    assert _row_dtype(6) == np.int8
    tracemalloc.start()
    try:
        with generator_cap(10_000_000):
            symbolic_power.__wrapped__(cycle(15), 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 50_000_000


@pytest.mark.parametrize("m", [2**14 - 1, 2**14])
def test_row_type_holds_twice_m_across_the_int16_boundary(m):
    dtype = _row_dtype(m)
    assert dtype == (np.int16 if m < 2**14 else np.int32)
    assert np.iinfo(dtype).max >= 2 * m
    # each vertex is closed, with no neighbour, so e_v = 0 is forced and
    # the one partial row is never copied
    J = symbolic_power.__wrapped__(Graph.from_edges(2, []), m)
    assert J.is_unit() and J._arr.dtype == np.int64


def test_row_type_is_int8_up_to_m_63():
    # 2m = 126 fits int8 at m = 63; 2m = 128 does not at m = 64
    assert (_row_dtype(63), _row_dtype(64)) == (np.int8, np.int16)


@pytest.mark.parametrize("m", [63, 64])
def test_symbolic_powers_across_the_int8_boundary(m):
    # J(P2)^(m) = (x1, x2)^m: x2 is closed, and the tightness test at x1
    # adds e + low up to 2m
    J = symbolic_power.__wrapped__(path(2), m)
    assert J == MonomialIdeal(2, [(a, m - a) for a in range(m + 1)])
    assert J._arr.dtype == np.int64
    # K3 copies rows at two vertices and checks both rules: the oracle
    # searches all of {0..m}^3 in Python ints
    K3 = complete(3)
    assert symbolic_power.__wrapped__(K3, m).gens == enumerate_minimal_mcovers(K3, m)


@pytest.mark.parametrize("G", [path(2), complete(3)], ids=["P2", "K3"])
def test_chain_levels_across_the_int8_boundary(G):
    # every level up to m = 64 by the full product, in int64; levels 63
    # and 64 are held in int8 and int16
    _cover_sum_chains.cache_clear()
    base, prev = cover_ideal(G), np.zeros((1, G.n), dtype=np.int64)
    for m in range(1, 65):
        expected = _full_product_level(G, prev, base, m)
        D, last = _decomposable_covers(G, m, base)
        assert np.array_equal(D, expected) and D.dtype == _row_dtype(m), m
        prev = expected


def test_symbolic_power_refuses_m_past_the_row_bound():
    # one vertex: the rows hold e <= m and the partial rows 2m, both in int64
    G = Graph.from_edges(1, [])
    top = (2**63 - 1) // 2
    for m in (2**63, top + 1, -1):
        with pytest.raises(ValueError, match=f"needs 0 <= m <= {top}, got {m}"):
            symbolic_power.__wrapped__(G, m)
    # the largest m passes the range check; the vertex is closed, so e = 0
    # is forced with no copy
    assert symbolic_power.__wrapped__(G, top).is_unit()
    with pytest.raises(ValueError, match=f"needs 0 <= m <= {(2**63 - 1) // 5}"):
        symbolic_power.__wrapped__(cycle(5), (2**63 - 1) // 5 + 1)


def test_path_symbolic_powers_in_narrow_rows():
    # J(P2)^(m) = (x1, x2)^m: the m + 1 monomials of degree m
    for m in (0, 1, 7, 600):
        J = symbolic_power.__wrapped__(path(2), m)
        assert J._arr.dtype == np.int64
        assert sorted(J._arr[:, 0].tolist()) == list(range(m + 1))
        assert (J._arr.sum(axis=1) == m).all()
    for G in (path(2), cycle(5), complete(4), triangle_tail(3)):
        _cover_sum_chains.cache_clear()
        for m in range(5):
            D, _ = _decomposable_covers(G, m, cover_ideal(G))
            assert D.dtype == _row_dtype(m), (sorted(G.edges), m)


def test_closed_vertex_takes_its_forced_exponent_without_copies():
    # x2 of P2 is closed: e_2 = m - e_1 is set in place, so J(P2)^(700)
    # needs 701 partial rows, where one copy per value of e_2 needed
    # (m + 1)(m + 2) / 2 = 246,051, past the default cap
    J = symbolic_power.__wrapped__(path(2), 700)
    assert len(J) == 701
    assert (J._arr.sum(axis=1) == 700).all()


def test_ordinary_power_matches_plain_ideal_power():
    G = cycle(5)
    I = cover_ideal(G)
    for m in range(4):
        assert ordinary_power(G, m) == I.power(m)


def test_ordinary_power_is_built_in_a_loop():
    # one multiply per step, no recursion: a cold m = 1200 ends at the cap
    _power_chains.cache_clear()
    with pytest.raises(GeneratorCapExceeded):
        ordinary_power(cycle(5), 1200)
    G = Graph.from_edges(1, [])
    with pytest.raises(ValueError, match="needs 0 <= m <= "):
        ordinary_power(G, 2**63)
    with pytest.raises(ValueError):
        ordinary_power(G, -1)
    assert ordinary_power(G, 2**40).is_unit()
    # built upward from the highest power already built
    _power_chains.cache_clear()
    J = cover_ideal(cycle(7))
    assert ordinary_power(cycle(7), 3) == J.power(3)
    assert ordinary_power(cycle(7), 5) == J.power(5)
    assert len(_power_chains(J)) == 6


def test_power_chain_counts_the_powers_it_holds():
    # J(K2)^k has k + 1 generators, so each step stays far below the cap;
    # the powers I^0, ..., I^44 held before I^45 sum to 1,035 and trip it
    with generator_cap(1000):
        with pytest.raises(GeneratorCapExceeded) as exc:
            ordinary_power(complete(2), 100)
        assert exc.value.candidates == 1035
        assert len(_power_chains(cover_ideal(complete(2)))) == 45
    assert len(ordinary_power(complete(2), 100)) == 101


def test_cover_sum_chain_counts_the_levels_it_holds():
    # D_k of K2 has k + 1 rows and k + 1 pairs; the levels D_0, ..., D_44
    # held before D_45 sum to 1,035 and trip the cap
    G = complete(2)
    with generator_cap(1000):
        with pytest.raises(GeneratorCapExceeded) as exc:
            _decomposable_covers(G, 100, cover_ideal(G))
        assert exc.value.candidates == 1035
    assert len(_decomposable_covers(G, 100, cover_ideal(G))[0]) == 101


def test_cover_sum_chain_is_built_in_a_loop():
    # one level per loop step, no recursion: a cold K3 chain reaches m = 600,
    # with the three rows k * c_j at each level
    G = complete(3)
    J = cover_ideal(G)
    _cover_sum_chains.cache_clear()
    D, last = _decomposable_covers(G, 600, J)
    assert np.array_equal(D, 600 * J._arr) and last.tolist() == [0, 1, 2]
    assert len(_cover_sum_chains(G, J)) == 601
    assert _cover_sum_chains.cache_info().maxsize == 16


def test_symbolic_power_and_staircase_caches_are_bounded():
    # a sweep over m, or over cycles, keeps only the last 16 ideals asked
    G = cycle(5)
    symbolic_power.cache_clear()
    for m in range(1, 21):
        symbolic_power(G, m)
    assert symbolic_power.cache_info().currsize <= 16
    assert symbolic_power(G, 1) == symbolic_power.__wrapped__(G, 1)
    staircase_ideal.cache_clear()
    for n in range(3, 43, 2):
        staircase_ideal(n)
    assert staircase_ideal.cache_info().currsize <= 16
    assert staircase_ideal(3) == staircase_ideal.__wrapped__(3)


def test_ordinary_power_shares_the_power_chain_of_j():
    G = cycle(7)
    assert ordinary_power(G, 3) is cover_ideal(G).power(3)
    assert ordinary_power(G, 3) is _power_chains(cover_ideal(G))[3]


def test_power_chain_cache_serves_the_right_ideal():
    # more ideals than the cache holds, asked round robin, against cold chains
    rng = random.Random(5)
    ideals = []
    while len(ideals) < _power_chains.cache_info().maxsize + 4:
        n = rng.randint(1, 4)
        I = MonomialIdeal(n, [[rng.randint(0, 2) for _ in range(n)] for _ in range(rng.randint(2, 4))])
        if len(I) > 1 and I not in ideals:
            ideals.append(I)
    cold = [[I.power(0)] + [_cold_power(I, k) for k in range(1, 5)] for I in ideals]
    _power_chains.cache_clear()
    for k in (2, 1, 4, 3, 0, 4):
        for I, expected in zip(ideals, cold):
            assert I.power(k) == expected[k]


def _cold_power(I: MonomialIdeal, k: int) -> MonomialIdeal:
    P = I
    for _ in range(k - 1):
        P = P.multiply(I)
    return P


def test_ordinary_inside_symbolic():
    for G in (complete(4), cycle(5), triangle_tail(2)):
        for m in (2, 3, 4):
            assert symbolic_power(G, m).contains_each(ordinary_power(G, m).gens).all()


def test_is_m_cover():
    G = complete(3)
    assert is_m_cover(G, Monomial((1, 1, 0)), 1)
    assert not is_m_cover(G, Monomial((0, 0, 0)), 1)
    assert is_m_cover(G, all_ones(3), 2)
    with pytest.raises(ValueError):
        is_m_cover(G, Monomial((1, 1)), 1)


def test_k3_has_three_1covers():
    assert len(minimal_mcovers(complete(3), 1)) == 3


class TestClassify2:
    def test_all_ones_on_odd_cycle(self):
        cls = classify_indecomposable_2cover(cycle(5), all_ones(5))
        assert cls is not None and cls.kind == "all_ones"

    def test_all_ones_on_bipartite_decomposes(self):
        # x1x2x3x4 on C4 splits into the two opposite pairs
        cls = classify_indecomposable_2cover(cycle(4), all_ones(4))
        assert cls is None

    def test_decomposable_square(self):
        G = complete(3)
        f = Monomial((2, 2, 0))  # (x1x2)^2
        assert classify_indecomposable_2cover(G, f) is None

    def test_non_minimal_rejected(self):
        with pytest.raises(ValueError):
            classify_indecomposable_2cover(complete(3), Monomial((2, 2, 2)))

    def test_exponent_above_two_rejected(self):
        # (3, 3, 0) is a 2-cover but not a minimal one
        with pytest.raises(ValueError):
            classify_indecomposable_2cover(complete(3), Monomial((3, 3, 0)))

    def test_szt_pattern_appears_on_triangle_with_tail(self):
        G = triangle_tail(3)
        kinds = set()
        for f in minimal_mcovers(G, 2):
            cls = classify_indecomposable_2cover(G, f)
            if cls is not None:
                kinds.add(cls.kind)
                if cls.kind == "szt":
                    assert set(cls.S) | set(cls.T) | set(cls.U) == set(range(G.n))
                    adj = G.adjacency()
                    assert set(cls.T) == set().union(*(adj[v] for v in cls.S))
                    assert cls.U
        assert kinds == {"all_ones", "szt"}

    def test_agrees_with_membership(self, connected_atlas):
        # the D_2 route against membership in the built square J^2
        for G in connected_atlas:
            square = ordinary_power(G, 2)
            for f in minimal_mcovers(G, 2):
                structural = classify_indecomposable_2cover(G, f) is not None
                by_membership = indecomposability_by_membership(G, f)
                assert structural == by_membership == (not square.contains(f)), (G.edges, f)

    def test_membership_refuses_non_minimal(self):
        G = complete(3)
        for f in (Monomial((2, 2, 2)), Monomial((3, 3, 0)), Monomial((1, 1)), Monomial((1, 1, 0))):
            with pytest.raises(ValueError):
                indecomposability_by_membership(G, f)


def test_path_square_is_symbolic_square():
    # paths are bipartite, so J(P)^(2) = J(P)^2 (Herzog-Hibi-Trung, Thm 5.1),
    # and verify_triangle_tail may read mu(J(P)^2) from J(P)^(2)
    for n in range(1, 15):
        P = path(n)
        assert symbolic_power(P, 2).mu() == ordinary_power(P, 2).mu()


def test_lowering_the_cap_empties_the_caches():
    G = cycle(7)
    J = cover_ideal(G)
    built = (J, symbolic_power(G, 3), _decomposable_covers(G, 3, J), ordinary_power(G, 3))
    with generator_cap(_DEFAULT_GENERATOR_CAP + 1):  # raising keeps the cached results
        assert symbolic_power(G, 3) is built[1]
        assert ordinary_power(G, 3) is built[3]
        assert J.power(3) is built[3]
        with generator_cap(0):
            with pytest.raises(GeneratorCapExceeded):
                cover_ideal(G)
            for cached, args in (
                (symbolic_power, (G, 3)),
                (_decomposable_covers, (G, 3, J)),
                (ordinary_power, (G, 3)),
                (J.power, (3,)),
            ):
                with pytest.raises(GeneratorCapExceeded):
                    cached(*args)
    assert symbolic_power(G, 3) == built[1]


def _full_product_level(G: Graph, prev: np.ndarray, base: MonomialIdeal, m: int) -> np.ndarray:
    """The level of the chain by the full product: every d + c, d in
    D_(m-1) and c in G(base), that is a minimal m-cover, deduplicated
    and in canonical order."""
    cand = (prev[:, None, :] + base._arr[None, :, :]).reshape(-1, G.n)
    rows = set(map(tuple, cand[_minimal_cover_rows(G, cand, m)].tolist()))
    order = sorted(rows, key=lambda r: (sum(r), [-e for e in r]))
    return np.array(order, dtype=np.int64).reshape(len(order), G.n)


def test_chain_levels_match_the_full_product(connected_atlas):
    rng = random.Random(20180)
    cases = [(G, cover_ideal(G), 5) for G in (_relabeled(H, rng) for H in connected_atlas)]
    cases += [(cycle(n), staircase_ideal(n), m) for n, m in ((5, 8), (7, 7), (9, 6), (11, 5), (13, 5))]
    for G, base, m_max in cases:
        prev = np.zeros((1, G.n), dtype=np.int64)
        for m in range(1, m_max + 1):
            expected = _full_product_level(G, prev, base, m)
            D, last = _decomposable_covers(G, m, base)
            assert np.array_equal(D, expected), (sorted(G.edges), m)
            assert D.dtype == _row_dtype(m) and last.shape == (len(D),)
            prev = expected


def _minimal_cover(G: Graph, e: tuple, m: int) -> bool:
    adj = G.adjacency()
    return all(e[v] == max(0, m - min((e[u] for u in adj[v]), default=m)) for v in range(G.n))


def test_chain_last_is_the_least_top_index(connected_atlas):
    # every sorted sum c_(j_1) + ... + c_(j_m), j_1 <= ... <= j_m, in pure
    # Python: last(g) is the least j_m among the sums equal to g.  Two
    # sums with different top indices first meet on 6 vertices.
    rng = random.Random(20181)
    for G in (_relabeled(H, rng) for H in connected_atlas):
        J = cover_ideal(G)
        covers = [g.exps for g in J.gens]
        for m in range(5):
            least = {}
            for js in itertools.combinations_with_replacement(range(len(covers)), m):
                g = tuple(sum(col) for col in zip(*(covers[j] for j in js))) or (0,) * G.n
                if _minimal_cover(G, g, m):
                    least[g] = min(least.get(g, len(covers)), js[-1] if js else 0)
            D, last = _decomposable_covers(G, m, J)
            assert dict(zip(map(tuple, D.tolist()), last.tolist())) == least, (sorted(G.edges), m)
