"""Cover ideals, symbolic powers, m-covers, 2-cover classification."""
import random
import tracemalloc

import numpy as np
import pytest

from symdef.covers import (
    _decomposable_covers,
    _elimination_plan,
    _minimal_cover_rows,
    classify_indecomposable_2cover,
    cover_ideal,
    enumerate_minimal_mcovers,
    indecomposability_by_membership,
    is_m_cover,
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
    all_ones,
    generator_cap,
)


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
    caches = (_elimination_plan, symbolic_power, _decomposable_covers)

    def cold(G, m):
        for f in caches:
            f.cache_clear()
        return symbolic_power.__wrapped__(G, m)._arr, _decomposable_covers.__wrapped__(G, m)

    expected = {(G, m): cold(G, m) for G in graphs for m in (1, 2, 3)}
    for f in caches:
        f.cache_clear()
    for m in (1, 2, 3):
        for G in graphs + graphs[::-1]:
            J, D = expected[G, m]
            assert np.array_equal(symbolic_power.__wrapped__(G, m)._arr, J), (sorted(G.edges), m)
            assert np.array_equal(_decomposable_covers.__wrapped__(G, m), D), (sorted(G.edges), m)


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


def test_ordinary_power_matches_plain_ideal_power():
    G = cycle(5)
    I = cover_ideal(G)
    for m in range(4):
        assert ordinary_power(G, m) == I.power(m)


def test_ordinary_inside_symbolic():
    for G in (complete(4), cycle(5), triangle_tail(2)):
        for m in (2, 3, 4):
            assert symbolic_power(G, m).contains_ideal(ordinary_power(G, m))


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
                    assert set(cls.T) == G.neighbors_of_set(cls.S)
                    assert cls.u > 0
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
    built = (cover_ideal(G), symbolic_power(G, 3), _decomposable_covers(G, 3), ordinary_power(G, 3))
    with generator_cap(_DEFAULT_GENERATOR_CAP + 1):  # raising keeps the cached results
        assert symbolic_power(G, 3) is built[1]
        assert ordinary_power(G, 3) is built[3]
        with generator_cap(0):
            with pytest.raises(GeneratorCapExceeded):
                cover_ideal(G)
            for cached in (symbolic_power, _decomposable_covers, ordinary_power):
                with pytest.raises(GeneratorCapExceeded):
                    cached(G, 3)
    assert symbolic_power(G, 3) == built[1]
