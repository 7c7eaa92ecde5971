"""Property-based checks of the algebraic laws and the containment
relations between ordinary and symbolic powers."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from symdef.covers import cover_ideal, ordinary_power, symbolic_power
from symdef.graphs import Graph, parse_family
from symdef.monomials import (
    _BLOCK_WORDS,
    EXPONENT_BOUND,
    Monomial,
    MonomialIdeal,
    _distinct_rows,
    _minimal_rows,
    _pack,
    all_ones,
)

N_VARS = 4

exponents = st.integers(min_value=0, max_value=4)
monomials = st.tuples(*[exponents] * N_VARS).map(Monomial)
ideals = st.lists(monomials, min_size=1, max_size=6).map(
    lambda gens: MonomialIdeal(N_VARS, gens)
)


def width_edges(n):
    """Exponents at bit-width edges (2^k - 1, 2^k) up to the largest that
    EXPONENT_BOUND allows in n variables, which is included."""
    top = EXPONENT_BOUND // max(n, 1)
    return sorted({v for k in range(63) for v in (2**k - 1, 2**k) if v <= top} | {top})


@st.composite
def wide_cases(draw):
    """(n, generators, queries) with n in 0..20 and exponents drawn from
    a few values at bit-width edges (0, 2^k - 1, 2^k) up to the largest
    that EXPONENT_BOUND allows in n variables, so that packed rows take
    one word or many and fields reach their guard bits."""
    n = draw(st.integers(min_value=0, max_value=20))
    palette = [0] + draw(st.lists(st.sampled_from(width_edges(n)), min_size=1, max_size=3))
    rows = st.lists(st.sampled_from(palette), min_size=n, max_size=n).map(tuple)
    gens = draw(st.lists(rows, max_size=8))
    queries = draw(st.lists(rows, max_size=8))
    return n, gens, queries


@st.composite
def sort_cases(draw):
    """(n, rows) with n in 0..21 and exponents up to EXPONENT_BOUND // n,
    small ones (many fields per word) or bit-width edges (down to one
    field per word), with repeated rows."""
    n = draw(st.integers(min_value=0, max_value=21))
    values = draw(st.sampled_from([st.integers(0, 3), st.sampled_from(width_edges(n))]))
    palette = draw(st.lists(values, min_size=1, max_size=4))
    row = st.lists(st.sampled_from(palette), min_size=n, max_size=n).map(tuple)
    return n, draw(st.lists(row, max_size=12))


def oracle_minimal(gens):
    """Minimal generators in canonical order, by pairwise Python checks."""
    distinct = set(gens)
    minimal = [g for g in distinct if not any(h != g and h.divides(g) for h in distinct)]
    minimal.sort(key=lambda g: (g.degree, tuple(-e for e in g.exps)))
    return tuple(minimal)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_edges), min_size=1, unique=True))
    return Graph.from_edges(n, edges)


@given(monomials, monomials)
def test_divides_iff_lcm_absorbs(a, b):
    assert a.divides(b) == (a.lcm(b) == b)


@given(monomials, monomials)
def test_product_degree_additive(a, b):
    assert (a * b).degree == a.degree + b.degree
    assert a.divides(a * b)


@given(ideals)
def test_minimalization_idempotent(I):
    assert MonomialIdeal(N_VARS, I.gens) == I


@given(st.lists(monomials, max_size=8))
def test_kernel_matches_pure_python_oracle(gens):
    assert MonomialIdeal(N_VARS, gens).gens == oracle_minimal(gens)


@given(ideals, st.lists(monomials, max_size=8))
def test_contains_each_matches_pure_python_oracle(I, qs):
    expected = [any(g.divides(q) for g in I.gens) for q in qs]
    assert I.contains_each(qs).tolist() == expected


@settings(max_examples=300, deadline=None)
@given(wide_cases())
def test_packed_words_match_pure_python_oracle(case):
    n, gens, queries = case
    gens = [Monomial(g) for g in gens]
    queries = [Monomial(q) for q in queries]
    I = MonomialIdeal(n, gens)
    assert I.gens == oracle_minimal(gens)
    expected = [any(g.divides(q) for g in gens) for q in queries]
    assert I.contains_each(queries).tolist() == expected


@settings(max_examples=300, deadline=None)
@given(sort_cases())
def test_packed_sort_matches_pure_python_oracle(case):
    n, rows = case
    arr = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    out, deg, words, guard, first = _distinct_rows(arr)
    expected = sorted(set(rows), key=lambda r: (sum(r), [-e for e in r]))
    assert [tuple(r) for r in out.tolist()] == expected
    # of equal rows, the first is kept
    assert first.tolist() == [rows.index(r) for r in expected]
    assert deg.tolist() == [sum(r) for r in expected]
    packed, packed_guard = _pack(out)
    assert np.array_equal(words, packed) and guard == packed_guard


def _below(gens, rows):
    """(rows, gens) matrix of whether gen c divides row r, column by column."""
    acc = np.ones((len(rows), len(gens)), dtype=bool)
    for j in range(rows.shape[1]):
        acc &= gens[None, :, j] <= rows[:, None, j]
    return acc


def assert_minimal_rows(arr, out):
    """`out` is the set of minimal rows of `arr` in canonical order: a
    subset of `arr`, an antichain, dividing every row of `arr`, sorted by
    degree ascending, then exponent tuple strictly descending."""
    assert set(map(tuple, out.tolist())) <= set(map(tuple, arr.tolist()))
    keys = [(sum(r), [-e for e in r]) for r in out.tolist()]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    step = max(1, (1 << 21) // max(1, len(out)))
    for lo in range(0, len(out), step):
        # each output row is divided by itself only
        assert (_below(out, out[lo : lo + step]).sum(axis=1) == 1).all()
    rest = np.unique(arr, axis=0)
    for lo in range(0, len(rest), step):
        assert _below(out, rest[lo : lo + step]).any(axis=1).all()


def _closes_a_group_early(arr):
    """Whether `_minimal_rows` tests `arr` in more than one group: the
    first group starts above the lowest degree layer, whose rows are all
    kept, and takes in every later layer iff they fit one block."""
    deg = _distinct_rows(arr)[1]
    first = int((deg == deg[0]).sum())
    rest = len(deg) - first
    return rest * (first + rest) > _BLOCK_WORDS


@pytest.mark.parametrize("family, m", [("T8", 5), ("C9", 6)])
def test_minimal_rows_of_ordinary_power_candidates(family, m):
    # the candidates of J^m = J^(m-1) J, whose degree layers hold thousands of rows
    G = parse_family(family)
    prev, gens = ordinary_power(G, m - 1)._arr, cover_ideal(G)._arr
    cand = (prev[:, None, :] + gens[None, :, :]).reshape(-1, G.n)
    assert _closes_a_group_early(cand)
    assert_minimal_rows(cand, _minimal_rows(cand))


@st.composite
def layered_rows(draw):
    """50 to 600 rows in 2 to 4 variables, with exponents up to 1..40:
    few wide degree layers or many narrow ones."""
    n = draw(st.integers(min_value=2, max_value=4))
    top = draw(st.integers(min_value=1, max_value=40))
    rows = draw(st.integers(min_value=50, max_value=600))
    return draw(arrays(np.int64, (rows, n), elements=st.integers(0, top), fill=st.nothing()))


@settings(max_examples=60, deadline=None)
@given(layered_rows())
def test_minimal_rows_in_layer_groups(arr):
    assert_minimal_rows(arr, _minimal_rows(arr))


@pytest.mark.parametrize("gens, inside", [([()], True), ([], False)], ids=["unit", "zero"])
def test_no_variables(gens, inside):
    I = MonomialIdeal(0, gens)
    assert I.contains_each([Monomial(())]).tolist() == [inside]
    assert I.multiply(I) == I
    assert I.intersect(I) == I


@given(ideals, monomials)
def test_membership_means_divisibility(I, m):
    assert I.contains(m) == any(g.divides(m) for g in I.gens)


@given(ideals, ideals, monomials)
def test_intersection_membership(I, J, m):
    assert I.intersect(J).contains(m) == (I.contains(m) and J.contains(m))


@given(ideals, ideals, monomials)
def test_sum_membership(I, J, m):
    assert I.add(J).contains(m) == (I.contains(m) or J.contains(m))


@given(ideals, st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
def test_power_splits_into_products(I, a, b):
    assert I.power(a + b) == I.power(a).multiply(I.power(b))


@given(ideals, ideals)
def test_alpha_additive_under_product(I, J):
    assert I.multiply(J).alpha() == I.alpha() + J.alpha()


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.integers(min_value=1, max_value=4))
def test_ordinary_power_inside_symbolic(G, m):
    assert symbolic_power(G, m).contains_each(ordinary_power(G, m).gens).all()


@settings(max_examples=30, deadline=None)
@given(small_graphs(), st.integers(min_value=1, max_value=3), monomials)
def test_local_saturation_implication(G, m, f):
    """If multiplying f by every squarefree monomial missing two variables
    lands in the m-th symbolic power, then f was already there."""
    if G.n != N_VARS:
        f = Monomial(tuple(f.exps[:G.n]) + (0,) * max(0, G.n - f.n))
    sym = symbolic_power(G, m)
    F = all_ones(G.n)
    pairs = [(a, b) for a in range(G.n) for b in range(a + 1, G.n)]
    everywhere = all(
        sym.contains(
            f
            * Monomial(
                tuple(0 if i in (a, b) else 1 for i, e in enumerate(F.exps))
            )
        )
        for a, b in pairs
    )
    if everywhere:
        assert sym.contains(f)


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_cover_ideal_generators_cover(G):
    I = cover_ideal(G)
    for g in I.gens:
        assert all(g.exps[i] + g.exps[j] >= 1 for i, j in G.edges)
