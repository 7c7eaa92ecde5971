"""Cover ideals, symbolic powers, m-cover semantics, and the
classification of indecomposable 2-covers."""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product

import numpy as np

from . import monomials
from .graphs import Graph
from .monomials import Monomial, MonomialIdeal, _capped_cache, _chain_lock, _check_cap, _distinct_rows

ENUMERATION_BUDGET = 2_000_000


def cover_ideal(G: Graph) -> MonomialIdeal:
    """J = J^(1), generated by the minimal vertex covers: the 0/1 solutions
    of the equation of `symbolic_power` at m = 1 (the unit ideal if no edge)."""
    return symbolic_power(G, 1)


@lru_cache(maxsize=16)
def _elimination_plan(G: Graph) -> tuple[tuple, tuple]:
    """The index arrays that `symbolic_power` and `_decomposable_covers`
    read at each vertex v; they depend on G alone, not on m or the rows.

    Returns (nbrs, steps).  nbrs[v] holds the neighbours of v.  steps[v]
    is (low columns of N(v), checks, closed), where the low column of u
    is n + u, closed says that every neighbour of v comes before v, and
    checks lists, in label order, the pair (w, low columns of the free
    neighbours u > v of w) for each fixed w <= v of
    {v} + N(v) + N(free part of N(v)), w = v left out if v is closed.  A
    sweep asks for every m of one graph in a row, so only a few graphs
    are kept.
    """
    n = G.n
    adj = [sorted(a) for a in G.adjacency()]
    nbrs = tuple(np.array(a, dtype=np.intp) for a in adj)
    steps = []
    for v in range(n):
        closed = all(u < v for u in adj[v])
        touched = {v}.union(adj[v], *(adj[u] for u in adj[v] if u > v))
        checks = tuple(
            (w, np.array([n + u for u in adj[w] if u > v], dtype=np.intp))
            for w in sorted(w for w in touched if w < v or w == v and not closed)
        )
        steps.append((n + nbrs[v], checks, closed))
    return nbrs, tuple(steps)


def _row_dtype(m: int) -> np.dtype:
    """The narrowest signed integer type that holds 2m, int8 up to
    m = 63: the type of every row `symbolic_power` and
    `_decomposable_covers` build, until it becomes a `MonomialIdeal`."""
    return np.min_scalar_type(-2 * m - 1)


def _check_power_range(kind: str, n: int, m: int) -> None:
    """Refuse an m that is not an int (TypeError), or whose rows int64
    cannot hold: a power of J has exponents <= m in n columns, and the
    partial rows of `symbolic_power` hold 2m."""
    operator.index(m)
    top = monomials.EXPONENT_BOUND // max(n, 2)
    if not 0 <= m <= top:
        raise ValueError(f"{kind} power on {n} vertices needs 0 <= m <= {top}, got {m}")


@_capped_cache
def symbolic_power(G: Graph, m: int) -> MonomialIdeal:
    """m-th symbolic power J^(m) of the cover ideal.  Its generators are
    the minimal vertex m-covers (Herzog-Hibi-Trung): the vectors e with
    e_v = max(0, m - min of e over N(v)) at every vertex v.

    Vertices are fixed in label order.  Each partial row is copied once
    per value of e_v, ascending from m - (least e over the fixed
    neighbours of v) to m, so no edge between fixed vertices sums below m.  A
    row is dropped when a fixed v with e_v > 0 has no tight fixed
    neighbour (e_u = m - e_v) and no free neighbour u that could still
    take m - e_v, which u can only if every fixed neighbour of u has
    e >= e_v.  Both rules are necessary; with every vertex fixed they are
    the equation above, so the rows left are exactly the generators.  The
    copies count against the generator cap.  At a closed v, one whose
    neighbours all come before it, the two rules leave only
    e_v = m - low[v] (a larger e_v has no tight and no free neighbour), so
    each row takes that value in place, with no copy and no check at v.

    The rows left are distinct minimal m-covers, and no two minimal
    m-covers divide each other, so they are already the minimal
    generators: they are only sorted, never re-tested for divisibility.

    The verdict of the drop rule at a fixed w reads e_w, low[w] and low
    over the free neighbours of w.  Fixing v sets e_v, lowers low only on
    N(v) and takes v out of the free set, so only the fixed vertices of
    {v} + N(v) + N(free part of N(v)) can change verdict; every other
    fixed vertex held on the parent row and still holds.  Only those are
    re-checked.

    Which vertices those are, and their columns, depend on G alone, so
    they come from `_elimination_plan`, built once per graph for every m.
    Each partial row carries e in columns 0..n-1 and low in columns
    n..2n-1 of one array, so a step copies and filters the rows with one
    gather each.  Neither changes which rows a step keeps: every step
    copies and drops exactly the rows the two rules above name, so the
    partial rows, the cap counts and the output depend on G and m only.

    The rows are held in `_row_dtype(m)`, int8 up to m = 63: e_v and
    low[u] lie in [0, m] and the tightness test adds two of them, so no
    value exceeds 2m and the narrow type is exact.  They widen to int64
    only as they become the ideal, which is the same as ever.  The last
    16 (cap in force, G, m) asked are kept.
    """
    n = G.n
    _check_power_range("symbolic", n, m)
    # e in columns 0..n-1; low[u] in column n + u: the least exponent
    # over the fixed neighbours of u (m if none)
    state = np.zeros((1, 2 * n), dtype=_row_dtype(m))
    state[:, n:] = m
    for v, (low_nbrs, checks, closed) in enumerate(_elimination_plan(G)[1]):
        if closed:  # every neighbour is fixed: e_v = m - low[v] is forced
            state[:, v] = m - state[:, n + v]
        else:
            counts = state[:, n + v] + 1
            ends = np.cumsum(counts, dtype=np.int64)
            _check_cap(int(ends[-1]))
            state = np.repeat(state, counts, axis=0)
            # the copies of row r take indices ends[r] - counts[r] + j for
            # j = 0..low[v], and copy j gets e_v = m - low[v] + j
            state[:, v] = np.arange(len(state)) - np.repeat(ends - (m + 1), counts)
        state[:, low_nbrs] = np.minimum(state[:, low_nbrs], state[:, v, None])
        # low[w] + e_w == m: a tight fixed neighbour, or e_w = 0 (all forced to m)
        keep = None
        for w, free in checks:
            ok = state[:, n + w] + state[:, w] == m
            if len(free):  # some free neighbour can still take m - e_w
                ok |= state[:, free].max(axis=1) >= state[:, w]
            if keep is None:
                keep = ok
            else:
                keep &= ok
        if keep is not None:  # an isolated vertex checks nothing
            state = state[keep]
    return MonomialIdeal._from_minimal(n, _distinct_rows(state[:, :n])[0].astype(np.int64))


def _minimal_cover_rows(G: Graph, rows: np.ndarray, m: int) -> np.ndarray:
    """Which rows are minimal vertex m-covers of G, as a boolean mask:
    e_v = max(0, m - min of e over N(v)) at every v (Herzog-Hibi-Trung),
    that is e_v + min(m, e over N(v)) == m, the test of `symbolic_power`."""
    ok = np.ones(len(rows), dtype=bool)
    for v, cols in enumerate(_elimination_plan(G)[0]):
        ok &= rows[:, v] + rows[:, cols].min(axis=1, initial=m) == m
    return ok


def _decomposable_covers(G: Graph, m: int, base: MonomialIdeal) -> tuple[np.ndarray, np.ndarray]:
    """D_m: the minimal vertex m-covers that are sums of m generators
    c_0, ..., c_(k-1) of `base`, minimal vertex covers of G, as rows in
    canonical order; and last, which gives each row g the least top
    index j_m over its sorted sums g = c_(j_1) + ... + c_(j_m),
    j_1 <= ... <= j_m.

    D_0 is the zero row, the empty sum, with last 0, and D_1 = G(base)
    with last(c_j) = j.  D_m holds the sums d + c_j, d in D_(m-1) with
    last(d) <= j, that are minimal m-covers (`_minimal_cover_rows`).
    This misses none: write g in D_m with the least top index j*.  Then
    d = g - c_(j*) is a minimal (m-1)-cover (a smaller (m-1)-cover h
    would give the smaller m-cover h + c_(j*)), a sum of m-1 covers of
    index <= j*, so d lies in D_(m-1) with last(d) <= j*.  And every
    pair (d, j) with last(d) <= j writes d + c_j as a sorted sum with top
    index j, so last(g) is the least j of a pair that gives g.

    The pairs are formed cover-major, j ascending, and `_distinct_rows`
    keeps the first of equal rows, so the j kept with each row is its
    last.  With the rows of D_(m-1) sorted by last, the rows usable with
    c_j are a prefix, whose length one searchsorted gives.  The pairs
    are built _BLOCK_WORDS at a time, which bounds the temporaries of
    `_minimal_cover_rows`; a block keeps only its minimal covers and
    their j, and one `_distinct_rows` over the whole level removes the
    duplicates.
    The levels are kept in `_cover_sum_chains`, one chain per (cap, G,
    base), grown one level at a time under `_chain_lock`; before each
    level, the rows held and then its pairs count against the cap.  Each
    link carries the rows held through its level, so that count is read,
    not re-summed, and a chain of m small levels costs O(m).

    Level k is held in `_row_dtype(k)`: a minimal (k-1)-cover plus a
    0/1 cover has entries at most k, and `_minimal_cover_rows` adds two
    of them.  The levels stay narrow; none becomes an ideal.
    """
    chain = _cover_sum_chains(G, base)
    with _chain_lock:
        for k in range(len(chain), m + 1):
            prev, prev_last, held = chain[-1]
            _check_cap(held)
            order = np.argsort(prev_last, kind="stable")
            # c_j sums with the first counts[j] rows in `order`
            counts = np.searchsorted(prev_last[order], np.arange(len(base)), side="right")
            ends = np.cumsum(counts)
            starts = ends - counts
            total = int(ends[-1])
            _check_cap(total)
            dtype = _row_dtype(k)
            rows, covers = prev[order].astype(dtype), base._arr.astype(dtype)
            kept, tops = [], []
            for lo in range(0, total, monomials._BLOCK_WORDS):
                pair = np.arange(lo, min(lo + monomials._BLOCK_WORDS, total))
                j = np.searchsorted(ends, pair, side="right")
                cand = rows[pair - starts[j]] + covers[j]
                ok = _minimal_cover_rows(G, cand, k)
                kept.append(cand[ok])
                tops.append(j[ok])
            del pair, j, cand, ok  # the level's dedup needs only the kept rows
            kept = np.concatenate(kept)
            out, *_, first = _distinct_rows(kept)
            chain.append((out, np.concatenate(tops)[first], held + len(out)))
    return chain[m][:2]


@_capped_cache
def _cover_sum_chains(G: Graph, base: MonomialIdeal) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """(D_0, last, held), (D_1, last, held), ... of G and base, as far as
    `_decomposable_covers` has built them, where held counts the rows of
    D_0 through this level; only a few chains are kept."""
    empty = np.zeros((1, G.n), dtype=_row_dtype(0)), np.zeros(1, dtype=np.intp), 1
    return [empty, (base._arr.astype(_row_dtype(1)), np.arange(len(base)), 1 + len(base))]


def ordinary_power(G: Graph, m: int) -> MonomialIdeal:
    """m-th ordinary power of the cover ideal, read from the power chain
    of J (`MonomialIdeal.power`), so repeated queries over an m-range
    share work."""
    _check_power_range("ordinary", G.n, m)
    return cover_ideal(G).power(m)


def is_m_cover(G: Graph, f: Monomial, m: int) -> bool:
    """True iff the exponents of f sum to at least m on every edge."""
    monomials._check_ambient(f.n, G.n)
    return all(f.exps[i] + f.exps[j] >= m for i, j in G.edges)


def minimal_mcovers(G: Graph, m: int) -> tuple[Monomial, ...]:
    """The minimal vertex m-covers: minimal generators of the m-th
    symbolic power."""
    return symbolic_power(G, m).gens


def enumerate_minimal_mcovers(G: Graph, m: int) -> tuple[Monomial, ...]:
    """Independent oracle: direct search over exponent vectors in
    {0..m}^n satisfying the edge constraints, then minimalization."""
    if (m + 1) ** G.n > ENUMERATION_BUDGET:
        raise RuntimeError(f"(m+1)^n = {(m + 1) ** G.n} exceeds enumeration budget")
    covers = [
        exps
        for exps in iter_product(range(m + 1), repeat=G.n)
        if all(exps[i] + exps[j] >= m for i, j in G.edges)
    ]
    return MonomialIdeal(G.n, covers).gens


def is_minimal_mcover(G: Graph, f: Monomial, m: int) -> bool:
    """True iff e = exps(f) is a minimal vertex m-cover, the equation of
    `_minimal_cover_rows`: an m-cover in which every vertex with e_v > 0
    lies on a tight edge, e_u + e_v = m.  One pass over the edges; J^(m)
    is not built."""
    monomials._check_ambient(f.n, G.n)
    _check_power_range("symbolic", G.n, m)
    e, tight = f.exps, 0
    for u, v in G.edges:
        if e[u] + e[v] < m:
            return False
        if e[u] + e[v] == m:
            tight |= 1 << u | 1 << v
    return all(tight >> v & 1 for v in range(G.n) if e[v])


@dataclass(frozen=True)
class Cover2Classification:
    """Shape of an indecomposable minimal 2-cover.

    S, T = N(S) and U hold the vertices of exponent 0, 2 and 1; U induces
    a non-bipartite subgraph.  kind "all_ones": the product of all
    variables, with U every vertex and S, T empty.  kind "szt": any other.
    """

    kind: str
    S: tuple[int, ...]
    T: tuple[int, ...]
    U: tuple[int, ...]


def classify_indecomposable_2cover(G: Graph, f: Monomial) -> Cover2Classification | None:
    """Classify a minimal 2-cover as indecomposable (with its shape) or
    return None when it decomposes into two 1-covers.

    Let S, T, U hold the vertices of exponent 0, 2, 1.  By the equation
    e_v = max(0, 2 - min of e over N(v)), every neighbour of S lies in T,
    each vertex of T has one in S, and each vertex of U has one in U and
    none in S; so T = N(S).  f lies in J^2 iff G[U] is bipartite.  With
    sides A and B, f = (T + A) + (T + B), two vertex covers.  If f is a
    sum c + c' of vertex covers (a product of two that divides f is a
    2-cover below f, so equals it), each edge of G[U] has one end in c
    and the other in c', so c 2-colours G[U].  U = V is kind "all_ones".

    Raises ValueError if f is not a minimal 2-cover of G.
    """
    if not is_minimal_mcover(G, f, 2):
        raise ValueError(f"{f} is not a minimal 2-cover of the graph")
    U = tuple(i for i, e in enumerate(f.exps) if e == 1)
    if G.induced_subgraph(U).is_bipartite():
        return None
    S = tuple(i for i, e in enumerate(f.exps) if e == 0)
    T = tuple(i for i, e in enumerate(f.exps) if e == 2)
    return Cover2Classification("all_ones" if len(U) == G.n else "szt", S, T, U)


def indecomposability_by_membership(G: Graph, f: Monomial) -> bool:
    """Cross-validation route: a minimal 2-cover is indecomposable iff it
    lies outside J^2, i.e. outside D_2 (`_decomposable_covers`, as in
    `sdefect_brute`).  Raises ValueError if f is not a minimal 2-cover."""
    if not is_minimal_mcover(G, f, 2):
        raise ValueError(f"{f} is not a minimal 2-cover of the graph")
    return not (_decomposable_covers(G, 2, cover_ideal(G))[0] == f.exps).all(axis=1).any()
