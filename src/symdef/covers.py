"""Cover ideals, symbolic powers, m-cover semantics, and the
classification of indecomposable 2-covers."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product

import numpy as np

from . import monomials
from .graphs import Graph
from .monomials import Monomial, MonomialIdeal, _check_cap, _distinct_rows

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
    is (low columns of N(v), checks), where the low column of u is n + u
    and checks lists, in label order, the pair (w, low columns of the
    free neighbours u > v of w) for each fixed w <= v of
    {v} + N(v) + N(free part of N(v)).  A sweep asks for every m of one
    graph in a row, so only a few graphs are kept.
    """
    n = G.n
    adj = [sorted(a) for a in G.adjacency()]
    nbrs = tuple(np.array(a, dtype=np.intp) for a in adj)
    steps = []
    for v in range(n):
        touched = {v}.union(adj[v], *(adj[u] for u in adj[v] if u > v))
        checks = tuple(
            (w, np.array([n + u for u in adj[w] if u > v], dtype=np.intp))
            for w in sorted(w for w in touched if w <= v)
        )
        steps.append((n + nbrs[v], checks))
    return nbrs, tuple(steps)


@lru_cache(maxsize=None)
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
    copies count against the generator cap.

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
    """
    if m < 0:
        raise ValueError("symbolic power needs m >= 0")
    n = G.n
    # e in columns 0..n-1; low[u] in column n + u: the least exponent
    # over the fixed neighbours of u (m if none)
    state = np.zeros((1, 2 * n), dtype=np.int64)
    state[:, n:] = m
    for v, (low_nbrs, checks) in enumerate(_elimination_plan(G)[1]):
        counts = state[:, n + v] + 1
        ends = np.cumsum(counts)
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
        state = state[keep]
    return MonomialIdeal._from_minimal(n, _distinct_rows(state[:, :n])[0])


def _minimal_cover_rows(G: Graph, rows: np.ndarray, m: int) -> np.ndarray:
    """Which rows are minimal vertex m-covers of G: the rows e with
    e_v = max(0, m - min of e over N(v)) at every vertex v
    (Herzog-Hibi-Trung), as a boolean mask."""
    ok = np.ones(len(rows), dtype=bool)
    for v, cols in enumerate(_elimination_plan(G)[0]):
        ok &= rows[:, v] == np.maximum(0, m - rows[:, cols].min(axis=1, initial=m))
    return ok


@lru_cache(maxsize=None)
def _decomposable_covers(G: Graph, m: int) -> np.ndarray:
    """D_m, for m >= 1: the minimal vertex m-covers that are sums of m
    minimal vertex covers, as rows in canonical order.

    D_1 = G(J).  D_m holds the sums d + c, d in D_(m-1) and c in G(J),
    that are minimal m-covers (`_minimal_cover_rows`); this misses none,
    since for a minimal m-cover g = c_1 + ... + c_m, g - c_m is a minimal
    (m-1)-cover.  The |D_(m-1)| * |G(J)| sums count against the generator
    cap and are built in blocks of rows of D_(m-1), about _BLOCK_WORDS
    sums at a time.  Each block is deduplicated as soon as it is built,
    so duplicates never pile up across the whole level.
    """
    gens = cover_ideal(G)._arr
    if m == 1:
        return gens
    prev = _decomposable_covers(G, m - 1)
    _check_cap(len(prev) * len(gens))
    step = max(1, monomials._BLOCK_WORDS // len(gens))
    kept = []
    for lo in range(0, len(prev), step):
        cand = (prev[lo : lo + step, None, :] + gens[None, :, :]).reshape(-1, G.n)
        kept.append(_distinct_rows(cand[_minimal_cover_rows(G, cand, m)])[0])
    return kept[0] if len(kept) == 1 else _distinct_rows(np.vstack(kept))[0]


@lru_cache(maxsize=None)
def ordinary_power(G: Graph, m: int) -> MonomialIdeal:
    """m-th ordinary power of the cover ideal, built incrementally so
    repeated queries over an m-range share work."""
    if m < 0:
        raise ValueError("ordinary power needs m >= 0")
    if m == 0:
        return MonomialIdeal.unit(G.n)
    if m == 1:
        return cover_ideal(G)
    return ordinary_power(G, m - 1).multiply(cover_ideal(G))


# lowering the generator cap empties these caches (`monomials.generator_cap`)
monomials._capped_caches += (symbolic_power, _decomposable_covers, ordinary_power)


def is_m_cover(G: Graph, f: Monomial, m: int) -> bool:
    """True iff the exponents of f sum to at least m on every edge."""
    if f.n != G.n:
        raise ValueError(f"monomial on {f.n} variables, graph on {G.n}")
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
    return symbolic_power(G, m).gens.count(f) == 1


@dataclass(frozen=True)
class Cover2Classification:
    """Shape of an indecomposable minimal 2-cover.

    kind "all_ones": the product of all variables of a non-bipartite
    graph.  kind "szt": the (S, T, U) pattern where S holds the
    exponent-0 vertices, T = N(S) the exponent-2 vertices, and U the
    exponent-1 vertices inducing a non-bipartite subgraph without
    isolated vertices.
    """

    kind: str
    S: tuple[int, ...] = ()
    T: tuple[int, ...] = ()
    U: tuple[int, ...] = ()

    @property
    def s(self) -> int:
        return len(self.S)

    @property
    def t(self) -> int:
        return len(self.T)

    @property
    def u(self) -> int:
        return len(self.U)


def classify_indecomposable_2cover(G: Graph, f: Monomial) -> Cover2Classification | None:
    """Classify a minimal 2-cover as indecomposable (with its shape) or
    return None when it decomposes into two 1-covers.

    Raises ValueError if f is not a minimal 2-cover of G.
    """
    if not is_minimal_mcover(G, f, 2):
        raise ValueError(f"{f} is not a minimal 2-cover of the graph")
    if all(e == 1 for e in f.exps):
        return Cover2Classification("all_ones") if not G.is_bipartite() else None
    S = tuple(i for i, e in enumerate(f.exps) if e == 0)
    T = tuple(i for i, e in enumerate(f.exps) if e == 2)
    U = tuple(i for i, e in enumerate(f.exps) if e == 1)
    if not U:
        return None
    if set(T) != G.neighbors_of_set(S):
        return None
    # prod(T) must not be a vertex cover
    if all(i in T or j in T for i, j in G.edges):
        return None
    induced = G.induced_subgraph(U)
    if induced.has_isolated_vertex() or induced.is_bipartite():
        return None
    return Cover2Classification("szt", S=S, T=T, U=U)


def indecomposability_by_membership(G: Graph, f: Monomial) -> bool:
    """Cross-validation route: a minimal 2-cover is indecomposable iff it
    lies outside J^2, i.e. outside D_2 (`_decomposable_covers`, as in
    `sdefect_brute`).  Raises ValueError if f is not a minimal 2-cover."""
    if not is_minimal_mcover(G, f, 2):
        raise ValueError(f"{f} is not a minimal 2-cover of the graph")
    return not (_decomposable_covers(G, 2) == f.exps).all(axis=1).any()
