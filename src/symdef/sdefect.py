"""Symbolic-defect computation: brute force, the recursive formula for
graphs whose only extra 2-cover generator is the product of all
variables, the odd-cycle recursion, and indecomposability checks."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .covers import _decomposable_covers, cover_ideal, ordinary_power, symbolic_power
from .graphs import MAX_VERTICES, Graph, GraphTooLargeError, cycle, path, triangle_tail
from .monomials import (
    Monomial,
    MonomialIdeal,
    _check_ambient,
    _check_cap,
    _row_monomial,
    all_ones,
)

# the hypotheses a PreconditionError names: of the recursion, the resurgence
# bound and the degree prediction; and of the odd-cycle recursion
UNIQUE_EXTRA_2COVER = "the product of all variables is the only extra generator of J(G)^(2)"
ODD_CYCLE = "G is an odd cycle: connected, odd n >= 3, every vertex of degree 2"


class PreconditionError(ValueError):
    """A required hypothesis failed; the computation refuses to run."""

    def __init__(self, hypothesis: str):
        super().__init__(f"hypothesis failed: {hypothesis}")
        self.hypothesis = hypothesis


@dataclass(frozen=True)
class SdefectReport:
    """A symbolic defect with the method that gave it.

    From `sdefect_brute`, value is mu(J^(m)) - |D_m|, where D_m, the
    minimal m-covers that are sums of m minimal vertex covers, is a subset
    of G(J^(m)); `witnesses`, the generators of J^(m) outside D_m, are
    built when first read, from the two row arrays the report holds.  The
    recursion and cycle methods list no witnesses.  Reports compare and
    hash by graph, m, value and method only.
    """

    graph: str
    m: int
    value: int
    method: str
    # (rows of J^(m), rows of D_m) from `sdefect_brute`, else None
    _rows: tuple[np.ndarray, np.ndarray] | None = field(default=None, compare=False, repr=False)

    @cached_property
    def witnesses(self) -> tuple[Monomial, ...]:
        if self._rows is None:
            return ()
        sym, D = self._rows
        inside = set(map(tuple, D.tolist()))
        rows = map(tuple, sym.tolist())
        return tuple(_row_monomial(g) for g in rows if g not in inside)


def _graph_id(G: Graph) -> str:
    return f"graph(n={G.n}, edges={len(G.edges)})"


def sdefect_brute(G: Graph, m: int) -> SdefectReport:
    """Count minimal generators of the m-th symbolic power that miss the
    m-th ordinary power.

    A minimal monomial generator of I^(m) never lies in the irrelevant
    multiple of I^(m), and monomial membership splits over sums, so this
    count equals the minimal generator count of I^(m)/I^m.

    J^m is not built.  A generator g of J^(m) (a minimal m-cover) lies in
    J^m iff it is a sum of m minimal vertex covers: if a product of m
    generators of J divides g, that product is an m-cover below g, so it
    equals g.  Removing one cover from such a sum g = c_1 + ... + c_m
    leaves a minimal (m-1)-cover: a smaller (m-1)-cover h would give the
    smaller m-cover h + c_m.  So these sums are built level by level from
    the minimal covers alone (`covers._decomposable_covers`), and the
    witnesses are the generators of J^(m) outside them.  J^(m) is read
    first, so its range check and its cap refuse a huge m at once.

    The level D_m keeps only distinct rows that are minimal m-covers, so
    D_m is a subset of G(J^(m)) and the defect is mu(J^(m)) - |D_m|, a
    difference of two array lengths.  The witness monomials are built
    only when `SdefectReport.witnesses` is first read.
    """
    if m < 1:
        raise ValueError("sdefect needs m >= 1")
    sym = symbolic_power(G, m)._arr
    D = _decomposable_covers(G, m, cover_ideal(G))[0]
    return SdefectReport(_graph_id(G), m, len(sym) - len(D), "brute", (sym, D))


def nu(I: MonomialIdeal, m: int, F: Monomial) -> int:
    """Number of minimal generators of I^m not divisible by F.

    The m = 0 case returns 1 (the unit generator, never divisible by a
    positive-degree F) and m = 1 returns mu(I) whenever F divides no
    generator, matching the seeding conventions of the recursion.  I^m
    is read from the power chain of I (`MonomialIdeal.power`).
    """
    if m < 0:
        raise ValueError("nu needs m >= 0")
    _check_ambient(F.n, I.n)
    P = I.power(m)
    if max(F.exps, default=0) > int(P._arr.max(initial=0)):
        return len(P)  # F divides no generator (and may not fit int64)
    return int((P._arr < np.array(F.exps, dtype=np.int64)).any(axis=1).sum())


@dataclass(frozen=True)
class IndecomposabilityCertificate:
    condition: int | None  # 1, 2, 3 or None
    alphas: tuple[int, ...] = ()
    variables: tuple[int, ...] = ()  # 0-based witnessing variables


def check_indecomposability_conditions(G: Graph) -> IndecomposabilityCertificate:
    """Check the three sufficient generator-shape conditions under which
    no product F^k g_{i_1} ... g_{i_s} falls into the ordinary power."""
    I = cover_ideal(G)
    deg = I._arr.sum(axis=1)
    degs = sorted(set(deg.tolist()))
    deg_F = G.n
    if len(degs) == 1:
        a = degs[0]
        if deg_F < 2 * a:
            return IndecomposabilityCertificate(1, (a,))
        return IndecomposabilityCertificate(None, (a,))
    if len(degs) == 2:
        a1, a2 = degs
        if deg_F < a1 + a2:
            # the columns j that every generator of one degree uses and no
            # generator of the other does
            low, high = I._arr[deg == a1] > 0, I._arr[deg == a2] > 0
            only_low = np.flatnonzero(low.all(axis=0) & ~high.any(axis=0)).tolist()
            if only_low:
                return IndecomposabilityCertificate(2, (a1, a2), (only_low[0],))
            shared = tuple(np.flatnonzero(high.all(axis=0) & ~low.any(axis=0)).tolist())
            if a2 - a1 <= len(shared) and shared:
                return IndecomposabilityCertificate(3, (a1, a2), shared)
        return IndecomposabilityCertificate(None, (a1, a2))
    return IndecomposabilityCertificate(None, tuple(degs))


@dataclass(frozen=True)
class IndecomposabilityCounterexample:
    k: int
    factors: tuple[Monomial, ...]  # the s cover-ideal generators used
    product: Monomial
    decomposition: tuple[Monomial, ...] = ()


def _decompose(I: MonomialIdeal, target: Monomial, count: int) -> tuple[Monomial, ...] | None:
    """Write target as a product of `count` generators of I, if possible."""
    if count == 0:
        return () if target.degree == 0 else None
    for g in I.gens:
        if g.degree * count > target.degree:
            break  # gens sorted by degree ascending
        if g.divides(target):
            rest = Monomial(tuple(a - b for a, b in zip(target.exps, g.exps)))
            sub = _decompose(I, rest, count - 1)
            if sub is not None:
                return (g,) + sub
    return None


def check_indecomposability_exhaustive(
    G: Graph, m_max: int
) -> tuple[bool, IndecomposabilityCounterexample | None]:
    """Test every product F^k g_{i_1} ... g_{i_s} (k >= 1, s >= 0,
    2k + s <= m_max) for membership in the ordinary (2k+s)-th power, one
    batch of product rows per (k, s), counted against the cap first; only
    the first product found inside becomes a Monomial.

    Returns (True, None) when no product falls in, otherwise (False,
    counterexample), including a factorization of the product into
    2k + s generators when one exists.
    """
    I = cover_ideal(G)
    for k in range(1, m_max // 2 + 1):
        for s in range(0, m_max - 2 * k + 1):
            m = 2 * k + s
            _check_cap(comb(len(I) + s - 1, s))
            combos = np.array(list(combinations_with_replacement(range(len(I)), s)), dtype=np.intp)
            prods = k + I._arr[combos].sum(axis=1)
            hits = ordinary_power(G, m)._contains_rows(prods)
            if hits.any():  # the first hit, in the order of the combinations
                j = int(hits.argmax())
                combo = tuple(I.gens[i] for i in combos[j])
                product = _row_monomial(prods[j].tolist())
                witness = _decompose(I, product, m) or ()
                return False, IndecomposabilityCounterexample(k, combo, product, witness)
    return True, None


def has_unique_extra_2cover(G: Graph) -> bool:
    """Whether the product F of all variables is the only generator of
    J(G)^(2) outside J(G)^2: G is not bipartite and every G - N[v] is
    (`Graph.every_vertex_adjacent_to_every_odd_cycle`).  J^(2) is not built.

    A minimal 2-cover lies outside J^2 iff its exponent-1 vertices U
    induce a non-bipartite graph (`covers.classify_indecomposable_2cover`).
    F, with U = V, does iff G is not bipartite and has no isolated vertex.
    Any other has some v of exponent 0 (with none, T = N(S) is empty and
    it is F), and its U lies in G - N[v].
    Conversely, if G - N[v] has an odd cycle, put v in S, N(v) in T and
    the rest in U, then move into S each vertex of U left with no
    neighbour in U: the cycle stays in U, and this is a second extra
    2-cover.  An isolated w fails at v = w, as G - N[w] = G - w is not
    bipartite; F is then not a minimal 2-cover.
    """
    return not G.is_bipartite() and G.every_vertex_adjacent_to_every_odd_cycle()


def sdefect_recursive(G: Graph, m: int, unchecked: bool = False) -> SdefectReport:
    """Symbolic defect via the recursion for graphs whose only extra
    2-cover is the product F of all variables:

        sdefect(m) = sdefect(m-2) + nu(J, m-2, F),  sdefect(0) = sdefect(1) = 0,

    i.e. the sum of nu(J, k, F), the generators of J^k not divisible by
    F, over k = m mod 2, m mod 2 + 2, ..., m - 2 (nu(J, 0, F) = 1 gives
    sdefect(2) = 1).  Each J^k is read from the power chain of J.

    Preconditions: F is the only extra generator of J(G)^(2)
    (`has_unique_extra_2cover`, always checked) and, unless `unchecked`,
    indecomposability evidence, either one of the three sufficient
    generator-shape conditions or the exhaustive check of every product
    F^k g_1 ... g_s with 2k + s <= m.  With `unchecked`, the value
    is computed anyway and tagged, for cross-method mismatch reporting.
    """
    if m < 1:
        raise ValueError("sdefect needs m >= 1")
    method = "recursion"
    if not has_unique_extra_2cover(G):
        raise PreconditionError(UNIQUE_EXTRA_2COVER)
    if not unchecked:
        cert = check_indecomposability_conditions(G)
        if cert.condition is None:
            ok, counter = check_indecomposability_exhaustive(G, m)
            if not ok:
                raise PreconditionError(
                    "Indecomposability Property: "
                    f"F^{counter.k} * {'*'.join(map(str, counter.factors)) or '1'}"
                    f" lies in the ordinary power of exponent {2 * counter.k + len(counter.factors)}"
                )
            method = "recursion(exhaustive-check)"
    else:
        method = "recursion-unchecked"
    J, F = cover_ideal(G), all_ones(G.n)
    value = sum(nu(J, k, F) for k in range(m % 2, m - 1, 2))
    return SdefectReport(_graph_id(G), m, value, method)


@lru_cache(maxsize=16)
def staircase_ideal(n: int) -> MonomialIdeal:
    """For odd n, the ideal generated by the n staircase 1-covers
    g_i = x_i x_{i+2} ... x_{i+n-1} (indices mod n) of the n-cycle:
    x_j divides g_i iff (j - i) mod n is even."""
    if n > MAX_VERTICES:
        raise GraphTooLargeError(n)
    if n < 3 or n % 2 == 0:
        raise ValueError("staircase ideal is defined for odd n >= 3")
    return MonomialIdeal(n, [[1 - (j - i) % n % 2 for j in range(n)] for i in range(n)])


def sdefect_cycle(G: Graph, m: int) -> SdefectReport:
    """Symbolic defect of an odd cycle C_n via the recursion driven by the
    staircase ideal S (equal to the cover ideal for n <= 7):

        sdefect(m) = sdefect(m-2) + nu(m-2),  sdefect(0) = sdefect(1) = 0,
        nu(k) = #{g in G(S^k) : g is a minimal k-cover of C_n},

    i.e. the sum of nu(k) over k = m mod 2, m mod 2 + 2, ..., m - 2.
    The minimal k-covers in G(S^k) are the minimal k-covers that are sums
    of k staircase covers: a generator of S^k dividing such a sum is a
    k-cover below it, so equals it.  So nu(k) is the size of the level
    `covers._decomposable_covers(C_n, k, S)` (the empty sum gives
    nu(0) = 1), and S^k is never built.

    Precondition (`ODD_CYCLE`, always checked): G is C_n under some
    labelling.  With every degree 2, G is a disjoint union of cycles, and
    `has_unique_extra_2cover` needs an odd cycle C with every vertex
    adjacent to C: a vertex on another component is not, and a single odd
    cycle passes, as each G - N[v] is a path.  A relabelling keeps the
    defect, so every labelling is counted on one chain, of `cycle(n)` and S.

    Proved: sdefect(m) = #{h in G(J^(m-2)) : F*h not in J^m}, from
    J^(m) = J^m + F*J^(m-2), which holds since the symbolic Rees algebra
    of a cover ideal is generated in degree <= 2 (Herzog-Hibi-Trung).
    Checked only against `sdefect_brute`: the split of that count into
    sdefect(m-2) + nu(m-2), on C5 m <= 40, C7 m <= 24, C9 m <= 7,
    C11 m <= 6, C13 m <= 5 and C15 m <= 3; it is not proved for every odd
    n and m.
    """
    if m < 1:
        raise ValueError("sdefect needs m >= 1")
    if not (all(len(a) == 2 for a in G.adjacency()) and has_unique_extra_2cover(G)):
        raise PreconditionError(ODD_CYCLE)
    C, S = cycle(G.n), staircase_ideal(G.n)
    value = sum(len(_decomposable_covers(C, k, S)[0]) for k in range(m % 2, m - 1, 2))
    return SdefectReport(_graph_id(G), m, value, "cycle-recursion")


@dataclass(frozen=True)
class TriangleTailReport:
    n: int
    left: int  # sdefect(J(T_n), 2)
    previous: int  # sdefect(J(T_{n-1}), 2)
    right_by_convention: dict = field(hash=False, default_factory=dict)
    convention: str | None = None  # which path-size reading makes it hold

    @property
    def holds(self) -> bool:
        return self.convention is not None


def verify_triangle_tail(n: int) -> TriangleTailReport:
    """Check sdefect(J(T_n), 2) = sdefect(J(T_{n-1}), 2) + mu(J(P)^2)
    with P read either as a path with n-4 edges or with n-4 vertices.

    The sdefects are computed by brute force and mu(J(P)^2) is read from
    `symbolic_power(P, 2)`: P is bipartite, so J(P)^2 = J(P)^(2) (Herzog-
    Hibi-Trung, Adv. Math. 210 (2007), Thm 5.1).  The report names the
    convention under which equality holds.
    """
    if n < 5:
        raise ValueError("the recursion needs n >= 5; compute sdefect directly below that")
    left = sdefect_brute(triangle_tail(n), 2).value
    previous = sdefect_brute(triangle_tail(n - 1), 2).value
    rights = {}
    for convention, vertices in (("edges", n - 3), ("vertices", n - 4)):  # n >= 5, so both >= 1
        rights[convention] = previous + symbolic_power(path(vertices), 2).mu()
    held = [c for c, v in rights.items() if v == left]
    return TriangleTailReport(n, left, previous, rights, held[0] if held else None)
