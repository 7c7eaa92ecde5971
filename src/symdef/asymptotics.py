"""Waldschmidt constants, resurgence lower bounds, exact quasi-polynomial
fitting of integer sequences, and generator-independence checks."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .covers import cover_ideal, symbolic_power
from .graphs import Graph
from .monomials import AmbientMismatchError, Monomial, MonomialIdeal
from .sdefect import (
    UNIQUE_EXTRA_2COVER,
    PreconditionError,
    has_unique_extra_2cover,
    sdefect_brute,
)

Poly = tuple[Fraction, ...]  # coefficients, low degree first


class NoFitError(ValueError):
    """The sequence does not stabilize onto a quasi-polynomial within the
    available data."""


def _poly_degree(p: Poly) -> int:
    # the zero polynomial counts as degree 0 here
    return max((i for i, c in enumerate(p) if c), default=0)


def _poly_eval(p: Poly, m: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * m + c
    return acc


def _poly_str(p: Poly, var: str = "m") -> str:
    if not any(p):
        return "0"
    terms = []
    for i in range(_poly_degree(p), -1, -1):
        c = p[i]
        if not c:
            continue
        mono = "" if i == 0 else (var if i == 1 else f"{var}^{i}")
        if i == 0:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms)


def _lagrange(points: Sequence[tuple[int, int]]) -> Poly:
    """Exact interpolating polynomial through the given (m, value) points."""
    k = len(points)
    coeffs = [Fraction(0)] * k
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            # multiply basis by (x - xj)
            new = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d] -= c * xj
                new[d + 1] += c
            basis = new
        scale = Fraction(yi) / denom
        for d, c in enumerate(basis):
            coeffs[d] += c * scale
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class QuasiPolynomial:
    """A period-d family of exact rational polynomials: polys[r] applies
    when m is congruent to r mod period."""

    period: int
    polys: tuple[Poly, ...]
    onset: int
    tail_counts: tuple[int, ...] = ()  # verified tail samples per residue class

    @property
    def degree(self) -> int:
        return max(_poly_degree(p) for p in self.polys)

    def evaluate(self, m: int) -> Fraction:
        return _poly_eval(self.polys[m % self.period], m)

    def describe(self) -> list[str]:
        return [
            f"m = {r} mod {self.period}: {_poly_str(p)}"
            for r, p in enumerate(self.polys)
        ]


def _fit_class(points: list[tuple[int, int]]) -> tuple[Poly, int, int]:
    """Fit one residue class by exact differences from the tail backwards.

    Needs at least 2 points.  Returns (poly, onset_m, verified_tail_count).
    The accepted degree D is the smallest for which the polynomial through
    the last D+1 points also reproduces the point before them.
    """
    for D in range(0, len(points) - 1):
        poly = _lagrange(points[-(D + 1):])
        if _poly_eval(poly, points[-(D + 2)][0]) != points[-(D + 2)][1]:
            continue
        # walk backwards to the earliest sample the tail polynomial explains
        first_bad = -1
        for idx in range(len(points) - 1, -1, -1):
            if _poly_eval(poly, points[idx][0]) != points[idx][1]:
                first_bad = idx
                break
        matched = len(points) - 1 - first_bad
        if matched < D + 2:
            continue  # not enough stabilized tail to trust this degree
        onset = None if first_bad < 0 else points[first_bad][0] + 1
        return poly, onset, matched
    raise NoFitError(
        "differences never stabilize; supply at least "
        f"{len(points) + 2} samples in this residue class"
    )


def fit_quasipolynomial(
    values: Sequence[int], start: int, period: int
) -> QuasiPolynomial:
    """Fit values[i] = f(start + i) by an exact quasi-polynomial of the
    given period.  Raises NoFitError when the data does not stabilize."""
    if period < 1:
        raise ValueError("period must be positive")
    if len(values) < 2 * period:
        raise NoFitError(
            f"{len(values)} values leave a residue class mod {period} with"
            f" fewer than 2 samples; supply at least {2 * period} values"
        )
    classes: dict[int, list[tuple[int, int]]] = {r: [] for r in range(period)}
    for i, v in enumerate(values):
        m = start + i
        classes[m % period].append((m, int(v)))
    polys: list[Poly] = []
    onsets, tails = [], []
    for r in range(period):
        poly, onset, tail = _fit_class(classes[r])
        polys.append(poly)
        if onset is not None:
            onsets.append(onset)
        tails.append(tail)
    return QuasiPolynomial(period, tuple(polys), max(onsets, default=start), tuple(tails))


# ---------------------------------------------------------------------------
# Waldschmidt constant and resurgence bound


@dataclass(frozen=True)
class WaldschmidtReport:
    alphas: tuple[int, ...]  # alpha of the symbolic powers 1..n_gen
    minimizing_index: int  # 1-based m achieving the minimum
    value: Fraction
    resurgence_lower_bound: Fraction | None = None


def resurgence_lower_bound(G: Graph) -> Fraction:
    """Two-case lower bound on the resurgence for graphs whose only extra
    2-cover generator is the product of all variables
    (`has_unique_extra_2cover`)."""
    if not has_unique_extra_2cover(G):
        raise PreconditionError(UNIQUE_EXTRA_2COVER)
    a = cover_ideal(G).alpha()
    if Fraction(G.n, 2) < a:
        return Fraction(2 * a, G.n)
    return Fraction(1)


def waldschmidt(G: Graph) -> WaldschmidtReport:
    """The Waldschmidt constant of J = J(G), exact, with the resurgence
    lower bound when its hypothesis holds.

    If the symbolic Rees algebra of an ideal I is Noetherian and
    generated in degree <= n_gen, the Waldschmidt constant is
    min over m <= n_gen of alpha(I^(m))/m.  The symbolic Rees algebra of
    a cover ideal is generated in degree <= 2 (Herzog-Hibi-Trung, Adv.
    Math. 210 (2007)), so the constant is min(alpha(J), alpha(J^(2))/2),
    which is alpha(J^(2))/2."""
    if not G.edges:
        raise ValueError("waldschmidt needs a graph with at least one edge")
    alphas = (cover_ideal(G).alpha(), symbolic_power(G, 2).alpha())
    ratios = [Fraction(a, m) for m, a in enumerate(alphas, start=1)]
    value = min(ratios)
    c = ratios.index(value) + 1
    try:
        bound = resurgence_lower_bound(G)
    except PreconditionError:
        bound = None
    return WaldschmidtReport(alphas, c, value, bound)


# ---------------------------------------------------------------------------
# growth degrees


@dataclass(frozen=True)
class GrowthReport:
    degree: int
    onset: int
    tail_count: int
    values: tuple[int, ...]


def mu_growth_degree(I: MonomialIdeal, m_max: int = 8) -> GrowthReport:
    """Degree of the polynomial that mu(I^m) stabilizes onto for m up to
    m_max (period-1 exact fit on the tail)."""
    values = tuple(I.power(k).mu() for k in range(1, m_max + 1))
    qp = fit_quasipolynomial(values, start=1, period=1)
    return GrowthReport(qp.degree, qp.onset, qp.tail_counts[0], values)


def jacobian_rank_full(gens: Sequence[Monomial]) -> bool:
    """Generic full row rank of the derivative matrix of squarefree
    monomial generators.

    Entry (i, j) is d g_i / d x_j = E_ij * g_i / x_j, where E is the
    exponent matrix.  At any point x with no zero coordinate that matrix
    is diag(g_i(x)) * E * diag(1 / x_j), two invertible diagonal factors
    around E, so its rank there is rank E.  The generic rank holds on a
    dense open set, which meets those points, so it is rank E too,
    computed here exactly over the rationals.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    for g in gens:
        if g.n != n:
            raise AmbientMismatchError(f"ambient sizes differ: {n} vs {g.n}")
        if not g.is_squarefree():
            raise ValueError(f"generator {g} is not squarefree")
    if len(gens) > n:
        return False
    return _rank([[Fraction(e) for e in g.exps] for g in gens]) == len(gens)


def _rank(matrix: list[list[Fraction]]) -> int:
    rows = [row[:] for row in matrix]
    cols = len(rows[0]) if rows else 0
    rank = 0
    pivot_col = 0
    while rank < len(rows) and pivot_col < cols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][pivot_col]), None)
        if pivot is None:
            pivot_col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][pivot_col]
        for r in range(rank + 1, len(rows)):
            if rows[r][pivot_col]:
                factor = rows[r][pivot_col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        pivot_col += 1
    return rank


@dataclass(frozen=True)
class SdefectDegreeReport:
    degree: int  # predicted: quotient growth degree + 1
    maximizing_variable: int  # 1-based
    quotient_mu: int
    fitted_degree: int | None
    agrees: bool


def sdefect_degree(G: Graph, m_max: int = 8) -> SdefectDegreeReport:
    """Predicted quasi-polynomial degree of the symbolic defect: one more
    than the growth degree of the generator count of the cover ideal's
    image modulo the variable whose quotient keeps the most generators.

    Cross-checked against a period-2 fit of the actual sdefect sequence.
    """
    if not has_unique_extra_2cover(G):
        raise PreconditionError(UNIQUE_EXTRA_2COVER)
    I = cover_ideal(G)
    quotients = [I.delete_variable(i) for i in range(G.n)]
    best = max(range(G.n), key=lambda i: quotients[i].mu())
    growth = mu_growth_degree(quotients[best], m_max)
    predicted = growth.degree + 1
    fitted: int | None
    try:
        seq = [sdefect_brute(G, m).value for m in range(1, m_max + 1)]
        fitted = fit_quasipolynomial(seq, start=1, period=2).degree
    except NoFitError:
        fitted = None
    return SdefectDegreeReport(predicted, best + 1, quotients[best].mu(), fitted, fitted == predicted)
