"""Exact monomial and monomial-ideal arithmetic.

Monomials are exponent vectors over a fixed ambient variable count n.
Ideals always store their unique minimal generating set, sorted by degree
ascending, then by exponent tuple descending (the order `_minimal_rows`
sets), so ideal equality is plain sequence equality.
The hot paths (minimalization, pairwise lcm/product generation,
membership) run on numpy integer arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

_DEFAULT_GENERATOR_CAP = 200_000
_generator_cap = _DEFAULT_GENERATOR_CAP


class AmbientMismatchError(ValueError):
    """Two values live in polynomial rings with different variable counts."""


class ZeroIdealError(ValueError):
    """Operation undefined on the zero ideal."""


class GeneratorCapExceeded(RuntimeError):
    """An intermediate generating set grew past the configured cap."""

    def __init__(self, candidates: int, cap: int):
        super().__init__(
            f"intermediate generating set needs {candidates} candidates, cap is {cap}"
        )
        self.candidates = candidates
        self.cap = cap


def set_generator_cap(cap: int) -> None:
    global _generator_cap
    _generator_cap = int(cap)


def get_generator_cap() -> int:
    return _generator_cap


@dataclass(frozen=True, slots=True)
class Monomial:
    """A monomial x_1^e_1 ... x_n^e_n, stored as the tuple (e_1, ..., e_n)."""

    exps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exps", tuple(int(e) for e in self.exps))
        if any(e < 0 for e in self.exps):
            raise ValueError(f"negative exponent in {self.exps}")

    @property
    def n(self) -> int:
        return len(self.exps)

    @property
    def degree(self) -> int:
        return sum(self.exps)

    def _check_ambient(self, other: "Monomial") -> None:
        if len(self.exps) != len(other.exps):
            raise AmbientMismatchError(
                f"ambient sizes differ: {len(self.exps)} vs {len(other.exps)}"
            )

    def divides(self, other: "Monomial") -> bool:
        self._check_ambient(other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def lcm(self, other: "Monomial") -> "Monomial":
        self._check_ambient(other)
        return Monomial(tuple(max(a, b) for a, b in zip(self.exps, other.exps)))

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check_ambient(other)
        return Monomial(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __pow__(self, k: int) -> "Monomial":
        if k < 0:
            raise ValueError("negative power of a monomial")
        return Monomial(tuple(e * k for e in self.exps))

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exps)

    def support(self) -> tuple[int, ...]:
        """0-based indices of the variables dividing this monomial."""
        return tuple(i for i, e in enumerate(self.exps) if e)

    def __str__(self) -> str:
        parts = []
        for i, e in enumerate(self.exps):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts) if parts else "1"


def unit_monomial(n: int) -> Monomial:
    return Monomial((0,) * n)


def all_ones(n: int) -> Monomial:
    """The product of all n variables."""
    return Monomial((1,) * n)


# ---------------------------------------------------------------------------
# array kernel


def _divisible(gens: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """For each row of `rows`, whether some row of `gens` divides it.

    Rows are exponent vectors; row a divides row b when a <= b
    componentwise.
    """
    return np.array([(gens <= row).all(axis=1).any() for row in rows], dtype=bool)


def _minimal_rows(arr: np.ndarray) -> np.ndarray:
    """Reduce rows to the divisibility antichain of minimal elements, in
    canonical order: degree ascending, then exponent tuple descending.

    A row can be divided only by a row of strictly lower degree, and if
    it is, then also by a minimal one, so each degree layer is tested
    against the rows kept from the layers below it.
    """
    if arr.shape[0] == 0:
        return arr
    deg = arr.sum(axis=1)
    order = np.lexsort(np.vstack([-arr[:, ::-1].T, deg]))
    arr, deg = arr[order], deg[order]
    fresh = np.ones(arr.shape[0], dtype=bool)
    fresh[1:] = (arr[1:] != arr[:-1]).any(axis=1)
    arr, deg = arr[fresh], deg[fresh]
    layers = np.split(arr, np.flatnonzero(np.diff(deg)) + 1)
    kept = layers[0]
    for layer in layers[1:]:
        kept = np.vstack([kept, layer[~_divisible(kept, layer)]])
    return kept


def _check_cap(count: int) -> None:
    if count > _generator_cap:
        raise GeneratorCapExceeded(count, _generator_cap)


class MonomialIdeal:
    """A monomial ideal held as its canonical minimal generating set.

    The zero ideal has no generators; the unit ideal is generated by the
    monomial 1.  Two ideals are equal iff their generator sequences are.
    """

    __slots__ = ("n", "gens", "_arr")

    def __init__(self, n: int, gens: Iterable[Monomial | Sequence[int]] = ()):
        rows = []
        for g in gens:
            exps = g.exps if isinstance(g, Monomial) else tuple(int(e) for e in g)
            if len(exps) != n:
                raise AmbientMismatchError(
                    f"generator of length {len(exps)} in ambient of size {n}"
                )
            rows.append(exps)
        self._init_from(n, np.array(rows, dtype=np.int64).reshape(len(rows), n))

    def _init_from(self, n: int, arr: np.ndarray) -> None:
        self.n = n
        self._arr = _minimal_rows(arr)
        self.gens = tuple(map(Monomial, self._arr.tolist()))

    @classmethod
    def _from_array(cls, n: int, arr: np.ndarray) -> "MonomialIdeal":
        self = object.__new__(cls)
        self._init_from(n, arr)
        return self

    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls(n, ())

    @classmethod
    def unit(cls, n: int) -> "MonomialIdeal":
        return cls(n, (unit_monomial(n),))

    @classmethod
    def principal(cls, g: Monomial) -> "MonomialIdeal":
        return cls(g.n, (g,))

    # -- predicates

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].degree == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.n == other.n and self.gens == other.gens

    def __hash__(self) -> int:
        return hash((self.n, self.gens))

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.gens)

    def __len__(self) -> int:
        return len(self.gens)

    def __repr__(self) -> str:
        body = ", ".join(str(g) for g in self.gens)
        return f"MonomialIdeal(n={self.n}, gens=({body}))"

    def _check_ambient(self, other: "MonomialIdeal") -> None:
        if self.n != other.n:
            raise AmbientMismatchError(f"ambient sizes differ: {self.n} vs {other.n}")

    # -- membership

    def contains(self, m: Monomial) -> bool:
        return bool(self.contains_each([m])[0])

    def contains_each(self, monomials: Sequence[Monomial]) -> np.ndarray:
        """Vectorized membership test, one boolean per query monomial."""
        for m in monomials:
            if m.n != self.n:
                raise AmbientMismatchError(f"ambient sizes differ: {self.n} vs {m.n}")
        rows = np.array([m.exps for m in monomials], dtype=np.int64)
        return _divisible(self._arr, rows.reshape(len(monomials), self.n))

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        """True iff every generator of `other` lies in this ideal."""
        self._check_ambient(other)
        return bool(self.contains_each(other.gens).all())

    # -- invariants

    def alpha(self) -> int:
        """Minimal degree of a nonzero element (= of a generator)."""
        if not self.gens:
            raise ZeroIdealError("alpha undefined for the zero ideal")
        return self.gens[0].degree

    def mu(self) -> int:
        """Number of minimal generators."""
        return len(self.gens)

    def generator_degrees(self) -> tuple[int, ...]:
        return tuple(g.degree for g in self.gens)

    # -- arithmetic

    def add(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_ambient(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return MonomialIdeal._from_array(self.n, np.vstack([self._arr, other._arr]))

    def multiply(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_ambient(other)
        if self.is_zero() or other.is_zero():
            return MonomialIdeal.zero(self.n)
        _check_cap(len(self.gens) * len(other.gens))
        cand = (self._arr[:, None, :] + other._arr[None, :, :]).reshape(-1, self.n)
        return MonomialIdeal._from_array(self.n, cand)

    def powers(self) -> Iterator["MonomialIdeal"]:
        """I^0, I^1, I^2, ...; each power past I^1 is the previous one
        times I, so reading up to I^k costs k-1 multiplies."""
        yield MonomialIdeal.unit(self.n)
        result = self
        while True:
            yield result
            result = result.multiply(self)

    def power(self, k: int) -> "MonomialIdeal":
        if k < 0:
            raise ValueError("negative ideal power")
        return next(islice(self.powers(), k, None))

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_ambient(other)
        if self.is_zero() or other.is_zero():
            return MonomialIdeal.zero(self.n)
        _check_cap(len(self.gens) * len(other.gens))
        cand = np.maximum(self._arr[:, None, :], other._arr[None, :, :]).reshape(-1, self.n)
        return MonomialIdeal._from_array(self.n, cand)

    def delete_variable(self, i: int) -> "MonomialIdeal":
        """Image in the quotient by x_{i+1}: drop generators divisible by
        x_{i+1} and work in the ring on the remaining n-1 variables."""
        if not 0 <= i < self.n:
            raise ValueError(f"variable index {i} out of range")
        keep = self._arr[self._arr[:, i] == 0]
        keep = np.delete(keep, i, axis=1)
        return MonomialIdeal._from_array(self.n - 1, keep)


def minimalize(gens: Iterable[Monomial], n: int | None = None) -> MonomialIdeal:
    """The unique inclusion-minimal antichain generating the same ideal.

    `n` is required only when `gens` is empty (the zero ideal).
    """
    gens = tuple(gens)
    if not gens:
        if n is None:
            raise ValueError("ambient size required for an empty generating set")
        return MonomialIdeal.zero(n)
    ambient = gens[0].n if isinstance(gens[0], Monomial) else len(gens[0])
    if n is not None and n != ambient:
        raise AmbientMismatchError(f"ambient sizes differ: {n} vs {ambient}")
    return MonomialIdeal(ambient, gens)
