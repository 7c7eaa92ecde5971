"""Exact monomial and monomial-ideal arithmetic.

Monomials are exponent vectors over a fixed ambient variable count n.
Ideals always store their unique minimal generating set, sorted by degree
ascending, then by exponent tuple descending (the order `_minimal_rows`
sets), so ideal equality is plain sequence equality.  The set is stored
once, as the rows of one int64 array; equality, hashing and counts read
that array, and the tuple of Monomial objects is built only when `gens`
is first read.
Pairwise lcm/product generation runs on int64 numpy arrays.  Every
stored row obeys max exponent * n <= EXPONENT_BOUND, so a degree sum
never wraps.  Divisibility, in minimalization and membership, runs on
packed uint64 words: each exponent takes a field of bit_length(max) + 1
bits whose top bit is a guard, so one subtraction per word compares
every field of the word at once, and rows too wide for one word take
several.  The first variable takes the highest field, so the words of a
row also sort as its exponent tuple does: the canonical order is one
lexsort on the degree and the packed words.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

_DEFAULT_GENERATOR_CAP = 200_000
_generator_cap = _DEFAULT_GENERATOR_CAP

# Bound on max exponent * n for every stored row: degree sums fit int64.
EXPONENT_BOUND = 2**63 - 1

# Largest uint64 block one divisibility comparison materializes.
_BLOCK_WORDS = 1 << 16


class AmbientMismatchError(ValueError):
    """Two values live in polynomial rings with different variable counts."""


class ExponentBoundError(ValueError):
    """An exponent vector would break max exponent * n <= EXPONENT_BOUND."""

    def __init__(self, max_exponent: int, n: int):
        super().__init__(
            f"exponent {max_exponent} in {n} variables breaks the bound"
            f" max exponent * n <= 2**63 - 1"
        )


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


# lru_caches of results counted against the generator cap: lowering it empties them
_capped_caches: list = []


def _set_cap(cap: int) -> None:
    global _generator_cap
    if cap < _generator_cap:
        for cached in _capped_caches:
            cached.cache_clear()
    _generator_cap = cap


@contextmanager
def generator_cap(cap: int) -> Iterator[None]:
    """Bound every intermediate generating set by `cap` inside the block;
    the previous cap comes back on exit.  Each step down, on entry or on
    restore, empties `_capped_caches`, so the cap in force decides every
    answer, cached or not."""
    if cap < 0:
        raise ValueError(f"generator cap must be >= 0, got {cap}")
    previous = _generator_cap
    _set_cap(int(cap))
    try:
        yield
    finally:
        _set_cap(previous)


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


_set_exps = Monomial.exps.__set__


def _row_monomial(row: Sequence[int]) -> Monomial:
    """A Monomial from a kernel row, whose entries are non-negative Python
    ints already, so `Monomial.__post_init__` is skipped."""
    g = object.__new__(Monomial)
    _set_exps(g, tuple(row))
    return g


def unit_monomial(n: int) -> Monomial:
    return Monomial((0,) * n)


def all_ones(n: int) -> Monomial:
    """The product of all n variables."""
    return Monomial((1,) * n)


# ---------------------------------------------------------------------------
# array kernel


def _check_exponent_bound(max_exponent: int, n: int) -> None:
    if max_exponent * n > EXPONENT_BOUND:
        raise ExponentBoundError(max_exponent, n)


def _pack(arr: np.ndarray) -> tuple[np.ndarray, np.uint64]:
    """Pack the rows of a non-negative int64 array into uint64 words.

    Each exponent takes a field of bits = bit_length(max) + 1 bits, the
    value in the low bits and a guard in the top bit; a word holds
    64 // bits fields and a row takes as many words as it needs.  Column
    j goes to the high end of its word, so the words of a row, read in
    order, compare as its exponent tuple does.  Returns the words with
    shape (words per row, rows), packed column by column, and the guard
    mask of one word.
    """
    rows, n = arr.shape
    bits = int(arr.max(initial=0)).bit_length() + 1
    per_word = 64 // bits
    words = np.zeros((max(1, -(-n // per_word)), rows), dtype=np.uint64)
    cols = arr.view(np.uint64)
    for j in range(n):
        words[j // per_word] |= cols[:, j] << np.uint64((per_word - 1 - j % per_word) * bits)
    ones = ((1 << per_word * bits) - 1) // ((1 << bits) - 1)
    return words, np.uint64(ones << (bits - 1))


def _divides(gens: np.ndarray, rows: np.ndarray, guard: np.uint64) -> np.ndarray:
    """The (rows, gens) matrix of whether packed gen c divides packed row
    r (both from one `_pack`, one column per row).

    Row a divides row b when a <= b in every field.  With the guard bit
    set in each field of b, the subtraction (b | guard) - a borrows
    inside a field only, and leaves that field's guard set iff the
    field of b is at least that of a; a divides b iff every guard
    survives in every word.
    """
    lifted = rows | guard
    acc = lifted[0, :, None] - gens[0]
    for k in range(1, gens.shape[0]):
        acc &= lifted[k, :, None] - gens[k]
    acc &= guard
    return acc == guard


def _divisible(gens: np.ndarray, rows: np.ndarray, guard: np.uint64) -> np.ndarray:
    """For each packed row of `rows`, whether some packed row of `gens`
    divides it (see `_divides`).  Rows are tested in blocks of at most
    _BLOCK_WORDS words (or one row against all gens, if larger).
    """
    out = np.zeros(rows.shape[1], dtype=bool)
    if gens.shape[1] == 0:
        return out
    step = max(1, _BLOCK_WORDS // gens.shape[1])
    for lo in range(0, rows.shape[1], step):
        out[lo : lo + step] = _divides(gens, rows[:, lo : lo + step], guard).any(axis=1)
    return out


def _distinct_rows(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.uint64]:
    """The distinct rows of an array in canonical order, degree
    ascending, then exponent tuple descending, with their degrees and
    their packed words and guard (see `_pack`): one lexsort on the
    degree and the complemented words, then a compare of adjacent
    words."""
    deg = arr.sum(axis=1)
    words, guard = _pack(arr)
    order = np.lexsort((*~words[::-1], deg))
    words = words[:, order]
    fresh = np.ones(arr.shape[0], dtype=bool)
    fresh[1:] = (words[:, 1:] != words[:, :-1]).any(axis=0)
    order = order[fresh]
    return arr[order], deg[order], words[:, fresh], guard


def _minimal_rows(arr: np.ndarray) -> np.ndarray:
    """Reduce rows to the divisibility antichain of minimal elements, in
    canonical order: degree ascending, then exponent tuple descending.

    A row can be divided only by a row of strictly lower degree, and if
    it is, then also by a minimal one, so the rows of the lowest degree
    are all kept and every later row is tested against the rows kept
    below it.  The later degree layers are tested in groups of
    consecutive layers, one group at a time: a layer joins the group
    while group rows * (kept rows + group rows) <= _BLOCK_WORDS, so a
    large layer is a group of its own.  A group of several layers is
    tested in one block against the kept rows and against its own rows.
    Its own rows may be non-minimal, but what one of them divides, a
    kept row divides too; and the only row of the group that divides a
    row r of the same degree or lower is r itself, so the diagonal of
    that test is cleared.  Rows must be non-negative and obey
    EXPONENT_BOUND.
    """
    if arr.shape[0] == 0:
        return arr
    arr, deg, words, guard = _distinct_rows(arr)
    bounds = (np.flatnonzero(np.diff(deg)) + 1).tolist() + [arr.shape[0]]
    if len(bounds) == 1:
        return arr
    # kept rows are moved to the front of `words`, so words[:, :top] is
    # the packed antichain so far
    keep = np.ones(arr.shape[0], dtype=bool)
    top = lo = bounds[0]
    for hi, after in zip(bounds[1:], bounds[2:] + [0]):
        if after and (after - lo) * (top + after - lo) <= _BLOCK_WORDS:
            continue  # the next layer joins the group [lo, hi)
        group = words[:, lo:hi]
        if deg[lo] == deg[hi - 1]:
            ok = ~_divisible(words[:, :top], group, guard)
        else:
            div = _divides(np.concatenate((words[:, :top], group), axis=1), group, guard)
            np.fill_diagonal(div[:, top:], False)
            ok = ~div.any(axis=1)
        keep[lo:hi] = ok
        moved = group[:, ok]
        words[:, top : top + moved.shape[1]] = moved
        top += moved.shape[1]
        lo = hi
    return arr[keep]


def _check_cap(count: int) -> None:
    if count > _generator_cap:
        raise GeneratorCapExceeded(count, _generator_cap)


class MonomialIdeal:
    """A monomial ideal held as its canonical minimal generating set.

    The zero ideal has no generators; the unit ideal is generated by the
    monomial 1.  Two ideals are equal iff their generator sequences are.
    The generators are held as the rows of `_arr` only; the tuple of
    Monomials in `gens` is built the first time it is read.
    """

    __slots__ = ("n", "_arr", "_gens")

    def __init__(self, n: int, gens: Iterable[Monomial | Sequence[int]] = ()):
        rows = []
        for g in gens:
            exps = g.exps if isinstance(g, Monomial) else tuple(int(e) for e in g)
            if len(exps) != n:
                raise AmbientMismatchError(
                    f"generator of length {len(exps)} in ambient of size {n}"
                )
            if exps:
                if min(exps) < 0:
                    raise ValueError(f"negative exponent in {exps}")
                _check_exponent_bound(max(exps), n)
            rows.append(exps)
        self._init_from(n, _minimal_rows(np.array(rows, dtype=np.int64).reshape(len(rows), n)))

    def _init_from(self, n: int, minimal: np.ndarray) -> None:
        self.n = n
        self._arr = minimal
        self._gens = None

    @property
    def gens(self) -> tuple[Monomial, ...]:
        """The minimal generators, in canonical order."""
        if self._gens is None:
            self._gens = tuple(map(_row_monomial, self._arr.tolist()))
        return self._gens

    @classmethod
    def _from_minimal(cls, n: int, minimal: np.ndarray) -> "MonomialIdeal":
        """The ideal of rows that are already its minimal generators in
        canonical order; nothing is re-tested."""
        self = object.__new__(cls)
        self._init_from(n, minimal)
        return self

    @classmethod
    def _from_array(cls, n: int, arr: np.ndarray) -> "MonomialIdeal":
        return cls._from_minimal(n, _minimal_rows(arr))

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
        return len(self._arr) == 0

    def is_unit(self) -> bool:
        return len(self._arr) == 1 and not self._arr.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return (
            self.n == other.n
            and self._arr.shape == other._arr.shape
            and self._arr.tobytes() == other._arr.tobytes()
        )

    def __hash__(self) -> int:
        return hash((self.n, self._arr.shape, self._arr.tobytes()))

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.gens)

    def __len__(self) -> int:
        return len(self._arr)

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
        """Vectorized membership test, one boolean per query monomial.

        Query exponents are clipped to the largest generator exponent,
        which keeps every answer and keeps huge queries within int64.
        """
        top = int(self._arr.max(initial=0))
        clipped = []
        for m in monomials:
            if m.n != self.n:
                raise AmbientMismatchError(f"ambient sizes differ: {self.n} vs {m.n}")
            clipped.append([min(e, top) for e in m.exps])
        rows = np.array(clipped, dtype=np.int64)
        return self._contains_rows(rows.reshape(len(monomials), self.n))

    def _contains_rows(self, rows: np.ndarray) -> np.ndarray:
        """`contains_each` on the rows of a non-negative int64 array with
        n columns: one boolean per row."""
        words, guard = _pack(np.vstack([self._arr, rows]))
        k = self._arr.shape[0]
        return _divisible(words[:, :k], words[:, k:], guard)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        """True iff every generator of `other` lies in this ideal."""
        self._check_ambient(other)
        return bool(self.contains_each(other.gens).all())

    # -- invariants

    def alpha(self) -> int:
        """Minimal degree of a nonzero element (= of a generator)."""
        if self.is_zero():
            raise ZeroIdealError("alpha undefined for the zero ideal")
        return int(self._arr[0].sum())

    def mu(self) -> int:
        """Number of minimal generators."""
        return len(self._arr)

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
        count = len(self._arr) * len(other._arr)
        _check_cap(count)
        top = int(self._arr.max(initial=0)) + int(other._arr.max(initial=0))
        _check_exponent_bound(top, self.n)
        cand = (self._arr[:, None, :] + other._arr[None, :, :]).reshape(count, self.n)
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
        count = len(self._arr) * len(other._arr)
        _check_cap(count)
        cand = np.maximum(self._arr[:, None, :], other._arr[None, :, :]).reshape(count, self.n)
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
