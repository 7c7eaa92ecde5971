"""Monomial and monomial-ideal arithmetic."""
import pytest

from symdef import monomials
from symdef.covers import cover_ideal, ordinary_power, symbolic_power
from symdef.graphs import complete, cycle, path
from symdef.monomials import (
    AmbientMismatchError,
    ExponentBoundError,
    GeneratorCapExceeded,
    Monomial,
    MonomialIdeal,
    ZeroIdealError,
    all_ones,
    generator_cap,
    minimalize,
    unit_monomial,
)


def M(*exps):
    return Monomial(tuple(exps))


class TestMonomial:
    def test_divides(self):
        assert M(1, 0).divides(M(1, 1))
        assert not M(2).divides(M(1))
        assert unit_monomial(3).divides(M(0, 5, 2))

    def test_divides_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            M(1).divides(M(1, 0))

    def test_lcm(self):
        assert M(2, 1, 0).lcm(M(0, 3, 0)) == M(2, 3, 0)
        assert M(1, 0).lcm(M(0, 1)) == M(1, 1)

    def test_mul_pow(self):
        assert M(1, 2) * M(3, 0) == M(4, 2)
        assert M(1, 2) ** 3 == M(3, 6)
        assert M(1, 2) ** 0 == unit_monomial(2)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            M(1, -1)
        with pytest.raises(ValueError):
            M(1, 1) ** -1

    def test_degree_support_squarefree(self):
        m = M(2, 0, 1)
        assert m.degree == 3
        assert m.support() == (0, 2)
        assert not m.is_squarefree()
        assert all_ones(4).is_squarefree()

    def test_str(self):
        assert str(M(2, 1, 0)) == "x1^2*x2"
        assert str(unit_monomial(2)) == "1"


class TestMinimalize:
    def test_redundant_generator_dropped(self):
        I = minimalize([M(2, 0), M(1, 0)])
        assert I.gens == (M(1, 0),)

    def test_duplicates_collapse(self):
        I = minimalize([M(1, 1), M(1, 1), M(0, 2)])
        assert I.gens == (M(1, 1), M(0, 2))

    def test_canonical_order_is_graded_lex(self):
        I = MonomialIdeal(2, [M(0, 2), M(1, 0)])
        # degree ascending, then exponent tuple descending
        assert I.gens == (M(1, 0), M(0, 2))

    def test_empty_needs_ambient(self):
        assert minimalize([], n=3).is_zero()
        with pytest.raises(ValueError):
            minimalize([])

    def test_generator_order_irrelevant(self):
        a = MonomialIdeal(2, [M(1, 1), M(2, 0), M(0, 2)])
        b = MonomialIdeal(2, [M(0, 2), M(1, 1), M(2, 0)])
        assert a == b
        assert hash(a) == hash(b)


class TestMembership:
    def test_contains(self):
        I = MonomialIdeal(3, [M(1, 0, 0), M(0, 1, 0)])
        assert I.contains(M(1, 0, 1))
        assert not MonomialIdeal(2, [M(1, 1)]).contains(M(1, 0))

    def test_zero_ideal_contains_nothing(self):
        assert not MonomialIdeal.zero(2).contains(M(3, 3))

    def test_unit_ideal_contains_everything(self):
        assert MonomialIdeal.unit(2).contains(unit_monomial(2))
        assert MonomialIdeal.unit(2).contains(M(0, 7))

    def test_contains_ideal(self):
        I = MonomialIdeal(2, [M(1, 0)])
        J = MonomialIdeal(2, [M(2, 1), M(3, 0)])
        assert I.contains_ideal(J)
        assert not J.contains_ideal(I)

    def test_huge_query_exponents(self):
        # exponents past int64 are clipped to the generators' largest
        I = MonomialIdeal(2, [M(1, 1)])
        assert I.contains(M(2**70, 1))
        assert not I.contains(M(2**70, 0))
        assert MonomialIdeal(1, [M(1)]).contains(M(2**63))

    @pytest.mark.parametrize("query", [(5,), (5, 5)], ids=["one-long", "two-long"])
    def test_contains_each_checks_ambient(self, query):
        I = MonomialIdeal(3, [M(1, 1, 1)])
        with pytest.raises(AmbientMismatchError):
            I.contains_each([M(2, 2, 2), Monomial(query)])


class TestArithmetic:
    def test_power_of_two_variables(self):
        I = MonomialIdeal(2, [M(1, 0), M(0, 1)])
        assert I.power(2).gens == (M(2, 0), M(1, 1), M(0, 2))

    def test_power_zero_is_unit(self):
        I = MonomialIdeal(2, [M(1, 1)])
        assert I.power(0).is_unit()

    def test_intersect_principal(self):
        a = MonomialIdeal(2, [M(1, 0)])
        b = MonomialIdeal(2, [M(0, 1)])
        assert a.intersect(b).gens == (M(1, 1),)

    def test_intersect_with_unit(self):
        I = MonomialIdeal(2, [M(1, 1), M(2, 0)])
        assert I.intersect(MonomialIdeal.unit(2)) == I

    def test_add(self):
        I = MonomialIdeal(2, [M(2, 0)])
        J = MonomialIdeal(2, [M(1, 0)])
        assert I.add(J).gens == (M(1, 0),)

    def test_multiply_by_zero(self):
        I = MonomialIdeal(2, [M(1, 0)])
        assert I.multiply(MonomialIdeal.zero(2)).is_zero()

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            MonomialIdeal(2, [M(1, 0)]).multiply(MonomialIdeal(3, [M(1, 0, 0)]))

    def test_delete_variable(self):
        I = MonomialIdeal(3, [M(1, 1, 0), M(0, 0, 2), M(0, 1, 1)])
        Q = I.delete_variable(0)
        assert Q.n == 2
        assert Q.gens == (M(1, 1), M(0, 2))


class TestExponentBound:
    def test_construction_refuses_rows_past_the_bound(self):
        # 2^62 * 2 > 2^63 - 1: the degree sum would wrap in int64
        with pytest.raises(ExponentBoundError, match="2\\*\\*63 - 1"):
            MonomialIdeal(2, [(2**62, 2**62), (1, 0)])

    def test_rows_at_the_bound_minimalize(self):
        assert MonomialIdeal(2, [(2**62 - 1, 2**62 - 1), (1, 0)]).gens == (M(1, 0),)

    def test_multiply_checks_before_adding(self):
        with pytest.raises(ExponentBoundError, match="2\\*\\*63 - 1"):
            MonomialIdeal(1, [(2**62,)]).power(2)
        assert MonomialIdeal(1, [(2**62 - 1,)]).power(2).gens == (M(2**63 - 2),)

    def test_negative_row_rejected(self):
        with pytest.raises(ValueError, match="negative exponent"):
            MonomialIdeal(2, [(0, 0), (-1, 0)])


class TestInvariants:
    def test_alpha_of_k4_cover_ideal(self):
        # minimal vertex covers of K4 are the four vertex triples
        assert cover_ideal(complete(4)).alpha() == 3

    def test_alpha_unit(self):
        assert MonomialIdeal.unit(3).alpha() == 0

    def test_alpha_zero_ideal_raises(self):
        with pytest.raises(ZeroIdealError):
            MonomialIdeal.zero(2).alpha()

    def test_mu(self):
        assert MonomialIdeal.zero(2).mu() == 0
        assert cover_ideal(complete(4)).mu() == 4


class TestLazyGenerators:
    @staticmethod
    def _ideals():
        """Ideals built by multiply, add and ordinary_power, with equal
        ideals reached by different routes and with different n."""
        out = [MonomialIdeal.zero(0), MonomialIdeal.unit(0), MonomialIdeal.zero(2)]
        for G in (complete(3), cycle(4), cycle(5), path(3)):
            J = cover_ideal(G)
            out += [
                J.multiply(J),
                ordinary_power(G, 2),
                ordinary_power(G, 3),
                J.multiply(J).multiply(J),
                J.add(ordinary_power(G, 2)),
                ordinary_power(G, 2).add(J),
                symbolic_power(G, 2),
                MonomialIdeal.unit(G.n).multiply(J),
            ]
        return out

    def test_equality_and_hash_agree_with_the_generator_tuples(self):
        ideals = self._ideals()
        equal_pairs = 0
        for a in ideals:
            for b in ideals:
                same = a.n == b.n and a.gens == b.gens
                assert (a == b) == same
                if same:
                    assert hash(a) == hash(b)
                    equal_pairs += a is not b
        assert equal_pairs > 0

    def test_multiply_builds_no_monomials_until_gens_is_read(self, monkeypatch):
        built = []
        real = monomials._row_monomial
        monkeypatch.setattr(monomials, "_row_monomial", lambda row: built.append(row) or real(row))
        J = MonomialIdeal(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
        P = J.multiply(J)
        assert P.mu() == len(P) == 6 and P == J.power(2) and not P.is_zero()
        assert built == []
        gens = P.gens
        assert P.gens is gens and len(built) == 6
        assert [g.exps for g in gens] == [tuple(row) for row in P._arr.tolist()]


class TestGeneratorCap:
    def test_cap_trips_and_restores(self):
        with generator_cap(3):
            I = MonomialIdeal(2, [M(3, 0), M(2, 1), M(1, 2), M(0, 3)])
            with pytest.raises(GeneratorCapExceeded) as exc:
                I.multiply(I)
            assert exc.value.cap == 3

    def test_negative_cap_refused(self):
        with pytest.raises(ValueError, match="-1"):
            with generator_cap(-1):
                pass
        # the refused block left the cap in force as it was
        I = MonomialIdeal(2, [M(1, 0), M(0, 1)])
        assert I.power(2).mu() == 3
