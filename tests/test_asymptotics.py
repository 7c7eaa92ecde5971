"""Quasi-polynomial fitting, Waldschmidt constants, growth degrees,
generic rank of the derivative matrix."""
import random
import tracemalloc
from fractions import Fraction
from math import comb, prod

import pytest

from symdef.asymptotics import (
    NoFitError,
    _poly_str,
    _rank,
    fit_quasipolynomial,
    jacobian_rank_full,
    mu_growth_degree,
    resurgence_lower_bound,
    sdefect_degree,
    waldschmidt,
)
from symdef.covers import cover_ideal, symbolic_power
from symdef.graphs import complete, cycle
from symdef.monomials import AmbientMismatchError, Monomial, MonomialIdeal
from symdef.sdefect import PreconditionError, sdefect_brute, staircase_ideal


class TestFit:
    def test_k3_sequence_linear_quasipolynomial(self):
        seq = [0, 1, 3, 4, 6, 7, 9, 10]
        qp = fit_quasipolynomial(seq, start=1, period=2)
        assert qp.period == 2 and qp.degree == 1
        # even class (3/2)m - 2, odd class (3/2)(m - 1)
        assert qp.polys[0] == (Fraction(-2), Fraction(3, 2))
        assert qp.polys[1] == (Fraction(-3, 2), Fraction(3, 2))
        assert [qp.evaluate(m) for m in range(1, 9)] == seq

    @pytest.mark.parametrize(
        "poly, text",
        [
            ((Fraction(-2),), "-2"),
            ((Fraction(-2), Fraction(17, 4)), "17/4*m - 2"),
            ((Fraction(-33, 16), Fraction(0), Fraction(-1)), "-m^2 - 33/16"),
            ((Fraction(5, 4), Fraction(-5, 2)), "-5/2*m + 5/4"),
        ],
    )
    def test_constant_term_sign(self, poly, text):
        assert _poly_str(poly) == text

    def test_constant_zero_sequence(self):
        qp = fit_quasipolynomial([0] * 8, start=1, period=2)
        assert qp.degree == 0
        assert qp.evaluate(5) == 0
        assert qp.describe()[0].endswith(": 0")

    def test_c5_fitted_degree_two(self):
        seq = [sdefect_brute(cycle(5), m).value for m in range(1, 11)]
        qp = fit_quasipolynomial(seq, start=1, period=2)
        assert qp.degree == 2
        assert all(t >= qp.degree + 2 for t in qp.tail_counts)

    def test_period_one_polynomial(self):
        qp = fit_quasipolynomial([m * m for m in range(1, 8)], start=1, period=1)
        assert qp.period == 1 and qp.degree == 2
        assert qp.polys[0] == (Fraction(0), Fraction(0), Fraction(1))

    def test_onset_detected_after_irregular_head(self):
        # quadratic tail, corrupted first sample
        seq = [99] + [m * m for m in range(2, 12)]
        qp = fit_quasipolynomial(seq, start=1, period=1)
        assert qp.onset == 2
        assert qp.evaluate(7) == 49

    def test_insufficient_data_raises(self):
        with pytest.raises(NoFitError):
            fit_quasipolynomial([1, 2, 4], start=1, period=2)

    def test_huge_period_refused_before_allocating(self):
        # the sample count is checked before one list per residue class
        tracemalloc.start()
        try:
            with pytest.raises(NoFitError, match="supply at least 2000000 values"):
                fit_quasipolynomial(list(range(10)), start=1, period=10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_unstable_sequence_raises(self):
        with pytest.raises(NoFitError):
            fit_quasipolynomial([2 ** m for m in range(10)], start=1, period=1)

    def test_exact_rational_coefficients(self):
        seq = [sdefect_brute(complete(5), m).value for m in range(1, 9)]
        qp = fit_quasipolynomial(seq, start=1, period=2)
        for poly in qp.polys:
            assert all(isinstance(c, Fraction) for c in poly)
        assert [qp.evaluate(m) for m in range(1, 9)] == seq


class TestWaldschmidt:
    def test_complete_graphs(self):
        for n in (3, 4, 5):
            assert waldschmidt(complete(n)).value == Fraction(n, 2)

    def test_c5(self):
        rep = waldschmidt(cycle(5))
        assert rep.value == Fraction(5, 2)
        assert rep.alphas == (3, 5)
        assert rep.minimizing_index == 2

    def test_sampled_ratios_never_dip_below(self):
        for G in (complete(4), cycle(5)):
            w = waldschmidt(G).value
            for m in range(1, 7):
                assert Fraction(symbolic_power(G, m).alpha(), m) >= w

    def test_bipartite_value_is_alpha(self):
        # ordinary and symbolic powers agree, so the minimum sits at m = 1
        rep = waldschmidt(cycle(4))
        assert rep.value == Fraction(2)
        assert rep.resurgence_lower_bound is None


class TestResurgenceBound:
    def test_values(self):
        assert resurgence_lower_bound(complete(3)) == Fraction(4, 3)
        assert resurgence_lower_bound(complete(4)) == Fraction(3, 2)
        assert resurgence_lower_bound(cycle(5)) == Fraction(6, 5)

    def test_c7(self):
        # alpha = 4 and n/2 = 7/2 < 4, so the bound is 2*4/7
        assert resurgence_lower_bound(cycle(7)) == Fraction(8, 7)

    def test_degenerate_case_returns_one(self):
        # 5-cycle with a pendant vertex: alpha = 3 = n/2, the bound collapses
        from symdef.graphs import Graph

        G = Graph.from_edges(6, list(cycle(5).edges) + [(0, 5)])
        assert resurgence_lower_bound(G) == Fraction(1)

    def test_hypothesis_checked(self):
        with pytest.raises(PreconditionError):
            resurgence_lower_bound(cycle(4))

    def test_refused_when_the_extra_generator_is_not_all_ones(self, triangle_plus_isolated):
        with pytest.raises(PreconditionError):
            resurgence_lower_bound(triangle_plus_isolated)
        rep = waldschmidt(triangle_plus_isolated)
        assert rep.value == Fraction(3, 2) and rep.resurgence_lower_bound is None


class TestGrowth:
    def test_principal_ideal(self):
        I = MonomialIdeal.principal(Monomial((1, 1)))
        assert mu_growth_degree(I).degree == 0

    def test_two_variables(self):
        I = MonomialIdeal(2, [Monomial((1, 0)), Monomial((0, 1))])
        assert mu_growth_degree(I).degree == 1

    def test_independent_generators_binomial(self):
        I = staircase_ideal(5)
        assert mu_growth_degree(I).degree == 4
        for m in range(1, 9):
            assert I.power(m).mu() == comb(m + 4, 4)


class TestJacobianRank:
    def test_single_generator(self):
        assert jacobian_rank_full([Monomial((1, 1))])

    def test_duplicate_rows(self):
        g = Monomial((1, 1, 0))
        assert not jacobian_rank_full([g, g])

    def test_more_generators_than_variables(self):
        gens = [Monomial((1, 0)), Monomial((0, 1)), Monomial((1, 1))]
        assert not jacobian_rank_full(gens)

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError):
            jacobian_rank_full([Monomial((2, 0))])

    def test_staircase_generators(self):
        assert jacobian_rank_full(staircase_ideal(5).gens)
        assert jacobian_rank_full(staircase_ideal(7).gens)

    def test_k3_cover_generators(self):
        assert jacobian_rank_full(cover_ideal(complete(3)).gens)

    def test_ambient_sizes_must_agree(self):
        with pytest.raises(AmbientMismatchError):
            jacobian_rank_full([Monomial((1, 0)), Monomial((0, 0, 1))])
        with pytest.raises(AmbientMismatchError):
            jacobian_rank_full([Monomial((1, 1, 0)), Monomial((0, 1))])

    def test_matches_derivative_matrix_rank(self, connected_atlas):
        # the derivative matrix itself, evaluated at fixed points with no zero
        # coordinate: entry (i, j) is g_i / x_j when x_j divides g_i, else 0
        def full_rank_at(gens, point):
            matrix = [
                [Fraction(prod(point[k] for k in g.support() if k != j) if g.exps[j] else 0)
                 for j in range(g.n)]
                for g in gens
            ]
            return _rank(matrix) == len(gens)

        rng = random.Random(0)
        points = [
            tuple(range(2, 17)),
            (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47),
            tuple(rng.randint(2, 10**6) for _ in range(15)),
        ]
        cases = [cover_ideal(G).gens for G in connected_atlas]
        cases += [staircase_ideal(n).gens for n in range(3, 16, 2)]
        for _ in range(1200):
            n = rng.randint(1, 7)
            cases.append([
                Monomial(tuple(rng.randint(0, 1) for _ in range(n)))
                for _ in range(rng.randint(1, 8))
            ])
        verdicts = []
        for gens in cases:
            full = jacobian_rank_full(gens)
            verdicts.append(full)
            for point in points:
                assert full_rank_at(gens, point) == full, (gens, point)
        # both verdicts occur, so the agreement is not a constant answer
        assert True in verdicts and False in verdicts


class TestSdefectDegree:
    def test_complete_graph_is_linear(self):
        rep = sdefect_degree(complete(4))
        assert rep.degree == 1 and rep.agrees

    def test_c5_is_quadratic(self):
        rep = sdefect_degree(cycle(5))
        assert rep.degree == 2 and rep.agrees

    def test_two_triangles_is_quadratic(self, two_triangles):
        rep = sdefect_degree(two_triangles)
        assert rep.degree == 2 and rep.agrees

    def test_hypothesis_checked(self, triangle_plus_isolated):
        for G in (cycle(6), triangle_plus_isolated):
            with pytest.raises(PreconditionError):
                sdefect_degree(G)
