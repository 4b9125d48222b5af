"""ProblemIR: construction from terms, interning, and rational linear algebra."""

from fractions import Fraction

import pytest
import sympy as sp

from repro.opt.problem import ProblemIR, rationalize, solve_rational
from repro.symbolic.symbols import tile
from tests.posynomial import Monomial, Posynomial, posynomials_of, problem_of

N = sp.Symbol("N", positive=True)
M = sp.Symbol("M", positive=True)
bi, bj, bk = tile("i"), tile("j"), tile("k")


def _posy(expr, variables):
    return Posynomial.from_expr(expr, variables)


class TestPosynomialRoundTrip:
    @pytest.mark.parametrize(
        "expr",
        [
            bi * bj * bk,
            bi * bk + bk * bj + bi * bj,
            2 * bi * bj + 3 * bi,
            N * bi * bj + M * bk + (N + M) * bi,
        ],
    )
    def test_from_expr_of_expr_is_identity(self, expr):
        posy = _posy(expr, [bi, bj, bk])
        assert Posynomial.from_expr(posy.expr, [bi, bj, bk]) == posy

    def test_rational_exponents_round_trip(self):
        # Rational exponents only arise from monomial arithmetic, never
        # parsing -- build one by hand and round-trip through the IR.
        half = Posynomial([Monomial.make(sp.Integer(2), {bi: sp.Rational(3, 2)})])
        ir = problem_of(half, half)
        assert posynomials_of(ir) == (half, half)
        assert ir.objective[0].exponents == (Fraction(3, 2),)

    def test_equality_is_structural(self):
        a = _posy(2 * bi * bj + bi, [bi, bj])
        b = Posynomial(
            [
                Monomial.make(sp.Integer(1), {bi: 1}),
                Monomial.make(sp.Integer(1), {bi: 1, bj: 1}),
                Monomial.make(sp.Integer(1), {bi: 1, bj: 1}),
            ]
        )
        assert a == b  # merged duplicate + reordered terms
        assert hash(a) == hash(b)
        assert a != _posy(2 * bi * bj, [bi, bj])


class TestProblemIR:
    def test_lossless_conversion(self):
        objective = _posy(bi * bj * bk, [bi, bj, bk])
        constraint = _posy(N * bi * bk + bk * bj + 2 * bi * bj, [bi, bj, bk])
        ir = problem_of(objective, constraint, {"i": N, "j": M})
        assert posynomials_of(ir) == (objective, constraint)
        assert ir.extents_dict() == {"i": N, "j": M}
        assert ir.variables == ("i", "j", "k")

    def test_columns_in_first_appearance_name_order_within_terms(self):
        ir = ProblemIR.from_terms(
            [((("k", 1), ("c10", 1)), 1)],
            [((("c2", 1),), 3), ((("a", 2), ("k", 1)), 1)],
        )
        assert ir.variables == ("c10", "k", "c2", "a")
        assert ir.constraint[1].exponents == (0, 1, 0, 2)
        assert ir.powers(ir.constraint[1]) == (("a", 2), ("k", 1))
        assert ir.coeff_keys == ("Integer(1)", "Integer(3)")

    def test_coefficients_interned(self):
        constraint = _posy(2 * bi + 2 * bj + 2 * bk, [bi, bj, bk])
        ir = problem_of(_posy(bi * bj * bk, [bi, bj, bk]), constraint)
        # one distinct "1" (objective) and one distinct "2" (all constraint terms)
        assert len(ir.coeffs) == 2
        assert len({term.coeff for term in ir.constraint}) == 1

    def test_renamed_and_permuted(self):
        ir = problem_of(_posy(bi * bj, [bi, bj]), _posy(bi + 2 * bj, [bi, bj]), {"i": N})
        renamed = ir.renamed({"i": "c0", "j": "c1"})
        assert renamed.variables == ("c0", "c1")
        assert dict(renamed.extents) == {"c0": N}
        flipped = renamed.permuted([1, 0])
        assert flipped.variables == ("c1", "c0")
        # same posynomial content under the new column order
        assert posynomials_of(flipped)[1] == Posynomial(
            [
                Monomial.make(sp.Integer(2), {tile("c1"): 1}),
                Monomial.make(sp.Integer(1), {tile("c0"): 1}),
            ]
        )


class TestRationalLinearAlgebra:
    def test_determined_system(self):
        rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
        values = solve_rational(rows, [Fraction(3), Fraction(1)])
        assert values == [Fraction(2), Fraction(1)]

    def test_underdetermined_uses_hints(self):
        rows = [[Fraction(1), Fraction(1), Fraction(0)]]
        values = solve_rational(
            rows, [Fraction(1)], hints=[None, Fraction(1, 3), Fraction(7)]
        )
        assert values is not None
        assert values[1] == Fraction(1, 3)
        assert values[0] + values[1] == 1
        assert values[2] == Fraction(7)

    def test_inconsistent_returns_none(self):
        rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
        assert solve_rational(rows, [Fraction(1), Fraction(3)]) is None

    def test_rationalize(self):
        assert rationalize(0.3333333333) == Fraction(1, 3)
        assert rationalize(0.5) == Fraction(1, 2)
