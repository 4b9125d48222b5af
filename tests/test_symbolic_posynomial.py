"""Unit tests for Monomial/Posynomial."""

import sympy as sp
import pytest

from repro.symbolic.symbols import tile
from tests.posynomial import Monomial, Posynomial

bi, bj, bk = tile("i"), tile("j"), tile("k")
N = sp.Symbol("N", positive=True)


class TestMonomial:
    def test_make_drops_zero_exponents(self):
        m = Monomial.make(2, {bi: 1, bj: 0})
        assert m.variables() == (bi,)

    def test_expr_round_trip(self):
        m = Monomial.make(3, {bi: 2, bj: sp.Rational(1, 2)})
        assert sp.simplify(m.expr - 3 * bi**2 * sp.sqrt(bj)) == 0

    def test_degree(self):
        m = Monomial.make(1, {bi: 2, bj: sp.Rational(1, 2)})
        assert m.degree == sp.Rational(5, 2)

    def test_exponent_of_absent_variable_is_zero(self):
        m = Monomial.make(1, {bi: 1})
        assert m.exponent(bj) == 0

    def test_multiplication_merges_powers(self):
        a = Monomial.make(2, {bi: 1})
        b = Monomial.make(3, {bi: 1, bj: 1})
        c = a * b
        assert c.exponent(bi) == 2
        assert c.exponent(bj) == 1
        assert sp.simplify(c.coeff - 6) == 0

    def test_symbolic_coefficient(self):
        m = Monomial.make(N, {bi: 1})
        assert m.expr == N * bi

    def test_powers_sorted_by_name(self):
        m = Monomial.make(1, {bk: 1, bi: 1})
        assert [v.name for v, _ in m.powers] == ["b_i", "b_k"]

    def test_scaled(self):
        m = Monomial.make(2, {bi: 1}).scaled(3)
        assert sp.simplify(m.coeff - 6) == 0

    def test_subs(self):
        m = Monomial.make(2, {bi: 2})
        assert m.subs({bi: 3}) == 18


class TestPosynomial:
    def test_merges_equal_power_terms(self):
        p = Posynomial([Monomial.make(1, {bi: 1}), Monomial.make(2, {bi: 1})])
        assert len(p) == 1
        assert sp.simplify(p.terms[0].coeff - 3) == 0

    def test_drops_zero_coefficient(self):
        p = Posynomial([Monomial.make(1, {bi: 1}), Monomial.make(-1, {bi: 1})])
        assert len(p) == 0

    def test_from_expr_simple(self):
        p = Posynomial.from_expr(2 * bi * bj + bk, [bi, bj, bk])
        assert len(p) == 2
        assert sp.simplify(p.expr - (2 * bi * bj + bk)) == 0

    def test_from_expr_with_parameters(self):
        p = Posynomial.from_expr(N * bi + 3, [bi])
        coeffs = {t.coeff for t in p.terms}
        assert N in coeffs and sp.Integer(3) in coeffs

    def test_from_expr_expands_products(self):
        p = Posynomial.from_expr((bi + 1) * (bj + 2), [bi, bj])
        assert len(p) == 4

    def test_from_expr_rejects_non_monomial(self):
        with pytest.raises(ValueError):
            Posynomial.from_expr(sp.sqrt(bi + bj), [bi, bj])

    def test_leading_keeps_top_degree(self):
        p = Posynomial.from_expr(bi * bj + bi + bj, [bi, bj]).leading()
        assert len(p) == 1
        assert p.terms[0].degree == 2

    def test_leading_keeps_ties(self):
        p = Posynomial.from_expr(bi * bj + bj * bk, [bi, bj, bk]).leading()
        assert len(p) == 2

    def test_addition(self):
        a = Posynomial.from_expr(bi, [bi])
        b = Posynomial.from_expr(bj, [bj])
        assert len(a + b) == 2

    def test_variables_ordered(self):
        p = Posynomial.from_expr(bk + bi, [bi, bk])
        assert set(p.variables()) == {bi, bk}

    def test_is_positive(self):
        assert Posynomial.from_expr(2 * bi + bj, [bi, bj]).is_positive()
        assert not Posynomial.from_expr(bi - bj, [bi, bj]).is_positive()

    def test_degree_at_most(self):
        p = Posynomial.from_expr(bi * bj + bi + 1, [bi, bj])
        assert len(p.degree_at_most(1)) == 2
