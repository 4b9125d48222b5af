"""Leading-order extraction for parametric bounds.

Table 2 of the paper lists the *leading-order term* of each bound: the part
that dominates when all program parameters (``N``, ``M``, ``T`` ...) grow and
``S`` (fast memory) is treated as an independent large-but-smaller quantity.

The convention implemented here mirrors the paper's presentation:

* rank terms by total degree in the **program parameters** first;
* among equals, rank by degree in ``S`` (more negative = reported term keeps
  its ``1/sqrt(S)``-style factor);
* return the unique maximal term (sum of ties).

:func:`leading_quotient_sum` applies the same rule to Theorem 1's sum
``sum_A |A| / rho_A`` on exponent rows, without expanding the sum in sympy.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import sympy as sp

from repro.symbolic.symbols import S_SYM


def _parameter_symbols(expr: sp.Expr, extra_large: Iterable[sp.Symbol] = ()) -> list[sp.Symbol]:
    large = set(extra_large)
    for sym in expr.free_symbols:
        if sym != S_SYM:
            large.add(sym)
    return sorted(large, key=lambda s: s.name)


def _term_exponents(term: sp.Expr, params: Sequence[sp.Symbol]) -> tuple:
    """Exponent vector of a product term over ``params`` then ``S``."""
    degrees = {p: sp.Integer(0) for p in params}
    sdeg = sp.Integer(0)
    factors = term.args if term.func is sp.Mul else (term,)
    for factor in factors:
        base, exp = factor.as_base_exp()
        if base in degrees:
            degrees[base] += exp
        elif base == S_SYM:
            sdeg += exp
    return tuple(degrees[p] for p in params) + (sdeg,)


def _dominates(a: tuple, b: tuple) -> bool:
    """True when term ``a`` asymptotically dominates term ``b``.

    Program parameters are compared first (componentwise; parameters are
    taken arbitrarily large while ``S`` is held fixed, the paper's reporting
    convention), so ``N**3/sqrt(S)`` dominates ``N**2``.  Only for identical
    parameter exponents does the ``S`` exponent (the last component) break
    the tie: ``N**2`` dominates ``N**2/sqrt(S)``.
    """
    pa, pb = a[:-1], b[:-1]
    if pa == pb:
        return a[-1] > b[-1]
    return all(x >= y for x, y in zip(pa, pb))


def leading_term(expr: sp.Expr, large: Iterable[sp.Symbol] = ()) -> sp.Expr:
    """Return the leading-order part of ``expr`` as parameters grow.

    ``expr`` must expand to a finite sum of products of rational powers of
    its symbols.  A term is kept when no other term *Pareto-dominates* its
    exponent vector (componentwise over every program parameter, with the
    exponent of ``S`` as a final component -- higher power of ``1/S`` loses).
    Incomparable terms both survive: bounds over incomparable parameters
    (e.g. BERT's ``4BHPL^2 + 8BH^2P^2L``) keep their full sum, exactly as
    the paper's Table 2 reports them.

    Memoized on ``(expr, tuple(large))``.
    """
    return _leading_term(expr, tuple(large))


@lru_cache(maxsize=4096)
def _leading_term(expr: sp.Expr, large: tuple[sp.Symbol, ...]) -> sp.Expr:
    expanded = sp.expand(sp.radsimp(sp.together(sp.expand(expr))))
    if expanded.func is not sp.Add:
        return sp.nsimplify(sp.simplify(expr))
    params = _parameter_symbols(expanded, large)
    addends = list(expanded.args)
    keys = [_term_exponents(t, params) for t in addends]
    kept = [
        t
        for t, k in zip(addends, keys)
        if not any(_dominates(other, k) for other in keys)
    ]
    return sp.simplify(sp.Add(*kept))


#: ``expr`` as a number times powers of symbols: the number (a rational times
#: rational powers of integers, as sympy holds it) and the symbols' exponents,
#: sorted by name
Monomial = tuple[sp.Expr, tuple[tuple[sp.Symbol, Fraction], ...]]


def monomial_factors(
    expr: sp.Expr,
) -> tuple[list[sp.Expr], dict[sp.Symbol, Fraction]] | None:
    """The factors of ``expr``: its numbers and its symbols' exponents.

    A number is a rational or an integer to a rational power, kept as sympy
    holds it.  Returns ``None`` when a factor is a sum, a function or a power
    of anything but an integer or a symbol: ``expr`` is then no monomial.
    """
    numbers = []
    powers: dict[sp.Symbol, Fraction] = {}
    for factor in sp.Mul.make_args(expr):
        base, exp = factor.as_base_exp()
        if factor.is_Rational or (base.is_Integer and exp.is_Rational):
            numbers.append(factor)
        elif base.is_Symbol and exp.is_Rational:
            powers[base] = powers.get(base, 0) + Fraction(exp.p, exp.q)
        else:
            return None
    return numbers, powers


def monomial(expr: sp.Expr) -> Monomial | None:
    """``expr`` as a :data:`Monomial`, or ``None`` when it is not one
    (see :func:`monomial_factors`)."""
    split = monomial_factors(expr)
    if split is None:
        return None
    numbers, powers = split
    return sp.Mul(*numbers), _sorted_powers(powers)


def _sorted_powers(powers: dict) -> tuple[tuple[sp.Symbol, Fraction], ...]:
    return tuple(
        sorted(((s, e) for s, e in powers.items() if e), key=lambda item: item[0].name)
    )


@lru_cache(maxsize=4096)
def _sum_rows(expr: sp.Expr) -> tuple[Monomial, ...] | None:
    """The monomials of ``expand(expr)``, or ``None`` if one is not a monomial."""
    rows = tuple(monomial(addend) for addend in sp.Add.make_args(sp.expand(expr)))
    return None if None in rows else rows


@lru_cache(maxsize=4096)
def _inverse_row(expr: sp.Expr) -> Monomial | None:
    """``1/expr`` as a :data:`Monomial`, or ``None`` if ``expr`` is not one."""
    row = monomial(expr)
    if row is None:
        return None
    number, powers = row
    return 1 / number, tuple((s, -e) for s, e in powers)


def leading_quotient_sum(
    quotients: Iterable[tuple[sp.Expr, sp.Expr]]
) -> sp.Expr | None:
    """:func:`leading_term` of ``sum(count / rho)``, computed on monomials.

    Each ``count`` must expand to monomials over the parameters and each
    ``rho`` must be one monomial over the parameters and ``S``.  Products with
    the same powers and the same irrational factor add their rationals, as
    sympy's expansion collects them; a term is kept when no other
    Pareto-dominates it (:func:`_dominates`).  One survivor is built as is
    (what :func:`leading_term` returns for it); several are summed and
    simplified, as :func:`leading_term` does.  Returns ``None`` when a count or
    a ``rho`` is not of that form (a ``rho`` such as ``T/2 + 1/2``): only
    :func:`leading_term` of the sum is correct then.
    """
    terms: dict[tuple, sp.Expr] = {}
    for count, rho in quotients:
        inverse, rows = _inverse_row(rho), _sum_rows(count)
        if inverse is None or rows is None:
            return None
        inverse_number, inverse_powers = inverse
        for number, powers in rows:
            rational, irrational = (number * inverse_number).as_coeff_Mul()
            merged = dict(inverse_powers)
            for sym, exp in powers:
                merged[sym] = merged.get(sym, 0) + exp
            key = (irrational, _sorted_powers(merged))
            terms[key] = terms.get(key, 0) + rational
    terms = {key: rational for key, rational in terms.items() if rational != 0}
    params = sorted(
        {sym for _, powers in terms for sym, _ in powers if sym != S_SYM},
        key=lambda sym: sym.name,
    )
    # exponent vectors over the parameters, then S, as _term_exponents builds
    vectors = {}
    for key in terms:
        by_symbol = dict(key[1])
        vectors[key] = tuple(by_symbol.get(p, 0) for p in (*params, S_SYM))
    kept = [
        sp.Mul(
            terms[key],
            key[0],
            *(sym ** sp.Rational(exp.numerator, exp.denominator) for sym, exp in key[1]),
        )
        for key, vector in vectors.items()
        if not any(_dominates(other, vector) for other in vectors.values())
    ]
    if len(kept) > 1:
        return sp.simplify(sp.Add(*kept))
    if not kept:
        return sp.Integer(0)
    (term,) = kept
    if len(terms) == 1 and not term.free_symbols:
        # leading_term's branch for a one-term sum: nsimplify, which
        # rewrites only a pure number
        return sp.nsimplify(term)
    return term


def ratio_to(ours: sp.Expr, reference: sp.Expr) -> sp.Expr:
    """Simplified ratio ``ours / reference`` of two leading-order bounds.

    A numeric (parameter-free) ratio indicates the two bounds have the same
    *shape* and differ only by a constant factor.
    """
    return sp.simplify(sp.nsimplify(sp.simplify(ours / reference), rational=False))


def same_leading_shape(ours: sp.Expr, reference: sp.Expr) -> bool:
    """True when both expressions share exponents in every parameter and in S.

    Equivalent to: the ratio is a nonzero constant.
    """
    ratio = ratio_to(ours, reference)
    return ratio.free_symbols == set() and ratio != 0
