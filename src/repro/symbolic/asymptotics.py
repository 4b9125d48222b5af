"""Leading-order extraction for parametric bounds.

Table 2 of the paper lists the *leading-order term* of each bound: the part
that dominates when all program parameters (``N``, ``M``, ``T`` ...) grow and
``S`` (fast memory) is treated as an independent large-but-smaller quantity.

The convention implemented here mirrors the paper's presentation:

* rank terms by total degree in the **program parameters** first;
* among equals, rank by degree in ``S`` (more negative = reported term keeps
  its ``1/sqrt(S)``-style factor);
* return the unique maximal term (sum of ties).
"""

from __future__ import annotations

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
