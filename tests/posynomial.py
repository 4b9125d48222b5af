"""Test-only: monomial / posynomial views of sympy expressions.

Optimization problem (8) of the paper is a *geometric program*: maximize a
product of tile sizes subject to a **posynomial** constraint (a sum of
monomials with positive coefficients).  The analyzer holds it as exponent
rows (:class:`repro.opt.problem.ProblemIR`); the sympy oracles of the test
suite (``kkt_reference.py``, ``access_size_reference.py``) and tests that
state problems as expressions use this thin, immutable posynomial type:

* :class:`Monomial` -- ``coeff * prod(var ** exponent)`` where ``coeff`` is a
  sympy expression *free of* the designated variables and every exponent is a
  rational number;
* :class:`Posynomial` -- an ordered sum of monomials.

Both convert losslessly to/from sympy (``.expr`` / ``from_expr``), and
:func:`problem_of` / :func:`posynomials_of` to/from ``ProblemIR``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import sympy as sp

from repro.opt.problem import ProblemIR, fraction
from repro.symbolic.symbols import tile, tile_name


@dataclass(frozen=True)
class Monomial:
    """``coeff * prod(v ** e)`` over a fixed tuple of variables.

    ``powers`` maps each variable (sympy Symbol) to a rational exponent;
    variables with exponent 0 are omitted.  ``coeff`` may contain other
    symbols (program parameters, S, X) but none of the monomial variables.
    """

    coeff: sp.Expr
    powers: tuple[tuple[sp.Symbol, sp.Rational], ...]

    @staticmethod
    def make(coeff: sp.Expr, powers: Mapping[sp.Symbol, sp.Rational | int]) -> "Monomial":
        items = tuple(
            sorted(
                ((v, sp.Rational(e)) for v, e in powers.items() if sp.Rational(e) != 0),
                key=lambda ve: ve[0].name,
            )
        )
        return Monomial(sp.sympify(coeff), items)

    @property
    def powers_dict(self) -> dict[sp.Symbol, sp.Rational]:
        return dict(self.powers)

    @property
    def expr(self) -> sp.Expr:
        result = self.coeff
        for var, exp in self.powers:
            result = result * var**exp
        return result

    @property
    def degree(self) -> sp.Rational:
        """Total degree in the monomial variables."""
        return sum((e for _, e in self.powers), sp.Integer(0))

    def variables(self) -> tuple[sp.Symbol, ...]:
        return tuple(v for v, _ in self.powers)

    def exponent(self, var: sp.Symbol) -> sp.Rational:
        for v, e in self.powers:
            if v == var:
                return e
        return sp.Integer(0)

    def scaled(self, factor: sp.Expr) -> "Monomial":
        return Monomial(sp.simplify(self.coeff * factor), self.powers)

    def __mul__(self, other: "Monomial") -> "Monomial":
        powers: dict[sp.Symbol, sp.Rational] = dict(self.powers)
        for v, e in other.powers:
            powers[v] = powers.get(v, sp.Integer(0)) + e
        return Monomial.make(self.coeff * other.coeff, powers)

    def subs(self, mapping: Mapping[sp.Symbol, sp.Expr]) -> sp.Expr:
        return self.expr.subs(mapping)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return str(self.expr)


def _simplified(coeff: sp.Expr) -> sp.Expr:
    """``sp.simplify(coeff)``, skipped for numbers (which it returns as is)."""
    return coeff if coeff.is_Number else sp.simplify(coeff)


class Posynomial:
    """An ordered sum of :class:`Monomial` terms over shared variables."""

    def __init__(self, terms: Iterable[Monomial]):
        merged: dict[tuple, Monomial] = {}
        for term in terms:
            key = term.powers
            if key in merged:
                merged[key] = Monomial(sp.expand(merged[key].coeff + term.coeff), key)
            else:
                merged[key] = term
        self._terms: tuple[Monomial, ...] = tuple(
            t for t in merged.values() if _simplified(t.coeff) != 0
        )

    @property
    def terms(self) -> tuple[Monomial, ...]:
        return self._terms

    @property
    def expr(self) -> sp.Expr:
        return sp.Add(*(t.expr for t in self._terms))

    def variables(self) -> tuple[sp.Symbol, ...]:
        seen: dict[sp.Symbol, None] = {}
        for t in self._terms:
            for v in t.variables():
                seen.setdefault(v)
        return tuple(seen)

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "Posynomial") -> "Posynomial":
        return Posynomial(self._terms + other._terms)

    def leading(self) -> "Posynomial":
        """Sub-posynomial of maximal total degree (in the monomial variables)."""
        if not self._terms:
            return self
        top = max(t.degree for t in self._terms)
        return Posynomial(t for t in self._terms if t.degree == top)

    def degree_at_most(self, degree) -> "Posynomial":
        return Posynomial(t for t in self._terms if t.degree <= degree)

    @staticmethod
    def from_expr(expr: sp.Expr, variables: Sequence[sp.Symbol]) -> "Posynomial":
        """Decompose ``expr`` into monomials in ``variables``.

        ``expr`` must be polynomial in ``variables`` (rational exponents are
        produced only by monomial arithmetic, never by parsing).  Coefficients
        may be arbitrary expressions in the remaining symbols.
        """
        variables = list(variables)
        expanded = sp.expand(expr)
        terms = []
        addends = expanded.args if expanded.func is sp.Add else (expanded,)
        for addend in addends:
            coeff = sp.Integer(1)
            powers: dict[sp.Symbol, sp.Rational] = {}
            factors = addend.args if addend.func is sp.Mul else (addend,)
            for factor in factors:
                base, exp = factor.as_base_exp()
                if base in variables:
                    if not exp.is_Rational:
                        raise ValueError(f"non-rational exponent in {addend}")
                    powers[base] = powers.get(base, sp.Integer(0)) + exp
                else:
                    if factor.has(*variables):
                        raise ValueError(f"{addend} is not monomial in {variables}")
                    coeff *= factor
            terms.append(Monomial.make(coeff, powers))
        return Posynomial(terms)

    def is_positive(self) -> bool:
        """True if every coefficient is (provably) positive."""
        return all(_simplified(t.coeff).is_positive for t in self._terms)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same monomials with equal coefficients.

        The constructor already merges duplicate power patterns, so each
        ``powers`` tuple appears at most once per posynomial; coefficients
        are compared by expanded difference (``2*N`` equals ``N + N``).
        """
        if not isinstance(other, Posynomial):
            return NotImplemented
        mine = {t.powers: t.coeff for t in self._terms}
        theirs = {t.powers: t.coeff for t in other._terms}
        if mine.keys() != theirs.keys():
            return False
        return all(sp.expand(mine[k] - theirs[k]) == 0 for k in mine)

    def __hash__(self) -> int:
        return hash(frozenset(t.powers for t in self._terms))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return str(self.expr)


# ---------------------------------------------------------------------------
# ProblemIR adapters
# ---------------------------------------------------------------------------


def problem_of(
    objective: Posynomial,
    constraint: Posynomial,
    extents: Mapping[str, sp.Expr] | None = None,
) -> ProblemIR:
    """The IR of ``objective``/``constraint``: terms keep their order."""

    def terms(posy: Posynomial):
        return [
            (tuple((tile_name(v), fraction(e)) for v, e in t.powers), t.coeff)
            for t in posy.terms
        ]

    return ProblemIR.from_terms(terms(objective), terms(constraint), extents or {})


def posynomials_of(problem: ProblemIR) -> tuple[Posynomial, Posynomial]:
    """``(objective, constraint)`` of ``problem``, rows in order."""

    def posynomial(terms) -> Posynomial:
        return Posynomial(
            Monomial.make(
                problem.coeffs[term.coeff],
                {tile(name): sp.Rational(e.numerator, e.denominator)
                 for name, e in problem.powers(term)},
            )
            for term in terms
        )

    return posynomial(problem.objective), posynomial(problem.constraint)
