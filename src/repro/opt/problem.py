"""Backend-neutral representation of optimization problem (8).

Every solver backend (:mod:`repro.opt.backends`) consumes the same problem:
maximize a posynomial objective over a posynomial dominator budget.  Before
this module existed, each consumer -- signature canonicalization, the cache
key, the numeric probe, the exact KKT reconstruction -- re-derived its own
view by traversing sympy expressions.  :class:`ProblemIR` computes the
shared structure **once**, at fusion time:

* the tile variables, by *name* (loop-variable names, not ``b_`` symbols),
  in deterministic appearance order (objective first);
* the objective/constraint as rows of an **exponent matrix** over
  :class:`fractions.Fraction` -- exact, hashable, orderable, and convertible
  to a float matrix for the scipy probe without touching sympy;
* **interned coefficients**: the distinct coefficient expressions, each with
  its ``srepr`` key (for hashing/canonicalization) and its float value when
  the coefficient is numeric -- computed once instead of per consumer.

Conversion to/from :class:`~repro.symbolic.posynomial.Posynomial` is
lossless (:meth:`ProblemIR.from_posynomials` / :meth:`ProblemIR.objective`).

The module also provides exact linear algebra over the rationals
(:func:`solve_rational`, :func:`nullspace_rational`): plain Gaussian
elimination on ``Fraction`` entries, with which the exact and numeric-first
backends run the KKT reconstruction without sympy's ``linsolve``/``simplify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import sympy as sp

from repro.symbolic.posynomial import Monomial, Posynomial
from repro.symbolic.symbols import tile, tile_name

_ZERO = Fraction(0)


def fraction(value: sp.Rational) -> Fraction:
    """A sympy rational as a :class:`~fractions.Fraction`."""
    return Fraction(int(value.p), int(value.q))


def exponent_row(term: Monomial, symbols: Sequence[sp.Symbol]) -> tuple[Fraction, ...]:
    """``term``'s exponent of each of ``symbols``, zero where it is absent."""
    powers = dict(term.powers)
    return tuple(fraction(powers[sym]) if sym in powers else _ZERO for sym in symbols)


@dataclass(frozen=True)
class TermIR:
    """One monomial: interned coefficient index + dense exponent row."""

    coeff: int  #: index into :attr:`ProblemIR.coeffs`
    exponents: tuple[Fraction, ...]  #: aligned with :attr:`ProblemIR.variables`


@dataclass(frozen=True)
class ProblemIR:
    """One fused problem (8), shared by every solver backend and the cache."""

    variables: tuple[str, ...]  #: loop-variable names, appearance order
    coeffs: tuple[sp.Expr, ...]  #: interned distinct coefficient expressions
    coeff_keys: tuple[str, ...]  #: ``sp.srepr`` of each coefficient
    coeff_floats: tuple[float | None, ...]  #: float value, None when symbolic
    objective: tuple[TermIR, ...]
    constraint: tuple[TermIR, ...]
    extents: tuple[tuple[str, sp.Expr], ...]  #: loop var -> full extent

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @staticmethod
    def from_posynomials(
        objective: Posynomial,
        constraint: Posynomial,
        extents: Mapping[str, sp.Expr] | None = None,
    ) -> "ProblemIR":
        """Build the IR; loop variables keep their appearance order."""
        order: dict[sp.Symbol, int] = {}
        for posy in (objective, constraint):
            for term in posy.terms:
                for sym in term.variables():
                    order.setdefault(sym, len(order))
        symbols = list(order)
        names = tuple(tile_name(sym) for sym in symbols)

        interned: dict[str, int] = {}
        coeffs: list[sp.Expr] = []
        keys: list[str] = []
        floats: list[float | None] = []

        def intern(coeff: sp.Expr) -> int:
            key = sp.srepr(coeff)
            index = interned.get(key)
            if index is None:
                index = len(coeffs)
                interned[key] = index
                coeffs.append(coeff)
                keys.append(key)
                if coeff.free_symbols:
                    floats.append(None)
                else:
                    try:
                        floats.append(float(coeff))
                    except (TypeError, ValueError):  # pragma: no cover
                        floats.append(None)
            return index

        def rows(posy: Posynomial) -> tuple[TermIR, ...]:
            return tuple(
                TermIR(intern(sp.sympify(term.coeff)), exponent_row(term, symbols))
                for term in posy.terms
            )

        obj_rows = rows(objective)
        con_rows = rows(constraint)
        extent_items = tuple(
            (name, sp.sympify(value)) for name, value in dict(extents or {}).items()
        )
        return ProblemIR(
            variables=names,
            coeffs=tuple(coeffs),
            coeff_keys=tuple(keys),
            coeff_floats=tuple(floats),
            objective=obj_rows,
            constraint=con_rows,
            extents=extent_items,
        )

    # ------------------------------------------------------------------
    # sympy views (lossless inverse of ``from_posynomials``)
    # ------------------------------------------------------------------

    def _posynomial(self, terms: Iterable[TermIR]) -> Posynomial:
        symbols = [tile(name) for name in self.variables]
        monomials = []
        for term in terms:
            powers = {
                sym: sp.Rational(exp.numerator, exp.denominator)
                for sym, exp in zip(symbols, term.exponents)
                if exp != 0
            }
            monomials.append(Monomial.make(self.coeffs[term.coeff], powers))
        return Posynomial(monomials)

    def objective_posynomial(self) -> Posynomial:
        return self._posynomial(self.objective)

    def constraint_posynomial(self) -> Posynomial:
        return self._posynomial(self.constraint)

    def extents_dict(self) -> dict[str, sp.Expr]:
        return dict(self.extents)

    # ------------------------------------------------------------------
    # structure helpers
    # ------------------------------------------------------------------

    def constrained_columns(self) -> tuple[bool, ...]:
        """Per variable: does it appear in any constraint term?"""
        flags = [False] * len(self.variables)
        for term in self.constraint:
            for idx, exp in enumerate(term.exponents):
                if exp != 0:
                    flags[idx] = True
        return tuple(flags)

    def structure_key(self) -> tuple:
        """Coefficient-free shape of the problem (exponent matrices only).

        Problems sharing a structure key differ at most in coefficients and
        extents, so a numeric optimum of one is a good warm start for the
        scipy probe of another.
        """
        return (
            len(self.variables),
            tuple(sorted(term.exponents for term in self.objective)),
            tuple(sorted(term.exponents for term in self.constraint)),
        )

    def renamed(self, mapping: Mapping[str, str]) -> "ProblemIR":
        """Rename loop variables (columns keep their order)."""
        return ProblemIR(
            variables=tuple(mapping.get(name, name) for name in self.variables),
            coeffs=self.coeffs,
            coeff_keys=self.coeff_keys,
            coeff_floats=self.coeff_floats,
            objective=self.objective,
            constraint=self.constraint,
            extents=tuple(
                (mapping.get(name, name), value) for name, value in self.extents
            ),
        )

    def permuted(self, column_order: Sequence[int]) -> "ProblemIR":
        """Reorder variable columns and canonically re-sort the term rows.

        Terms are ordered by (exponent row, coefficient key): after the
        canonical column permutation this makes the row order -- and hence
        the signature -- independent of the original term order.
        """
        def remap(term: TermIR) -> TermIR:
            return TermIR(
                term.coeff, tuple(term.exponents[idx] for idx in column_order)
            )

        def sort_key(term: TermIR) -> tuple:
            return (term.exponents, self.coeff_keys[term.coeff])

        return ProblemIR(
            variables=tuple(self.variables[idx] for idx in column_order),
            coeffs=self.coeffs,
            coeff_keys=self.coeff_keys,
            coeff_floats=self.coeff_floats,
            objective=tuple(sorted(map(remap, self.objective), key=sort_key)),
            constraint=tuple(sorted(map(remap, self.constraint), key=sort_key)),
            extents=self.extents,
        )


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals
# ---------------------------------------------------------------------------


def _row_reduce(
    matrix: list[list[Fraction]], n_cols: int
) -> tuple[list[int], int]:
    """In-place reduced row echelon form over the first ``n_cols`` columns.

    Returns ``(pivot_cols, rank)``.  Columns beyond ``n_cols`` (an augmented
    right-hand side) are carried along but never pivoted on.
    """
    n_rows = len(matrix)
    pivot_cols: list[int] = []
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if matrix[r][col] != 0), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        factor = matrix[rank][col]
        matrix[rank] = [x / factor for x in matrix[rank]]
        for r in range(n_rows):
            if r != rank and matrix[r][col] != 0:
                scale = matrix[r][col]
                matrix[r] = [a - scale * b for a, b in zip(matrix[r], matrix[rank])]
        pivot_cols.append(col)
        rank += 1
        if rank == n_rows:
            break
    return pivot_cols, rank


def solve_rational(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    hints: Sequence[Fraction | None] | None = None,
) -> list[Fraction] | None:
    """Solve ``rows @ v = rhs`` exactly; ``None`` when inconsistent.

    Gaussian elimination over ``Fraction``.  When the system is
    underdetermined, free unknowns are assigned from ``hints`` (``None`` or
    missing hint -> 0) and the pivot unknowns follow by back-substitution --
    any such assignment is an exact solution of a consistent system.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivot_cols, rank = _row_reduce(aug, n_cols)
    for r in range(rank, n_rows):
        if aug[r][n_cols] != 0:
            return None  # inconsistent

    values = [Fraction(0)] * n_cols
    free_cols = [c for c in range(n_cols) if c not in pivot_cols]
    for col in free_cols:
        hint = hints[col] if hints is not None and col < len(hints) else None
        values[col] = Fraction(hint) if hint is not None else Fraction(0)
    for row, col in zip(range(rank), pivot_cols):
        total = aug[row][n_cols]
        for free in free_cols:
            total -= aug[row][free] * values[free]
        values[col] = total
    return values


def nullspace_rational(
    rows: Sequence[Sequence[Fraction]],
) -> list[list[Fraction]]:
    """Basis of the nullspace of ``rows`` (exact, possibly empty)."""
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    mat = [[Fraction(x) for x in row] for row in rows]
    pivot_cols, rank = _row_reduce(mat, n_cols)

    basis: list[list[Fraction]] = []
    for free in (c for c in range(n_cols) if c not in pivot_cols):
        vector = [Fraction(0)] * n_cols
        vector[free] = Fraction(1)
        for row, col in zip(range(rank), pivot_cols):
            vector[col] = -mat[row][free]
        basis.append(vector)
    return basis


def rationalize(value: float, max_denominator: int = 1000) -> Fraction:
    """Nearest small-denominator rational to a numeric hint."""
    return Fraction(value).limit_denominator(max_denominator)
