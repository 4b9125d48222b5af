"""Exponent-row representation of optimization problem (8).

Problem (8) -- maximize a posynomial objective over a posynomial dominator
budget -- has one form in the analyzer, :class:`ProblemIR`.  Fusion
(:func:`repro.sdg.merge.fuse_statements`) builds it straight from the integer
Lemma 3 / Corollary 1 rows of :mod:`repro.soap.access_size`; signature
canonicalization, the cache key and the solver (:mod:`repro.opt.kkt` and its
probe :mod:`repro.opt.numeric`) read it as it is:

* the tile variables, by *name* (loop-variable names, not ``b_`` symbols),
  in appearance order: over the objective's terms, then the constraint's,
  each term's names in name order (:meth:`ProblemIR.from_terms`);
* the objective/constraint as rows of an **exponent matrix** over
  :class:`fractions.Fraction` -- exact, hashable, orderable, and convertible
  to a float matrix for the scipy probe without touching sympy;
* **interned coefficients**: the distinct coefficient expressions, each with
  its ``srepr`` key (for hashing/canonicalization).

The module also provides exact linear algebra over the rationals
(:func:`solve_rational`): plain Gaussian elimination on ``Fraction``
entries, with which the KKT reconstruction runs without sympy's
``linsolve``/``simplify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import sympy as sp

_ZERO = Fraction(0)

#: a term's non-zero exponents by loop-variable name, in name order
Powers = tuple[tuple[str, Fraction], ...]
#: one term of problem (8): its powers (int exponents allowed) and its
#: coefficient, an int or a sympy expression
Term = tuple[Iterable[tuple[str, Fraction | int]], object]


def fraction(value: sp.Rational) -> Fraction:
    """A sympy rational as a :class:`~fractions.Fraction`."""
    return Fraction(int(value.p), int(value.q))


@dataclass(frozen=True)
class TermIR:
    """One monomial: interned coefficient index + dense exponent row."""

    coeff: int  #: index into :attr:`ProblemIR.coeffs`
    exponents: tuple[Fraction, ...]  #: aligned with :attr:`ProblemIR.variables`


@dataclass(frozen=True)
class ProblemIR:
    """One fused problem (8), shared by the solver and the cache."""

    variables: tuple[str, ...]  #: loop-variable names, appearance order
    coeffs: tuple[sp.Expr, ...]  #: interned distinct coefficient expressions
    coeff_keys: tuple[str, ...]  #: ``sp.srepr`` of each coefficient
    objective: tuple[TermIR, ...]
    constraint: tuple[TermIR, ...]
    extents: tuple[tuple[str, sp.Expr], ...]  #: loop var -> full extent

    @staticmethod
    def from_terms(
        objective: Iterable[Term],
        constraint: Iterable[Term],
        extents: Mapping[str, sp.Expr] | Iterable[tuple[str, sp.Expr]] = (),
    ) -> "ProblemIR":
        """Build the IR from ``(powers, coefficient)`` terms.

        ``powers`` pairs loop-variable names with non-zero exponents.
        Columns come in first appearance over the objective's terms, then
        the constraint's, each term's names in name order; terms keep their
        order.
        """
        objective = [(tuple(sorted(powers)), coeff) for powers, coeff in objective]
        constraint = [(tuple(sorted(powers)), coeff) for powers, coeff in constraint]
        column: dict[str, int] = {}
        for powers, _ in objective + constraint:
            for name, _ in powers:
                column.setdefault(name, len(column))

        by_key: dict[str, int] = {}  #: srepr -> index: equal srepr, one slot
        by_int: dict[int, int] = {}  #: an int's srepr is computed once
        coeffs: list[sp.Expr] = []

        def intern(coeff: object) -> int:
            if type(coeff) is int and coeff in by_int:
                return by_int[coeff]
            expr = sp.sympify(coeff)
            index = by_key.setdefault(sp.srepr(expr), len(coeffs))
            if index == len(coeffs):
                coeffs.append(expr)
            if type(coeff) is int:
                by_int[coeff] = index
            return index

        def rows(terms) -> tuple[TermIR, ...]:
            out = []
            for powers, coeff in terms:
                row = [_ZERO] * len(column)
                for name, exponent in powers:
                    row[column[name]] = Fraction(exponent)
                out.append(TermIR(intern(coeff), tuple(row)))
            return tuple(out)

        obj_rows, con_rows = rows(objective), rows(constraint)
        return ProblemIR(
            variables=tuple(column),
            coeffs=tuple(coeffs),
            coeff_keys=tuple(by_key),
            objective=obj_rows,
            constraint=con_rows,
            extents=tuple(
                (name, sp.sympify(value)) for name, value in dict(extents).items()
            ),
        )

    def powers(self, term: TermIR) -> Powers:
        """``term``'s non-zero exponents by variable name, in name order."""
        return tuple(
            sorted((name, e) for name, e in zip(self.variables, term.exponents) if e)
        )

    def first_appearance(self, terms: Iterable[TermIR]) -> list[str]:
        """Variable names in first appearance over ``terms``, each term's in
        name order -- the rule :meth:`from_terms` orders its columns by."""
        return list(
            dict.fromkeys(name for term in terms for name, _ in self.powers(term))
        )

    def extents_dict(self) -> dict[str, sp.Expr]:
        return dict(self.extents)

    def renamed(self, mapping: Mapping[str, str]) -> "ProblemIR":
        """Rename loop variables (columns keep their order)."""
        return ProblemIR(
            variables=tuple(mapping.get(name, name) for name in self.variables),
            coeffs=self.coeffs,
            coeff_keys=self.coeff_keys,
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


def rationalize(value: float, max_denominator: int = 1000) -> Fraction:
    """Nearest small-denominator rational to a numeric hint."""
    return Fraction(value).limit_denominator(max_denominator)
