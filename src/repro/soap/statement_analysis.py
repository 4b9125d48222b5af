"""Single-statement SOAP analysis (Section 4 end-to-end).

Pipeline for one statement:

1. Section 5.2 versioning (:func:`repro.soap.projections.apply_versioning`);
2. simple-overlap classification (:mod:`repro.soap.classify`);
3. dominator posynomial via Lemma 3 / Corollary 1, built on integer
   exponent rows over the loop tiles (:mod:`repro.soap.access_size`; a
   version dimension already counts as its tied loop tiles, so the
   constraint holds no version tile);
4. optimization problem (8) -> ``chi(X)`` (:mod:`repro.opt.kkt`);
5. intensity ``rho`` and ``X0`` (:mod:`repro.opt.rho`);
6. inequality (9):  ``Q >= |D| * (X0 - S) / chi(X0) = |D| / rho``.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from repro.ir.statement import Statement
from repro.opt.kkt import ChiSolution, solve_chi
from repro.opt.rho import IntensityResult, intensity_from_chi
from repro.opt.tiling import tiles_at_x0
from repro.soap.access_size import group_constraint_terms
from repro.soap.classify import OverlapPolicy, classify_statement
from repro.soap.projections import apply_versioning
from repro.symbolic.asymptotics import leading_term
from repro.symbolic.posynomial import Monomial, Posynomial
from repro.symbolic.symbols import is_version_var, tile


@dataclass
class StatementBound:
    """I/O lower bound of a single SOAP statement."""

    statement: Statement  #: the analyzed (projected) statement
    bound: sp.Expr  #: leading-order I/O lower bound Q
    intensity: IntensityResult
    chi_solution: ChiSolution
    tiles: dict[str, sp.Expr]  #: optimal tile sizes at X0
    domain_size: sp.Expr  #: |D| -- number of computed vertices

    @property
    def rho(self) -> sp.Expr:
        return self.intensity.rho


def statement_objective(statement: Statement) -> Posynomial:
    """``prod_t b_t`` over the statement's *loop* variables.

    Version variables (Section 5.2 projection artifacts) are tied to loop
    variables and excluded: they do not multiply the computed vertex count.
    """
    powers = {tile(v): 1 for v in statement.iteration_vars if not is_version_var(v)}
    return Posynomial([Monomial.make(sp.Integer(1), powers)])


def statement_extents(statement: Statement) -> dict[str, sp.Expr]:
    return {
        v: statement.domain.extent(v)
        for v in statement.iteration_vars
        if not is_version_var(v)
    }


def analyze_statement(
    statement: Statement,
    *,
    policy: OverlapPolicy = "sum",
) -> StatementBound:
    """Derive the Section 4 I/O lower bound for one statement."""
    projected = apply_versioning(statement)
    groups = classify_statement(projected)
    constraint = group_constraint_terms(groups, policy=policy)
    objective = statement_objective(projected)
    extents = statement_extents(projected)

    chi_solution = solve_chi(objective, constraint, extents)
    intensity = intensity_from_chi(chi_solution)
    domain_size = projected.vertex_count
    bound = leading_term(sp.simplify(domain_size / intensity.rho))
    return StatementBound(
        statement=projected,
        bound=bound,
        intensity=intensity,
        chi_solution=chi_solution,
        tiles=tiles_at_x0(intensity),
        domain_size=domain_size,
    )
