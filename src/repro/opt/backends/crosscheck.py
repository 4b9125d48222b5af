"""The cross-check backend: exact and numeric-first must agree.

Runs both backends on every problem.  When both produce a solution, their
**leading order in ``X``** -- degree and coefficient -- must match: that is
exactly what determines the leading-order computational intensity ``rho``
(:mod:`repro.opt.rho`) and hence the reported bound.  Full expressions may
legitimately differ below leading order (the numeric-first backend defers
simplification), so only the leading term is compared, semantically
(``simplify(lead_a / lead_b) == 1``).  A disagreement raises a
:class:`~repro.util.errors.SolverError` whose message starts with
``cross-check mismatch``; the engine counts these separately so a corpus
sweep can assert there were none.

When exactly one backend solves a problem the two backends differ in
**coverage**, not in any computed intensity: the two reconstructions have
slightly different reach on degenerate boundary optima (numeric-first drops
an active term whose dual solves to 0, exact rejects the point).  Coverage differences are *reported* (tagged
``cross-check coverage`` in the returned notes/error and counted by the
engine) but are not mismatches -- there are no two rho values to disagree.
In every case the **exact** backend's outcome is what cross-check returns,
so an engine running ``cross-check`` derives bit-identical bounds to one
running ``exact``.
"""

from __future__ import annotations

from dataclasses import replace

import sympy as sp

from repro.opt.backends import SolverBackend, get_backend, register_backend
from repro.opt.kkt import ChiSolution, degree_in_x, leading_in_x
from repro.opt.problem import ProblemIR
from repro.util.errors import SolverError

MISMATCH_PREFIX = "cross-check mismatch"
COVERAGE_MARKER = "cross-check coverage"


def bound_disagreement(values) -> float:
    """Relative spread ``(max - min) / max`` across bound-engine values.

    ``values`` is a mapping ``{engine: value}`` or an iterable of values;
    non-finite entries are ignored.  0.0 means every engine agrees (or
    fewer than two produced a value).  This is the concrete-CDAG analogue
    of the leading-order rho cross-check above: engines bound the *same*
    quantity, so a large spread is diagnostic signal -- one bound is far
    looser than another -- surfaced per kernel in ``repro status`` and the
    Table-2 report rather than an error (unlike rho, the engines are not
    expected to coincide).
    """
    if hasattr(values, "values"):
        values = values.values()
    finite = [
        float(v)
        for v in values
        if v == v and v not in (float("inf"), float("-inf"))
    ]
    if len(finite) < 2:
        return 0.0
    top = max(finite)
    if top <= 0:
        return 0.0
    return (top - min(finite)) / top


@register_backend
class CrossCheckBackend(SolverBackend):
    """Run ``exact`` and ``numeric-first``; fail loudly on rho disagreement."""

    name = "cross-check"

    def solve(
        self, problem: ProblemIR, *, allow_pinning: bool, allow_caps: bool
    ) -> ChiSolution:
        exact_solution, exact_error = _attempt(
            "exact", problem, allow_pinning, allow_caps
        )
        fast_solution, fast_error = _attempt(
            "numeric-first", problem, allow_pinning, allow_caps
        )
        if exact_error is not None and fast_error is not None:
            raise exact_error  # consistent rejection: report the reference error
        if exact_error is None and fast_error is None:
            mismatch = _leading_mismatch(exact_solution.chi, fast_solution.chi)
            if mismatch is not None:
                raise SolverError(f"{MISMATCH_PREFIX}: {mismatch}")
            return replace(
                exact_solution,
                notes=exact_solution.notes
                + ("cross-check: numeric-first agreed at leading order",),
            )
        # Exactly one backend solved: a coverage difference.  Return the
        # reference (exact) outcome, tagged so operators see the divergence.
        if exact_error is not None:
            raise SolverError(
                f"{exact_error} [{COVERAGE_MARKER}: numeric-first solved "
                "this problem]"
            )
        return replace(
            exact_solution,
            notes=exact_solution.notes
            + (f"{COVERAGE_MARKER}: numeric-first rejected ({fast_error})",),
        )


def _attempt(
    name: str, problem: ProblemIR, allow_pinning: bool, allow_caps: bool
) -> tuple[ChiSolution | None, SolverError | None]:
    try:
        solution = get_backend(name).solve(
            problem, allow_pinning=allow_pinning, allow_caps=allow_caps
        )
        return solution, None
    except SolverError as err:
        return None, err


def _leading_mismatch(chi_exact: sp.Expr, chi_fast: sp.Expr) -> str | None:
    """Describe a leading-order disagreement, or ``None`` when they agree."""
    lead_exact = leading_in_x(chi_exact)
    lead_fast = leading_in_x(chi_fast)
    degree_exact = degree_in_x(lead_exact)
    degree_fast = degree_in_x(lead_fast)
    if degree_exact != degree_fast:
        return (
            f"alpha differs: exact {degree_exact} vs numeric-first "
            f"{degree_fast} (chi {chi_exact} vs {chi_fast})"
        )
    ratio = sp.simplify(lead_exact / lead_fast)
    if ratio != 1:
        return (
            f"leading coefficient differs by {ratio} "
            f"(chi {chi_exact} vs {chi_fast})"
        )
    return None
