"""The problem-(8) solver the engine, the cache and the service share.

:class:`SolverBackend` hands a :class:`~repro.opt.problem.ProblemIR`, as it
is, to the numerically guided KKT solver :func:`repro.opt.kkt.solve_chi` and
returns its :class:`~repro.opt.kkt.ChiSolution`: one scipy probe picks the
active set; the stationarity system, the ``mu`` decompositions, the softmax
and saturation checks and the tile system are then solved and decided
exactly over :class:`fractions.Fraction`, and sympy is built only for an
accepted ``chi`` and its tile closed forms.

There is one solver, named ``exact``.  Its name is part of every cache key
(:meth:`SolverBackend.cache_tag`, together with
:data:`~repro.opt.kkt.SOLVER_REVISION`), of report-artifact keys, request
fingerprints and the ``solver`` fields of reports and service payloads.
:func:`get_backend` and :func:`available_backends` accept and list only
that name.
"""

from __future__ import annotations

from typing import Sequence

from repro import faults
from repro.obs import current_registry
from repro.obs import span as obs_span
from repro.opt.kkt import CLOSED_FORM_NOTE, SOLVER_REVISION, ChiSolution, solve_chi
from repro.opt.problem import ProblemIR
from repro.util.errors import SolverError


class SolverBackend:
    """The problem-(8) solver: single problems and batches."""

    #: the solver's name in cache keys, fingerprints, reports and metric labels
    name: str = "exact"

    def cache_tag(self) -> str:
        """Cache-key namespace: solver name + solver generation."""
        return f"{self.name}-r{SOLVER_REVISION}"

    def solve(
        self, problem: ProblemIR, *, allow_pinning: bool, allow_caps: bool
    ) -> ChiSolution:
        """Solve one problem; closed forms count in ``solver_closed_form_total``."""
        solution = solve_chi(
            problem, allow_pinning=allow_pinning, allow_caps=allow_caps
        )
        if CLOSED_FORM_NOTE in solution.notes:
            current_registry().inc("solver_closed_form_total", backend=self.name)
        return solution

    def solve_batch(
        self,
        problems: Sequence[ProblemIR],
        *,
        allow_pinning: bool,
        allow_caps: bool,
    ) -> list[ChiSolution | SolverError]:
        """Solve a batch; failures are returned (not raised) per position.

        The deadline is checked and the ``solver.solve`` fault site fires
        before every problem.  The ``solver.solve-batch`` span counts the
        solved, failed and closed-form problems and the ``trust-constr``
        rescues the batch needed.
        """
        results: list[ChiSolution | SolverError] = []
        registry = current_registry()
        rescues = registry.counter_total("solver_rescues_total")
        with obs_span(
            "solver.solve-batch", backend=self.name, problems=len(problems)
        ) as sp:
            for problem in problems:
                faults.check_deadline("solve")
                try:
                    faults.inject("solver.solve")
                    results.append(
                        self.solve(
                            problem,
                            allow_pinning=allow_pinning,
                            allow_caps=allow_caps,
                        )
                    )
                except SolverError as err:
                    results.append(err)
            solutions = [r for r in results if isinstance(r, ChiSolution)]
            sp.add("solved", len(solutions))
            sp.add("failed", len(results) - len(solutions))
            sp.add(
                "closed_form",
                sum(CLOSED_FORM_NOTE in s.notes for s in solutions),
            )
            sp.add(
                "rescues", registry.counter_total("solver_rescues_total") - rescues
            )
        return results


_SOLVER = SolverBackend()


def available_backends() -> tuple[str, ...]:
    """The names :func:`get_backend` accepts: the solver's own."""
    return (_SOLVER.name,)


def get_backend(name: str | None = None) -> SolverBackend:
    """The solver; any ``name`` other than its own raises :class:`SolverError`."""
    if name is not None and name != _SOLVER.name:
        raise SolverError(
            f"unknown solver backend {name!r}; available: {_SOLVER.name}"
        )
    return _SOLVER
