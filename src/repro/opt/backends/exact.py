"""The reference backend: the numerically-guided symbolic KKT solver.

A thin rehosting of :func:`repro.opt.kkt.solve_chi` on
:class:`~repro.opt.problem.ProblemIR`: the IR's posynomial views are exactly
the inputs the solver always took, so the behaviour (and every verified
closed form) is unchanged.
"""

from __future__ import annotations

from repro.opt.backends import SolverBackend, count_closed_form, register_backend
from repro.opt.kkt import ChiSolution, solve_chi
from repro.opt.problem import ProblemIR


@register_backend
class ExactBackend(SolverBackend):
    """Full symbolic reconstruction with exact verification."""

    name = "exact"

    def solve(
        self, problem: ProblemIR, *, allow_pinning: bool, allow_caps: bool
    ) -> ChiSolution:
        return count_closed_form(
            self.name,
            solve_chi(
                problem.objective_posynomial(),
                problem.constraint_posynomial(),
                problem.extents_dict(),
                allow_pinning=allow_pinning,
                allow_caps=allow_caps,
            ),
        )
