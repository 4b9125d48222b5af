"""The reference backend: the numerically guided exact KKT solver.

A thin rehosting of :func:`repro.opt.kkt.solve_chi` on
:class:`~repro.opt.problem.ProblemIR`.  One SLSQP probe picks the active set;
the stationarity system, the ``mu`` decompositions, the softmax and
saturation checks and the tile system are then solved and decided exactly
over :class:`fractions.Fraction`, and sympy is built only for an accepted
``chi`` and its tile closed forms.
"""

from __future__ import annotations

from repro.opt.backends import SolverBackend, count_closed_form, register_backend
from repro.opt.kkt import ChiSolution, solve_chi
from repro.opt.problem import ProblemIR


@register_backend
class ExactBackend(SolverBackend):
    """Rational KKT reconstruction with exact verification and tile closed forms."""

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
