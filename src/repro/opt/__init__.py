"""Solvers for optimization problem (8) and the intensity minimization.

The paper's pipeline (Section 4.5) is:

1. ``chi(X) = max prod_t |D_t|  s.t.  sum_j |A_j| <= X,  |D_t| >= 1``
   -- a geometric program represented by
   :class:`repro.opt.problem.ProblemIR` and solved by the symbolic KKT
   solver (:mod:`repro.opt.kkt`, guided by the scipy probe in
   :mod:`repro.opt.numeric`) behind :class:`repro.opt.backends.SolverBackend`;
2. ``X0 = argmin_X chi(X)/(X-S)`` and the computational intensity
   ``rho = chi(X0)/(X0-S)`` -- :mod:`repro.opt.rho`;
3. the optimal tile sizes ``|D_t|(X0)`` -- :mod:`repro.opt.tiling`.
"""

from repro.opt.backends import SolverBackend, available_backends, get_backend
from repro.opt.kkt import ChiSolution, solve_chi
from repro.opt.numeric import NumericSolution, solve_numeric
from repro.opt.problem import ProblemIR
from repro.opt.rho import IntensityResult, intensity_from_chi
from repro.opt.tiling import tiles_at_x0

__all__ = [
    "ChiSolution",
    "solve_chi",
    "NumericSolution",
    "solve_numeric",
    "ProblemIR",
    "SolverBackend",
    "available_backends",
    "get_backend",
    "IntensityResult",
    "intensity_from_chi",
    "tiles_at_x0",
]
