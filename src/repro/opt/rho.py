"""Computational intensity: ``rho = min_X chi(X)/(X-S)`` (Section 4.5).

Given the closed form ``chi(X)`` from :mod:`repro.opt.kkt`, the tightest
bound of inequality (1) uses ``X0 = argmin_{X>S} chi(X)/(X-S)``.  For a
leading-order monomial ``chi = C * X**alpha``:

* ``alpha > 1``:  stationarity ``alpha*(X-S) = X`` gives the interior
  optimum ``X0 = alpha/(alpha-1) * S`` and
  ``rho = C * alpha**alpha / (alpha-1)**(alpha-1) * S**(alpha-1)``;
* ``alpha = 1``:  ``chi/(X-S) = C*X/(X-S)`` decreases towards ``C`` as
  ``X -> oo``; the infimum ``rho = C`` is approached but not attained, and
  the derived bound ``Q >= |V| / C`` is exact at leading order (the paper's
  bandwidth-bound kernels: atax, mvt, gemver, ...);
* ``alpha < 1`` cannot occur for SOAP programs (some constraint term divides
  the objective monomial, forcing ``chi = Omega(X)``); it is rejected.

``rho`` is reported at leading order in ``S``; exact lower-order terms are
retained in ``rho_exact`` for small-S evaluation (pebbling validation).

``chi`` is the sympy expression the solver builds for an accepted solution;
problem (8) itself stays exponent rows (:mod:`repro.opt.problem`), and this
module works on ``chi`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import sympy as sp

from repro.opt.kkt import ChiSolution, degree_in_x, leading_in_x
from repro.symbolic.asymptotics import leading_term
from repro.symbolic.symbols import S_SYM, X_SYM
from repro.util.errors import SolverError


@dataclass
class IntensityResult:
    """Computational intensity of one (subgraph) statement."""

    rho: sp.Expr  #: leading order in S
    rho_exact: sp.Expr  #: chi(X0)/(X0-S) without leading-order truncation
    x0: sp.Expr  #: optimal partition parameter (sympy oo when alpha == 1)
    chi: sp.Expr  #: chi(X) used
    alpha: sp.Rational
    chi_solution: ChiSolution | None = None
    notes: tuple[str, ...] = ()
    #: memo of :func:`repro.opt.tiling.tiles_at_x0`
    _tiles_at_x0: dict | None = field(default=None, compare=False, repr=False)

    def rho_value(self, s_value: float) -> float:
        """Numeric intensity for a concrete fast-memory size."""
        return float(self.rho_exact.subs(S_SYM, s_value))


def intensity_from_chi(solution: ChiSolution) -> IntensityResult:
    """Minimize ``chi(X)/(X-S)`` over ``X > S``.

    The derivation reads only ``solution.chi`` and is memoized on it; every
    call still returns a fresh result carrying the caller's own solution
    and notes.
    """
    chi, rho, rho_exact, x0, alpha, note = _intensity_of_chi(solution.chi)
    notes = tuple(solution.notes) + ((note,) if note else ())
    return IntensityResult(
        rho=rho,
        rho_exact=rho_exact,
        x0=x0,
        chi=chi,
        alpha=alpha,
        chi_solution=solution,
        notes=notes,
    )


@lru_cache(maxsize=4096)
def _intensity_of_chi(chi: sp.Expr) -> tuple:
    """``(chi, rho, rho_exact, x0, alpha, note)`` of one ``chi(X)``.

    ``note`` is the ``alpha == 1`` remark, or ``None``.  A sublinear ``chi``
    raises on every call (``lru_cache`` does not keep exceptions).
    """
    chi = sp.expand(chi)
    lead = leading_in_x(chi)
    alpha = degree_in_x(lead)
    note = None

    if alpha < 1:
        raise SolverError(
            f"chi(X) = {chi} grows sublinearly (alpha={alpha}); "
            "SOAP constraints always force alpha >= 1"
        )

    if alpha == 1:
        coeff = sp.simplify(lead / X_SYM)
        rho = sp.simplify(coeff)
        rho_exact = rho
        x0 = sp.oo
        note = "alpha == 1: intensity approached as X -> oo"
    else:
        x0 = sp.nsimplify(alpha / (alpha - 1)) * S_SYM
        rho_exact = sp.simplify(chi.subs(X_SYM, x0) / (x0 - S_SYM))
        rho = leading_term(rho_exact)
    return chi, sp.simplify(rho), rho_exact, x0, sp.Rational(alpha), note


_LARGE_S = sp.Integer(2) ** 40
_LARGE_PARAM = sp.Integer(10) ** 9


@lru_cache(maxsize=4096)
def compare_intensity(a: sp.Expr, b: sp.Expr) -> int:
    """Order two intensities for large ``S`` (and large parameters).

    Returns -1/0/+1 for a<b / a~b / a>b.  Used by Theorem 1 to select
    ``max_{H in S(A)} rho_H``; ties in growth rate are broken by the constant
    factor.
    """
    ratio = sp.simplify(sp.Rational(1) * a / b)
    if ratio.free_symbols <= {S_SYM}:
        limit = sp.limit(ratio, S_SYM, sp.oo)
    else:
        # Parameter-dependent intensities: substitute large parameter values
        # (parameters >> 1 but << S interplay does not occur in the kernel
        # suite; the substitution makes the comparison total regardless).
        subs = {sym: _LARGE_PARAM for sym in ratio.free_symbols if sym != S_SYM}
        limit = sp.limit(ratio.subs(subs), S_SYM, sp.oo)
    if limit == sp.oo:
        return 1
    if limit == 0:
        return -1
    value = sp.simplify(limit)
    if value == 1:
        return 0
    try:
        return 1 if float(value) > 1 else -1
    except TypeError as err:  # pragma: no cover - defensive
        raise SolverError(f"cannot order intensities {a} vs {b}") from err
