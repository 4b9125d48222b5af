"""Numeric geometric-program solver (scipy) for optimization problem (8).

Solved in log space, where the problem is convex:

    maximize   log( sum_p c_p * exp(<a_p, x>) )
    subject to log( sum_r k_r * exp(<e_r, x>) ) <= log(X)
               x >= 0                            (tile sizes >= 1)

The numeric solution serves two purposes:

* it *guides* the symbolic KKT solvers (:mod:`repro.opt.kkt` and the
  numeric-first backend): which constraint terms are active at the optimum
  and the approximate dual weights ``y_r = lambda * m_r``, which the
  symbolic side rationalizes and then verifies exactly;
* it *cross-checks* every closed-form ``chi(X)`` in the test suite.

Two entry points share the optimizer: :func:`solve_numeric` takes
posynomials (coefficients must be numeric: callers substitute program
parameters first), while :func:`probe_arrays` takes prebuilt coefficient /
exponent arrays -- the path the :class:`~repro.opt.problem.ProblemIR`
backends use, with optional **warm starts** (``x0_seed``) seeded from the
nearest previously-solved problem class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp
from scipy import optimize

from repro.obs import current_registry
from repro.symbolic.posynomial import Posynomial
from repro.util.errors import SolverError


@dataclass(frozen=True)
class ProbeResult:
    """Numeric optimum of one concrete-``X`` instance, in array form."""

    x_log: np.ndarray  #: log tile sizes at the optimum
    objective_value: float
    m_values: np.ndarray  #: values m_r of each constraint monomial
    active: tuple[bool, ...]  #: m_r / X above the activity threshold
    dual_weights: tuple[float, ...]  #: y_r = m_r / sum(active m)

    @property
    def tile_values_array(self) -> np.ndarray:
        return np.exp(self.x_log)


@dataclass(frozen=True)
class NumericSolution:
    """Numeric optimum of problem (8) for one concrete ``X``."""

    variables: tuple[sp.Symbol, ...]
    tile_values: dict[sp.Symbol, float]
    objective_value: float
    constraint_terms: tuple[float, ...]  #: values m_r of each constraint monomial
    active: tuple[bool, ...]  #: m_r / X above the activity threshold
    dual_weights: tuple[float, ...]  #: y_r = m_r / sum(active m), ~ lambda*m_r/lambda*X

    def tiles_by_name(self) -> dict[str, float]:
        return {v.name: val for v, val in self.tile_values.items()}


def _matrix_form(posy: Posynomial, variables: list[sp.Symbol]):
    """(coeffs, exponent matrix) of a posynomial over ``variables``."""
    coeffs = []
    exps = []
    for term in posy.terms:
        coeff = sp.nsimplify(term.coeff)
        value = float(coeff)
        coeffs.append(value)
        exps.append([float(term.exponent(v)) for v in variables])
    return np.asarray(coeffs), np.asarray(exps)


def probe_arrays(
    c_obj: np.ndarray,
    a_obj: np.ndarray,
    k_con: np.ndarray,
    e_con: np.ndarray,
    x_value: float,
    *,
    activity_threshold: float = 1e-4,
    restarts: int = 4,
    x0_seed: np.ndarray | None = None,
    rescue: bool = True,
    ftol: float = 1e-12,
) -> ProbeResult:
    """Solve problem (8) numerically from prebuilt arrays.

    ``x0_seed`` (log tile sizes) warm-starts the first attempt; a converged
    warm start returns immediately, so a good seed costs one SLSQP call
    instead of ``restarts`` cold attempts.  ``rescue=False`` skips the slow
    trust-constr fallback when every SLSQP attempt stalls -- callers that
    will retry with more restarts anyway (the numeric-first fast path) must
    not pay for the rescue twice.  ``ftol`` is SLSQP's convergence tolerance:
    the reference schedule keeps the historical 1e-12, while the fast path
    passes 1e-9 -- on nearly-linear (degenerate) log-space objectives SLSQP
    stalls below double-precision noise at 1e-12 and would needlessly force
    the slow rescue.
    """
    if np.any(c_obj <= 0) or np.any(k_con <= 0):
        raise SolverError("non-positive coefficient in posynomial")
    n = a_obj.shape[1]
    if n == 0:
        raise SolverError("no tile variables in problem (8)")
    if k_con.size == 0:
        raise SolverError("empty constraint: chi is unbounded (cap extents first)")
    log_x = np.log(x_value)
    log_c, log_k = np.log(c_obj), np.log(k_con)

    def neg_log_objective(x: np.ndarray) -> float:
        return -_logsumexp(log_c + a_obj @ x)

    def neg_log_objective_grad(x: np.ndarray) -> np.ndarray:
        w = _softmax(log_c + a_obj @ x)
        return -(a_obj.T @ w)

    def constraint_slack(x: np.ndarray) -> float:
        return log_x - _logsumexp(log_k + e_con @ x)

    def constraint_slack_grad(x: np.ndarray) -> np.ndarray:
        w = _softmax(log_k + e_con @ x)
        return -(e_con.T @ w)

    upper = log_x - float(np.min(log_k)) + 2.0
    default_x0 = np.full(n, min(log_x / max(2.0, n), upper / 2))
    best = None
    rng = np.random.default_rng(1234)
    seeded = x0_seed is not None and len(x0_seed) == n
    for trial in range(restarts * 2 + (1 if seeded else 0)):
        if seeded and trial == 0:
            x0 = np.clip(np.asarray(x0_seed, dtype=float), 0.0, upper)
        elif (not seeded and trial == 0) or (seeded and trial == 1):
            x0 = default_x0
        else:
            x0 = rng.uniform(0.0, upper * 0.6, size=n)
        result = optimize.minimize(
            neg_log_objective,
            x0,
            jac=neg_log_objective_grad,
            bounds=[(0.0, upper)] * n,
            constraints=[
                {"type": "ineq", "fun": constraint_slack, "jac": constraint_slack_grad}
            ],
            method="SLSQP",
            options={"maxiter": 500, "ftol": ftol},
        )
        if result.success and (best is None or result.fun < best.fun):
            best = result
        if best is not None and (seeded or trial >= restarts - 1):
            break
    if best is None and rescue:
        # SLSQP can stall on nearly-degenerate geometries; trust-constr is
        # slower but markedly more robust.  No corpus problem gets here (the
        # degenerate class is solved in closed form before any probe), so
        # every rescue is counted.
        current_registry().inc("solver_rescues_total")
        constraint_obj = optimize.NonlinearConstraint(
            constraint_slack, 0.0, np.inf,
            jac=lambda x: constraint_slack_grad(x).reshape(1, -1),
        )
        result = optimize.minimize(
            neg_log_objective,
            default_x0,
            jac=neg_log_objective_grad,
            bounds=optimize.Bounds(np.zeros(n), np.full(n, upper)),
            constraints=[constraint_obj],
            method="trust-constr",
            options={"maxiter": 2000, "gtol": 1e-12, "xtol": 1e-14},
        )
        if result.fun is not None and np.isfinite(result.fun):
            best = result
    if best is None:
        raise SolverError("failed to solve problem (8) numerically")

    x_star = best.x
    m_values = k_con * np.exp(e_con @ x_star)
    active = tuple(bool(m / x_value > activity_threshold) for m in m_values)
    active_mass = float(np.sum(m_values[np.asarray(active)])) or 1.0
    duals = tuple(float(m / active_mass) for m in m_values)
    return ProbeResult(
        x_log=x_star,
        objective_value=float(np.exp(-best.fun)),
        m_values=m_values,
        active=active,
        dual_weights=duals,
    )


def solve_numeric(
    objective: Posynomial,
    constraint: Posynomial,
    x_value: float,
    *,
    activity_threshold: float = 1e-4,
    restarts: int = 4,
) -> NumericSolution:
    """Solve problem (8) numerically for ``X = x_value``.

    Raises :class:`SolverError` when the optimizer fails to converge or the
    constraint contains a variable-free structure it cannot handle.
    """
    variables = list(
        dict.fromkeys(list(objective.variables()) + list(constraint.variables()))
    )
    if not variables:
        raise SolverError("no tile variables in problem (8)")
    if len(constraint) == 0:
        raise SolverError("empty constraint: chi is unbounded (cap extents first)")

    c_obj, a_obj = _matrix_form(objective, variables)
    k_con, e_con = _matrix_form(constraint, variables)
    probe = probe_arrays(
        c_obj, a_obj, k_con, e_con, x_value,
        activity_threshold=activity_threshold,
        restarts=restarts,
    )
    tile_values = {
        v: float(val) for v, val in zip(variables, probe.tile_values_array)
    }
    return NumericSolution(
        variables=tuple(variables),
        tile_values=tile_values,
        objective_value=probe.objective_value,
        constraint_terms=tuple(float(m) for m in probe.m_values),
        active=probe.active,
        dual_weights=probe.dual_weights,
    )


def _logsumexp(values: np.ndarray) -> float:
    top = float(np.max(values))
    return top + float(np.log(np.sum(np.exp(values - top))))


def _softmax(values: np.ndarray) -> np.ndarray:
    shifted = np.exp(values - np.max(values))
    return shifted / np.sum(shifted)
