"""Numeric geometric-program solver (scipy) for optimization problem (8).

Solved in log space, where the problem is convex:

    maximize   log( sum_p c_p * exp(<a_p, x>) )
    subject to log( sum_r k_r * exp(<e_r, x>) ) <= log(X)
               x >= 0                            (tile sizes >= 1)

The numeric solution serves two purposes:

* it *guides* the symbolic KKT solver (:mod:`repro.opt.kkt`): which
  constraint terms are active at the optimum and the approximate dual
  weights ``y_r = lambda * m_r``, which the symbolic side rationalizes and
  then verifies exactly;
* it *cross-checks* every closed-form ``chi(X)`` in the test suite.

The probe reads a :class:`~repro.opt.problem.ProblemIR`.  Its inputs are
part of its contract, because SLSQP's answer -- and with it the pinned
tiles, their order and the free tiles the reconstruction fills from the
weights -- depends on them: the columns come in first appearance over the
objective's terms, then the constraint's, each term's tiles in name order
(not the IR's column order), and each coefficient is
``float(sympy.nsimplify(c))`` with every program parameter at ``1e5``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sp
from scipy import optimize

from repro.obs import current_registry
from repro.opt.problem import ProblemIR
from repro.util.errors import SolverError

_ACTIVITY_THRESHOLD = 1e-4  #: m_r / X above this counts as an active term
_RESTARTS = 4  #: SLSQP attempts before the best converged one is taken
_NUMERIC_PARAM = sp.Float(1.0e5)  #: the probe's value of a program parameter


@dataclass(frozen=True)
class NumericSolution:
    """Numeric optimum of problem (8) for one concrete ``X``."""

    variables: tuple[str, ...]  #: the probe's columns, by loop-variable name
    tile_values: dict[str, float]
    objective_value: float
    constraint_terms: tuple[float, ...]  #: values m_r of each constraint monomial
    active: tuple[bool, ...]  #: m_r / X above the activity threshold
    dual_weights: tuple[float, ...]  #: y_r = m_r / sum(active m), ~ lambda*m_r/lambda*X


def at_probe_parameters(coeff: sp.Expr) -> sp.Expr:
    """``coeff`` with every program parameter at the probe's value."""
    return coeff.subs({sym: _NUMERIC_PARAM for sym in coeff.free_symbols})


def _probe_inputs(problem: ProblemIR):
    """``(columns, c, a, k, e)``: the probe's columns by name, and the
    coefficients and exponent matrices of the objective and the constraint
    (module docstring)."""
    variables = problem.first_appearance(problem.objective + problem.constraint)
    if not variables:
        raise SolverError("no tile variables in problem (8)")
    if not problem.constraint:
        raise SolverError("empty constraint: chi is unbounded (cap extents first)")
    columns = [problem.variables.index(name) for name in variables]
    # an integer is its own nsimplify
    values = [
        float(c) if c.is_Integer else float(sp.nsimplify(at_probe_parameters(c)))
        for c in problem.coeffs
    ]

    def matrix_form(terms):
        coeffs = np.asarray([values[term.coeff] for term in terms])
        exps = np.asarray([[float(term.exponents[c]) for c in columns] for term in terms])
        return coeffs, exps

    return (variables, *matrix_form(problem.objective), *matrix_form(problem.constraint))


def solve_numeric(problem: ProblemIR, x_value: float) -> NumericSolution:
    """Solve problem (8) numerically for ``X = x_value``.

    Columns and coefficients are the module docstring's.  SLSQP runs from a
    default start, then from seeded random starts; the best converged
    attempt wins once ``_RESTARTS`` attempts have run, and at most
    ``2 * _RESTARTS`` run.  When none converges, one counted
    ``trust-constr`` rescue runs.  Raises :class:`SolverError` when the
    optimizer fails to converge or the constraint contains a variable-free
    structure it cannot handle.
    """
    variables, c_obj, a_obj, k_con, e_con = _probe_inputs(problem)
    if np.any(c_obj <= 0) or np.any(k_con <= 0):
        raise SolverError("non-positive coefficient in posynomial")
    n = a_obj.shape[1]
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
    for trial in range(_RESTARTS * 2):
        x0 = default_x0 if trial == 0 else rng.uniform(0.0, upper * 0.6, size=n)
        result = optimize.minimize(
            neg_log_objective,
            x0,
            jac=neg_log_objective_grad,
            bounds=[(0.0, upper)] * n,
            constraints=[
                {"type": "ineq", "fun": constraint_slack, "jac": constraint_slack_grad}
            ],
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-12},
        )
        if result.success and (best is None or result.fun < best.fun):
            best = result
        if best is not None and trial >= _RESTARTS - 1:
            break
    if best is None:
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
    active = tuple(bool(m / x_value > _ACTIVITY_THRESHOLD) for m in m_values)
    active_mass = float(np.sum(m_values[np.asarray(active)])) or 1.0
    return NumericSolution(
        variables=tuple(variables),
        tile_values={v: float(val) for v, val in zip(variables, np.exp(x_star))},
        objective_value=float(np.exp(-best.fun)),
        constraint_terms=tuple(float(m) for m in m_values),
        active=active,
        dual_weights=tuple(float(m / active_mass) for m in m_values),
    )


def _logsumexp(values: np.ndarray) -> float:
    top = float(np.max(values))
    return top + float(np.log(np.sum(np.exp(values - top))))


def _softmax(values: np.ndarray) -> np.ndarray:
    shifted = np.exp(values - np.max(values))
    return shifted / np.sum(shifted)
