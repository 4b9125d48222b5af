"""Test-only reference: the sympy reconstruction of problem (8).

``repro.opt.kkt`` once rebuilt the probe's optimum with sympy (``linsolve``,
``nsimplify``, ``simplify``, ``powsimp`` and ``powdenest``).  It now takes
every decision over ``Fraction`` and builds sympy only for an accepted chi and
its tiles.  The functions below are the sympy version, kept verbatim as an
oracle: :func:`reference_exact_from_guidance` is a drop-in replacement for
``repro.opt.kkt._exact_from_guidance`` that also applies the ``sp.simplify``
with which ``solve_chi`` used to wrap the returned chi.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import sympy as sp

from repro.opt.kkt import _OBJ_TOLERANCE, _PartSolution, leading_in_x
from repro.opt.numeric import NumericSolution
from repro.symbolic.posynomial import Monomial, Posynomial
from repro.symbolic.symbols import X_SYM, tile, tile_name


def reference_exact_from_guidance(*args, **kwargs) -> _PartSolution | None:
    """The sympy reconstruction, chi simplified as ``solve_chi`` did."""
    part = _exact_from_guidance(*args, **kwargs)
    if part is None:
        return None
    return _PartSolution(sp.simplify(part.chi), part.tiles, part.pinned, part.exact)


def _fold_pinned(terms: Sequence[Monomial], pinned_syms: set) -> list[Monomial]:
    folded = []
    for term in terms:
        powers = {v: e for v, e in term.powers if v not in pinned_syms}
        folded.append(Monomial.make(term.coeff, powers))
    return folded


def _exact_from_guidance(
    objective: Posynomial,
    constraint: Posynomial,
    numeric: NumericSolution,
    pinned: Sequence[str],
    param_subs: Mapping[sp.Symbol, sp.Expr] | None = None,
) -> _PartSolution | None:
    pinned_syms = {tile(name) for name in pinned}
    param_subs = dict(param_subs or {})

    active_terms = [term for term, act in zip(constraint.terms, numeric.active) if act]
    active_hints = [w for w, act in zip(numeric.dual_weights, numeric.active) if act]
    if not active_terms:
        return None

    # Keep only the objective monomials that survive at the optimum.
    obj_values = []
    for term in objective.terms:
        value = float(term.coeff.subs(param_subs)) * math.prod(
            numeric.tile_values[v] ** float(term.exponent(v))
            for v in term.variables()
            if v in numeric.tile_values
        )
        obj_values.append(value)
    total_obj = sum(obj_values) or 1.0
    live = [val / total_obj > _OBJ_TOLERANCE for val in obj_values]
    live_monos = [t for t, keep in zip(objective.terms, live) if keep]
    live_hints = [val / total_obj for val, keep in zip(obj_values, live) if keep]
    if not live_monos:
        return None

    reduced_obj = _fold_pinned(live_monos, pinned_syms)
    reduced_con = _fold_pinned(active_terms, pinned_syms)
    free_vars = sorted(
        {v for t in reduced_con for v in t.variables()}
        | {v for t in reduced_obj for v in t.variables()},
        key=lambda s: s.name,
    )
    if not free_vars:
        return None

    # Joint stationarity system over (w_p, y_r):
    #   per variable t:  sum_p a_pt w_p - sum_r e_rt y_r = 0
    #   normalization:   sum_p w_p = 1
    n_obj, n_con = len(reduced_obj), len(reduced_con)
    rows = []
    rhs = []
    for v in free_vars:
        rows.append(
            [t.exponent(v) for t in reduced_obj] + [-t.exponent(v) for t in reduced_con]
        )
        rhs.append(sp.Integer(0))
    rows.append([sp.Integer(1)] * n_obj + [sp.Integer(0)] * n_con)
    rhs.append(sp.Integer(1))
    matrix = sp.Matrix(rows)
    target = sp.Matrix(rhs)
    hints = list(live_hints) + list(active_hints)
    wy = _solve_linear_with_hint(matrix, target, hints)
    if wy is None:
        return None
    w = wy[:n_obj]
    y = wy[n_obj:]
    if any(sp.simplify(val).is_positive is not True for val in w + y):
        return None

    total_y = sum(y, sp.Integer(0))
    m_values = [sp.nsimplify(val / total_y) * X_SYM for val in y]

    # u_p = c_p * prod_r (m_r/k_r)^{mu_r}  with  sum_r mu_r e_r = a_p.
    e_matrix = sp.Matrix([[t.exponent(v) for t in reduced_con] for v in free_vars])
    u_values: list[sp.Expr] = []
    for mono in reduced_obj:
        a_vec = sp.Matrix([mono.exponent(v) for v in free_vars])
        mu = _solve_linear_with_hint(e_matrix, a_vec, None)
        if mu is None:
            return None
        u = mono.coeff
        for m_val, term, mu_r in zip(m_values, reduced_con, mu):
            if mu_r != 0:
                u *= (m_val / term.coeff) ** mu_r
        u_values.append(sp.powsimp(sp.simplify(u), force=True))
    chi = sp.powsimp(sp.simplify(sp.Add(*u_values)), force=True)

    # Cross-check the softmax identity w_p * chi == u_p.
    for w_p, u_p in zip(w, u_values):
        if sp.simplify(w_p * chi - u_p) != 0:
            return None

    tiles = _recover_tiles(free_vars, reduced_con, m_values)
    if tiles is None:
        # The chosen stationarity solution does not correspond to any tile
        # assignment (inconsistent log-linear system): reject -- accepting it
        # would report a chi no feasible point attains.
        return None
    for name in pinned:
        tiles[name] = sp.Integer(1)

    # When every tile has a closed form, verify the constraint saturates X at
    # leading order.
    if all(tile_name(v) in tiles for v in free_vars):
        subs = {tile(n): e for n, e in tiles.items()}
        lhs = leading_in_x(sp.expand(sp.powsimp(constraint.expr.subs(subs), force=True)))
        if sp.simplify(lhs - X_SYM) != 0:
            return None
    return _PartSolution(chi, tiles, tuple(pinned), True)


def _solve_linear_with_hint(
    matrix: sp.Matrix,
    rhs: sp.Matrix,
    hint: Sequence[float] | None,
) -> list[sp.Expr] | None:
    """Solve ``matrix * v = rhs`` exactly over the rationals.

    With multiple solutions, free parameters are set from ``hint`` (numeric
    weights), rationalized via :func:`sympy.nsimplify`, and the chosen
    particular solution is re-verified exactly.
    """
    n_unknowns = matrix.shape[1]
    unknowns = list(sp.symbols(f"_y0:{n_unknowns}", real=True))
    system = matrix * sp.Matrix(unknowns) - rhs
    solutions = sp.linsolve([sp.Eq(row, 0) for row in system], unknowns)
    if not solutions:
        return None
    solution = next(iter(solutions))
    free = sorted(
        {s for expr in solution for s in sp.sympify(expr).free_symbols if s in unknowns},
        key=lambda s: s.name,
    )
    assignment: dict[sp.Symbol, sp.Expr] = {}
    for sym in free:
        idx = unknowns.index(sym)
        if hint is not None and idx < len(hint):
            assignment[sym] = sp.nsimplify(hint[idx], rational=True, tolerance=1e-3)
        else:
            assignment[sym] = sp.Rational(1, 2)
    values = [sp.nsimplify(sp.sympify(expr).subs(assignment)) for expr in solution]
    check = matrix * sp.Matrix(values) - rhs
    if any(sp.simplify(entry) != 0 for entry in check):
        return None
    return values


def _recover_tiles(
    variables: list[sp.Symbol],
    terms: list[Monomial],
    m_values: list[sp.Expr],
) -> dict[str, sp.Expr] | None:
    """Solve ``<e_r, log b> = log(m_r/k_r)`` for the tile sizes.

    Returns closed forms for the uniquely determined variables; variables
    left free by a rank-deficient (but consistent) system are omitted -- chi
    does not depend on the split (module docstring).  Returns ``None`` when
    the system is *inconsistent*: the stationarity solution then matches no
    feasible tile assignment and the caller must reject it.
    """
    logs = [sp.Symbol(f"_l_{v.name}") for v in variables]
    equations = []
    for term, m_val in zip(terms, m_values):
        lhs = sp.Integer(0)
        for v, log_sym in zip(variables, logs):
            lhs += term.exponent(v) * log_sym
        equations.append(sp.Eq(lhs, sp.log(m_val / term.coeff)))
    solutions = sp.linsolve(equations, logs)
    if not solutions:
        return None
    solution = next(iter(solutions))
    tiles: dict[str, sp.Expr] = {}
    for v, expr in zip(variables, solution):
        expr = sp.sympify(expr)
        if expr.free_symbols & set(logs):
            continue  # undetermined split
        value = sp.powsimp(sp.exp(sp.expand(expr)), force=True)
        value = sp.simplify(sp.powdenest(value, force=True))
        tiles[tile_name(v)] = value
    return tiles
