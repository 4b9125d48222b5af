"""Symbolic solution of optimization problem (8).

The problem -- maximize a posynomial objective (``prod_t |D_t|`` for a single
statement, a *sum* of such products for a fused subgraph statement) over a
posynomial dominator budget ``sum_j |A_j| <= X`` -- is a geometric program.
In log space the KKT stationarity conditions become *linear* once the active
sets are known.  Writing ``w_p`` for the objective softmax weights
(``w_p = u_p / sum u``, ``u_p`` = value of objective monomial ``p``) and
``y_r = lambda * m_r / X`` for the scaled constraint-term values
(``m_r`` = value of constraint monomial ``r``):

    for every tile variable t:  sum_p a_{p,t} w_p  =  sum_r e_{r,t} y_r   (*)
    normalization:              sum_p w_p = 1
    constraint activity:        sum_r m_r = X   =>   m_r = y_r / sum(y) * X

where ``a``/``e`` are the exponent matrices of objective/constraint.  The
optimum value follows without solving for the tiles themselves: expressing
``a_p = sum_r mu_r e_r`` (always consistent at a bounded optimum) gives

    u_p = c_p * prod_r (m_r / k_r)^{mu_r},      chi(X) = sum_p u_p,

which is independent of the particular ``mu`` chosen because every
consistent ``log(m_r/k_r)`` lies in the row space of ``e``.

The solver is *numerically guided*: a scipy solve of the same program (at a
large concrete ``X``, :mod:`repro.opt.numeric`) identifies the active
constraint terms, the surviving objective monomials, and any variables pinned
at their lower bound ``b=1``; the linear algebra is then done exactly over
the rationals and verified by substitution (``w_p * chi == u_p`` and, when
all tiles have closed forms, constraint == X at leading order).  When exact
reconstruction fails, a rational-exponent fit of the numeric solution is
returned with ``exact=False`` (re-verified at an independent ``X``).

One class needs no probe at all: when the objective monomial is itself a
constraint term that dominates every other one, ``chi = (c/k)*X`` in closed
form (:func:`bandwidth_bound_chi`, shared with the numeric-first backend).

Variables absent from every constraint term are unconstrained by the
dominator budget and are capped at their full loop extents beforehand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import sympy as sp

from repro.opt.numeric import NumericSolution, solve_numeric
from repro.opt.problem import ProblemIR
from repro.symbolic.posynomial import Monomial, Posynomial
from repro.symbolic.symbols import X_SYM, tile, tile_name
from repro.util.errors import SolverError

#: Bump when the solver's *capabilities* change (new reconstruction paths,
#: relaxed rejection rules, new backends, ...): persistent caches namespace
#: every entry by backend + revision, so older-generation results are never
#: replayed by a newer solver.
SOLVER_REVISION = 3

_PIN_TOLERANCE = 1.2  #: numeric tile value below this counts as pinned to 1
_OBJ_TOLERANCE = 1e-3  #: objective weight below this counts as negligible
_PROBE_X = 1.0e9

#: note carried by every solution :func:`bandwidth_bound_chi` produced
CLOSED_FORM_NOTE = "closed form: objective monomial is the dominant constraint term"


@dataclass
class ChiSolution:
    """Closed-form (or fitted) maximal subcomputation size ``chi(X)``."""

    chi: sp.Expr
    tiles: dict[str, sp.Expr] = field(default_factory=dict)
    capped: tuple[str, ...] = ()
    pinned: tuple[str, ...] = ()
    exact: bool = True
    notes: tuple[str, ...] = ()

    @property
    def alpha(self) -> sp.Rational:
        """Degree of ``chi`` in ``X`` (leading order)."""
        return degree_in_x(self.chi)


def degree_in_x(expr: sp.Expr) -> sp.Rational:
    """Leading degree of an expression in the partition parameter ``X``."""
    expanded = sp.expand(expr)
    addends = expanded.args if expanded.func is sp.Add else (expanded,)
    best = None
    for addend in addends:
        deg = _x_degree_of_term(addend)
        if best is None or deg > best:
            best = deg
    return sp.Rational(best if best is not None else 0)


def _x_degree_of_term(term: sp.Expr) -> sp.Rational:
    deg = sp.Integer(0)
    factors = term.args if term.func is sp.Mul else (term,)
    for factor in factors:
        base, exp = factor.as_base_exp()
        if base == X_SYM:
            deg += exp
    return sp.Rational(deg)


def leading_in_x(expr: sp.Expr) -> sp.Expr:
    """Keep only the highest-degree-in-X addends of ``expr``."""
    expanded = sp.expand(expr)
    if expanded.func is not sp.Add:
        return expanded
    top = degree_in_x(expanded)
    kept = [t for t in expanded.args if _x_degree_of_term(t) == top]
    return sp.Add(*kept)


def solve_chi(
    objective: Posynomial,
    constraint: Posynomial,
    extents: Mapping[str, sp.Expr] | None = None,
    *,
    probe_x: float = _PROBE_X,
    allow_pinning: bool = True,
    allow_caps: bool = True,
    guidance: NumericSolution | None = None,
) -> ChiSolution:
    """Solve problem (8) symbolically; see module docstring for the method.

    ``allow_pinning=False`` restricts the search to *interior* optima
    (every tile strictly above its lower bound 1).  When the numeric optimum
    sits on the boundary the solver first retries the exact reconstruction
    *without* pins -- degenerate (underdetermined) optima often admit an
    equivalent interior point that SLSQP happened not to return -- and only
    raises :class:`SolverError` when no interior solution verifies.
    ``allow_caps=False`` likewise rejects solutions that require capping a
    tile at its full loop extent.  Theorem 1 uses both restrictions for
    subgraph statements: boundary/capped optima correspond to
    streaming-update subcomputations that the paper's interior-only solver
    never reports (see DESIGN.md §4.5); rejecting them reproduces the
    paper's behaviour.

    ``guidance`` supplies a precomputed numeric solution of the
    parameter-substituted problem at ``probe_x`` (the numeric-first backend
    passes its warm-started probe when it defers to this solver), skipping
    the internal scipy solve.
    """
    extents = dict(extents or {})
    notes: list[str] = []

    # ---- cap variables the constraint cannot bound -------------------------
    constraint_vars = set(constraint.variables())
    capped: list[str] = []
    substitutions: dict[sp.Symbol, sp.Expr] = {}
    for var in objective.variables():
        if var not in constraint_vars:
            name = tile_name(var)
            cap = extents.get(name)
            if cap is None:
                raise SolverError(
                    f"variable {name} is unconstrained and has no extent cap"
                )
            substitutions[var] = sp.sympify(cap)
            capped.append(name)
    if substitutions:
        if not allow_caps:
            raise SolverError(
                f"optimum requires capping tiles {capped} at full extents; "
                "interior-only solve requested"
            )
        remaining = [v for v in objective.variables() if v not in substitutions]
        objective = Posynomial.from_expr(objective.expr.subs(substitutions), remaining)
        notes.append(f"capped {capped} at full extents")

    if len(constraint) == 0:
        chi = sp.simplify(objective.expr)
        tiles = {name: sp.sympify(extents[name]) for name in capped}
        return ChiSolution(chi, tiles, tuple(capped), (), True, tuple(notes))

    rows = ProblemIR.from_posynomials(objective, constraint)
    closed = bandwidth_bound_chi(
        rows.variables,
        [(rows.coeffs[term.coeff], term.exponents) for term in rows.objective],
        [(rows.coeffs[term.coeff], term.exponents) for term in rows.constraint],
        capped={name: sp.sympify(extents[name]) for name in capped},
        notes=notes,
    )
    if closed is not None:
        return closed

    # Program parameters may appear in coefficients (capped extents); the
    # numeric probe substitutes a large common value -- the probe only guides
    # active-set selection, the exact algebra below keeps parameters symbolic.
    param_subs = _parameter_substitution(objective, constraint)
    if guidance is not None:
        numeric = guidance
    else:
        numeric_obj = _substituted(objective, param_subs)
        numeric_con = _substituted(constraint, param_subs)
        numeric = solve_numeric(numeric_obj, numeric_con, probe_x)
    pinned = tuple(
        tile_name(v) for v, val in numeric.tile_values.items() if val < _PIN_TOLERANCE
    )
    if pinned and not allow_pinning:
        # A pinned tile may be a degenerate optimum (any budget split optimal,
        # SLSQP parked a tile at the boundary): accept iff an equivalent
        # interior stationary point reconstructs and verifies exactly.
        interior = _exact_from_guidance(objective, constraint, numeric, (), param_subs)
        if interior is None:
            raise SolverError(
                f"optimum pins tiles {pinned} to the boundary; "
                "interior-only solve requested"
            )
        tiles = dict(interior.tiles)
        for name in capped:
            tiles[name] = sp.sympify(extents[name])
        notes.append(f"degenerate boundary point at {pinned}; interior optimum used")
        return ChiSolution(
            sp.simplify(interior.chi), tiles, tuple(capped), (), True, tuple(notes)
        )

    part: _PartSolution | None = None
    try:
        part = _exact_from_guidance(objective, constraint, numeric, pinned, param_subs)
        if part is None:
            notes.append("KKT reconstruction failed; using numeric fit")
    except SolverError as err:
        notes.append(f"{err}; using numeric fit")
    if part is None:
        if param_subs:
            raise SolverError(
                "numeric-fit fallback unavailable with symbolic coefficients"
            )
        part = _fit_from_numeric(objective, constraint, probe_x)

    tiles = dict(part.tiles)
    for name in capped:
        tiles[name] = sp.sympify(extents[name])
    return ChiSolution(
        sp.simplify(part.chi),
        tiles,
        tuple(capped),
        part.pinned,
        part.exact,
        tuple(notes),
    )


def bandwidth_bound_chi(
    variables: Sequence[str],
    objective: Sequence[tuple[sp.Expr, tuple[Fraction, ...]]],
    constraint: Sequence[tuple[sp.Expr, tuple[Fraction, ...]]],
    *,
    capped: Mapping[str, sp.Expr] | None = None,
    notes: Sequence[str] = (),
) -> ChiSolution | None:
    """Closed-form ``chi`` of the bandwidth-bound class, or ``None`` outside it.

    ``objective``/``constraint`` are ``(coefficient, exponent row)`` pairs
    over ``variables``, after capping; ``capped`` maps each capped tile to
    its extent.  The class: the objective is one monomial ``c*m``, the
    constraint has a term ``k*m`` with the same exponent row, and every
    other constraint term has strictly lower total degree.  Then ``c*m =
    (c/k)*(k*m) <= (c/k)*X`` on the whole feasible set, and the all-ones ray
    in log space (every tile ``t``, ``t -> oo``) attains it at leading
    order, because ``k*m`` outgrows every other term.  So ``chi = (c/k)*X``:
    alpha = 1 and X0 -> oo, the paper's bandwidth-bound case.  The ray is
    interior (no tile sits at its bound 1), so the answer also stands under
    ``allow_pinning=False``.  When ``m = v**p`` the saturated term fixes
    ``v = (X/k)**(1/p)``; otherwise the split of ``m`` among its tiles is
    free and, as in the KKT reconstruction, no tile closed form is given.
    """
    if len(objective) != 1:
        return None
    coeff, row = objective[0]
    degree = sum(row)
    budget = [k for k, other in constraint if other == row]
    if degree <= 0 or len(budget) != 1:
        return None
    if any(sum(other) >= degree for _, other in constraint if other != row):
        return None
    k = budget[0]
    tiles: dict[str, sp.Expr] = {}
    powered = [(name, exp) for name, exp in zip(variables, row) if exp != 0]
    if len(powered) == 1:
        name, power = powered[0]
        tiles[name] = (X_SYM / k) ** sp.Rational(power.denominator, power.numerator)
    capped = dict(capped or {})
    tiles.update(capped)
    return ChiSolution(
        coeff / k * X_SYM, tiles, tuple(capped), (), True, (*notes, CLOSED_FORM_NOTE)
    )


@dataclass
class _PartSolution:
    chi: sp.Expr
    tiles: dict[str, sp.Expr]
    pinned: tuple[str, ...]
    exact: bool


_NUMERIC_PARAM = sp.Float(1.0e5)


def _parameter_substitution(*posys: Posynomial) -> dict[sp.Symbol, sp.Expr]:
    symbols: set[sp.Symbol] = set()
    for posy in posys:
        for term in posy.terms:
            symbols |= sp.sympify(term.coeff).free_symbols
    return {s: _NUMERIC_PARAM for s in symbols}


def _substituted(posy: Posynomial, subs: Mapping[sp.Symbol, sp.Expr]) -> Posynomial:
    if not subs:
        return posy
    return Posynomial(
        [Monomial.make(t.coeff.subs(subs), t.powers_dict) for t in posy.terms]
    )


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


def _fit_from_numeric(
    objective: Posynomial,
    constraint: Posynomial,
    probe_x: float,
) -> _PartSolution:
    """Rational-exponent fit ``chi = C * X^alpha`` from two numeric solves."""
    x1, x2, x3 = probe_x, probe_x * 64.0, probe_x * 8.0
    s1 = solve_numeric(objective, constraint, x1)
    s2 = solve_numeric(objective, constraint, x2)
    alpha_f = (math.log(s2.objective_value) - math.log(s1.objective_value)) / (
        math.log(x2) - math.log(x1)
    )
    alpha = sp.nsimplify(alpha_f, rational=True, tolerance=1e-3)
    if sp.Rational(alpha).q > 12:
        raise SolverError(f"cannot rationalize chi exponent {alpha_f}")
    # Estimate the coefficient at the *largest* probe: lower-order chi terms
    # (and constraint slack) contaminate c(X) = chi(X)/X^alpha by O(X^(beta
    # - alpha)), so the far probe is an order of magnitude cleaner than the
    # near one (gemver's 2*c0*c1 + c0 | c0*c1 + 4*c0 + 3*c1, chi = 2*X:
    # 2.0e-4 rel error at X=1e9, 2.6e-5 at 64e9).
    coeff_f = s2.objective_value / x2 ** float(alpha)
    # When the coefficient is within probe noise of a small rational, the
    # rational is the answer (mpmath.identify would otherwise dress the
    # noise up as an exotic closed form: 5.00065 -> log(889/6)).  The 1e-4
    # gate sits well below the distance from genuine radical constants to
    # denominator<=24 rationals (the closest, 2/sqrt(3) vs 15/13, is 7.5e-4
    # away), so no such constant can mis-snap.
    snapped = Fraction(coeff_f).limit_denominator(24)
    if snapped > 0 and abs(float(snapped) - coeff_f) <= 1e-4 * abs(coeff_f):
        coeff = sp.Rational(snapped)
    else:
        try:
            coeff = sp.nsimplify(coeff_f, tolerance=1e-4, full=True)
        except (TypeError, ValueError):  # mpmath.identify can crash on edge inputs
            coeff = sp.nsimplify(coeff_f, rational=True, tolerance=1e-4)
    chi = coeff * X_SYM**alpha
    s3 = solve_numeric(objective, constraint, x3)
    predicted = float(coeff) * x3 ** float(alpha)
    if abs(predicted - s3.objective_value) > 0.05 * abs(s3.objective_value):
        raise SolverError("numeric chi fit failed cross-validation")
    return _PartSolution(chi, {}, (), False)
