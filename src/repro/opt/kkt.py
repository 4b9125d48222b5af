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

The problem arrives as a :class:`~repro.opt.problem.ProblemIR` and stays
one: capping, the probe, the reconstruction and its checks all read the
exponent rows; sympy enters only through coefficients (a capped extent such
as ``N``) and the accepted ``chi`` and tiles.

The solver is *numerically guided*: a scipy solve of the same program (at a
large concrete ``X``, :mod:`repro.opt.numeric`) identifies the active
constraint terms, the surviving objective monomials, any variables pinned at
their lower bound ``b=1``, and the weights that fix the free unknowns of an
underdetermined (*).  The reconstruction after the probe is exact and builds
no sympy until it has decided: (*) and each ``mu`` decomposition are solved
over :class:`~fractions.Fraction` (:func:`repro.opt.problem.solve_rational`);
every value is a log-vector over generators -- ``X``, the integers of
``q_r/k_r`` and any non-numeric coefficient factor such as a capped extent
``N`` -- so the checks ``w_p * chi == u_p`` and (when all tiles have closed
forms) constraint == X at leading order compare rationals class by class,
and the tile system ``<e_r, log b> = log(m_r/k_r)`` is one row reduction
with a column per generator.  Sympy is built once, for an accepted ``chi``
and its tiles.  When exact reconstruction fails, a rational-exponent fit of
the numeric solution is returned with ``exact=False`` (re-verified at an
independent ``X``).

One class needs no probe at all: when the objective monomial is itself a
constraint term that dominates every other one, ``chi = (c/k)*X`` in closed
form (:func:`bandwidth_bound_chi`).

Variables absent from every constraint term are unconstrained by the
dominator budget and are capped at their full loop extents beforehand: the
objective's coefficients absorb the extents, and terms left over the same
tiles merge in first-appearance order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import sympy as sp

from repro.opt.numeric import NumericSolution, at_probe_parameters, solve_numeric
from repro.opt.problem import (
    _ZERO,
    ProblemIR,
    _row_reduce,
    fraction,
    rationalize,
    solve_rational,
)
from repro.symbolic.symbols import X_SYM
from repro.util.errors import SolverError

#: Bump when the solver's *capabilities* change (new reconstruction paths,
#: relaxed rejection rules, ...): persistent caches namespace every entry by
#: solver name + revision, so older-generation results are never replayed by
#: a newer solver.
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


def solve_chi(
    problem: ProblemIR,
    *,
    allow_pinning: bool = True,
    allow_caps: bool = True,
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
    """
    extents = problem.extents_dict()
    notes: list[str] = []

    # ---- cap variables the constraint cannot bound -------------------------
    constrained = {
        name for term in problem.constraint for name, _ in problem.powers(term)
    }
    capped: list[str] = []
    for name in problem.first_appearance(problem.objective):
        if name not in constrained:
            if extents.get(name) is None:
                raise SolverError(
                    f"variable {name} is unconstrained and has no extent cap"
                )
            capped.append(name)
    caps = {name: sp.sympify(extents[name]) for name in capped}
    if capped:
        if not allow_caps:
            raise SolverError(
                f"optimum requires capping tiles {capped} at full extents; "
                "interior-only solve requested"
            )
        problem = _capped(problem, caps)
        notes.append(f"capped {capped} at full extents")

    if not problem.constraint:
        # every objective tile is capped: each term is its coefficient
        chi = sp.simplify(sp.Add(*(problem.coeffs[t.coeff] for t in problem.objective)))
        return ChiSolution(chi, caps, tuple(capped), (), True, tuple(notes))

    closed = bandwidth_bound_chi(
        problem.variables,
        [(problem.coeffs[term.coeff], term.exponents) for term in problem.objective],
        [(problem.coeffs[term.coeff], term.exponents) for term in problem.constraint],
        capped=caps,
        notes=notes,
    )
    if closed is not None:
        return closed

    # Program parameters may appear in coefficients (capped extents); the
    # numeric probe substitutes a large common value -- the probe only guides
    # active-set selection, the exact algebra below keeps parameters symbolic.
    numeric = solve_numeric(problem, _PROBE_X)
    pinned = tuple(
        name for name, val in numeric.tile_values.items() if val < _PIN_TOLERANCE
    )
    if pinned and not allow_pinning:
        # A pinned tile may be a degenerate optimum (any budget split optimal,
        # SLSQP parked a tile at the boundary): accept iff an equivalent
        # interior stationary point reconstructs and verifies exactly.
        interior = _exact_from_guidance(problem, numeric, ())
        if interior is None:
            raise SolverError(
                f"optimum pins tiles {pinned} to the boundary; "
                "interior-only solve requested"
            )
        tiles = {**interior.tiles, **caps}
        notes.append(f"degenerate boundary point at {pinned}; interior optimum used")
        return ChiSolution(interior.chi, tiles, tuple(capped), (), True, tuple(notes))

    part: _PartSolution | None = None
    try:
        part = _exact_from_guidance(problem, numeric, pinned)
        if part is None:
            notes.append("KKT reconstruction failed; using numeric fit")
    except SolverError as err:
        notes.append(f"{err}; using numeric fit")
    if part is None:
        if any(coeff.free_symbols for coeff in problem.coeffs):
            raise SolverError(
                "numeric-fit fallback unavailable with symbolic coefficients"
            )
        part = _fit_from_numeric(problem)

    return ChiSolution(
        part.chi,
        {**part.tiles, **caps},
        tuple(capped),
        part.pinned,
        part.exact,
        tuple(notes),
    )


def _capped(problem: ProblemIR, caps: Mapping[str, sp.Expr]) -> ProblemIR:
    """``problem`` with each tile of ``caps`` fixed at its extent.

    A capped tile's power moves into the objective term's coefficient; terms
    left over the same tiles merge in first-appearance order, their
    coefficients multiplied out and summed by ``sp.expand``.
    """
    merged: dict[tuple, sp.Expr] = {}
    for term in problem.objective:
        coeff = problem.coeffs[term.coeff]
        powers = []
        for name, exp in problem.powers(term):
            if name in caps:
                coeff *= caps[name] ** sp.Rational(exp.numerator, exp.denominator)
            else:
                powers.append((name, exp))
        merged[tuple(powers)] = merged.get(tuple(powers), 0) + coeff
    return ProblemIR.from_terms(
        [(powers, sp.expand(coeff)) for powers, coeff in merged.items()],
        [
            (problem.powers(term), problem.coeffs[term.coeff])
            for term in problem.constraint
        ],
        problem.extents,
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


def _exact_from_guidance(
    problem: ProblemIR,
    numeric: NumericSolution,
    pinned: Sequence[str],
) -> _PartSolution | None:
    """Rebuild the optimum the probe found, exactly; ``None`` when it fails.

    Every decision is taken over :class:`~fractions.Fraction` and log-vectors
    (see the section after this function); sympy is built once, for an
    accepted ``chi`` and its tiles.  Live objective terms and active
    constraint terms keep their row order, and the free tiles come in name
    order: :func:`~repro.opt.problem.solve_rational` pivots left to right,
    so the probe's hints fill the same free unknowns on every run.
    """
    coeffs = problem.coeffs
    active_terms = [
        term for term, act in zip(problem.constraint, numeric.active) if act
    ]
    active_hints = [w for w, act in zip(numeric.dual_weights, numeric.active) if act]
    if not active_terms:
        return None

    # Keep only the objective monomials that survive at the optimum.
    obj_values = []
    for term in problem.objective:
        value = float(at_probe_parameters(coeffs[term.coeff])) * math.prod(
            numeric.tile_values[name] ** float(exp)
            for name, exp in problem.powers(term)
            if name in numeric.tile_values
        )
        obj_values.append(value)
    total_obj = sum(obj_values) or 1.0
    live = [val / total_obj > _OBJ_TOLERANCE for val in obj_values]
    live_monos = [t for t, keep in zip(problem.objective, live) if keep]
    live_hints = [val / total_obj for val, keep in zip(obj_values, live) if keep]
    if not live_monos:
        return None

    # Pinned tiles sit at 1 and drop out of every row.
    free_vars = sorted(
        {name for t in live_monos + active_terms for name, _ in problem.powers(t)}
        - set(pinned)
    )
    if not free_vars:
        return None
    columns = [problem.variables.index(name) for name in free_vars]
    obj_rows = [[t.exponents[col] for col in columns] for t in live_monos]
    con_rows = [[t.exponents[col] for col in columns] for t in active_terms]

    # Joint stationarity system over (w_p, y_r):
    #   per variable t:  sum_p a_pt w_p - sum_r e_rt y_r = 0
    #   normalization:   sum_p w_p = 1
    # Free unknowns (non-pivot columns, pivots taken left to right) come from
    # the probe's weights, rationalized to denominators <= 1000.
    n_obj, n_vars = len(obj_rows), len(free_vars)
    system = [
        [row[i] for row in obj_rows] + [-row[i] for row in con_rows]
        for i in range(n_vars)
    ]
    system.append([Fraction(1)] * n_obj + [_ZERO] * len(con_rows))
    rhs = [_ZERO] * n_vars + [Fraction(1)]
    wy = solve_rational(system, rhs, [rationalize(h) for h in live_hints + active_hints])
    if wy is None or any(value <= 0 for value in wy):
        return None
    w, y = wy[:n_obj], wy[n_obj:]

    # m_r / k_r with m_r = q_r * X, q_r = y_r / sum(y)
    total_y = sum(y)
    m_over_k = [
        sp.Rational(value / total_y) * X_SYM / coeffs[term.coeff]
        for value, term in zip(y, active_terms)
    ]
    ratios = [_log_terms(value) for value in m_over_k]

    # u_p = c_p * prod_r (m_r/k_r)^{mu_r}  with  sum_r mu_r e_r = a_p  (free
    # mu_r = 1/2).
    e_rows = [[row[i] for row in con_rows] for i in range(n_vars)]
    halves = [Fraction(1, 2)] * len(con_rows)
    mus = []
    u_parts = []
    for row, mono in zip(obj_rows, live_monos):
        mu = solve_rational(e_rows, row, halves)
        if mu is None:
            return None
        mus.append(mu)
        u_parts.append(
            _split(_combine(_log_terms(coeffs[mono.coeff]), *zip(ratios, mu)))
        )

    # Softmax identity w_p * chi == u_p: with every w_p rational, all u_p
    # share one class and their rational parts are the w_p shares.
    if len({cls for _, cls in u_parts}) != 1:
        return None
    total_u = sum(part for part, _ in u_parts)
    if any(part != w_p * total_u for (part, _), w_p in zip(u_parts, w)):
        return None

    logs = _recover_tile_logs(con_rows, ratios)
    if logs is None:
        # The chosen stationarity solution does not correspond to any tile
        # assignment (inconsistent log-linear system): reject -- accepting it
        # would report a chi no feasible point attains.
        return None
    tile_logs = {name: log for name, log in zip(free_vars, logs) if log is not None}
    for name in pinned:
        tile_logs[name] = {}

    # When every tile has a closed form, verify the constraint saturates X at
    # leading order.
    if all(name in tile_logs for name in free_vars) and not _saturates(
        problem, tile_logs
    ):
        return None

    # Build sympy along the products the algebra above names: sympy's radical
    # form depends on the factorization it is handed (``2**(1/7)*5**(2/7)``
    # and ``50**(1/7)`` are both left as they are).
    u_values = []
    for mono, mu in zip(live_monos, mus):
        u = coeffs[mono.coeff]
        for ratio, mu_r in zip(m_over_k, mu):
            if mu_r:
                u *= ratio ** sp.Rational(mu_r)
        u_values.append(u)
    chi = sp.Add(*u_values)
    if chi.free_symbols - {X_SYM}:
        # A symbolic coefficient (capped extents merged into a sum) takes the
        # form sympy's simplify gives it: simplify factors such sums
        # (10*N**2 + 5 -> 5*(2*N**2 + 1)) by rules no cheaper call repeats.
        chi = sp.simplify(chi)
    tiles = {name: _exp_of(log) for name, log in tile_logs.items()}
    return _PartSolution(chi, tiles, tuple(pinned), True)


# ---------------------------------------------------------------------------
# exact values as log-vectors
# ---------------------------------------------------------------------------
#
# A positive value is held as its logarithm the way sympy expands it,
# ``{generator: coefficient}`` (:func:`_log_terms`).  A generator is an int
# (the perfect-power root of an integer sympy keeps apart) or a sympy base:
# ``X``, a capped extent ``N``, a merged sum of extents.  Products add
# vectors and powers scale them (:func:`_combine`).  Equality and sums go
# through :func:`_split`, which factors the int generators into primes;
# primes and independent symbols are multiplicatively independent, so equal
# values split equally, and a sum of positive terms is fixed by the rational
# part of each class, because distinct classes are linearly independent over
# the rationals.  The tile system keeps the generators themselves as its
# right-hand columns, so it accepts and rejects exactly the systems
# ``sympy.linsolve`` accepts and rejects over ``log(m_r/k_r)``.

_LogVector = Mapping[object, Fraction]


def _log_terms(value: sp.Expr) -> dict[object, Fraction]:
    """``log(value)`` as sympy expands it, for a positive product ``value``.

    The int generators are the perfect-power roots of the integers sympy
    keeps apart: the numerator and denominator of the rational coefficient
    and each numeric radicand (``log(3*X/40)`` expands to ``log(X) + log(3)
    - log(40)``, ``log(X/8)`` to ``log(X) - 3*log(2)``).  Any other factor,
    a float included, is a generator of its own.
    """
    head, rest = value.as_coeff_Mul(rational=True)
    integers = [(int(head.p), Fraction(1)), (int(head.q), Fraction(-1))]
    log: dict[object, Fraction] = {}
    for factor in sp.Mul.make_args(rest):
        base, exp = factor.as_base_exp()
        if not exp.is_Rational:
            base, exp = factor, sp.Integer(1)
        power = fraction(exp)
        if base.is_Integer:
            integers.append((int(base), power))
        else:
            log[base] = log.get(base, _ZERO) + power
    for n, scale in integers:
        if n != 1:
            root = sp.perfect_power(n)
            base, power = (int(root[0]), root[1]) if root else (n, 1)
            log[base] = log.get(base, _ZERO) + scale * power
    return log


def _exp_of(log: _LogVector) -> sp.Expr:
    """The value whose log is ``log``, as sympy evaluates ``exp`` of the sum."""
    return sp.exp(
        sp.Add(
            *(
                sp.Rational(coeff) * sp.log(sp.Integer(g) if isinstance(g, int) else g)
                for g, coeff in log.items()
            )
        )
    )


def _combine(
    first: _LogVector, *scaled: tuple[_LogVector, Fraction]
) -> dict[object, Fraction]:
    """``first + sum(scale * vector)``, zero entries dropped."""
    out = dict(first)
    for vector, scale in scaled:
        for atom, exp in vector.items():
            out[atom] = out.get(atom, _ZERO) + scale * exp
    return {atom: exp for atom, exp in out.items() if exp}


def _split(log: _LogVector) -> tuple[Fraction, frozenset]:
    """``(rational part, class)`` of the value whose log is ``log``.

    Over primes, the integer part of each exponent moves into the rational;
    the fractional prime exponents and the symbolic generators are the class.
    """
    primes: dict[object, Fraction] = {}
    for generator, coeff in log.items():
        factors = (
            sp.factorint(generator).items()
            if isinstance(generator, int)
            else ((generator, 1),)
        )
        for atom, power in factors:
            primes[atom] = primes.get(atom, _ZERO) + coeff * power
    rational = Fraction(1)
    cls = []
    for atom, exp in primes.items():
        if isinstance(atom, int):
            whole = math.floor(exp)
            rational *= Fraction(atom) ** whole
            exp -= whole
        if exp:
            cls.append((atom, exp))
    return rational, frozenset(cls)


def _recover_tile_logs(
    con_rows: Sequence[Sequence[Fraction]], ratios: Sequence[_LogVector]
) -> list[dict[object, Fraction] | None] | None:
    """Solve ``<e_r, log b> = log(m_r/k_r)`` for the tile logs.

    One row reduction with a right-hand column per generator.  Returns the
    log of each uniquely determined tile and ``None`` for one a rank-deficient
    (but consistent) system leaves free -- chi does not depend on the split
    (module docstring).  Returns ``None`` overall when the system is
    *inconsistent*: the stationarity solution then matches no feasible tile
    assignment and the caller must reject it.
    """
    generators = list(dict.fromkeys(g for ratio in ratios for g in ratio))
    n_vars = len(con_rows[0])
    matrix = [
        list(row) + [ratio.get(g, _ZERO) for g in generators]
        for row, ratio in zip(con_rows, ratios)
    ]
    pivot_cols, rank = _row_reduce(matrix, n_vars)
    if any(any(row[n_vars:]) for row in matrix[rank:]):
        return None
    free_cols = [c for c in range(n_vars) if c not in pivot_cols]
    logs: list[dict[object, Fraction] | None] = [None] * n_vars
    for row, col in zip(matrix, pivot_cols):
        if not any(row[c] for c in free_cols):
            logs[col] = {g: c for g, c in zip(generators, row[n_vars:]) if c}
    return logs


def _saturates(problem: ProblemIR, tile_logs: Mapping[str, _LogVector]) -> bool:
    """Does the full constraint equal ``X`` at leading order under the tiles?

    A term whose tile is not determined keeps that tile's name as an opaque
    generator, so it never counts towards ``X``.
    """
    parts = []
    for term in problem.constraint:
        scaled = [
            (tile_logs.get(name, {name: Fraction(1)}), exp)
            for name, exp in problem.powers(term)
        ]
        parts.append(
            _split(_combine(_log_terms(problem.coeffs[term.coeff]), *scaled))
        )
    degree = {cls: dict(cls).get(X_SYM, _ZERO) for _, cls in parts}
    top = max(degree.values())
    leading = [(part, cls) for part, cls in parts if degree[cls] == top]
    x_class = frozenset({(X_SYM, Fraction(1))})
    return all(cls == x_class for _, cls in leading) and sum(
        part for part, _ in leading
    ) == 1


def _fit_from_numeric(problem: ProblemIR) -> _PartSolution:
    """Rational-exponent fit ``chi = C * X^alpha`` from two numeric solves."""
    x1, x2, x3 = _PROBE_X, _PROBE_X * 64.0, _PROBE_X * 8.0
    s1 = solve_numeric(problem, x1)
    s2 = solve_numeric(problem, x2)
    alpha_f = (math.log(s2.objective_value) - math.log(s1.objective_value)) / (
        math.log(x2) - math.log(x1)
    )
    alpha = rationalize(alpha_f)
    if alpha.denominator > 12:
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
    chi = coeff * X_SYM ** sp.Rational(alpha)
    s3 = solve_numeric(problem, x3)
    predicted = float(coeff) * x3 ** float(alpha)
    if abs(predicted - s3.objective_value) > 0.05 * abs(s3.objective_value):
        raise SolverError("numeric chi fit failed cross-validation")
    return _PartSolution(chi, {}, (), False)
