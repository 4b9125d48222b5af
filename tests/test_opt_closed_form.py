"""The bandwidth-bound class of problem (8), solved in closed form.

The class: one objective monomial ``c*m`` whose exponent row is also a
constraint term ``k*m``, every other constraint term of strictly lower total
degree.  Then ``chi = (c/k)*X`` with no numeric probe at all.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import repro.opt.numeric as numeric
from repro.analysis import analyze_kernel
from repro.engine import Engine
from repro.obs import MetricsRegistry, Tracer
from repro.opt import ProblemIR, available_backends, get_backend
from repro.opt.kkt import CLOSED_FORM_NOTE, bandwidth_bound_chi, solve_chi
from repro.symbolic.symbols import X_SYM, tile
from repro.util.errors import SolverError
from tests.posynomial import Posynomial, problem_of

c0, c1 = tile("c0"), tile("c1")

#: deriche's canonical problems that used to stall SLSQP and need the
#: trust-constr rescue: (objective, constraint, chi)
DERICHE_RESCUES = [
    (2 * c0 * c1, c0 * c1 + 4 * c0, 2 * X_SYM),
    (3 * c0 * c1, c0 * c1 + 4 * c0, 3 * X_SYM),
    (2 * c0 * c1, 2 * c0 * c1 + 2 * c0, X_SYM),
]


class _NoScipy:
    """Stand-in for ``scipy.optimize``: any use fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"scipy.optimize.{name} used on a closed-form problem")


@pytest.mark.parametrize("obj,con,expected", DERICHE_RESCUES)
@pytest.mark.parametrize("backend", available_backends())
def test_deriche_problems_need_no_scipy(backend, obj, con, expected, monkeypatch):
    monkeypatch.setattr(numeric, "optimize", _NoScipy())
    problem = problem_of(
        Posynomial.from_expr(obj, [c0, c1]), Posynomial.from_expr(con, [c0, c1])
    )
    solution = get_backend(backend).solve(
        problem, allow_pinning=False, allow_caps=False
    )
    assert solution.chi == expected
    assert solution.tiles == {}
    assert solution.exact and solution.pinned == () and solution.capped == ()
    assert CLOSED_FORM_NOTE in solution.notes


def test_single_variable_monomial_gets_its_tile():
    row = (Fraction(2), Fraction(0))
    solution = bandwidth_bound_chi(
        ("i", "j"),
        [(sp.Integer(3), row)],
        [(sp.Integer(4), row), (sp.Integer(1), (Fraction(1), Fraction(0)))],
    )
    assert solution.chi == sp.Rational(3, 4) * X_SYM
    assert solution.tiles == {"i": sp.sqrt(X_SYM / 4)}


def test_caps_still_reject_before_the_shortcut():
    # after capping j the objective N*b_i is the constraint term b_i: the
    # class applies, but an interior-only solve must refuse the cap first
    N = sp.Symbol("N", positive=True)
    bi, bj = tile("i"), tile("j")
    problem = problem_of(
        Posynomial.from_expr(bi * bj, [bi, bj]), Posynomial.from_expr(bi, [bi]), {"j": N}
    )
    with pytest.raises(SolverError, match="interior-only"):
        solve_chi(problem, allow_caps=False)
    solution = solve_chi(problem)
    assert solution.chi == N * X_SYM
    assert solution.capped == ("j",)
    assert solution.tiles == {"i": X_SYM, "j": N}


def test_cold_deriche_makes_no_rescue():
    registry = MetricsRegistry()
    with Tracer(registry=registry):
        result = analyze_kernel("deriche", engine=Engine())
    assert result.shape_matches
    assert registry.counter_total("solver_rescues_total") == 0
    assert registry.counter_value("solver_closed_form_total", backend="exact") >= 3


# ---------------------------------------------------------------------------
# property: (c/k)*X bounds the objective and the all-ones ray attains it
# ---------------------------------------------------------------------------

_N_VARS = 3
_HALVES = st.integers(0, 4).map(lambda n: Fraction(n, 2))  # 0, 1/2, ..., 2


def _row(draw):
    return tuple(draw(_HALVES) for _ in range(_N_VARS))


@st.composite
def _class_instances(draw):
    row = _row(draw)
    if sum(row) == 0:
        row = (Fraction(1),) + row[1:]
    others = []
    for _ in range(draw(st.integers(0, 3))):
        other = _row(draw)
        if 0 < sum(other) < sum(row):
            others.append((draw(st.integers(1, 5)), other))
    c, k = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return c, k, row, others


def _value(coeff, row, log_tiles):
    return coeff * math.exp(sum(float(e) * x for e, x in zip(row, log_tiles)))


def _solve(c, k, row, others):
    names = tuple(f"v{idx}" for idx in range(_N_VARS))
    return bandwidth_bound_chi(
        names,
        [(sp.Integer(c), row)],
        [(sp.Integer(k), row)] + [(sp.Integer(o), r) for o, r in others],
    )


@given(instance=_class_instances(), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_closed_form_bounds_objective_and_is_attained(instance, seed):
    c, k, row, others = instance
    solution = _solve(c, k, row, others)
    assert solution is not None
    assert solution.chi == sp.Rational(c, k) * X_SYM
    bound = float(sp.Rational(c, k))

    def budget(log_tiles):
        return _value(k, row, log_tiles) + sum(
            _value(o, r, log_tiles) for o, r in others
        )

    # upper bound: every feasible point (tiles >= 1, constraint == X)
    rng = np.random.default_rng(seed)
    for log_tiles in rng.uniform(0.0, 8.0, size=(20, _N_VARS)):
        x_value = budget(log_tiles)
        assert _value(c, row, log_tiles) <= bound * x_value * (1 + 1e-12)

    # attainment: along the all-ones ray the ratio climbs to 1
    ratios = [
        _value(c, row, [s] * _N_VARS) / (bound * budget([s] * _N_VARS))
        for s in (2.0, 10.0, 40.0)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert 1 - 1e-5 < ratios[-1] <= 1 + 1e-12

    # the exact solver takes the same shortcut
    def terms(pairs):
        return [
            (tuple((f"v{idx}", e) for idx, e in enumerate(exponents) if e), coeff)
            for coeff, exponents in pairs
        ]

    exact = solve_chi(ProblemIR.from_terms(terms([(c, row)]), terms([(k, row)] + others)))
    assert exact.chi == solution.chi and CLOSED_FORM_NOTE in exact.notes


@given(instance=_class_instances(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_dominated_objective_is_declined(instance, data):
    c, k, row, others = instance
    rival = tuple(data.draw(_HALVES) for _ in range(_N_VARS))
    if rival == row or sum(rival) < sum(row):
        rival = tuple(e + Fraction(1, 2) for e in row)  # degree above m's
    assert _solve(c, k, row, others + [(1, rival)]) is None
