"""Optimization problem (8): numeric GP solver and exact KKT reconstruction."""

import math

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from repro.obs import MetricsRegistry, Tracer
from repro.opt.kkt import ChiSolution, degree_in_x, leading_in_x, solve_chi
from repro.opt.numeric import solve_numeric
from repro.opt.rho import compare_intensity, intensity_from_chi
from repro.opt.tiling import tiles_at_x0
from repro.symbolic.posynomial import Monomial, Posynomial
from repro.symbolic.symbols import S_SYM, X_SYM, tile
from repro.util.errors import SolverError

bi, bj, bk, bl, bt = tile("i"), tile("j"), tile("k"), tile("l"), tile("t")


def _posy(expr, variables):
    return Posynomial.from_expr(expr, variables)


class TestNumeric:
    def test_mmm_optimum(self):
        obj = _posy(bi * bj * bk, [bi, bj, bk])
        con = _posy(bi * bk + bk * bj + bi * bj, [bi, bj, bk])
        sol = solve_numeric(obj, con, 3e6)
        assert sol.objective_value == pytest.approx((1e6) ** 1.5, rel=1e-3)
        for value in sol.tile_values.values():
            assert value == pytest.approx(1e3, rel=1e-2)

    def test_active_set_detection(self):
        # Low-order term b_i is inactive at the optimum.
        obj = _posy(bi * bj, [bi, bj])
        con = _posy(bi * bj + bi, [bi, bj])
        registry = MetricsRegistry()
        with Tracer(registry=registry):
            sol = solve_numeric(obj, con, 1e8)
        # every SLSQP start stalls on this degenerate geometry: the
        # trust-constr rescue runs, and is counted
        assert registry.counter_total("solver_rescues_total") == 1
        degrees = {tuple(sorted(v.name for v in t.variables())): a for t, a in zip(con.terms, sol.active)}
        assert degrees[("b_i", "b_j")] is True
        assert degrees[("b_i",)] is False

    def test_rejects_empty_constraint(self):
        with pytest.raises(SolverError):
            solve_numeric(_posy(bi, [bi]), Posynomial(()), 1e6)

    def test_rejects_nonpositive_coefficients(self):
        con = Posynomial([Monomial.make(-1, {bi: 1})])
        with pytest.raises(SolverError):
            solve_numeric(_posy(bi, [bi]), con, 1e6)


class TestSolveChiCanonical:
    def test_mmm(self):
        sol = solve_chi(
            _posy(bi * bj * bk, [bi, bj, bk]),
            _posy(bi * bk + bk * bj + bi * bj, [bi, bj, bk]),
        )
        assert sol.exact
        assert sp.simplify(sol.chi - sp.sqrt(3) * X_SYM ** sp.Rational(3, 2) / 9) == 0
        for expr in sol.tiles.values():
            assert sp.simplify(expr - sp.sqrt(X_SYM / 3)) == 0

    def test_linear_alpha_one(self):
        sol = solve_chi(_posy(2 * bi * bj, [bi, bj]), _posy(bi * bj, [bi, bj]))
        assert sp.simplify(sol.chi - 2 * X_SYM) == 0

    def test_coupled_budget_split(self):
        # gesummv shape: separate matrices must share the budget (rho = 1).
        obj = _posy(bi * bj + bi * bl, [bi, bj, bl])
        con = _posy(bi * bj + bi * bl, [bi, bj, bl])
        sol = solve_chi(obj, con)
        assert sp.simplify(sol.chi - X_SYM) == 0

    def test_stencil_surface(self):
        sol = solve_chi(_posy(2 * bi * bt, [bi, bt]), _posy(2 * bt + bi, [bi, bt]))
        assert sp.simplify(sol.chi - X_SYM**2 / 4) == 0

    def test_capping_unconstrained_variable(self):
        N = sp.Symbol("N", positive=True)
        sol = solve_chi(
            _posy(bi * bj, [bi, bj]),
            _posy(bi, [bi]),
            {"j": N},
        )
        assert "j" in sol.capped
        assert sp.simplify(sol.chi - N * X_SYM) == 0

    def test_capping_requires_extent(self):
        with pytest.raises(SolverError):
            solve_chi(_posy(bi * bj, [bi, bj]), _posy(bi, [bi]), {})

    def test_interior_only_rejects_caps(self):
        N = sp.Symbol("N", positive=True)
        with pytest.raises(SolverError):
            solve_chi(
                _posy(bi * bj, [bi, bj]),
                _posy(bi, [bi]),
                {"j": N},
                allow_caps=False,
            )

    def test_interior_only_rejects_true_boundary(self):
        # max b_i*b_j*b_k s.t. b_i*b_k + b_i*b_j: stationarity forces a pin.
        obj = _posy(bi * bj * bk, [bi, bj, bk])
        con = _posy(bi * bk + bi * bj, [bi, bj, bk])
        with pytest.raises(SolverError):
            solve_chi(obj, con, {"i": sp.Symbol("N", positive=True)}, allow_pinning=False)

    def test_degenerate_boundary_recovers_interior(self):
        # alpha = 1 with underdetermined split: SLSQP may pin a tile, but an
        # equivalent interior optimum exists and must be used.
        obj = _posy(4 * bi * bj * bk, [bi, bj, bk])
        con = _posy(bi * bj * bk, [bi, bj, bk])
        sol = solve_chi(obj, con, allow_pinning=False)
        assert sp.simplify(sol.chi - 4 * X_SYM) == 0

    def test_degree_helpers(self):
        expr = 3 * X_SYM ** sp.Rational(3, 2) + X_SYM
        assert degree_in_x(expr) == sp.Rational(3, 2)
        assert sp.simplify(leading_in_x(expr) - 3 * X_SYM ** sp.Rational(3, 2)) == 0


class TestIntensity:
    def test_mmm_rho(self):
        sol = ChiSolution(chi=sp.sqrt(3) * X_SYM ** sp.Rational(3, 2) / 9)
        res = intensity_from_chi(sol)
        assert sp.simplify(res.rho - sp.sqrt(S_SYM) / 2) == 0
        assert sp.simplify(res.x0 - 3 * S_SYM) == 0

    def test_alpha_one_rho_is_coefficient(self):
        res = intensity_from_chi(ChiSolution(chi=2 * X_SYM))
        assert res.rho == 2
        assert res.x0 is sp.oo

    def test_alpha_two(self):
        res = intensity_from_chi(ChiSolution(chi=X_SYM**2 / 4))
        assert sp.simplify(res.x0 - 2 * S_SYM) == 0
        assert sp.simplify(res.rho - S_SYM) == 0

    def test_sublinear_rejected(self):
        with pytest.raises(SolverError):
            intensity_from_chi(ChiSolution(chi=sp.sqrt(X_SYM)))

    def test_rho_value_numeric(self):
        res = intensity_from_chi(ChiSolution(chi=X_SYM**2 / 4))
        assert res.rho_value(64) == pytest.approx(64.0)

    def test_compare_intensity_orders_growth(self):
        assert compare_intensity(S_SYM, sp.sqrt(S_SYM)) == 1
        assert compare_intensity(sp.sqrt(S_SYM), S_SYM) == -1
        assert compare_intensity(S_SYM / 2, S_SYM / 2) == 0
        assert compare_intensity(2 * S_SYM, S_SYM) == 1

    def test_compare_intensity_constants(self):
        assert compare_intensity(sp.Integer(3), sp.Integer(2)) == 1

    def test_tiles_at_x0(self):
        sol = solve_chi(
            _posy(bi * bj * bk, [bi, bj, bk]),
            _posy(bi * bk + bk * bj + bi * bj, [bi, bj, bk]),
        )
        res = intensity_from_chi(sol)
        tiles = tiles_at_x0(res)
        for expr in tiles.values():
            assert sp.simplify(expr - sp.sqrt(S_SYM)) == 0


# ---------------------------------------------------------------------------
# property-based: exact chi always matches an independent numeric solve
# ---------------------------------------------------------------------------

_var_pool = [bi, bj, bk]


@st.composite
def _gp_instances(draw):
    n_terms = draw(st.integers(2, 4))
    terms = []
    for _ in range(n_terms):
        exponents = {
            v: draw(st.integers(0, 1)) for v in _var_pool
        }
        if not any(exponents.values()):
            exponents[bi] = 1
        coeff = draw(st.integers(1, 3))
        terms.append(Monomial.make(coeff, exponents))
    constraint = Posynomial(terms)
    # Objective: product of every variable appearing in the constraint.
    obj_powers = {v: 1 for v in constraint.variables()}
    objective = Posynomial([Monomial.make(1, obj_powers)])
    return objective, constraint


@given(instance=_gp_instances())
@settings(max_examples=25, deadline=None)
def test_chi_matches_numeric_optimum(instance):
    objective, constraint = instance
    try:
        sol = solve_chi(objective, constraint)
    except SolverError:
        return  # fit rejected: nothing to check
    x_val = 1e8
    numeric = solve_numeric(objective, constraint, x_val)
    symbolic_value = float(sol.chi.subs(X_SYM, x_val))
    assert math.isclose(symbolic_value, numeric.objective_value, rel_tol=2e-2)
