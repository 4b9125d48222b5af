"""Optimization problem (8): numeric GP solver and exact KKT reconstruction."""

import hashlib
import json
import math
from collections import Counter
from unittest.mock import patch

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from repro.engine.signature import canonicalize_ir
from repro.kernels import get_kernel, kernel_names
from repro.obs import MetricsRegistry, Tracer
from repro.opt import kkt
from repro.opt.kkt import CLOSED_FORM_NOTE, ChiSolution, solve_chi
from repro.opt.numeric import NumericSolution, _probe_inputs, solve_numeric
from repro.opt.rho import intensity_from_chi, intensity_order
from repro.opt.tiling import tiles_at_x0
from repro.sdg.graph import SDG
from repro.sdg.merge import fuse_statements
from repro.sdg.subgraphs import enumerate_subgraphs
from repro.symbolic.symbols import S_SYM, X_SYM, tile
from repro.util.errors import SolverError
from tests.kkt_reference import (
    degree_in_x,
    leading_in_x,
    reference_exact_from_guidance,
)
from tests.posynomial import Monomial, Posynomial, problem_of

bi, bj, bk, bl, bt = tile("i"), tile("j"), tile("k"), tile("l"), tile("t")


def _posy(expr, variables):
    return Posynomial.from_expr(expr, variables)


def _chi(objective, constraint, extents=None, **flags):
    return solve_chi(problem_of(objective, constraint, extents), **flags)


class TestNumeric:
    def test_mmm_optimum(self):
        obj = _posy(bi * bj * bk, [bi, bj, bk])
        con = _posy(bi * bk + bk * bj + bi * bj, [bi, bj, bk])
        sol = solve_numeric(problem_of(obj, con), 3e6)
        assert sol.objective_value == pytest.approx((1e6) ** 1.5, rel=1e-3)
        for value in sol.tile_values.values():
            assert value == pytest.approx(1e3, rel=1e-2)

    def test_active_set_detection(self):
        # Low-order term b_i is inactive at the optimum.
        obj = _posy(bi * bj, [bi, bj])
        con = _posy(bi * bj + bi, [bi, bj])
        registry = MetricsRegistry()
        with Tracer(registry=registry):
            sol = solve_numeric(problem_of(obj, con), 1e8)
        # every SLSQP start stalls on this degenerate geometry: the
        # trust-constr rescue runs, and is counted
        assert registry.counter_total("solver_rescues_total") == 1
        degrees = {tuple(sorted(v.name for v in t.variables())): a for t, a in zip(con.terms, sol.active)}
        assert degrees[("b_i", "b_j")] is True
        assert degrees[("b_i",)] is False

    def test_rejects_empty_constraint(self):
        with pytest.raises(SolverError):
            solve_numeric(problem_of(_posy(bi, [bi]), Posynomial(())), 1e6)

    def test_rejects_nonpositive_coefficients(self):
        con = Posynomial([Monomial.make(-1, {bi: 1})])
        with pytest.raises(SolverError):
            solve_numeric(problem_of(_posy(bi, [bi]), con), 1e6)


class TestSolveChiCanonical:
    def test_mmm(self):
        sol = _chi(
            _posy(bi * bj * bk, [bi, bj, bk]),
            _posy(bi * bk + bk * bj + bi * bj, [bi, bj, bk]),
        )
        assert sol.exact
        assert sp.simplify(sol.chi - sp.sqrt(3) * X_SYM ** sp.Rational(3, 2) / 9) == 0
        for expr in sol.tiles.values():
            assert sp.simplify(expr - sp.sqrt(X_SYM / 3)) == 0

    def test_linear_alpha_one(self):
        sol = _chi(_posy(2 * bi * bj, [bi, bj]), _posy(bi * bj, [bi, bj]))
        assert sp.simplify(sol.chi - 2 * X_SYM) == 0

    def test_coupled_budget_split(self):
        # gesummv shape: separate matrices must share the budget (rho = 1).
        obj = _posy(bi * bj + bi * bl, [bi, bj, bl])
        con = _posy(bi * bj + bi * bl, [bi, bj, bl])
        sol = _chi(obj, con)
        assert sp.simplify(sol.chi - X_SYM) == 0

    def test_stencil_surface(self):
        sol = _chi(_posy(2 * bi * bt, [bi, bt]), _posy(2 * bt + bi, [bi, bt]))
        assert sp.simplify(sol.chi - X_SYM**2 / 4) == 0

    def test_capping_unconstrained_variable(self):
        N = sp.Symbol("N", positive=True)
        sol = _chi(
            _posy(bi * bj, [bi, bj]),
            _posy(bi, [bi]),
            {"j": N},
        )
        assert "j" in sol.capped
        assert sp.simplify(sol.chi - N * X_SYM) == 0

    def test_capping_requires_extent(self):
        with pytest.raises(SolverError):
            _chi(_posy(bi * bj, [bi, bj]), _posy(bi, [bi]), {})

    def test_interior_only_rejects_caps(self):
        N = sp.Symbol("N", positive=True)
        with pytest.raises(SolverError):
            _chi(
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
            _chi(obj, con, {"i": sp.Symbol("N", positive=True)}, allow_pinning=False)

    def test_degenerate_boundary_recovers_interior(self):
        # alpha = 1 with underdetermined split: SLSQP may pin a tile, but an
        # equivalent interior optimum exists and must be used.
        obj = _posy(4 * bi * bj * bk, [bi, bj, bk])
        con = _posy(bi * bj * bk, [bi, bj, bk])
        sol = _chi(obj, con, allow_pinning=False)
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
        assert intensity_order(S_SYM, sp.sqrt(S_SYM)) == 1
        assert intensity_order(sp.sqrt(S_SYM), S_SYM) == -1
        assert intensity_order(S_SYM / 2, S_SYM / 2) == 0
        assert intensity_order(2 * S_SYM, S_SYM) == 1

    def test_compare_intensity_constants(self):
        assert intensity_order(sp.Integer(3), sp.Integer(2)) == 1

    def test_tiles_at_x0(self):
        sol = _chi(
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
        sol = _chi(objective, constraint)
    except SolverError:
        return  # fit rejected: nothing to check
    x_val = 1e8
    numeric = solve_numeric(problem_of(objective, constraint), x_val)
    symbolic_value = float(sol.chi.subs(X_SYM, x_val))
    assert math.isclose(symbolic_value, numeric.objective_value, rel_tol=2e-2)


# ---------------------------------------------------------------------------
# the rational reconstruction against the sympy one it replaced
# ---------------------------------------------------------------------------

#: sha256 of the sorted ``[signature, outcome]`` rows of the corpus's 193
#: distinct canonical problems, tiles left out (:func:`_without_tiles`),
#: solved by the sympy reconstruction
CORPUS_OUTCOME_DIGEST = (
    "44b6a844e73c16b6a736c9f5b1b2bfa7478d971a7a76a7b22abbc59cc7355075"
)

#: sha256 of the sorted ``[signature, probe inputs]`` rows of the same 193
#: problems: every ``solve_numeric`` call's columns, coefficients and
#: exponent rows (:func:`_probe_input`)
CORPUS_PROBE_DIGEST = (
    "f6908819b0b0689c935d9564cd16004d5cc9c4c8892ce48826fbe854f7d18a0b"
)


def _outcome(solve):
    """srepr of everything a solve reports, or the rejection text."""
    try:
        solution = solve()
    except SolverError as err:
        return str(err)
    return [
        sp.srepr(solution.chi),
        sorted((name, sp.srepr(value)) for name, value in solution.tiles.items()),
        list(solution.capped),
        list(solution.pinned),
        solution.exact,
        list(solution.notes),
    ]


def _without_tiles(outcome):
    return outcome if isinstance(outcome, str) else [outcome[0], *outcome[2:]]


def _outcome_class(outcome) -> str:
    if isinstance(outcome, str):
        return "cap" if "capping" in outcome else "pin" if "pins tiles" in outcome else outcome
    notes = outcome[5]
    if CLOSED_FORM_NOTE in notes:
        return "closed form"
    if not outcome[4]:
        return "fitted"
    if any(note.startswith("degenerate boundary point") for note in notes):
        return "degenerate interior"
    return "exact"


def _probe_input(problem, x_value):
    """What one probe is handed, exactly: its columns in order, each
    coefficient and exponent as ``float.hex``, and ``X``."""
    columns, c_obj, a_obj, k_con, e_con = _probe_inputs(problem)
    return [
        columns,
        [float(c).hex() for c in c_obj],
        [[float(e).hex() for e in row] for row in a_obj],
        [float(c).hex() for c in k_con],
        [[float(e).hex() for e in row] for row in e_con],
        float(x_value).hex(),
    ]


def _solve_recorded(problem, allow_pinning, allow_caps=True):
    """``(outcome, probes, probe inputs)`` of one solve, every probe recorded."""
    probes, inputs = [], []

    def recording(problem, x_value):
        inputs.append(_probe_input(problem, x_value))
        probes.append(solve_numeric(problem, x_value))
        return probes[-1]

    with patch.object(kkt, "solve_numeric", recording):
        outcome = _outcome(
            lambda: solve_chi(
                problem, allow_pinning=allow_pinning, allow_caps=allow_caps
            )
        )
    return outcome, probes, inputs


def _reference_outcome(problem, probes, allow_pinning, allow_caps=True):
    """The sympy reconstruction's outcome on the probes a rational run
    recorded (the guiding probe and the numeric fit's, in order)."""
    probes = list(probes)

    def replaying(*args):
        return probes.pop(0) if probes else solve_numeric(*args)

    with (
        patch.object(kkt, "_exact_from_guidance", reference_exact_from_guidance),
        patch.object(kkt, "solve_numeric", replaying),
    ):
        return _outcome(
            lambda: solve_chi(
                problem, allow_pinning=allow_pinning, allow_caps=allow_caps
            )
        )


def _assert_matches_reference(problem, allow_pinning, allow_caps=True):
    """Given the same probe, the rational reconstruction and the sympy one
    report srepr-identical outcomes (chi, tiles, caps, pins, exactness and
    notes) or the same rejection; returns the outcome."""
    outcome, probes, _ = _solve_recorded(problem, allow_pinning, allow_caps)
    assert outcome == _reference_outcome(problem, probes, allow_pinning, allow_caps)
    return outcome


@pytest.fixture(scope="module")
def corpus_solves():
    """``signature -> (problem, allow, outcome, probes, probe inputs)`` of
    every distinct canonical problem of the corpus, solved as the ``exact``
    backend solves it under its kernel's Table 2 options."""
    problems = {}
    for name in kernel_names():
        spec = get_kernel(name)
        program = spec.build()
        sharing = SDG.from_program(program).sharing_graph()
        for subset in enumerate_subgraphs(sharing, max_size=spec.max_subgraph_size):
            try:
                fused = fuse_statements(program, subset, policy=spec.policy)
            except SolverError:
                continue
            canonical = canonicalize_ir(
                fused.problem,
                allow_pinning=spec.allow_pinning,
                allow_caps=spec.allow_pinning,
            )
            problems.setdefault(
                canonical.signature, (canonical.problem, spec.allow_pinning)
            )
    return {
        signature: (problem, allow, *_solve_recorded(problem, allow, allow))
        for signature, (problem, allow) in problems.items()
    }


def test_corpus_outcomes_match_the_sympy_reference(corpus_solves):
    """Every distinct canonical problem of the corpus reports what the sympy
    reconstruction reports on the same probe.

    Tiles are compared on a shared probe only: the probe's weights pick some
    of them (2mm, mlp, bert-ffn), so another SLSQP build may move them along
    an optimal face.  The digest pins the rest -- chi, caps, pins, exactness,
    notes and rejection texts -- whatever ``PYTHONHASHSEED`` is; it rests on
    sympy's srepr of chi and on the probe's active sets."""
    rows = []
    for signature, (problem, allow, outcome, probes, _) in corpus_solves.items():
        assert outcome == _reference_outcome(problem, probes, allow, allow), signature
        rows.append([signature, outcome])
    rows.sort()
    assert len(rows) == 193
    assert Counter(_outcome_class(outcome) for _, outcome in rows) == {
        "closed form": 70,
        "exact": 42,
        "degenerate interior": 20,
        "fitted": 4,
        "cap": 7,
        "pin": 50,
    }
    pinned = [[signature, _without_tiles(outcome)] for signature, outcome in rows]
    digest = hashlib.sha256(json.dumps(pinned).encode("utf-8")).hexdigest()
    assert digest == CORPUS_OUTCOME_DIGEST


def test_corpus_probe_inputs_are_pinned(corpus_solves):
    """Every probe the corpus solves make is handed the same columns, in the
    same order, and the same coefficients and exponent rows, whatever
    ``PYTHONHASHSEED`` is.  The digest reads no scipy result, so it cannot
    drift with SLSQP's numerics; it still catches an input change that
    moves only tiles (2mm's ``k``/``l``), which the tile-free outcome digest
    misses."""
    rows = sorted(
        [signature, inputs]
        for signature, (*_, inputs) in corpus_solves.items()
    )
    assert sum(len(inputs) for _, inputs in rows) > 0
    digest = hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()
    assert digest == CORPUS_PROBE_DIGEST


_EXPONENTS = (0, sp.Rational(1, 2), 1, 2)
_EXTENT = sp.Symbol("N", positive=True)


@st.composite
def _kkt_problems(draw):
    """Small problems whose coefficients 1-12 and half exponents put radicals
    of 2, 3, 5, 7 and 11 into chi.  ``pinned``: the last tile is in the
    constraint only, so the optimum pins it at 1.  ``capped``: the last tile
    is in the objective only and is capped at a symbolic extent."""
    n_tiles = draw(st.integers(2, 4))
    names = "ijkl"[:n_tiles]
    symbols = [tile(name) for name in names]
    mode = draw(st.sampled_from(("plain", "pinned", "capped")))
    constrained = symbols[:-1] if mode == "capped" else symbols
    rewarded = symbols[:-1] if mode == "pinned" else symbols

    def monomial(pool):
        powers = {v: draw(st.sampled_from(_EXPONENTS)) for v in pool}
        if not any(powers.values()):
            powers[draw(st.sampled_from(pool))] = 1
        return Monomial.make(draw(st.integers(1, 12)), powers)

    constraint = Posynomial([monomial(constrained) for _ in range(draw(st.integers(2, 5)))])
    objective = Posynomial([monomial(rewarded) for _ in range(draw(st.integers(1, 3)))])
    extents = {names[-1]: _EXTENT} if mode == "capped" else {}
    return problem_of(objective, constraint, extents), draw(st.booleans())


@given(problem=_kkt_problems())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_reconstruction_matches_the_sympy_reference(problem):
    _assert_matches_reference(*problem)


@pytest.mark.parametrize(
    "objective, constraint",
    [
        (sp.Float(0.5) * bi * bj, bi + bj),
        (bi * bj, sp.Float(1.5) * bi + bj),
    ],
)
def test_float_coefficients_match_the_sympy_reference(objective, constraint):
    """A float coefficient is a log generator of its own."""
    _assert_matches_reference(
        problem_of(_posy(objective, [bi, bj]), _posy(constraint, [bi, bj])), True
    )


def test_unsaturated_constraint_rejects():
    """Tiles that leave a leading-order constraint term out of ``X`` are
    rejected, as the sympy reconstruction rejected them: a probe that calls
    ``2*b_i`` active and ``b_i**2`` slack reconstructs ``b_i = X/2``, under
    which the constraint grows as ``X**2/4``."""
    problem = problem_of(
        Posynomial([Monomial.make(1, {bi: 1})]),
        Posynomial([Monomial.make(2, {bi: 1}), Monomial.make(1, {bi: 2})]),
    )

    def probe(active, duals):
        return NumericSolution(
            variables=("i",),
            tile_values={"i": 3.0e4},
            objective_value=3.0e4,
            constraint_terms=(6.0e4, 9.0e8),
            active=active,
            dual_weights=duals,
        )

    wrong = probe((True, False), (1.0, 0.0))
    assert kkt._exact_from_guidance(problem, wrong, ()) is None
    assert reference_exact_from_guidance(problem, wrong, ()) is None
    right = probe((False, True), (0.0, 1.0))
    part = kkt._exact_from_guidance(problem, right, ())
    assert part.chi == reference_exact_from_guidance(problem, right, ()).chi
    assert sp.srepr(part.tiles["i"]) == sp.srepr(sp.sqrt(X_SYM))
