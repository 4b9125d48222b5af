"""Solver backends: registry, equivalence, cross-check, engine threading."""

import time

import pytest
import sympy as sp

from repro import faults
from repro.analysis import analyze_kernel
from repro.engine import Engine, analyze_many
from repro.faults import FaultPlan, FaultSpec
from repro.obs import MetricsRegistry, Tracer
from repro.opt import ProblemIR, available_backends, get_backend
from repro.opt.kkt import ChiSolution
from repro.opt.backends.crosscheck import MISMATCH_PREFIX, _leading_mismatch
from repro.symbolic.posynomial import Posynomial
from repro.symbolic.symbols import X_SYM, tile
from repro.util.errors import SolverError

N = sp.Symbol("N", positive=True)
bi, bj, bk, bl = tile("i"), tile("j"), tile("k"), tile("l")


def _ir(obj, con, variables, extents=None):
    return ProblemIR.from_posynomials(
        Posynomial.from_expr(obj, variables),
        Posynomial.from_expr(con, variables),
        extents or {},
    )


class TestRegistry:
    def test_all_backends_registered(self):
        assert set(available_backends()) >= {"exact", "numeric-first", "cross-check"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(SolverError):
            get_backend("annealing")
        with pytest.raises(SolverError):
            Engine(solver="annealing")

    def test_cache_tags_namespace_backends(self):
        tags = {get_backend(name).cache_tag() for name in available_backends()}
        assert len(tags) == len(available_backends())


SOLVE_CASES = [
    # (objective, constraint, expected chi)
    (bi * bj * bk, bi * bk + bk * bj + bi * bj, sp.sqrt(3) * X_SYM ** sp.Rational(3, 2) / 9),
    (2 * bi * bj, bi * bj, 2 * X_SYM),
    (bi * bj + bi * bl, bi * bj + bi * bl, X_SYM),
    (2 * bi * bk, 2 * bk + bi, X_SYM**2 / 4),
]


class TestBackendEquivalence:
    @pytest.mark.parametrize("obj,con,expected", SOLVE_CASES)
    @pytest.mark.parametrize("backend", ["exact", "numeric-first", "cross-check"])
    def test_canonical_problems(self, backend, obj, con, expected):
        variables = [bi, bj, bk, bl]
        solution = get_backend(backend).solve(
            _ir(obj, con, variables), allow_pinning=False, allow_caps=False
        )
        assert sp.simplify(solution.chi - expected) == 0

    def test_capping_matches_exact(self):
        ir = _ir(bi * bj, bi, [bi, bj], {"j": N, "i": N})
        for backend in ("exact", "numeric-first"):
            solution = get_backend(backend).solve(
                ir, allow_pinning=True, allow_caps=True
            )
            assert sp.simplify(solution.chi - N * X_SYM) == 0
            assert solution.capped == ("j",)

    def test_missing_extent_rejected_by_both(self):
        ir = _ir(bi * bj, bi, [bi, bj], {})
        for backend in ("exact", "numeric-first"):
            with pytest.raises(SolverError, match="no extent cap"):
                get_backend(backend).solve(ir, allow_pinning=True, allow_caps=True)

    def test_interior_only_cap_rejection_matches(self):
        ir = _ir(bi * bj, bi, [bi, bj], {"j": N})
        for backend in ("exact", "numeric-first"):
            with pytest.raises(SolverError, match="interior-only"):
                get_backend(backend).solve(ir, allow_pinning=False, allow_caps=False)

    def test_numeric_first_defers_tile_closed_forms(self):
        solution = get_backend("numeric-first").solve(
            _ir(bi * bj * bk, bi * bk + bk * bj + bi * bj, [bi, bj, bk]),
            allow_pinning=False,
            allow_caps=False,
        )
        assert solution.exact
        assert solution.tiles == {}  # deferred: nothing downstream needs them
        assert any("numeric-first" in note for note in solution.notes)


class TestCrossCheck:
    def test_agreement_returns_exact_solution_with_note(self):
        solution = get_backend("cross-check").solve(
            _ir(bi * bj * bk, bi * bk + bk * bj + bi * bj, [bi, bj, bk]),
            allow_pinning=False,
            allow_caps=False,
        )
        assert any("cross-check" in note for note in solution.notes)
        assert solution.tiles  # exact's verified tile closed forms survive

    def test_leading_mismatch_detection(self):
        assert _leading_mismatch(2 * X_SYM, 2 * X_SYM) is None
        # equivalent forms of the same constant agree
        assert (
            _leading_mismatch(
                sp.sqrt(3) / 9 * X_SYM ** sp.Rational(3, 2),
                sp.Integer(3) ** sp.Rational(-3, 2) * X_SYM ** sp.Rational(3, 2),
            )
            is None
        )
        # lower-order differences are ignored
        assert _leading_mismatch(2 * X_SYM**2 + X_SYM, 2 * X_SYM**2) is None
        assert "alpha differs" in _leading_mismatch(X_SYM**2, X_SYM)
        assert "coefficient differs" in _leading_mismatch(3 * X_SYM, 2 * X_SYM)

    def test_consistent_rejection_reports_reference_error(self):
        ir = _ir(bi * bj, bi, [bi, bj], {})
        with pytest.raises(SolverError) as excinfo:
            get_backend("cross-check").solve(ir, allow_pinning=True, allow_caps=True)
        assert not str(excinfo.value).startswith(MISMATCH_PREFIX)


class TestBatchLoop:
    """Every backend's batch goes through the same deadline/fault/span loop."""

    @pytest.mark.parametrize("backend", ["exact", "numeric-first"])
    def test_expired_deadline_stops_batch_before_second_problem(
        self, backend, monkeypatch
    ):
        solver = get_backend(backend)
        deadline = faults.Deadline.after(0.2)
        solved = []

        def solve_past_deadline(problem, **_):
            solved.append(problem)
            time.sleep(deadline.remaining() + 0.01)
            return ChiSolution(X_SYM)

        monkeypatch.setattr(solver, "solve", solve_past_deadline)
        problems = [_ir(2 * bi * bj, bi * bj, [bi, bj]), _ir(bi * bk, bi + bk, [bi, bk])]
        with faults.deadline_scope(deadline):
            with pytest.raises(faults.DeadlineExceeded) as err:
                solver.solve_batch(problems, allow_pinning=False, allow_caps=False)
        assert err.value.stage == "solve"
        assert len(solved) == 1

    @pytest.mark.parametrize("backend", ["exact", "numeric-first"])
    def test_solver_solve_fault_site_fires(self, backend):
        plan = FaultPlan(
            seed=1,
            specs=[FaultSpec(site="solver.solve", error="solver", at=(1,))],
        )
        problems = [_ir(2 * bi * bj, bi * bj, [bi, bj])] * 2
        with faults.plan_scope(plan):
            results = get_backend(backend).solve_batch(
                problems, allow_pinning=False, allow_caps=False
            )
            fired = faults.snapshot()["sites"]["solver.solve"]["fired"]
        assert fired == 1
        assert sum(isinstance(r, SolverError) for r in results) == 1
        assert sum(isinstance(r, ChiSolution) for r in results) == 1

    def test_span_and_registry_count_closed_forms(self):
        registry = MetricsRegistry()
        tracer = Tracer(keep_spans=True, registry=registry)
        problems = [
            _ir(2 * bi * bj, bi * bj + bi, [bi, bj]),  # closed form
            _ir(bi * bj * bk, bi * bk + bk * bj + bi * bj, [bi, bj, bk]),
        ]
        with tracer:
            get_backend("numeric-first").solve_batch(
                problems, allow_pinning=False, allow_caps=False
            )
        (batch,) = [s for s in tracer.spans if s["name"] == "solver.solve-batch"]
        assert batch["counters"]["solved"] == 2
        assert batch["counters"]["closed_form"] == 1
        assert batch["counters"]["rescues"] == 0
        assert "fallbacks" in batch["counters"]
        assert registry.counter_by_label("solver_closed_form_total", "backend") == {
            "numeric-first": 1
        }


class TestEngineThreading:
    def test_engine_solver_selection(self):
        exact = analyze_kernel("gemm", solver="exact")
        fast = analyze_kernel("gemm", solver="numeric-first")
        assert sp.simplify(exact.bound - fast.bound) == 0
        assert fast.diagnostics.solver == "numeric-first"
        assert exact.diagnostics.solver == "exact"

    def test_cache_entries_namespaced_per_backend(self):
        engine = Engine(solver="exact")
        engine.analyze(_gemm_program())
        hits_after_exact = engine.cache.stats.hits
        # same problems under another backend must MISS (no aliasing)
        engine.analyze(_gemm_program(), solver="numeric-first")
        assert engine.cache.stats.hits == hits_after_exact
        stats = engine.solver_stats_snapshot()
        assert stats["exact"]["exact"] >= 1
        assert stats["numeric-first"]["exact"] >= 1

    def test_solver_stats_buckets(self):
        engine = Engine(solver="cross-check")
        engine.analyze(_gemm_program())
        counts = engine.solver_stats_snapshot()["cross-check"]
        assert set(counts) == {"exact", "fitted", "negative", "mismatch", "coverage"}
        assert counts["mismatch"] == 0

    def test_solve_stage_reports_solver_buckets(self):
        result = Engine(solver="exact").analyze(_gemm_program())
        solve = result.diagnostics.stage("solve")
        assert solve.count("solver_exact") >= 1


def _gemm_program():
    from repro.ir.program import Program
    from repro.kernels.common import ref, stmt

    return Program.make(
        "p",
        [
            stmt(
                "mm",
                {"i": "N", "j": "N", "k": "N"},
                ref("C", "i,j"),
                ref("C", "i,j"),
                ref("A", "i,k"),
                ref("B", "k,j"),
            )
        ],
    )


@pytest.mark.slow
def test_backend_equivalence_full_corpus():
    """Every fused problem of the 38-kernel suite: zero rho mismatches.

    One cross-check sweep runs both backends on every distinct canonical
    problem (8) of the corpus; the engine counters must show no leading-order
    disagreement, and the resulting bounds must equal the exact backend's.
    """
    from repro.kernels import kernel_names

    names = kernel_names()
    engine = Engine(solver="cross-check")
    checked = analyze_many(names, engine=engine)
    counts = engine.solver_stats_snapshot()["cross-check"]
    assert counts["mismatch"] == 0, counts
    exact = analyze_many(names, engine=Engine(solver="exact"))
    assert [r.bound for r in checked] == [r.bound for r in exact]
    # Coverage differences (problems only one backend closes) are a handful
    # of boundary-degenerate cases; anything more means the fast path drifted.
    assert counts["coverage"] <= 8, counts
