"""The problem-(8) solver: its name, batch loop, engine threading, pinned keys."""

import time

import pytest
import sympy as sp

from repro import __version__, faults
from repro.analysis import analyze_kernel
from repro.engine import Engine, classify_outcome, program_fingerprint
from repro.engine.core import _solve_signature
from repro.engine.signature import canonicalize_ir
from repro.faults import FaultPlan, FaultSpec
from repro.kernels import get_kernel
from repro.obs import MetricsRegistry, Tracer
from repro.opt import available_backends, get_backend
from repro.opt.kkt import SOLVER_REVISION, ChiSolution
from repro.service import ServiceConfig
from repro.service.workers import _report_key
from repro.symbolic.symbols import X_SYM, tile
from repro.util.errors import SolverError
from tests.posynomial import Posynomial, problem_of

N = sp.Symbol("N", positive=True)
bi, bj, bk, bl = tile("i"), tile("j"), tile("k"), tile("l")


def _ir(obj, con, variables, extents=None):
    return problem_of(
        Posynomial.from_expr(obj, variables),
        Posynomial.from_expr(con, variables),
        extents,
    )


class TestRegistry:
    def test_all_backends_registered(self):
        assert available_backends() == ("exact",)

    def test_unknown_backend_rejected(self):
        with pytest.raises(SolverError):
            get_backend("annealing")
        with pytest.raises(SolverError):
            Engine(solver="annealing")
        with pytest.raises(SolverError):
            ServiceConfig(solver="annealing")

    def test_cache_tags_namespace_backends(self):
        # store entries are keyed <signature>-<cache tag>: a changed tag
        # re-keys every solve store already written
        assert get_backend().cache_tag() == f"exact-r{SOLVER_REVISION}"


class TestPinnedKeys:
    """Names that deployed solve stores, report tables and coalescing use.

    A change to any of them re-keys every store and report table already
    written, so each one moves only on purpose.
    """

    def test_report_key(self):
        assert _report_key("kernel", "gemm") == f"kernel:gemm:exact-r3:v{__version__}"

    def test_gemm_fingerprint(self):
        # ROADMAP item 1 (a request identity that also covers iteration
        # domains) will change this value on purpose.
        assert program_fingerprint(get_kernel("gemm").build()) == (
            "4ecb6a8c4c5ccc26e2c378cd41e9ec3dae8ec0e586c075d6d34ab4561660a345"
        )

    def test_removed_backends_are_rejected(self):
        for name in ("numeric-first", "cross-check"):
            with pytest.raises(SolverError, match="unknown solver backend"):
                Engine(solver=name)


SOLVE_CASES = [
    # (objective, constraint, expected chi)
    (bi * bj * bk, bi * bk + bk * bj + bi * bj, sp.sqrt(3) * X_SYM ** sp.Rational(3, 2) / 9),
    (2 * bi * bj, bi * bj, 2 * X_SYM),
    (bi * bj + bi * bl, bi * bj + bi * bl, X_SYM),
    (2 * bi * bk, 2 * bk + bi, X_SYM**2 / 4),
]


class TestBackendEquivalence:
    """The solver on canonical problems, caps and rejections."""

    @pytest.mark.parametrize("obj,con,expected", SOLVE_CASES)
    @pytest.mark.parametrize("backend", available_backends())
    def test_canonical_problems(self, backend, obj, con, expected):
        variables = [bi, bj, bk, bl]
        solution = get_backend(backend).solve(
            _ir(obj, con, variables), allow_pinning=False, allow_caps=False
        )
        assert sp.simplify(solution.chi - expected) == 0

    def test_capping_matches_exact(self):
        ir = _ir(bi * bj, bi, [bi, bj], {"j": N, "i": N})
        solution = get_backend().solve(ir, allow_pinning=True, allow_caps=True)
        assert sp.simplify(solution.chi - N * X_SYM) == 0
        assert solution.capped == ("j",)

    def test_missing_extent_rejected_by_both(self):
        ir = _ir(bi * bj, bi, [bi, bj], {})
        with pytest.raises(SolverError, match="no extent cap"):
            get_backend().solve(ir, allow_pinning=True, allow_caps=True)

    def test_interior_only_cap_rejection_matches(self):
        ir = _ir(bi * bj, bi, [bi, bj], {"j": N})
        with pytest.raises(SolverError, match="interior-only"):
            get_backend().solve(ir, allow_pinning=False, allow_caps=False)


class TestBatchLoop:
    """Every solve goes through the same deadline/fault/span loop."""

    @pytest.mark.parametrize("backend", available_backends())
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

    @pytest.mark.parametrize("backend", available_backends())
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

    def test_solve_signature_goes_through_the_batch_loop(self):
        # the pooled solves of analyze(jobs>1) and the solo solve after a
        # reclaimed claim: the fault site fires and its error is a negative
        # outcome, as in the in-process batch
        canonical = canonicalize_ir(
            _ir(2 * bi * bj, bi * bj, [bi, bj]), allow_pinning=False, allow_caps=False
        )
        plan = FaultPlan(
            seed=1,
            specs=[FaultSpec(site="solver.solve", error="solver", at=(1,))],
        )
        with faults.plan_scope(plan):
            key, outcome = _solve_signature(("sig", canonical, False))
        assert key == "sig"
        assert classify_outcome(outcome) == "negative"
        assert outcome.error == "injected fault at solver.solve"

    def test_span_and_registry_count_closed_forms(self):
        registry = MetricsRegistry()
        tracer = Tracer(keep_spans=True, registry=registry)
        problems = [
            _ir(2 * bi * bj, bi * bj + bi, [bi, bj]),  # closed form
            _ir(bi * bj * bk, bi * bk + bk * bj + bi * bj, [bi, bj, bk]),
        ]
        with tracer:
            get_backend().solve_batch(problems, allow_pinning=False, allow_caps=False)
        (batch,) = [s for s in tracer.spans if s["name"] == "solver.solve-batch"]
        assert batch["attrs"]["backend"] == "exact"
        assert batch["counters"]["solved"] == 2
        assert batch["counters"]["closed_form"] == 1
        assert batch["counters"]["rescues"] == 0
        assert registry.counter_by_label("solver_closed_form_total", "backend") == {
            "exact": 1
        }


class TestEngineThreading:
    def test_engine_solver_selection(self):
        result = analyze_kernel("gemm", engine=Engine(solver="exact"))
        assert result.diagnostics.as_dict()["solver"] == "exact"

    def test_solver_stats_buckets(self):
        engine = Engine()
        engine.analyze(_gemm_program())
        counts = engine.solver_stats_snapshot()["exact"]
        assert set(counts) == {"exact", "fitted", "negative"}
        assert counts["exact"] >= 1

    def test_solve_stage_reports_solver_buckets(self):
        result = Engine().analyze(_gemm_program())
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
