"""Failure accounting of every workload, and the per-layer fold."""

import math

import pytest

from perfbench import checks, report

GOOD = {"bound": "2*N**3/sqrt(S)", "ratio": "1", "shape": True}


class TestKernelFailure:
    def test_matching_kernel_passes(self):
        assert checks.kernel_failure(
            "gemm", GOOD, locked_equal=True, locked_shape=True, reference=dict(GOOD)
        ) is None

    def test_locked_bound_mismatch_fails(self):
        assert "locked bound" in checks.kernel_failure(
            "gemm", GOOD, locked_equal=False, locked_shape=True, reference=GOOD
        )

    def test_shape_verdict_mismatch_fails(self):
        assert "shape" in checks.kernel_failure(
            "gemm", GOOD, locked_equal=True, locked_shape=False, reference=GOOD
        )

    def test_cold_warm_difference_fails(self):
        other = dict(GOOD, bound="2*N**3/sqrt(S) + N")
        assert "reference" in checks.kernel_failure(
            "gemm", other, locked_equal=True, locked_shape=True, reference=GOOD
        )


def _row(**fields):
    row = {
        "kernel": "gemm", "s_requested": 8, "error": None, "bound": 100.0,
        "gap": 2.0, "schedule_cost": 200, "program_order_cost": 300,
    }
    row.update(fields)
    return row


class TestAuditFailure:
    def test_sound_point_passes(self):
        assert checks.audit_failure(_row()) == (None, False)

    def test_error_fails(self):
        failure, known = checks.audit_failure(_row(error="CDAG build failed"))
        assert "CDAG build failed" in failure and not known

    @pytest.mark.parametrize("field", ["bound", "gap"])
    def test_non_finite_fails(self, field):
        failure, _ = checks.audit_failure(_row(**{field: math.nan}))
        assert "non-finite" in failure

    def test_unknown_violation_fails(self):
        # certified 100 above the better replayed schedule (90)
        failure, known = checks.audit_failure(_row(program_order_cost=90))
        assert "certified" in failure and not known

    def test_known_violation_is_reported_not_failed(self):
        row = _row(kernel="jacobi1d", s_requested=18, bound=7.1, schedule_cost=2)
        assert checks.audit_failure(row) == (None, True)
        # the same kernel at another S is not excused
        failure, _ = checks.audit_failure(dict(row, s_requested=8))
        assert failure is not None

    def test_replay_below_certified_fails(self):
        assert checks.replay_failure("gemm", 10, 5.0) is None
        assert "<" in checks.replay_failure("gemm", 4, 5.0)
        assert "positive" in checks.replay_failure("gemm", 4, math.nan)


class TestServiceFailure:
    REFERENCE = {"bound": "N**2", "program": "a", "diagnostics": {"x": 1},
                 "points": [{"engine": "kkt", "seconds": 0.1, "value": 3.0}]}

    def test_equal_up_to_volatile_fields_passes(self):
        answer = {"bound": "N**2", "program": "b", "diagnostics": None,
                  "points": [{"engine": "kkt", "seconds": 0.7, "value": 3.0}]}
        assert checks.service_failure(True, None, answer, self.REFERENCE) is None

    def test_refused_request_fails(self):
        assert "failed" in checks.service_failure(False, "503", None, self.REFERENCE)

    def test_different_answer_fails(self):
        answer = dict(self.REFERENCE, bound="N**3")
        assert "differs" in checks.service_failure(True, None, answer, self.REFERENCE)

    def test_missing_reference_fails(self):
        assert checks.service_failure(True, None, {}, None) is not None


def test_strict_wins_counts_only_strict_maxima():
    rows = [
        {"engine_bounds": {"kkt": 5.0, "spectral": 3.0, "visit": 3.0}},
        {"engine_bounds": {"kkt": 2.0, "spectral": 3.0, "visit": 3.0}},  # tie
        {"engine_bounds": {"kkt": math.nan, "spectral": 1.0, "visit": 4.0}},
    ]
    assert report.strict_wins(rows) == {"kkt": 1, "spectral": 0, "visit": 1}


def test_per_layer_reports_every_metric_and_coverage():
    ledger = {
        "spans": {
            "engine.combine": {"calls": 2, "self_s": 1.0, "total_s": 3.0},
            "sdg.fuse": {"calls": 10, "self_s": 2.0, "total_s": 2.0},
            "engine.cache.get": {"calls": 4, "self_s": 0.5, "total_s": 0.5},
        },
        "counts": {"engine.cache.hits": 3, "sympy.simplify.calls": 7},
    }
    traced = [{"ledger": ledger, "wall_s": 3.6, "outputs": {}}] * 2
    untraced = [{"wall_s": 3.0}] * 2
    metrics, detail = report.per_layer("table2-warm", traced, untraced)
    assert list(metrics) == list(report.PER_LAYER)
    assert metrics["sdg.fuse.calls"]["value"] == 10  # per pass
    assert metrics["engine.cache.hit_ratio"]["value"] == pytest.approx(0.75)
    assert metrics["sympy.simplify.calls"]["value"] == 7
    assert metrics["layers.coverage"]["value"] == pytest.approx(3.5 / 3.6)
    assert metrics["trace.overhead_ratio"]["value"] == pytest.approx(1.2)
    assert "cdag.build.self_s" in detail["not_exercised"]
    assert "sdg.fuse.self_s" not in detail["not_exercised"]
