"""End-to-end chaos: real fleets under seeded fault plans.

The promise under test is the resilience layer's contract — a fault may
cost work (a requeue, a re-solve, a weaker-but-certified bound), never
correctness: every answer produced under an active plan is byte-identical
to fault-free or explicitly flagged.  These tests boot real daemons
(forked workers inherit the active plan) and inject worker SIGKILLs,
store corruption, and engine failures on deterministic schedules.
"""

import http.client
import multiprocessing
import time

import pytest
import sympy as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.engine import SolveOutcome
from repro.engine.store import SharedSolveStore
from repro.faults.chaos import run_chaos, strip_volatile
from repro.faults.plan import FaultPlan, FaultSpec
from repro.opt.kkt import ChiSolution
from repro.symbolic.symbols import S_SYM, X_SYM


def _outcome(note: str = "test") -> SolveOutcome:
    return SolveOutcome(
        solution=ChiSolution(
            chi=X_SYM**2 / S_SYM,
            tiles={"i": sp.Symbol("b_0", positive=True)},
            capped=(),
            pinned=(),
            exact=True,
            notes=(note,),
        )
    )


def _claim_then_injected_kill(path: str) -> None:
    """Child process: take a claim, then die to an injected SIGKILL."""
    plan = FaultPlan(
        seed=1,
        specs=[FaultSpec(site="worker.crash", action="kill", at=(1,))],
    )
    faults.activate(plan)
    store = SharedSolveStore(path, lease_seconds=0.2, poll_seconds=0.01)
    assert store.try_claim("sig-crash")[0] == "acquired"
    faults.inject("worker.crash")  # SIGKILL: no release, no cleanup
    raise AssertionError("unreachable: the kill site must fire")


class TestInjectedKillReclamation:
    def test_claim_lease_reclaimed_after_injected_sigkill(self, tmp_path):
        """A claim held by an injected-SIGKILL victim expires and is
        reclaimed — the deterministic twin of the manual proc.kill() test
        in test_service_store.py."""
        path = str(tmp_path / "solves.sqlite")
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_claim_then_injected_kill, args=(path,))
        proc.start()
        try:
            survivor = SharedSolveStore(
                path, lease_seconds=0.2, poll_seconds=0.01
            )
            deadline = time.monotonic() + 30
            while survivor.claim_count() == 0:
                assert time.monotonic() < deadline, "claim never appeared"
                time.sleep(0.01)
            proc.join(timeout=30)
            assert proc.exitcode == -9, "child must die to the injected kill"
            outcome, how = survivor.wait_for(
                "sig-crash", solve=lambda: _outcome("recovered")
            )
            assert how == "solved" and outcome.ok
            assert survivor.stats.reclaims == 1
            assert survivor.claim_count() == 0
        finally:
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=10)


class TestServiceUnderFaults:
    def test_drain_completes_despite_injected_worker_kill(self):
        """Drain must finish every accepted job even when the plan SIGKILLs
        a worker mid-solve (the job rides its one requeue)."""
        from repro.service import ServiceConfig, ServiceThread
        from repro.service.client import ServiceClient

        with faults.plan_scope(faults.builtin_plan("worker-kill")):
            with ServiceThread(ServiceConfig(workers=1)) as thread:
                with ServiceClient(port=thread.port) as client:
                    accepted = [
                        client.kernel(name, wait=False)
                        for name in ("gemm", "atax", "mvt")
                    ]
                    thread.drain()
                    for record in accepted:
                        finished = client.job(record.id)
                        assert finished.state == "done", finished.error
                    health = client.healthz()
                    assert health.status == "draining"
                    assert health.degraded["requeued_jobs"] == 1
                    assert health.degraded["healthy"] is False

    def test_503_carries_retry_after_header(self):
        from repro.service import ServiceConfig, ServiceThread

        with ServiceThread(ServiceConfig(workers=1)) as thread:
            thread.drain()
            conn = http.client.HTTPConnection("127.0.0.1", thread.port)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                assert response.status == 503
                assert response.getheader("Retry-After") is not None
            finally:
                conn.close()

    def test_deadline_maps_to_504_with_error_kind(self):
        from repro.service import ServiceConfig, ServiceThread
        from repro.service.client import ServiceClient, ServiceError

        with ServiceThread(ServiceConfig(workers=1)) as thread:
            with ServiceClient(port=thread.port) as client:
                with pytest.raises(ServiceError) as err:
                    client.kernel("gemm", deadline_seconds=1e-4)
                assert err.value.status == 504
                assert err.value.payload["error_kind"] == "deadline"
                # the fleet stays fully usable afterwards
                assert client.kernel("gemm").ok


class TestChaosSuite:
    def test_all_plans_never_silently_wrong(self, tmp_path):
        """The CI contract, in-tree: worker kills and store corruption
        recover to byte-identical payloads; engine failure degrades with
        an explicit flag.  Nothing is ever silently wrong."""
        # worker-kill fires on a worker's SECOND job: needs several kernels
        report = run_chaos(
            kernels=("gemm", "atax", "mvt"),
            plans=("worker-kill",),
            workers=1,
            out=tmp_path / "chaos.json",
        )
        assert report["ok"], report
        kill = report["plans"]["worker-kill"]
        assert {row["verdict"] for row in kill["results"].values()} == {
            "identical"
        }
        assert kill["resilience"]["requeued_jobs"] == 1
        assert (tmp_path / "chaos.json").exists()

        report = run_chaos(
            kernels=("atax",),
            plans=("store-corrupt", "engine-fail"),
            workers=1,
        )
        assert report["ok"], report
        plans = report["plans"]
        assert plans["store-corrupt"]["results"]["atax"]["verdict"] == "identical"
        assert plans["store-corrupt"]["resilience"]["store_quarantines"] >= 1
        assert plans["engine-fail"]["results"]["atax"]["verdict"] == "degraded"
        assert plans["engine-fail"]["degraded"]["bound_engine_errors"]


# -- property: one injected fault never yields a wrong-but-unflagged bound --

_BASELINE = None


def _baseline_bounds():
    global _BASELINE
    if _BASELINE is None:
        from repro.bounds import kernel_bounds

        _BASELINE = kernel_bounds("atax", s_values=[8])
    return _BASELINE


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    engine=st.sampled_from(["kkt", "visit"]),
    occurrence=st.integers(min_value=1, max_value=3),
    error=st.sampled_from(["runtime", "memory", "value", "solver"]),
)
def test_single_fault_never_wrong_unflagged(engine, occurrence, error):
    """Any single injected bound-engine fault produces a payload that is
    either identical to fault-free or explicitly degraded — and a degraded
    certified bound is weaker-or-equal, never above the fault-free one."""
    from repro.bounds import kernel_bounds
    from repro.reporting.serialize import bounds_report

    baseline = _baseline_bounds()
    plan = FaultPlan(
        seed=1000 + occurrence,
        specs=[
            FaultSpec(
                site=f"bounds.engine.{engine}",
                action="raise",
                error=error,
                at=(occurrence,),
            )
        ],
    )
    with faults.plan_scope(plan):
        result = kernel_bounds("atax", s_values=[8])
    payload = strip_volatile(bounds_report(result))
    base_payload = strip_volatile(bounds_report(baseline))
    if payload == base_payload:
        return  # the occurrence never happened: the fault didn't land
    assert payload.get("degraded") is True, (
        "payload differs from fault-free but carries no degraded flag"
    )
    assert engine in payload["failed_engines"]
    for base_pt, pt in zip(baseline.points, result.points):
        assert pt.certified <= base_pt.certified
