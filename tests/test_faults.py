"""The fault-injection harness itself plus each subsystem's resilience.

Covers: plan parsing/determinism/disarm semantics, deadline propagation,
store boot quarantine + busy-degradation, native-replay fallback status,
degraded bound payloads, and the client's retry policy plumbing.
End-to-end chaos runs (daemon + forked fleet under a plan) live in
test_chaos.py.
"""

import json
import time

import pytest

from repro import faults
from repro.faults.plan import ERROR_KINDS, FaultPlan, FaultSpec


def _plan(*specs, seed=7) -> FaultPlan:
    return FaultPlan(seed=seed, specs=[FaultSpec(**spec) for spec in specs])


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(site="", action="raise")
        with pytest.raises(ValueError):
            FaultSpec(site="x", action="explode")
        with pytest.raises(ValueError):
            FaultSpec(site="x", action="raise", error="no-such-kind")
        with pytest.raises(ValueError):
            FaultSpec(site="x", action="raise", p=1.5)
        with pytest.raises(ValueError):
            FaultSpec(site="x", action="raise", at=(0,))
        with pytest.raises(ValueError):
            FaultSpec(site="x", action="raise", times=0)

    def test_roundtrip(self):
        spec = FaultSpec(site="store.get", action="raise", error="sqlite-busy",
                        p=0.25, at=(3, 5), times=2)
        assert FaultSpec.from_dict(spec.as_dict()) == spec

    def test_every_error_kind_instantiates(self):
        for kind in ERROR_KINDS:
            spec = FaultSpec(site="x", action="raise", error=kind, at=(1,))
            assert isinstance(spec.exception(), Exception)


class TestFaultPlan:
    def test_load_inline_builtin_and_file(self, tmp_path):
        inline = FaultPlan.load('{"seed": 3, "faults": []}')
        assert inline.seed == 3
        assert FaultPlan.load("worker-kill").specs  # built-in name
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"seed": 9, "faults": []}))
        assert FaultPlan.load(str(path)).seed == 9
        with pytest.raises(ValueError):
            FaultPlan.load("no-such-plan")

    def test_duplicate_site_rejected(self):
        with pytest.raises(ValueError):
            _plan({"site": "a", "action": "raise", "at": (1,)},
                  {"site": "a", "action": "raise", "at": (2,)})

    def test_at_schedule_fires_exact_occurrences(self):
        plan = _plan({"site": "s", "action": "raise", "at": (2, 4)})
        fired = [plan.check("s") is not None for _ in range(6)]
        assert fired == [False, True, False, True, False, False]

    def test_probability_is_deterministic_per_seed(self):
        def pattern(plan):
            return [plan.check("s") is not None for _ in range(200)]

        spec = {"site": "s", "action": "raise", "p": 0.3}
        a, b = _plan(spec, seed=11), _plan(spec, seed=11)
        assert pattern(a) == pattern(b)
        assert pattern(_plan(spec, seed=12)) != pattern(a)

    def test_at_hits_do_not_shift_probability_draws(self):
        base = _plan({"site": "s", "action": "raise", "p": 0.3}, seed=11)
        extra = _plan(
            {"site": "s", "action": "raise", "p": 0.3, "at": (50,)}, seed=11
        )
        fired_base = [base.check("s") is not None for _ in range(100)]
        fired_extra = [extra.check("s") is not None for _ in range(100)]
        diffs = [i for i, (x, y) in enumerate(zip(fired_base, fired_extra))
                 if x != y]
        # the only legal divergence is the forced occurrence itself
        assert diffs in ([], [49])

    def test_times_caps_total_fires(self):
        plan = _plan({"site": "s", "action": "raise", "p": 1.0, "times": 3})
        fired = sum(plan.check("s") is not None for _ in range(10))
        assert fired == 3

    def test_disarm_silences_site_but_counts_occurrences(self):
        plan = _plan({"site": "s", "action": "raise", "p": 1.0})
        plan.disarm("s")
        assert plan.check("s") is None
        assert plan.snapshot()["s"]["occurrences"] == 1


class TestRuntime:
    def test_inject_noop_without_plan(self):
        assert faults.active() is False
        faults.inject("anything")  # must not raise

    def test_plan_scope_restores(self):
        plan = _plan({"site": "s", "action": "raise", "at": (1,)})
        with faults.plan_scope(plan):
            assert faults.active()
            with pytest.raises(faults.FaultInjected):
                faults.inject("s")
        assert not faults.active()

    def test_typed_errors_raise_their_class(self):
        import sqlite3

        plan = _plan(
            {"site": "busy", "action": "raise", "error": "sqlite-busy", "p": 1.0},
            {"site": "eof", "action": "raise", "error": "eof", "p": 1.0},
        )
        with faults.plan_scope(plan):
            with pytest.raises(sqlite3.OperationalError):
                faults.inject("busy")
            with pytest.raises(EOFError):
                faults.inject("eof")

    def test_triggered_and_corrupt_file(self, tmp_path):
        target = tmp_path / "data.bin"
        target.write_bytes(b"A" * 100)
        plan = _plan(
            {"site": "q", "action": "raise", "at": (1,)},
            {"site": "c", "action": "corrupt", "at": (1,)},
        )
        with faults.plan_scope(plan):
            assert faults.triggered("q") is True
            assert faults.triggered("q") is False
            assert faults.corrupt_file("c", target) is True
        assert target.read_bytes() != b"A" * 100

    def test_snapshot_shape(self):
        plan = _plan({"site": "s", "action": "raise", "at": (1,)})
        with faults.plan_scope(plan):
            try:
                faults.inject("s")
            except faults.FaultInjected:
                pass
            snap = faults.snapshot()
        assert snap["active"] is True
        assert snap["sites"]["s"] == {"occurrences": 1, "fired": 1}
        assert faults.snapshot() == {"active": False}


class TestDeadline:
    def test_remaining_and_expired(self):
        deadline = faults.Deadline.after(60.0)
        assert not deadline.expired
        assert 0 < deadline.remaining() <= 60.0
        past = faults.Deadline(at=time.time() - 1.0)
        assert past.expired and past.remaining() == 0.0

    def test_check_deadline_is_noop_without_scope(self):
        faults.check_deadline("anywhere")

    def test_scope_raises_with_stage(self):
        with faults.deadline_scope(faults.Deadline(at=time.time() - 0.5)):
            with pytest.raises(faults.DeadlineExceeded) as err:
                faults.check_deadline("solve")
        assert err.value.stage == "solve"
        assert "solve" in str(err.value)

    def test_scopes_nest_and_restore(self):
        outer = faults.Deadline.after(60.0)
        inner = faults.Deadline(at=time.time() - 1.0)
        with faults.deadline_scope(outer):
            assert faults.current_deadline() is outer
            with faults.deadline_scope(inner):
                with pytest.raises(faults.DeadlineExceeded):
                    faults.check_deadline("inner")
            assert faults.current_deadline() is outer
            faults.check_deadline("outer")  # far away: no raise
        assert faults.current_deadline() is None

    def test_deadline_is_picklable(self):
        import pickle

        deadline = faults.Deadline.after(5.0)
        assert pickle.loads(pickle.dumps(deadline)) == deadline


class TestStoreResilience:
    def test_boot_quarantines_garbled_db(self, tmp_path):
        from repro.engine.cache import SolveOutcome
        from repro.engine.store import SharedSolveStore

        path = tmp_path / "solves.sqlite"
        store = SharedSolveStore(path)
        store.put("sig", SolveOutcome(error="seed"))
        store.close()
        path.write_bytes(b"\x00not a database\x00")
        reopened = SharedSolveStore(path)
        assert reopened.last_quarantine is not None
        assert reopened.stats.quarantines == 1
        assert reopened.get("sig") is None  # fresh schema
        reopened.put("sig2", SolveOutcome(error="fresh"))
        assert reopened.get("sig2") is not None
        reopened.close()
        quarantined = list(tmp_path.glob("solves.sqlite.corrupt-*"))
        assert len(quarantined) == 1

    def test_injected_corruption_at_open(self, tmp_path):
        from repro.engine.store import SharedSolveStore

        path = tmp_path / "solves.sqlite"
        SharedSolveStore(path).close()  # file now exists
        with faults.plan_scope(faults.builtin_plan("store-corrupt")):
            store = SharedSolveStore(path)
        assert store.stats.quarantines == 1
        store.close()

    def test_busy_store_degrades_cache_not_correctness(self, tmp_path):
        from repro.engine.cache import SolveCache, SolveOutcome
        from repro.engine.store import SharedSolveStore

        store = SharedSolveStore(tmp_path / "solves.sqlite")
        cache = SolveCache(store=store)
        with faults.plan_scope(faults.builtin_plan("store-busy")):
            for i in range(30):
                cache.put(f"k{i}", SolveOutcome(error=f"e{i}"))
                cache._memory.clear()  # force the store tier on reads
                got = cache.get(f"k{i}")
                # a busy store may lose the hit, never return a wrong one
                assert got is None or got.error == f"e{i}"
        assert store.stats.errors > 0
        store.close()

    #: the first store write fails, as a busy or sick store would
    FAILED_PUT = {"site": "store.put", "error": "sqlite-busy", "at": (1,)}

    def test_failed_put_releases_the_claim(self, tmp_path):
        from repro.engine.cache import SolveCache, SolveOutcome
        from repro.engine.store import SharedSolveStore

        path = tmp_path / "solves.sqlite"
        holder = SolveCache(store=SharedSolveStore(path))
        other = SharedSolveStore(path)
        with faults.plan_scope(_plan(self.FAILED_PUT)):
            assert holder.store.try_claim("k") == ("acquired", None)
            holder.put("k", SolveOutcome(error="e"))
        assert holder.store.stats.errors == 1
        # no other process waits out the claim's lease
        assert other.try_claim("k") == ("acquired", None)

    def test_engine_leaves_no_claim_after_failed_put(self, tmp_path):
        from repro.analysis import analyze_kernel
        from repro.engine import Engine, SolveCache
        from repro.engine.store import SharedSolveStore

        store = SharedSolveStore(tmp_path / "solves.sqlite")
        engine = Engine(cache=SolveCache(store=store))
        with faults.plan_scope(_plan(self.FAILED_PUT)):
            result = analyze_kernel("gemm", engine=engine)
        assert str(result.bound) == "2*N**3/sqrt(S)"
        assert store.stats.errors == 1
        assert store.claim_count() == 0


class TestNativeStatus:
    def test_status_shape(self):
        from repro.schedule._native import native_replay_lib, native_status

        native_replay_lib()
        status = native_status()
        assert "available" in status
        if status["available"] is False:
            assert "error_class" in status


class TestDegradedBounds:
    def test_engine_failure_flags_payload(self):
        from repro.bounds import kernel_bounds

        baseline = kernel_bounds("atax", s_values=[8])
        assert not baseline.degraded
        assert "degraded" not in baseline.as_dict()
        with faults.plan_scope(faults.builtin_plan("engine-fail")):
            degraded = kernel_bounds("atax", s_values=[8])
        assert degraded.degraded
        assert "visit" in degraded.failed_engines
        payload = degraded.as_dict()
        assert payload["degraded"] is True
        assert payload["failed_engines"] == list(degraded.failed_engines)
        visit_rows = [
            row
            for point in payload["points"]
            for row in point["engines"]
            if row["engine"] == "visit"
        ]
        assert visit_rows and all(
            row["error_class"] == "FaultInjected" for row in visit_rows
        )
        # degraded is weaker-or-equal, never wrong: the certified max from
        # the survivors cannot exceed the fault-free certified max
        for base_pt, deg_pt in zip(baseline.points, degraded.points):
            assert deg_pt.certified <= base_pt.certified


class TestClientRetryPolicy:
    def test_retry_after_header_is_honoured_and_capped(self):
        from repro.service.client import MAX_RETRY_AFTER_SECONDS, ServiceClient

        client = ServiceClient(backoff=0.25)
        assert client._retry_after({"retry-after": "2"}, attempt=0) == 2.0
        assert (
            client._retry_after({"retry-after": "9999"}, attempt=0)
            == MAX_RETRY_AFTER_SECONDS
        )
        # malformed or absent header: exponential fallback
        assert client._retry_after({"retry-after": "soon"}, attempt=1) == 0.5
        assert client._retry_after({}, attempt=2) == 1.0

    def test_idempotent_retry_defaults(self):
        from repro.service.client import (
            DEFAULT_IDEMPOTENT_RETRIES,
            ServiceClient,
        )

        client = ServiceClient()
        assert client._retries_for(True) == DEFAULT_IDEMPOTENT_RETRIES
        assert client._retries_for(False) == 0
        pinned = ServiceClient(retries=5)
        assert pinned._retries_for(True) == 5
        assert pinned._retries_for(False) == 5

    def test_budget_validation(self):
        from repro.service.client import ServiceClient

        with pytest.raises(ValueError):
            ServiceClient(retry_budget_seconds=0)
        with pytest.raises(ValueError):
            ServiceClient(retries=-1)
