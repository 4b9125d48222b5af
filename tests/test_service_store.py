"""The shared solve store: sqlite tier, claims protocol, crash recovery.

The fleet invariant under test: whatever races, **each canonical problem
key is solved exactly once** and every process sees the same decoded
outcome.  Crash safety rides on claim leases -- a killed claim holder
delays the solve by at most one lease, never wedges it.
"""

import json
import multiprocessing
import sqlite3
import threading
import time

import pytest
import sympy as sp

from repro.engine import SolveOutcome
from repro.engine.store import SharedSolveStore
from repro.opt.kkt import ChiSolution
from repro.symbolic.symbols import S_SYM, X_SYM


def _outcome(note: str = "test") -> SolveOutcome:
    return SolveOutcome(
        solution=ChiSolution(
            chi=X_SYM**2 / S_SYM,
            tiles={"i": sp.Symbol("b_0", positive=True)},
            capped=(),
            pinned=("j",),
            exact=True,
            notes=(note,),
        )
    )


class TestStoreBasics:
    def test_put_get_round_trip(self, tmp_path):
        store = SharedSolveStore(tmp_path / "solves.sqlite")
        assert store.get("sig-exact-r2") is None
        store.put("sig-exact-r2", _outcome("round-trip"))
        loaded = store.get("sig-exact-r2")
        assert loaded is not None and loaded.ok
        assert loaded.solution.chi == X_SYM**2 / S_SYM
        assert loaded.solution.pinned == ("j",)
        assert loaded.solution.notes == ("round-trip",)
        assert store.entry_count() == 1
        assert store.stats.hits == 1 and store.stats.misses == 1

    def test_negative_entry_round_trip(self, tmp_path):
        store = SharedSolveStore(tmp_path / "solves.sqlite")
        store.put("bad-exact-r2", SolveOutcome(error="unbounded"))
        loaded = store.get("bad-exact-r2")
        assert loaded is not None and not loaded.ok
        assert loaded.error == "unbounded"

    def test_second_handle_sees_first_handles_solves(self, tmp_path):
        path = tmp_path / "solves.sqlite"
        SharedSolveStore(path).put("shared", _outcome())
        other = SharedSolveStore(path)
        assert other.get("shared") is not None
        assert other.stats.hits == 1

    def test_corrupt_payload_reads_as_miss(self, tmp_path):
        path = tmp_path / "solves.sqlite"
        store = SharedSolveStore(path)
        store.put("sig", _outcome())
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE solves SET payload='not json' WHERE key='sig'"
            )
        assert store.get("sig") is None

    def test_stale_schema_reads_as_miss(self, tmp_path):
        path = tmp_path / "solves.sqlite"
        store = SharedSolveStore(path)
        store.put("sig", _outcome())
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE solves SET payload=? WHERE key='sig'",
                (json.dumps({"schema": -1, "status": "ok"}),),
            )
        assert store.get("sig") is None

    def test_report_artifacts(self, tmp_path):
        store = SharedSolveStore(tmp_path / "solves.sqlite")
        assert store.get_report("kernel:gemm") is None
        store.put_report("kernel:gemm", {"bound": "2*N**3/sqrt(S)"})
        assert store.get_report("kernel:gemm") == {"bound": "2*N**3/sqrt(S)"}
        assert store.report_count() == 1
        assert store.stats.report_hits == 1
        assert store.stats.report_misses == 1

    def test_fresh_store_opens_once_another_writer_commits(self, tmp_path):
        """Switching a fresh file to WAL waits out another connection's
        write lock instead of failing with ``database is locked``."""
        path = tmp_path / "solves.sqlite"
        writer = sqlite3.connect(path, isolation_level=None, check_same_thread=False)
        writer.execute("BEGIN IMMEDIATE")
        writer.execute("CREATE TABLE t(x)")
        commit = threading.Timer(0.5, writer.execute, ("COMMIT",))
        commit.start()
        try:
            store = SharedSolveStore(path)
        finally:
            commit.join(timeout=10)
            writer.close()
        assert not commit.is_alive()
        store.put("sig", _outcome())
        assert store.get("sig") is not None

    def test_rejects_bad_lease_and_poll(self, tmp_path):
        with pytest.raises(ValueError):
            SharedSolveStore(tmp_path / "a.sqlite", lease_seconds=0)
        with pytest.raises(ValueError):
            SharedSolveStore(tmp_path / "b.sqlite", poll_seconds=-1)


class TestClaims:
    def test_claim_then_put_resolves_waiters(self, tmp_path):
        path = tmp_path / "solves.sqlite"
        first = SharedSolveStore(path)
        second = SharedSolveStore(path)
        status, outcome = first.try_claim("sig")
        assert (status, outcome) == ("acquired", None)
        assert second.try_claim("sig") == ("busy", None)
        first.put("sig", _outcome())
        status, outcome = second.try_claim("sig")
        assert status == "solved" and outcome.ok
        assert first.claim_count() == 0

    def test_release_frees_the_slot(self, tmp_path):
        path = tmp_path / "solves.sqlite"
        first = SharedSolveStore(path)
        second = SharedSolveStore(path)
        assert first.try_claim("sig")[0] == "acquired"
        first.release("sig")
        assert first.claim_count() == 0
        assert second.try_claim("sig")[0] == "acquired"

    def test_release_only_drops_own_claims(self, tmp_path):
        path = tmp_path / "solves.sqlite"
        first = SharedSolveStore(path)
        second = SharedSolveStore(path)
        assert first.try_claim("sig")[0] == "acquired"
        second.release("sig")  # not the owner: must be a no-op
        assert first.claim_count() == 1

    def test_expired_lease_is_reclaimed(self, tmp_path):
        path = tmp_path / "solves.sqlite"
        first = SharedSolveStore(path, lease_seconds=0.05)
        second = SharedSolveStore(path, lease_seconds=0.05)
        assert first.try_claim("sig")[0] == "acquired"
        time.sleep(0.1)
        assert second.try_claim("sig")[0] == "acquired"
        assert second.stats.reclaims == 1

    def test_wait_for_coalesces_on_other_solve(self, tmp_path):
        path = tmp_path / "solves.sqlite"
        first = SharedSolveStore(path)
        second = SharedSolveStore(path, poll_seconds=0.005)
        assert first.try_claim("sig")[0] == "acquired"

        def _finish():
            time.sleep(0.05)
            first.put("sig", _outcome("from-first"))

        thread = threading.Thread(target=_finish)
        thread.start()
        try:
            outcome, how = second.wait_for("sig")
        finally:
            thread.join()
        assert how == "coalesced" and outcome.ok
        assert second.stats.coalesced == 1 and second.stats.waits == 1

    def test_solve_once_skips_solver_on_hit(self, tmp_path):
        store = SharedSolveStore(tmp_path / "solves.sqlite")
        store.put("sig", _outcome())

        def _never():
            raise AssertionError("solved a key that was already done")

        assert store.solve_once("sig", _never).ok

    def test_failed_solve_releases_the_claim(self, tmp_path):
        store = SharedSolveStore(tmp_path / "solves.sqlite")

        def _boom():
            raise RuntimeError("solver exploded")

        with pytest.raises(RuntimeError):
            store.solve_once("sig", _boom)
        assert store.claim_count() == 0
        # the slot is free again: a retry can claim and solve
        assert store.solve_once("sig", _outcome).ok


def _race_entry(path, counter, results, index):
    store = SharedSolveStore(path, poll_seconds=0.005)

    def _solve():
        with counter.get_lock():
            counter.value += 1
        time.sleep(0.05)
        return _outcome("raced")

    outcome = store.solve_once("sig-race", _solve)
    results[index] = 1 if outcome.ok else 0


def _claim_and_hang(path):
    store = SharedSolveStore(path, lease_seconds=0.2)
    store.try_claim("sig-crash")
    time.sleep(60)  # killed long before this returns


class TestCrossProcess:
    def test_two_processes_solve_exactly_once(self, tmp_path):
        """The acceptance invariant: N racing processes, one solve."""
        path = str(tmp_path / "solves.sqlite")
        ctx = multiprocessing.get_context("fork")
        counter = ctx.Value("i", 0)
        results = ctx.Array("i", [0, 0])
        procs = [
            ctx.Process(target=_race_entry, args=(path, counter, results, i))
            for i in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
        assert all(proc.exitcode == 0 for proc in procs)
        assert list(results) == [1, 1]
        assert counter.value == 1, "the same signature was solved twice"
        store = SharedSolveStore(path)
        assert store.entry_count() == 1
        assert store.claim_count() == 0

    def test_killed_claim_holder_is_reclaimed(self, tmp_path):
        """A crashed worker's claim expires; the next arrival re-solves."""
        path = str(tmp_path / "solves.sqlite")
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_claim_and_hang, args=(path,))
        proc.start()
        try:
            survivor = SharedSolveStore(
                path, lease_seconds=0.2, poll_seconds=0.01
            )
            deadline = time.monotonic() + 10
            while survivor.claim_count() == 0:
                assert time.monotonic() < deadline, "claim never appeared"
                time.sleep(0.01)
            proc.kill()
            proc.join(timeout=10)
            outcome, how = survivor.wait_for(
                "sig-crash", solve=lambda: _outcome("recovered")
            )
            assert how == "solved" and outcome.ok
            assert outcome.solution.notes == ("recovered",)
            assert survivor.stats.reclaims == 1
            assert survivor.entry_count() == 1
            assert survivor.claim_count() == 0
        finally:
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=10)

    def test_fork_reopens_connection_and_owner(self, tmp_path):
        """A forked child must not reuse the parent's sqlite connection
        (or its claim-ownership token)."""
        path = str(tmp_path / "solves.sqlite")
        store = SharedSolveStore(path)
        assert store.try_claim("parent-claim")[0] == "acquired"
        parent_owner = store.owner
        ctx = multiprocessing.get_context("fork")

        def _child(store, queue):
            store.release("parent-claim")  # child owner differs: no-op
            queue.put((store.owner, store.claim_count()))

        queue = ctx.Queue()
        proc = ctx.Process(target=_child, args=(store, queue))
        proc.start()
        child_owner, child_claims = queue.get(timeout=30)
        proc.join(timeout=30)
        assert child_owner != parent_owner
        assert child_claims == 1, "child released the parent's claim"
        assert store.owner == parent_owner
