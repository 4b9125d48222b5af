"""Fleet behaviour of the sharded daemon: drain, reload, warm boot,
cross-worker determinism, and the solve-once invariant.

These tests exercise the daemon end-to-end over HTTP (ServiceThread +
ServiceClient) with a real forked worker fleet -- the shapes a deploy
orchestrator cares about, not the endpoint semantics (test_service.py).
"""

import threading
import time

import pytest

from repro.analysis import analyze_kernel
from repro.reporting.serialize import kernel_report
from repro.service import ServiceConfig, ServiceThread
from repro.service.client import ServiceClient, ServiceError

WARM_KERNELS = ("gemm", "atax", "mvt")


def _strip_volatile(report: dict) -> dict:
    """Everything except per-run diagnostics must be byte-identical."""
    return {k: v for k, v in report.items() if k != "diagnostics"}


def _wait_until(predicate, timeout=120.0, poll=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(poll)


class TestDrain:
    def test_drain_completes_accepted_work_then_503s(self):
        with ServiceThread(ServiceConfig(workers=2)) as thread:
            with ServiceClient(port=thread.port) as client:
                accepted = [
                    client.kernel(name, wait=False)
                    for name in ("gemm", "atax", "mvt", "bicg")
                ]
                thread.drain()  # blocks until all accepted jobs finish
                for record in accepted:
                    finished = client.job(record.id)
                    assert finished.state == "done", finished.error
                health = client.healthz()
                assert health.status == "draining"
                assert health.draining is True
                assert health.queue_depth == 0 and health.active_jobs == 0
                with pytest.raises(ServiceError) as err:
                    client.kernel("gesummv")
                assert err.value.status == 503

    def test_draining_healthz_is_http_503(self):
        with ServiceThread(ServiceConfig(workers=1)) as thread:
            with ServiceClient(port=thread.port) as client:
                thread.drain()
                # tolerate=(503,) inside healthz(): the payload still parses
                assert client.healthz().status == "draining"
                status, _, headers = client._exchange(
                    "GET", "/healthz", None, {}, False
                )
                assert status == 503
                assert "retry-after" in headers


class TestReload:
    def test_reload_replaces_worker_processes_and_resumes(self):
        with ServiceThread(ServiceConfig(workers=2)) as thread:
            with ServiceClient(port=thread.port) as client:
                assert client.kernel("gemm").ok  # fleet warm and serving
                before = {
                    proc["index"]: proc["pid"]
                    for proc in client.healthz().worker_processes
                }
                assert len(before) == 2
                thread.reload()
                health = client.healthz()
                assert health.status == "ok" and not health.draining
                after = {
                    proc["index"]: proc["pid"]
                    for proc in health.worker_processes
                }
                assert set(after) == set(before)
                assert all(after[i] != before[i] for i in before), (
                    "reload must re-fork every worker"
                )
                assert all(
                    proc["alive"] for proc in health.worker_processes
                )
                # the new fleet serves, and the store survived the re-fork:
                # gemm needs no fresh solve
                record = client.kernel("gemm")
                assert record.ok

    def test_reload_retries_ride_out_the_drain(self):
        """A client with retries enabled sees a reload as latency, not
        an error (the 503 window is retried with backoff)."""
        with ServiceThread(ServiceConfig(workers=1)) as thread:
            client = ServiceClient(
                port=thread.port, retries=8, backoff=0.1
            )
            with client:
                assert client.kernel("gemm").ok
                reloader = threading.Thread(target=thread.reload)
                reloader.start()
                try:
                    # submitted mid-reload: either before the drain flips on
                    # (runs immediately) or rejected+retried until the new
                    # fleet is up -- never an exception
                    assert client.kernel("atax").ok
                finally:
                    reloader.join(timeout=300)


class TestWarmBoot:
    def test_warm_boot_serves_corpus_without_cold_solves(self):
        config = ServiceConfig(workers=2, warm=WARM_KERNELS)
        with ServiceThread(config) as thread:
            with ServiceClient(port=thread.port) as client:
                _wait_until(
                    lambda: (client.healthz().warm or {}).get("active") is False,
                    timeout=300,
                    message="warm-up completion",
                )
                health = client.healthz()
                assert health.warm["completed"] == len(WARM_KERNELS)
                solves_before = _fresh_solves(client)
                for name in WARM_KERNELS:
                    record = client.kernel(name)
                    assert record.ok
                    assert record.result["kernel"] == name
                assert _fresh_solves(client) == solves_before, (
                    "a warm kernel request hit the solver"
                )
                report_cache = client.metrics()["report_cache"]
                assert report_cache["hits"] >= len(WARM_KERNELS)

    def test_daemon_serves_solves_the_cli_stored(self, tmp_path):
        """The library and the daemon share one store under one cache dir."""
        cache_dir = str(tmp_path / "cache")
        direct = analyze_kernel("gemm", cache_dir=cache_dir)
        config = ServiceConfig(workers=1, cache_dir=cache_dir)
        with ServiceThread(config) as thread:
            with ServiceClient(port=thread.port) as client:
                record = client.kernel("gemm")
                assert record.ok
                assert record.result["ours"] == kernel_report(direct)["ours"]
                assert client.metrics()["store"]["stores"] == 0

    def test_warm_state_in_healthz_while_warming(self):
        config = ServiceConfig(workers=1, warm=WARM_KERNELS)
        with ServiceThread(config) as thread:
            with ServiceClient(port=thread.port) as client:
                health = client.healthz()
                assert health.warm is not None
                assert health.warm["kernels"] == len(WARM_KERNELS)


class TestCrossWorkerDeterminism:
    def test_every_worker_reports_byte_identical_to_direct(self):
        """The acceptance check: the same request through *different*
        worker processes equals a direct in-process analyze_kernel."""
        config = ServiceConfig(workers=2, coalesce=False, report_cache=False)
        direct = _strip_volatile(kernel_report(analyze_kernel("atax")))
        with ServiceThread(config) as thread:
            with ServiceClient(port=thread.port) as client:
                # enough duplicates that both dispatchers take at least one
                records = [
                    client.kernel("atax", wait=False) for _ in range(6)
                ]
                finished = [
                    client.wait_for(r.id, timeout=300) for r in records
                ]
                workers_used = {
                    proc["index"]
                    for proc in client.healthz().worker_processes
                    if proc["jobs"] > 0
                }
                assert workers_used == {0, 1}, (
                    f"expected both workers to serve, got {workers_used}"
                )
                for record in finished:
                    assert record.ok
                    assert _strip_volatile(record.result) == direct


class TestSolveOnceInvariant:
    def test_store_has_exactly_one_entry_per_signature(self):
        """Fleet invariant: fresh solves == store writes == store rows."""
        config = ServiceConfig(workers=2, coalesce=False)
        with ServiceThread(config) as thread:
            with ServiceClient(port=thread.port) as client:
                names = ("gemm", "atax", "gemm", "atax", "mvt", "gemm")
                records = [client.kernel(n, wait=False) for n in names]
                for record in records:
                    assert client.wait_for(record.id, timeout=300).ok
                store = client.metrics()["store"]
                assert store["entries"] > 0
                assert store["stores"] == store["entries"], (
                    "a signature was solved more than once across the fleet"
                )


def _fresh_solves(client: ServiceClient) -> int:
    health = client.healthz()
    return sum(
        sum(buckets.values()) for buckets in health.solver_stats.values()
    )
