"""Observability: spans, cross-process stitching, metrics, exports."""

import json
import multiprocessing
import os
import threading

import pytest

from repro.obs import (
    NULL_SPAN,
    MetricsRegistry,
    Tracer,
    attach,
    current_span,
    percentile,
    read_trace,
    span,
    span_tree,
    to_chrome_trace,
    trace_context,
    tracing,
    validate_trace,
)
from repro.obs.rss import peak_rss_bytes


class TestPercentile:
    """Nearest-rank definition, pinned (the old round() version was wrong)."""

    def test_empty_is_none(self):
        assert percentile([], 50) is None

    def test_single_sample_every_quantile(self):
        for q in (0, 50, 99, 100):
            assert percentile([7.0], q) == 7.0

    def test_p0_is_minimum(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 0) == 1.0

    def test_p100_is_maximum(self):
        assert percentile([4.0, 1.0, 3.0, 2.0], 100) == 4.0

    def test_p50_nearest_rank_even_count(self):
        # ceil(0.5 * 4) = rank 2 -> the 2nd smallest, NOT the 3rd (the old
        # round()-based index landed on 3.0 here via banker's rounding)
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0

    def test_p99_small_sample(self):
        # ceil(0.99 * 4) = rank 4 -> the maximum
        assert percentile([1.0, 2.0, 3.0, 4.0], 99) == 4.0

    def test_p50_odd_count_is_median(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_service_reexport_is_fixed_version(self):
        from repro.service.metrics import percentile as service_percentile

        assert service_percentile is percentile


class TestSpans:
    def test_no_tracer_yields_null_span(self):
        with span("anything") as sp:
            assert sp is NULL_SPAN
            sp.add("counter")  # no-op, must not raise
            sp.note(attr=1)
        assert current_span() is NULL_SPAN

    def test_nesting_and_counters(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with Tracer(path):
            with span("outer", kernel="gemm"):
                with span("inner") as sp:
                    sp.add("loads", 5)
                    sp.add("loads", 2)
        records = read_trace(path)
        assert validate_trace(records) == []
        by_name = {r["name"]: r for r in records}
        assert by_name["inner"]["parent"] == by_name["outer"]["span"]
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["counters"] == {"loads": 7}
        assert by_name["outer"]["attrs"] == {"kernel": "gemm"}
        assert by_name["outer"]["wall"] >= by_name["inner"]["wall"] >= 0

    def test_span_tree_structure(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with Tracer(path):
            with span("root"):
                with span("a"):
                    with span("leaf"):
                        pass
                with span("b"):
                    pass
        roots = span_tree(read_trace(path))
        assert [r["name"] for r in roots] == ["root"]
        children = [c["name"] for c in roots[0]["children"]]
        assert children == ["a", "b"]  # sorted by start time
        assert roots[0]["children"][0]["children"][0]["name"] == "leaf"

    def test_exception_records_error_and_unwinds_stack(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with Tracer(path):
            with pytest.raises(RuntimeError):
                with span("failing"):
                    raise RuntimeError("boom")
            # the stack must be clean: a new span is a root, not a child
            with span("after"):
                pass
        by_name = {r["name"]: r for r in read_trace(path)}
        assert by_name["failing"]["attrs"]["error"] == "RuntimeError"
        assert by_name["after"]["parent"] is None

    def test_decorator_form(self, tmp_path):
        path = str(tmp_path / "t.jsonl")

        @span("decorated", flavor="test")
        def work(x):
            return x * 2

        with Tracer(path):
            assert work(21) == 42
        (record,) = read_trace(path)
        assert record["name"] == "decorated"
        assert record["attrs"] == {"flavor": "test"}

    def test_registry_counts_spans_without_a_sink(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)  # path-less: counts only
        with tracing(tracer):
            for _ in range(3):
                with span("counted"):
                    pass
        assert registry.span_counts() == {"counted": 3}
        assert len(registry.slowest_spans()) == 3


class TestCrossProcess:
    def test_forked_worker_stitches_under_driver(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        ctx = multiprocessing.get_context("fork")

        def worker(tctx):
            with attach(tctx):
                with span("child-work") as sp:
                    sp.add("items", 4)

        with Tracer(path) as tracer:
            with span("driver"):
                tctx = trace_context()
                assert tctx is not None
                assert tctx.path == path
                proc = ctx.Process(target=worker, args=(tctx,))
                proc.start()
                proc.join()
                assert proc.exitcode == 0
        records = read_trace(path)
        assert validate_trace(records) == []
        assert {r["trace"] for r in records} == {tracer.trace_id}
        by_name = {r["name"]: r for r in records}
        assert by_name["child-work"]["parent"] == by_name["driver"]["span"]
        assert by_name["child-work"]["pid"] != by_name["driver"]["pid"]
        assert by_name["child-work"]["counters"] == {"items": 4}

    def test_fork_does_not_inherit_active_tracer(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        ctx = multiprocessing.get_context("fork")

        def worker(queue):
            # forked mid-trace, but never attached: must not be tracing
            from repro.obs import current_tracer

            with span("orphan-would-be"):
                pass
            queue.put(current_tracer() is None)

        with Tracer(path):
            with span("driver"):
                queue = ctx.Queue()
                proc = ctx.Process(target=worker, args=(queue,))
                proc.start()
                proc.join()
        assert queue.get(timeout=5) is True
        names = {r["name"] for r in read_trace(path)}
        assert names == {"driver"}

    def test_parallel_sweep_trace_has_no_orphans(self, tmp_path):
        from repro.schedule.tightness import audit_corpus

        path = str(tmp_path / "sweep.jsonl")
        with Tracer(path):
            with span("driver"):
                report = audit_corpus(
                    ["atax", "mvt"], s_values=(8,), jobs=2, chunk_size=64
                )
        assert report.rows and all(r.ok for r in report.rows)
        records = read_trace(path)
        assert validate_trace(records) == []
        assert len({r["trace"] for r in records}) == 1
        names = {r["name"] for r in records}
        assert {"driver", "tightness.audit", "engine.analyze", "replay"} <= names
        (root,) = span_tree(records)
        assert root["name"] == "driver"
        assert len({r["pid"] for r in records}) > 1  # the pool's workers


class TestRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("hits", 2.0, kind="a")
        reg.inc("hits", 3.0, kind="b")
        reg.set_gauge("depth", 7.0)
        reg.max_gauge("peak", 5.0)
        reg.max_gauge("peak", 3.0)  # lower: must not regress
        reg.observe("lat", 0.25)
        assert reg.counter_value("hits", kind="a") == 2.0
        assert reg.counter_total("hits") == 5.0
        assert reg.counter_by_label("hits", "kind") == {"a": 2.0, "b": 3.0}
        assert reg.gauge_value("depth") == 7.0
        assert reg.gauge_value("peak") == 5.0
        assert reg.samples("lat") == [0.25]
        assert reg.counter_value("lat_count") == 1.0
        assert reg.counter_value("lat_sum") == 0.25

    def test_bounded_reservoir(self):
        reg = MetricsRegistry(reservoir=8)
        for i in range(100):
            reg.observe("lat", float(i))
        samples = reg.samples("lat")
        assert len(samples) == 8
        assert samples == [float(i) for i in range(92, 100)]  # most recent
        assert reg.counter_value("lat_count") == 100.0  # but counts all

    def test_concurrent_hammer_totals_add_up(self):
        reg = MetricsRegistry()
        threads, per_thread = 8, 500

        def hammer(index: int):
            for i in range(per_thread):
                reg.inc("total")
                reg.inc("labeled", 1.0, worker=str(index))
                reg.observe("lat", float(i))
                reg.max_gauge("peak", float(i))
                reg.observe_span("work", 0.001)

        pool = [
            threading.Thread(target=hammer, args=(i,)) for i in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        expected = float(threads * per_thread)
        assert reg.counter_value("total") == expected
        assert reg.counter_total("labeled") == expected
        assert reg.counter_value("lat_count") == expected
        assert reg.gauge_value("peak") == float(per_thread - 1)
        assert reg.span_counts() == {"work": threads * per_thread}

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.inc("hits", 1.0, kind="a")
        reg.observe("lat", 0.5)
        snap = reg.snapshot()
        assert snap["counters"]["hits"] == {"kind=a": 1.0}
        assert snap["histograms"]["lat"]["samples"] == 1
        assert snap["histograms"]["lat"]["p50"] == 0.5
        assert "spans" in snap


class TestPrometheus:
    def test_exposition_format(self):
        reg = MetricsRegistry()
        reg.inc("jobs_total", 3.0, state="done")
        reg.set_gauge("queue_depth", 2.0)
        reg.observe("run_seconds", 0.5)
        text = reg.prometheus()
        lines = text.strip().splitlines()
        assert 'repro_jobs_total{state="done"} 3' in lines
        assert "repro_queue_depth 2" in lines
        assert "# TYPE repro_jobs_total counter" in lines
        assert "# TYPE repro_queue_depth gauge" in lines
        assert 'repro_run_seconds{quantile="0.5"} 0.5' in lines
        assert "repro_run_seconds_count 1" in lines
        # format validation: every line is a comment or name{labels} value
        import re

        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9][0-9eE.+-]*$"
        )
        for line in lines:
            assert line.startswith("#") or sample.match(line), line

    def test_names_and_labels_escaped(self):
        reg = MetricsRegistry()
        reg.inc("bad-name.total", 1.0, path='with"quote')
        text = reg.prometheus()
        assert 'repro_bad_name_total{path="with\\"quote"} 1' in text


class TestExport:
    def _records(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with Tracer(path):
            with span("root", kernel="gemm"):
                with span("leaf") as sp:
                    sp.add("loads", 3)
        return read_trace(path)

    def test_chrome_trace_shape(self, tmp_path):
        records = self._records(tmp_path)
        chrome = to_chrome_trace(records)
        events = chrome["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 2
        assert meta and meta[0]["name"] == "process_name"
        by_name = {e["name"]: e for e in complete}
        # ts is rebased to the earliest span, microseconds
        assert by_name["root"]["ts"] == 0
        assert by_name["leaf"]["ts"] >= 0
        assert by_name["leaf"]["args"]["loads"] == 3
        assert by_name["leaf"]["args"]["parent_span_id"] == (
            by_name["root"]["args"]["span_id"]
        )
        json.dumps(chrome)  # must be JSON-serializable as-is

    def test_validate_catches_orphans_and_duplicates(self, tmp_path):
        records = self._records(tmp_path)
        assert validate_trace(records) == []
        orphaned = [dict(records[0], parent="feedfacefeedface")]
        assert any("orphan" in e for e in validate_trace(orphaned))
        dupes = [records[0], dict(records[0])]
        assert any("duplicate" in e for e in validate_trace(dupes))
        missing = [{k: v for k, v in records[0].items() if k != "wall"}]
        assert any("wall" in e for e in validate_trace(missing))


class TestCli:
    def _write_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(str(path)):
            with span("root"):
                with span("leaf"):
                    pass
        return path

    def test_trace_validate_ok(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_trace(tmp_path)
        assert main(["trace", "validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 spans" in out and "ok" in out

    def test_trace_validate_rejects_garbage(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.jsonl"
        path.write_text('{"span": "x", "name": "y"}\n')
        assert main(["trace", "validate", str(path)]) == 1

    def test_trace_convert_writes_perfetto_json(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write_trace(tmp_path)
        out_path = tmp_path / "out.json"
        assert main(["trace", "convert", str(path), "-o", str(out_path)]) == 0
        chrome = json.loads(out_path.read_text())
        assert any(e["ph"] == "X" for e in chrome["traceEvents"])

    def test_kernel_trace_flag_produces_valid_trace(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "k.jsonl"
        assert main(["kernel", "atax", "--trace", str(path)]) == 0
        records = read_trace(str(path))
        assert validate_trace(records) == []
        names = {r["name"] for r in records}
        assert {"cli.kernel", "engine.analyze", "solve", "solver.solve-batch"} <= names
        batches = [r for r in records if r["name"] == "solver.solve-batch"]
        assert all(r["attrs"]["backend"] == "exact" for r in batches)
        assert sum(r["counters"]["solved"] for r in batches) >= 1


class TestRss:
    def test_peak_rss_positive_and_monotonic(self):
        first = peak_rss_bytes()
        assert first > 0
        ballast = bytearray(8 * 1024 * 1024)
        assert peak_rss_bytes() >= first
        del ballast

    def test_rss_scale_matches_platform(self):
        import sys as _sys

        from repro.obs.rss import _scale

        assert _scale() == (1 if _sys.platform == "darwin" else 1024)
