"""Service-wide counters: queue, coalescing, per-stage timings, latencies.

:class:`ServiceMetrics` is a facade over one
:class:`~repro.obs.metrics.MetricsRegistry` -- the same implementation that
backs span accounting.  Workers ship each job's span totals home, and the
front-end folds them in; the engine's stage spans also become
``engine_stage_seconds_total``/``engine_stages_total``, so engine stage
counters land next to the service's own queue/latency metrics and one
``GET /metrics`` (JSON or Prometheus text) sees everything.

Latency percentiles are computed over a bounded reservoir of the most recent
job wall times -- a daemon serving millions of requests must not keep every
sample forever, and recent latencies are the ones an operator watches.
"""

from __future__ import annotations

import time

from repro.obs.metrics import MetricsRegistry, percentile

__all__ = ["ServiceMetrics", "percentile"]


class ServiceMetrics:
    """Thread-safe counters behind ``/metrics`` (registry facade).

    Each service instance owns a private registry (not the process default)
    so concurrent services -- and tests -- never see each other's counts.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.started_at = time.time()
        self._started_clock = time.monotonic()

    # ------------------------------------------------------------------
    # observation hooks
    # ------------------------------------------------------------------

    def observe_request(self, endpoint: str) -> None:
        self.registry.inc("service_requests_total", 1.0, endpoint=endpoint)

    def observe_submitted(self, queue_depth: int) -> None:
        self.registry.inc("service_jobs_submitted_total")
        self.registry.max_gauge("service_queue_depth_peak", float(queue_depth))

    def observe_coalesced(self) -> None:
        self.registry.inc("service_jobs_coalesced_total")

    def observe_finished(self, job) -> None:
        if job.finished_ok:
            self.registry.inc("service_jobs_completed_total")
        else:
            self.registry.inc("service_jobs_failed_total")
        if job.run_seconds is not None:
            self.registry.observe("service_run_seconds", job.run_seconds)
        if job.queue_seconds is not None:
            self.registry.observe(
                "service_queue_wait_seconds", job.queue_seconds
            )

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    @property
    def coalesce_rate(self) -> float:
        """Fraction of accepted analysis requests served by an in-flight job."""
        coalesced = self.registry.counter_value("service_jobs_coalesced_total")
        submitted = self.registry.counter_value("service_jobs_submitted_total")
        total = submitted + coalesced
        return coalesced / total if total else 0.0

    def prometheus(self) -> str:
        """Prometheus text exposition of the whole registry."""
        return self.registry.prometheus()

    def snapshot(
        self,
        *,
        queue_depth: int,
        jobs: dict,
        cache: dict,
        workers: int,
        solver: dict | None = None,
        store: dict | None = None,
        bounds: dict | None = None,
        worker_detail: list | None = None,
        resilience: dict | None = None,
    ) -> dict:
        reg = self.registry
        run_samples = reg.samples("service_run_seconds")
        queue_samples = reg.samples("service_queue_wait_seconds")
        stage_seconds = reg.counter_by_label("engine_stage_seconds_total", "stage")
        stage_calls = reg.counter_by_label("engine_stages_total", "stage")
        worker_jobs = reg.counter_by_label("service_worker_jobs_total", "worker")
        return {
            "uptime_seconds": time.monotonic() - self._started_clock,
            "workers": workers,
            "worker_processes": [
                dict(record, jobs=int(worker_jobs.get(str(record["index"]), 0)))
                for record in (worker_detail or [])
            ],
            "requests": {
                endpoint: int(hits)
                for endpoint, hits in reg.counter_by_label(
                    "service_requests_total", "endpoint"
                ).items()
            },
            "queue": {
                "depth": queue_depth,
                "depth_peak": int(reg.gauge_value("service_queue_depth_peak") or 0),
                "wait_seconds_p50": percentile(queue_samples, 50),
                "wait_seconds_p99": percentile(queue_samples, 99),
            },
            "jobs": {
                "submitted": int(reg.counter_value("service_jobs_submitted_total")),
                "completed": int(reg.counter_value("service_jobs_completed_total")),
                "failed": int(reg.counter_value("service_jobs_failed_total")),
                **jobs,
            },
            "coalescing": {
                "coalesced_total": int(
                    reg.counter_value("service_jobs_coalesced_total")
                ),
                "coalesce_rate": self.coalesce_rate,
            },
            "latency": {
                "samples": len(run_samples),
                "run_seconds_p50": percentile(run_samples, 50),
                "run_seconds_p90": percentile(run_samples, 90),
                "run_seconds_p99": percentile(run_samples, 99),
            },
            "stages": {
                name: {
                    "seconds_total": seconds,
                    "calls": int(stage_calls.get(name, 0)),
                }
                for name, seconds in stage_seconds.items()
            },
            "spans": {
                "counts": reg.span_counts(),
                "slowest": reg.slowest_spans(),
            },
            "cache": cache,
            "store": store or {},
            "solver": solver or {},
            "bounds": bounds or {},
            "report_cache": {
                "hits": int(
                    reg.counter_value("service_report_cache_hits_total")
                ),
            },
            "resilience": resilience or {},
        }
