"""Per-layer metrics of a traced run.

Every workload's traced run reports every metric of :data:`PER_LAYER`.  A
layer the workload does not exercise reads 0 and is named in the run's
``not_exercised`` list; a layer that runs out of reach of the wrappers (in
a forked service worker) is filled from the daemon's own records and named
in ``fallbacks``.
"""

from __future__ import annotations

import math

from perfbench.stats import percentile

BOUND_ENGINES = ("kkt", "spectral", "visit")

#: span layers whose self time is reported as ``<layer>.self_s``
SELF_TIME_LAYERS = (
    "kernels.build",
    "frontend.parse",
    "sdg.build",
    "sdg.enumerate",
    "sdg.fuse",
    "engine.canonicalize",
    "engine.combine",
    "opt.solve",
    "opt.intensity",
    "symbolic.leading_term",
    "analysis.verdict",
    "cdag.build",
    *(f"bounds.{engine}" for engine in BOUND_ENGINES),
    "schedule.derive",
    "schedule.stream_build",
    "schedule.next_use",
    "schedule.replay",
    "schedule.audit",
    "service.fingerprint",
)

#: every per-layer metric, in report order, with its unit
PER_LAYER: dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS},
    "frontend.parse.calls": "count",
    "sdg.enumerate.subgraphs": "count",
    "sdg.fuse.calls": "count",
    "engine.canonicalize.calls": "count",
    "engine.cache.get_s": "s",
    "engine.cache.put_s": "s",
    "engine.cache.hit_ratio": "ratio",
    "opt.solve.problems": "count",
    "sympy.simplify.calls": "count",
    "cdag.build.vertices": "count",
    **{f"bounds.{engine}.strict_wins": "count" for engine in BOUND_ENGINES},
    "schedule.replay.accesses_per_s": "1/s",
    "service.dispatch_ms.p50": "ms",
    "service.dispatch_ms.p99": "ms",
    "service.queue_wait_ms.p50": "ms",
    "service.queue_wait_ms.p99": "ms",
    "service.run_ms.p50": "ms",
    "service.run_ms.p99": "ms",
    "service.coalesced_ratio": "ratio",
    "service.report_hit_ratio": "ratio",
    "store.solve_hit_ratio": "ratio",
    "store.stores": "count",
    "store.claim_waits": "count",
    "trace.overhead_ratio": "ratio",
    "layers.coverage": "ratio",
}

#: worker-side engine stages in the daemon's /metrics, by the layer whose
#: time they stand in for (stage totals: the solve stage includes
#: canonicalize, cache lookups and intensity)
SERVICE_STAGE_FALLBACKS = {
    "sdg.build.self_s": "build-sdg",
    "sdg.enumerate.self_s": "enumerate",
    "sdg.fuse.self_s": "fuse",
    "opt.solve.self_s": "solve",
    "engine.combine.self_s": "combine",
}


def merge_ledgers(snapshots: list[dict]) -> dict:
    """Average the ledger snapshots of several passes (per-pass values)."""
    spans: dict[str, dict] = {}
    counts: dict[str, float] = {}
    for snapshot in snapshots:
        for layer, record in snapshot["spans"].items():
            into = spans.setdefault(layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in into:
                into[key] += record[key]
        for name, value in snapshot["counts"].items():
            counts[name] = counts.get(name, 0) + value
    n = max(1, len(snapshots))
    for record in spans.values():
        for key in record:
            record[key] /= n
    return {"spans": spans, "counts": {k: v / n for k, v in counts.items()}}


def strict_wins(rows: list[dict]) -> dict[str, int]:
    """Per engine, the audit points where its bound strictly beats every
    other engine's finite bound."""
    wins = {engine: 0 for engine in BOUND_ENGINES}
    for row in rows:
        values = {
            engine: value
            for engine, value in (row.get("engine_bounds") or {}).items()
            if isinstance(value, (int, float)) and math.isfinite(value)
        }
        for engine, value in values.items():
            others = [v for e, v in values.items() if e != engine]
            if engine in wins and others and all(value > v for v in others):
                wins[engine] += 1
    return wins


def _delta(after: dict, before: dict, *path) -> float:
    def dig(payload):
        for key in path:
            payload = (payload or {}).get(key)
        return float(payload or 0)

    return dig(after) - dig(before)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _service_layers(passes: list[dict], values: dict, fallbacks: list) -> float:
    """Service metrics from client latencies, JobRecords and /metrics
    deltas; returns the coverage of the request latencies."""
    dispatch, queue, run, latency_sum, covered = [], [], [], 0.0, 0.0
    submitted = coalesced = reports = stores = hits = misses = waits = 0.0
    stages: dict[str, float] = {}
    for record in passes:
        jobs_seen = set()
        for op in record["ops"]:
            job = op.get("job")
            if not job or job["total_s"] is None:
                continue
            if job["id"] not in jobs_seen:
                jobs_seen.add(job["id"])
                queue.append(job["queue_s"] * 1e3)
                run.append(job["run_s"] * 1e3)
            if job["attached"] == 1:
                # the client's latency splits exactly into the dispatch
                # residual (HTTP, parse, fingerprint) and the job's time
                dispatch.append((op["latency_s"] - job["total_s"]) * 1e3)
                latency_sum += op["latency_s"]
                covered += job["queue_s"] + job["run_s"] + (
                    op["latency_s"] - job["total_s"]
                )
        before, after = record["metrics_before"], record["metrics_after"]
        submitted += _delta(after, before, "jobs", "submitted")
        coalesced += _delta(after, before, "coalescing", "coalesced_total")
        reports += _delta(after, before, "report_cache", "hits")
        stores += _delta(after, before, "store", "stores")
        hits += _delta(after, before, "store", "hits")
        misses += _delta(after, before, "store", "misses")
        waits += _delta(after, before, "store", "waits")
        for metric, stage in SERVICE_STAGE_FALLBACKS.items():
            stages[metric] = stages.get(metric, 0.0) + _delta(
                after, before, "stages", stage, "seconds_total"
            )
    for stat, samples in (("dispatch_ms", dispatch), ("queue_wait_ms", queue),
                          ("run_ms", run)):
        if samples:
            values[f"service.{stat}.p50"] = percentile(samples, 50)
            values[f"service.{stat}.p99"] = percentile(samples, 99)
    values["service.coalesced_ratio"] = _ratio(coalesced, submitted + coalesced)
    values["service.report_hit_ratio"] = _ratio(reports, submitted)
    values["store.solve_hit_ratio"] = _ratio(hits, hits + misses)
    n = max(1, len(passes))
    values["store.stores"] = stores / n
    values["store.claim_waits"] = waits / n
    for metric, seconds in stages.items():
        values[metric] = seconds / n
        fallbacks.append(
            f"{metric}: worker-side stage total from /metrics "
            f"({SERVICE_STAGE_FALLBACKS[metric]} stage)"
        )
    fallbacks.append(
        "service.queue_wait_ms, service.run_ms: JobRecord timings of the "
        "forked workers; service.dispatch_ms: client latency minus the job's "
        "total_seconds, over requests that were not coalesced"
    )
    fallbacks.append(
        "frontend.parse: front-end parses only (workers re-parse /analyze "
        "sources out of reach of the wrappers)"
    )
    fallbacks.append(
        "layers.coverage: by construction (dispatch is the residual of the "
        "JobRecord split of each non-coalesced request)"
    )
    return _ratio(covered, latency_sum)


def per_layer(workload: str, traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    """Fold the traced passes (and their untraced twins) into
    :data:`PER_LAYER` values; returns ``(metrics, detail)``."""
    ledger = merge_ledgers([p["ledger"] for p in traced])
    spans, counts = ledger["spans"], ledger["counts"]
    values: dict[str, float] = {}
    for layer in SELF_TIME_LAYERS:
        if layer in spans:
            values[f"{layer}.self_s"] = spans[layer]["self_s"]
    for layer, metric in (
        ("frontend.parse", "frontend.parse.calls"),
        ("sdg.fuse", "sdg.fuse.calls"),
        ("engine.canonicalize", "engine.canonicalize.calls"),
    ):
        if layer in spans:
            values[metric] = spans[layer]["calls"]
    for name, metric in (
        ("sdg.enumerate.subgraphs", "sdg.enumerate.subgraphs"),
        ("opt.solve.problems", "opt.solve.problems"),
        ("sympy.simplify.calls", "sympy.simplify.calls"),
        ("cdag.build.vertices", "cdag.build.vertices"),
    ):
        if name in counts:
            values[metric] = counts[name]
    if "engine.cache.get" in spans:
        gets = spans["engine.cache.get"]
        values["engine.cache.get_s"] = gets["self_s"]
        values["engine.cache.hit_ratio"] = _ratio(
            counts.get("engine.cache.hits", 0), gets["calls"]
        )
    if "engine.cache.put" in spans:
        values["engine.cache.put_s"] = spans["engine.cache.put"]["self_s"]
    if "schedule.replay" in spans:
        values["schedule.replay.accesses_per_s"] = _ratio(
            counts.get("schedule.replay.accesses", 0),
            spans["schedule.replay"]["self_s"],
        )
    if workload == "tightness":
        # every pass audits the same points; the first pass's rows count
        for engine, wins in strict_wins(traced[0]["outputs"]["rows"]).items():
            values[f"bounds.{engine}.strict_wins"] = wins
    traced_wall = sum(p["wall_s"] for p in traced)
    fallbacks: list[str] = []
    if workload == "service":
        coverage = _service_layers(traced, values, fallbacks)
    else:
        coverage = _ratio(
            sum(s["self_s"] for s in spans.values()) * len(traced), traced_wall
        )
    values["layers.coverage"] = coverage
    values["trace.overhead_ratio"] = _ratio(
        traced_wall, sum(p["wall_s"] for p in untraced)
    )
    not_exercised = [name for name in PER_LAYER if name not in values]
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER.items()
    }
    detail = {
        "not_exercised": not_exercised,
        "fallbacks": fallbacks,
        "passes": len(traced),
        "unattributed_s_per_pass": traced_wall / len(traced)
        - sum(s["self_s"] for s in spans.values())
        if workload != "service"
        else None,
    }
    return metrics, detail
