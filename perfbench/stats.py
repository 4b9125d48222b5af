"""Percentiles and the end-to-end metric set of one run."""

from __future__ import annotations

import math
import statistics

#: percentiles a tail latency is chosen from, highest last
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: a tail percentile needs at least this many samples beyond it
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    # rounded first, so 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` percentile: a beta-weighted
    average of all order statistics, centred on the nearest rank.

    Op latencies here are few and clustered (40 kernels of very different
    cost, first touches among cache reads), so a single order statistic
    jumps across the gap between clusters when one op moves; the weighted
    average moves by a fraction of the gap.
    """
    from scipy.stats.mstats import hdquantiles

    if len(values) == 0:
        raise ValueError("percentile of no samples")
    if len(values) == 1:
        return float(values[0])
    return float(hdquantiles(list(values), prob=[q / 100.0])[0])


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q`` nearest-rank percentile."""
    return n - _rank(n, q)


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least :data:`MIN_BEYOND`
    samples beyond it, or ``None`` when even the median has fewer."""
    eligible = [q for q in TAIL_LADDER if beyond(n, q) >= MIN_BEYOND]
    return eligible[-1] if eligible else None


def latency_summary(latencies_s: list[float]) -> dict:
    """Median and tail latency in milliseconds, with the tail's percentile
    and how many samples lie beyond it."""
    n = len(latencies_s)
    q = tail_percentile(n)
    tail_q = q if q is not None else 50.0
    return {
        "p50_ms": percentile(latencies_s, 50.0) * 1e3,
        "tail_ms": percentile(latencies_s, tail_q) * 1e3,
        "tail_percentile": tail_q,
        "tail_beyond": beyond(n, tail_q),
        "samples": n,
    }


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """Fold a run's pass records into the end-to-end metrics.

    Returns ``(metrics, detail)``: ``metrics`` maps each metric name to
    ``{"value", "unit"}``; ``detail`` carries what the metrics summarize
    (tail percentile and its sample count, set-up samples).
    """
    timed = [p for p in passes if p["mode"] == "pass"]
    ops = [op for p in timed for op in p["ops"]]
    wall = sum(p["wall_s"] for p in timed)
    cpu = sum(p["cpu_s"] for p in timed)
    failed = sum(1 for op in ops if op["failure"] is not None)
    latency = latency_summary([op["latency_s"] for op in ops])
    setups = [p["setup_s"] for p in passes]
    metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (cpu, "s"),
        "throughput_ops_s": (len(ops) / wall, "1/s"),
        "latency_p50_ms": (latency["p50_ms"], "ms"),
        "latency_tail_ms": (latency["tail_ms"], "ms"),
        "success_ratio": ((len(ops) - failed) / len(ops), "ratio"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    detail = {
        "ops": len(ops),
        "failed": failed,
        "fail_ratio": failed / len(ops),
        "latency_tail": {
            "percentile": latency["tail_percentile"],
            "samples_beyond": latency["tail_beyond"],
            "samples": latency["samples"],
        },
        "setup_samples_s": setups,
    }
    return (
        {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        detail,
    )
