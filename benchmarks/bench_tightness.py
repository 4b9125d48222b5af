"""Tightness benchmark: replay throughput at scale + the corpus audit.

Measurement protocol (shared boxes swing CPU time by 25%+ between runs):

* **warm-up first** -- a small instance runs every code path (including the
  one-time native-core compile) before anything is timed;
* **CPU time, not wall time** -- the `_harness.timed` convention;
* **interleaved A/B, best of rounds** -- each round times stream build,
  next-use table, Belady replay (production backend), the pure-Python
  replay loop, and LRU back to back; per-component minima over rounds are
  the reported numbers, so a throttled round cannot fake a regression (or
  an improvement).

Four measurements:

1. **Out-of-core replay** -- build the blocked gemm access stream at
   >= 10^8 accesses through the chunked generator and replay it under
   Belady and LRU over chunk-sized slabs, recording **peak RSS** next to
   throughput.  Runs *first* in the process (``ru_maxrss`` is a lifetime
   peak) and once (no best-of rounds; it is a memory measurement, and CPU
   variance at this scale is small relative to the budget).  Acceptance:
   within the CPU budget and peak RSS under ``OUTOFCORE_RSS_BUDGET``; CI
   additionally gates fresh runs at 2x the committed baseline RSS.
2. **Replay scale** -- build the blocked gemm access stream straight from
   the IR (no graph materialized) at >= 10^6 computed vertices and replay
   it under Belady and LRU.  Acceptance: within the CPU budget, and
   (build + table + Belady) at least ``MIN_REPLAY_SPEEDUP`` times faster
   than the recorded pure-Python baseline of the pre-array-native pipeline
   (PR 4's BENCH_tightness.json, reproduced in ``PYTHON_BASELINE`` below).
   Each round also replays under an active span tracer (JSONL sink and
   all); acceptance: traced Belady within ``TRACE_OVERHEAD_MAX`` of
   untraced (slab-granular instrumentation must stay near-free).
3. **Simulator vs pebble game** -- same mid-size CDAG, same schedule, a
   sweep of S values through both executors.  Acceptance: bit-identical
   costs and a real speedup.
4. **Audit smoke** -- a small-kernel tightness audit through the process
   pool; acceptance: every audited row reports a finite gap.

Run:  PYTHONPATH=src python benchmarks/bench_tightness.py [--subset] [--jobs N]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _harness import finish, make_parser, maybe_traced, timed  # noqa: E402

#: CPU budget for the scale replay (native core replays in well under a
#: second; the budget still admits the pure-Python fallback path)
REPLAY_CPU_BUDGET_SECONDS = 60.0
MIN_SPEEDUP = 2.0
#: acceptance floor for (build + table + belady) vs PYTHON_BASELINE,
#: gated on full (non-subset) runs
MIN_REPLAY_SPEEDUP = 5.0
#: timing rounds per instance (best-of)
ROUNDS = 3

#: traced replay may cost at most this much CPU relative to untraced (the
#: native core reads per-slab counter deltas only when a span is open, so
#: the slab-granular instrumentation must stay near-free) ...
TRACE_OVERHEAD_MAX = 1.10
#: ... with an absolute slack floor so sub-10ms subset instances, where a
#: single scheduler hiccup exceeds 10%, cannot flake the gate
TRACE_OVERHEAD_SLACK_SECONDS = 0.05

#: CPU budget for the 10^8-access out-of-core point (build + both replays;
#: generous: CI shared runners are slow and the point is single-shot)
OUTOFCORE_CPU_BUDGET_SECONDS = 900.0
#: the out-of-core point must fit in this much resident memory -- the
#: whole point of chunked build + slab replay
OUTOFCORE_RSS_BUDGET_BYTES = 2 * 1024**3
#: gemm size for the out-of-core point: 3*N^3 - N^2 accesses >= 10^8
OUTOFCORE_N = 322
#: build/replay chunk for the out-of-core point (positions per slab)
OUTOFCORE_CHUNK = 1 << 20

#: recorded pre-array-native numbers (PR 4's BENCH_tightness.json): the
#: scalar AccessStream builder took 6.80s CPU and the per-id use-list
#: Belady replay 5.62s on the 10^6-position gemm instance -- the "before"
#: half of the before/after this file certifies
PYTHON_BASELINE = {
    "stream_build_cpu_seconds": 6.802773201,
    "belady_cpu_seconds": 5.615866885,
    "belady_accesses_per_cpu_second": 532420.03,
    "lru_accesses_per_cpu_second": 448085.16,
}


def _peak_rss_bytes() -> int:
    from repro.obs.rss import peak_rss_bytes

    return peak_rss_bytes()


def bench_outofcore(
    n: int = OUTOFCORE_N, s: int = 1024, chunk: int = OUTOFCORE_CHUNK
) -> dict:
    """The 10^8-access gemm point: chunked build, slab replay, peak RSS."""
    from repro.kernels import get_kernel
    from repro.schedule._native import native_replay_lib
    from repro.schedule.simulator import simulate_io
    from repro.schedule.stream import single_statement_stream

    program = get_kernel("gemm").build()
    tile = max(2, int(s ** 0.5))
    tiles = {"i": tile, "j": tile, "k": tile}
    order = ["i", "j", "k"]

    # warm-up on a tiny instance: chunked build path + native compile
    warm = single_statement_stream(
        program, {"N": 10}, tile_sizes={"i": 2, "j": 2, "k": 2},
        variable_order=order, chunk_positions=64,
    )
    simulate_io(warm, 16, slab_positions=64)
    simulate_io(warm, 16, policy="lru", slab_positions=64)

    build = timed(
        single_statement_stream, program, {"N": n},
        tile_sizes=tiles, variable_order=order, chunk_positions=chunk,
    )
    stream = build.value
    table = timed(stream.next_use_arrays)  # one reverse pass over slabs
    belady = timed(simulate_io, stream, s, slab_positions=chunk)
    lru = timed(simulate_io, stream, s, policy="lru", slab_positions=chunk)
    peak_rss = _peak_rss_bytes()

    def policy_payload(run) -> dict:
        return {
            "cost": run.value.cost,
            "loads": run.value.loads,
            "stores": run.value.stores,
            "cpu_seconds": run.cpu_seconds,
            "accesses_per_cpu_second": (
                stream.n_accesses / run.cpu_seconds
                if run.cpu_seconds else None
            ),
        }

    return {
        "kernel": "gemm",
        "n": n,
        "s": s,
        "tile": tile,
        "chunk_positions": chunk,
        "positions": stream.n_positions,
        "accesses": stream.n_accesses,
        "ids": stream.n_ids,
        "replay_backend": "native" if native_replay_lib() else "python",
        "stream_build_cpu_seconds": build.cpu_seconds,
        "next_use_cpu_seconds": table.cpu_seconds,
        "policies": {
            "belady": policy_payload(belady),
            "lru": policy_payload(lru),
        },
        "peak_rss_bytes": peak_rss,
        "peak_rss_gib": peak_rss / 1024**3,
        "total_cpu_seconds": (
            build.cpu_seconds + table.cpu_seconds
            + belady.cpu_seconds + lru.cpu_seconds
        ),
    }


def bench_replay_scale(n: int, s: int, rounds: int = ROUNDS) -> dict:
    from repro.kernels import get_kernel
    from repro.schedule._native import native_replay_lib
    from repro.schedule.simulator import _replay, simulate_io
    from repro.schedule.stream import single_statement_stream

    program = get_kernel("gemm").build()
    tile = max(2, int(s ** 0.5))
    tiles = {"i": tile, "j": tile, "k": tile}
    order = ["i", "j", "k"]

    # warm-up: every code path incl. the one-time native compile
    warm = single_statement_stream(
        program, {"N": 10}, tile_sizes={"i": 2, "j": 2, "k": 2},
        variable_order=order,
    )
    simulate_io(warm, 16)
    simulate_io(warm, 16, policy="lru")
    _replay(warm, 16, belady=True)

    import os
    import tempfile

    from repro.obs import Tracer

    def belady_traced(path: str):
        # a full tracer with a live JSONL sink: the honest traced cost
        with Tracer(path):
            return simulate_io(stream, s)

    best: dict[str, float] = {}
    results: dict[str, object] = {}
    stream = None
    trace_fd, trace_path = tempfile.mkstemp(
        prefix="bench-trace-", suffix=".jsonl"
    )
    os.close(trace_fd)
    try:
        for _ in range(rounds):
            build = timed(
                single_statement_stream, program, {"N": n},
                tile_sizes=tiles, variable_order=order,
            )
            stream = build.value
            table = timed(stream.next_use_table)
            belady = timed(simulate_io, stream, s)
            traced = timed(belady_traced, trace_path)
            python = timed(_replay, stream, s, belady=True)
            lru = timed(simulate_io, stream, s, policy="lru")
            for key, run in (
                ("build", build), ("table", table), ("belady", belady),
                ("belady_traced", traced), ("belady_python", python),
                ("lru", lru),
            ):
                if run.cpu_seconds < best.get(key, float("inf")):
                    best[key] = run.cpu_seconds
                results[key] = run.value
            assert python.value.cost == belady.value.cost  # backends agree
            assert traced.value.cost == belady.value.cost  # tracing is inert
    finally:
        os.unlink(trace_path)

    def policy_payload(key: str) -> dict:
        run = results[key]
        return {
            "cost": run.cost,
            "loads": run.loads,
            "stores": run.stores,
            "evictions": run.evictions,
            "cpu_seconds": best[key],
            "accesses_per_cpu_second": (
                stream.n_accesses / best[key] if best[key] else None
            ),
        }

    replay_total = best["build"] + best["table"] + best["belady"]
    baseline_total = (
        PYTHON_BASELINE["stream_build_cpu_seconds"]
        + PYTHON_BASELINE["belady_cpu_seconds"]
    )
    trace_overhead = (
        best["belady_traced"] / best["belady"]
        if best["belady"]
        else 1.0
    )
    bound = 2 * n**3 / s**0.5
    return {
        "kernel": "gemm",
        "n": n,
        "s": s,
        "tile": tile,
        "rounds": rounds,
        "positions": stream.n_positions,
        "accesses": stream.n_accesses,
        "ids": stream.n_ids,
        "replay_backend": "native" if native_replay_lib() else "python",
        "stream_build_cpu_seconds": best["build"],
        "next_use_table_cpu_seconds": best["table"],
        "bound": bound,
        "belady_gap": results["belady"].cost / bound,
        "policies": {
            "belady": policy_payload("belady"),
            "belady_python_loop": policy_payload("belady_python"),
            "lru": policy_payload("lru"),
        },
        "traced_belady_cpu_seconds": best["belady_traced"],
        "trace_overhead_ratio": trace_overhead,
        "python_baseline": dict(PYTHON_BASELINE),
        "speedup_vs_python_baseline": baseline_total / replay_total,
    }


def bench_simulator_vs_game(n: int, s_values: list[int]) -> dict:
    from repro.cdag.build import build_cdag
    from repro.kernels import get_kernel
    from repro.pebbling.greedy import greedy_pebbling_cost
    from repro.schedule.simulator import simulate_io
    from repro.schedule.stream import stream_from_graph

    cdag = build_cdag(get_kernel("gemm").build(), {"N": n})

    def run_game() -> list[int]:
        return [greedy_pebbling_cost(cdag.graph, s) for s in s_values]

    def run_replay() -> list[int]:
        stream = stream_from_graph(cdag.graph)
        return [simulate_io(stream, s).cost for s in s_values]

    game = timed(run_game)
    replay = timed(run_replay)
    return {
        "kernel": "gemm",
        "n": n,
        "s_values": list(s_values),
        "vertices": cdag.n_vertices,
        "game_costs": game.value,
        "replay_costs": replay.value,
        "identical": game.value == replay.value,
        "game_cpu_seconds": game.cpu_seconds,
        "replay_cpu_seconds": replay.cpu_seconds,
        "speedup": (
            game.cpu_seconds / replay.cpu_seconds
            if replay.cpu_seconds
            else None
        ),
    }


def bench_audit(kernels: list[str], jobs: int) -> dict:
    import resource

    from repro.reporting.serialize import tightness_report
    from repro.schedule.tightness import audit_corpus

    # process_time() only sees the parent: with a process-pool audit the
    # per-kernel CPU lands in the children, so fold in the RUSAGE_CHILDREN
    # delta (the pool is joined before audit_corpus returns, so children
    # CPU is fully accounted).
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    before = children.ru_utime + children.ru_stime
    run = timed(audit_corpus, kernels, jobs=jobs)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = run.cpu_seconds + (children.ru_utime + children.ru_stime - before)
    payload = tightness_report(run.value)
    return {
        "kernels": kernels,
        "jobs": jobs,
        "cpu_seconds": cpu,
        "wall_seconds": run.wall_seconds,
        "summary": payload["summary"],
        "rows": [
            {
                "kernel": r["kernel"],
                "s": r["s"],
                "gap": r["gap"],
                "classification": r["classification"],
            }
            for r in payload["rows"]
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = make_parser(
        "Schedule-replay tightness benchmark", "BENCH_tightness.json"
    )
    parser.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="process-pool width for the audit sweep (default: 2)",
    )
    parser.add_argument(
        "--skip-outofcore", action="store_true",
        help="skip the 10^8-access out-of-core point (local iteration)",
    )
    args = parser.parse_args(argv)

    # the out-of-core point runs FIRST: ru_maxrss is a process-lifetime
    # peak, so anything larger running earlier would pollute the reading
    # (note --trace wraps the measurements in an ambient tracer, which
    # makes the traced-vs-untraced A/B a ~1.0x no-op: leave it off when
    # gating on trace_overhead_ratio)
    with maybe_traced(args, "bench.tightness"):
        outofcore = None if args.skip_outofcore else bench_outofcore()
        if args.subset:
            scale = bench_replay_scale(n=50, s=256, rounds=2)
            versus = bench_simulator_vs_game(n=12, s_values=[8, 18])
            audit = bench_audit(["gemm", "atax"], jobs=args.jobs)
        else:
            scale = bench_replay_scale(n=100, s=1024)
            versus = bench_simulator_vs_game(n=20, s_values=[8, 18, 64])
            audit = bench_audit(["gemm", "atax", "jacobi1d"], jobs=args.jobs)

    belady_cpu = scale["policies"]["belady"]["cpu_seconds"]
    acceptance = {
        "replay_within_cpu_budget": belady_cpu <= REPLAY_CPU_BUDGET_SECONDS,
        "replay_cpu_budget_seconds": REPLAY_CPU_BUDGET_SECONDS,
        "outofcore_hundred_million_accesses": outofcore is None
        or outofcore["accesses"] >= 100_000_000,
        "outofcore_within_cpu_budget": outofcore is None
        or outofcore["total_cpu_seconds"] <= OUTOFCORE_CPU_BUDGET_SECONDS,
        "outofcore_cpu_budget_seconds": OUTOFCORE_CPU_BUDGET_SECONDS,
        "outofcore_within_rss_budget": outofcore is None
        or outofcore["peak_rss_bytes"] <= OUTOFCORE_RSS_BUDGET_BYTES,
        "outofcore_rss_budget_bytes": OUTOFCORE_RSS_BUDGET_BYTES,
        "million_vertices": args.subset or scale["positions"] >= 1_000_000,
        "bit_identical_to_game": versus["identical"],
        "speedup_over_game": versus["speedup"],
        "speedup_ok": versus["speedup"] is not None
        and versus["speedup"] >= MIN_SPEEDUP,
        "speedup_vs_python_baseline": scale["speedup_vs_python_baseline"],
        # the recorded baseline was measured on the full-size instance, so
        # the >= 5x gate applies to full runs only
        "replay_speedup_ok": args.subset
        or scale["speedup_vs_python_baseline"] >= MIN_REPLAY_SPEEDUP,
        "trace_overhead_ratio": scale["trace_overhead_ratio"],
        "trace_overhead_max": TRACE_OVERHEAD_MAX,
        "trace_overhead_ok": (
            scale["trace_overhead_ratio"] <= TRACE_OVERHEAD_MAX
            or (
                scale["traced_belady_cpu_seconds"]
                - scale["policies"]["belady"]["cpu_seconds"]
            )
            <= TRACE_OVERHEAD_SLACK_SECONDS
        ),
        "audit_gaps_finite": audit["summary"]["finite_gaps"],
    }
    failed = not (
        acceptance["replay_within_cpu_budget"]
        and acceptance["outofcore_hundred_million_accesses"]
        and acceptance["outofcore_within_cpu_budget"]
        and acceptance["outofcore_within_rss_budget"]
        and acceptance["million_vertices"]
        and acceptance["bit_identical_to_game"]
        and acceptance["speedup_ok"]
        and acceptance["replay_speedup_ok"]
        and acceptance["trace_overhead_ok"]
        and acceptance["audit_gaps_finite"]
    )
    payload = {
        "benchmark": "tightness",
        "subset": bool(args.subset),
        "outofcore": outofcore,
        "replay_scale": scale,
        "simulator_vs_game": versus,
        "audit": audit,
        "acceptance": acceptance,
    }
    ooc_txt = (
        "out-of-core: skipped; "
        if outofcore is None
        else (
            f"out-of-core: {outofcore['accesses']} accesses in "
            f"{outofcore['total_cpu_seconds']:.0f}s CPU, peak RSS "
            f"{outofcore['peak_rss_gib']:.2f} GiB; "
        )
    )
    summary = (
        f"{ooc_txt}"
        f"replay {scale['positions']} vertices in {belady_cpu:.2f}s CPU "
        f"({scale['policies']['belady']['accesses_per_cpu_second']:.0f} acc/s, "
        f"{scale['replay_backend']} backend, "
        f"{scale['speedup_vs_python_baseline']:.1f}x vs python baseline, "
        f"traced {scale['trace_overhead_ratio']:.2f}x); "
        f"vs game: identical={versus['identical']} "
        f"speedup={versus['speedup']:.1f}x; "
        f"audit finite gaps={audit['summary']['finite_gaps']}"
    )
    return finish(payload, args.output, summary, failed=failed)


if __name__ == "__main__":
    raise SystemExit(main())
