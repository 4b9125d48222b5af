"""Bound-engine benchmark: cost of the concrete-CDAG certification pass.

The combine layer (``repro bounds``, the tightness audit's certified max)
runs every registered engine at every (kernel, S) point on top of the
symbolic analysis.  This benchmark prices that pass against the thing it
rides on:

* **solver baseline** -- CPU seconds of the plain symbolic analysis
  (:func:`repro.engine.analyze_many`) over the measured kernels, cold
  caches: what the suite costs *without* any concrete bound engine;
* **bounds pass** -- per-kernel CPU of the full engine sweep (CDAG
  construction through :mod:`repro.cdag.cache`, then each engine timed
  separately over the audit-default S values, reusing the already-computed
  symbolic results so only engine work is on the clock).

Acceptance: the full bounds pass costs at most ``BOUNDS_OVERHEAD_MAX``
times the solver baseline (the certification layer must stay a cheap
rider, not a second analysis), and every measured kernel certifies a
finite bound at every swept S.  Per-engine CPU totals are recorded so a
regression names the engine that caused it; note the engines share
per-graph structural caches, so the first engine on a graph pays the
one-time reachability DP cost.

Run:  PYTHONPATH=src python benchmarks/bench_bounds.py [--subset]
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _harness import finish, make_parser, maybe_traced, timed  # noqa: E402

#: full bounds pass (graph builds + every engine at every S) may cost at
#: most this multiple of the solver-only analysis CPU
BOUNDS_OVERHEAD_MAX = 2.0

#: fast subset: one tight kernel, one where a graph engine wins, one LU
SUBSET_KERNELS = ["gemm", "cholesky", "ludcmp"]


def bench_bounds(names: list[str]) -> dict:
    from repro.bounds import available_bound_engines, evaluate_bounds
    from repro.cdag.cache import cached_cdag, clear_cdag_cache
    from repro.engine import analyze_many
    from repro.schedule.tightness import (
        DEFAULT_MAX_VERTICES,
        DEFAULT_S_VALUES,
        _built_program,
        _merged_params,
    )

    # warm-up: one tiny kernel exercises every code path (sympy imports,
    # engine registration, graph facts) before anything is timed
    warm = analyze_many(["gemm"])[0]
    evaluate_bounds(
        s=8, graph=cached_cdag("gemm", _merged_params(
            "gemm", _built_program("gemm"), None
        )).graph, symbolic_bound=warm.bound, kernel="gemm",
    )
    clear_cdag_cache()

    baseline = timed(analyze_many, names)
    results = dict(zip(names, baseline.value))

    engines = available_bound_engines()
    engine_cpu = {name: 0.0 for name in engines}
    build_cpu = 0.0
    kernels: dict[str, dict] = {}
    skipped: dict[str, str] = {}
    for name in names:
        program = _built_program(name)
        merged = _merged_params(name, program, None)
        build = timed(cached_cdag, name, merged, program=program)
        cdag = build.value
        if cdag.n_vertices > DEFAULT_MAX_VERTICES:
            skipped[name] = f"{cdag.n_vertices} vertices > audit limit"
            continue
        build_cpu += build.cpu_seconds
        record: dict = {
            "n_vertices": cdag.n_vertices,
            "build_cpu_seconds": build.cpu_seconds,
            "points": {},
            "engine_cpu_seconds": {},
        }
        for engine_name in engines:
            cpu = 0.0
            for s in DEFAULT_S_VALUES:
                run = timed(
                    evaluate_bounds,
                    s=s,
                    graph=cdag.graph,
                    symbolic_bound=results[name].bound,
                    params=merged,
                    kernel=name,
                    engines=[engine_name],
                )
                cpu += run.cpu_seconds
                point = record["points"].setdefault(
                    s, {"values": {}, "certified": None, "winner": None}
                )
                point["values"][engine_name] = run.value.certified
            engine_cpu[engine_name] += cpu
            record["engine_cpu_seconds"][engine_name] = cpu
        # certified max across engines per S, with the winner named
        for s, point in record["points"].items():
            finite = {
                e: v for e, v in point["values"].items()
                if isinstance(v, float) and math.isfinite(v)
            }
            if finite:
                point["certified"] = max(finite.values())
                point["winner"] = next(
                    e for e in engines
                    if finite.get(e) == point["certified"]
                )
        kernels[name] = record

    bounds_cpu = build_cpu + sum(engine_cpu.values())
    return {
        "kernels": kernels,
        "skipped": skipped,
        "s_values": list(DEFAULT_S_VALUES),
        "solver_baseline_cpu_seconds": baseline.cpu_seconds,
        "cdag_build_cpu_seconds": build_cpu,
        "engine_cpu_seconds": engine_cpu,
        "bounds_pass_cpu_seconds": bounds_cpu,
        "overhead_vs_solver": (
            bounds_cpu / baseline.cpu_seconds if baseline.cpu_seconds else None
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = make_parser(
        "Concrete-CDAG bound-engine benchmark", "BENCH_bounds.json"
    )
    args = parser.parse_args(argv)

    from repro.kernels import kernel_names

    names = SUBSET_KERNELS if args.subset else kernel_names()
    with maybe_traced(args, "bench.bounds"):
        measured = bench_bounds(names)

    all_certified = all(
        point["certified"] is not None
        for record in measured["kernels"].values()
        for point in record["points"].values()
    )
    overhead = measured["overhead_vs_solver"]
    acceptance = {
        "bounds_overhead_max": BOUNDS_OVERHEAD_MAX,
        "overhead_vs_solver": overhead,
        "overhead_ok": overhead is not None and overhead <= BOUNDS_OVERHEAD_MAX,
        "all_points_certified": all_certified,
        "measured_kernels": len(measured["kernels"]),
    }
    failed = not (acceptance["overhead_ok"] and all_certified)
    payload = {
        "benchmark": "bounds",
        "subset": bool(args.subset),
        **measured,
        "acceptance": acceptance,
    }
    per_engine = ", ".join(
        f"{name} {cpu:.2f}s"
        for name, cpu in measured["engine_cpu_seconds"].items()
    )
    summary = (
        f"bounds pass {measured['bounds_pass_cpu_seconds']:.2f}s CPU over "
        f"{len(measured['kernels'])} kernels ({per_engine}; builds "
        f"{measured['cdag_build_cpu_seconds']:.2f}s) vs solver baseline "
        f"{measured['solver_baseline_cpu_seconds']:.2f}s "
        f"= {overhead:.2f}x (max {BOUNDS_OVERHEAD_MAX}x); "
        f"all points certified: {all_certified}"
    )
    return finish(payload, args.output, summary, failed=failed)


if __name__ == "__main__":
    raise SystemExit(main())
