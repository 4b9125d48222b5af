"""Fault-injection overhead: the disabled hooks must be free in production.

Every resilience hook (``faults.inject``, ``faults.check_deadline``) sits on
a production hot path -- store reads/writes, worker job dispatch, solver
batches, bound-engine evaluations.  The design contract is that with no plan
active each hook costs one module attribute load and an ``is None`` test.
This benchmark holds the code to that contract:

* **micro** -- per-call cost of a disabled ``inject``/``check_deadline``
  and of an enabled-but-never-firing ``inject`` (an inert p=0 plan, the
  worst non-firing case: full seeded-stream bookkeeping per occurrence);
* **macro** -- two real workloads (a shared-store put/get/claim loop and a
  full ``kernel_bounds`` run) timed plain and under the inert plan.  The
  inert run's per-site occurrence counters tell us exactly how many hook
  hits the workload performs, so the *disabled* overhead is computed as
  ``hits x disabled_per_call / plain_cpu_seconds`` -- immune to the
  run-to-run noise that drowns a direct A/B at the sub-percent level.

The acceptance gate fails the run when the estimated disabled-hook overhead
of either workload exceeds ``OVERHEAD_CEILING`` (3%), or when a disabled
hook costs more than ``DISABLED_NS_CEILING`` nanoseconds per call.

Run under pytest (``pytest benchmarks/bench_faults.py``) or as a script::

    PYTHONPATH=src python benchmarks/bench_faults.py -o BENCH_faults.json
"""

import sys
import tempfile
import time
from pathlib import Path

from _harness import finish, make_parser, run_once, timed
from repro import faults
from repro.faults.plan import FaultPlan, FaultSpec

#: every static injection site in the tree (dynamic ``bounds.engine.*`` and
#: ``solver.*`` names are guarded by ``faults.active()`` and enumerated here
#: for the engines the macro workload actually exercises)
SITES = (
    "store.open",
    "store.get",
    "store.put",
    "store.claim",
    "worker.job",
    "worker.pipe",
    "native.compile",
    "engine.claimed",
    "solver.solve",
    "bounds.engine.kkt",
    "bounds.engine.visit",
)

OVERHEAD_CEILING = 0.03  #: disabled hooks may cost at most 3% of a workload
DISABLED_NS_CEILING = 2000.0  #: and at most 2us per disabled call
MICRO_CALLS = 200_000
MICRO_ROUNDS = 5
MACRO_ROUNDS = 3
STORE_OPS = 1_000


def _inert_plan() -> FaultPlan:
    """A plan covering every site with p=0: counts occurrences, never fires."""
    return FaultPlan(seed=0, specs=[FaultSpec(site=s, p=0.0) for s in SITES])


# -- micro: per-call hook cost ------------------------------------------------


def _per_call(fn, site: str) -> float:
    """Best-of-rounds per-call seconds of ``fn(site)`` over a tight loop."""
    best = float("inf")
    for _ in range(MICRO_ROUNDS):
        started = time.perf_counter()
        for _ in range(MICRO_CALLS):
            fn(site)
        best = min(best, time.perf_counter() - started)
    return best / MICRO_CALLS


def measure_micro() -> dict:
    assert faults.active_plan() is None, "bench requires no ambient fault plan"
    disabled_inject = _per_call(faults.inject, "store.get")
    disabled_deadline = _per_call(lambda _s: faults.check_deadline(), "x")
    with faults.plan_scope(_inert_plan()):
        inert_inject = _per_call(faults.inject, "store.get")
        inert_miss = _per_call(faults.inject, "no.such.site")
    return {
        "calls": MICRO_CALLS,
        "rounds": MICRO_ROUNDS,
        "disabled_inject_ns": disabled_inject * 1e9,
        "disabled_check_deadline_ns": disabled_deadline * 1e9,
        "inert_plan_inject_ns": inert_inject * 1e9,
        "inert_plan_unknown_site_ns": inert_miss * 1e9,
    }


# -- macro: real workloads, hook hits counted by the inert plan ---------------


def _store_workload() -> None:
    """STORE_OPS put/get/claim cycles against a fresh shared store."""
    from repro.engine import SolveOutcome
    from repro.engine.store import SharedSolveStore

    with tempfile.TemporaryDirectory() as tmp:
        store = SharedSolveStore(Path(tmp) / "solves.sqlite")
        try:
            for index in range(STORE_OPS):
                key = f"bench-{index}"
                store.put(key, SolveOutcome(error="bench"))
                assert store.get(key) is not None
                store.try_claim(f"claim-{index}")
        finally:
            store.close()


def _bounds_workload() -> None:
    from repro.bounds import kernel_bounds

    kernel_bounds("atax", s_values=[8])


def _measure_macro(name: str, workload, micro: dict) -> dict:
    """Time ``workload`` plain and inert; estimate the disabled-hook cost."""
    workload()  # warm caches so plain/inert rounds see the same world
    plain_cpu = min(timed(workload).cpu_seconds for _ in range(MACRO_ROUNDS))
    inert_cpu = float("inf")
    hits = 0
    for _ in range(MACRO_ROUNDS):
        with faults.plan_scope(_inert_plan()) as plan:
            inert_cpu = min(inert_cpu, timed(workload).cpu_seconds)
            hits = sum(s["occurrences"] for s in plan.snapshot().values())
    per_call = micro["disabled_inject_ns"] / 1e9
    disabled_overhead = (hits * per_call) / plain_cpu if plain_cpu else 0.0
    return {
        "workload": name,
        "rounds": MACRO_ROUNDS,
        "plain_cpu_seconds": plain_cpu,
        "inert_plan_cpu_seconds": inert_cpu,
        "hook_hits": hits,
        "hits_per_cpu_second": hits / plain_cpu if plain_cpu else None,
        "disabled_overhead_fraction": disabled_overhead,
        # the inert ratio is informational: a full p=0 plan is strictly more
        # work than disabled hooks, and still should be lost in the noise
        "inert_plan_ratio": inert_cpu / plain_cpu if plain_cpu else None,
    }


def run_suite(*, subset: bool = False) -> dict:
    micro = measure_micro()
    workloads = [_measure_macro("store-ops", _store_workload, micro)]
    if not subset:
        workloads.append(_measure_macro("kernel-bounds", _bounds_workload, micro))
    worst = max(w["disabled_overhead_fraction"] for w in workloads)
    return {
        "suite": "fault-injection-overhead",
        "sites": list(SITES),
        "micro": micro,
        "workloads": workloads,
        "worst_disabled_overhead_fraction": worst,
        "overhead_ceiling": OVERHEAD_CEILING,
        "disabled_ns_ceiling": DISABLED_NS_CEILING,
    }


def _gate(payload: dict) -> list[str]:
    failures = []
    micro = payload["micro"]
    for key in ("disabled_inject_ns", "disabled_check_deadline_ns"):
        if micro[key] > DISABLED_NS_CEILING:
            failures.append(
                f"{key} = {micro[key]:.0f}ns > {DISABLED_NS_CEILING:.0f}ns"
            )
    for workload in payload["workloads"]:
        if workload["hook_hits"] <= 0:
            failures.append(f"{workload['workload']}: no hook hits observed")
        if workload["disabled_overhead_fraction"] > OVERHEAD_CEILING:
            failures.append(
                f"{workload['workload']}: disabled-hook overhead "
                f"{workload['disabled_overhead_fraction']:.4f} > "
                f"{OVERHEAD_CEILING}"
            )
    return failures


def test_fault_overhead(benchmark):
    """Disabled hooks are sub-microsecond and < 3% of the store workload."""
    payload = run_once(benchmark, run_suite, subset=True)
    failures = _gate(payload)
    assert failures == [], failures


def main(argv=None) -> int:
    parser = make_parser(__doc__.splitlines()[0], "BENCH_faults.json")
    args = parser.parse_args(argv)
    payload = run_suite(subset=args.subset)
    failures = _gate(payload)
    micro = payload["micro"]
    worst = payload["worst_disabled_overhead_fraction"]
    summary = (
        f"disabled inject {micro['disabled_inject_ns']:.0f}ns  "
        f"check_deadline {micro['disabled_check_deadline_ns']:.0f}ns  "
        f"inert-plan inject {micro['inert_plan_inject_ns']:.0f}ns  "
        f"worst workload overhead {worst * 100:.3f}% "
        f"(ceiling {OVERHEAD_CEILING * 100:.0f}%)"
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return finish(payload, args.output, summary, failed=bool(failures))


if __name__ == "__main__":
    sys.exit(main())
