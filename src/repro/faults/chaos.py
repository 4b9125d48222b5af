"""Chaos suite: drive real analysis jobs under seeded fault plans.

The contract being checked is the resilience layer's core promise:
**a fault may cost work, never correctness** — every job that answers
under an active fault plan must either

* return a payload byte-identical (modulo volatile timing/diagnostics
  fields) to the fault-free baseline, or
* carry an explicit degradation flag (``degraded`` + ``failed_engines``
  in bounds payloads), or
* fail *loudly* (an HTTP-level job failure with a typed ``error_kind``).

A payload that differs from baseline with no flag is a ``wrong`` verdict
and fails the suite — that is the silent-corruption case the whole layer
exists to prevent.

:func:`run_chaos` is the engine behind ``repro chaos`` (CLI) and the CI
``chaos-smoke`` job: for each plan it boots a real daemon fleet
(:class:`~repro.service.http.ServiceThread`) with the plan active — forked
workers inherit it — submits one job per kernel, and scores the answers
against fault-free baselines computed in-process beforehand.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import Sequence

from . import FaultPlan, active_plan, builtin_plan, plan_scope

#: kernels cheap enough to analyze repeatedly yet structurally distinct
DEFAULT_KERNELS = ("gemm", "atax", "mvt")
#: the three failure families CI smokes on every push
DEFAULT_PLANS = ("worker-kill", "store-corrupt", "engine-fail")

#: payload keys that legitimately vary run to run (timings, per-run
#: diagnostics); everything else must match the baseline byte for byte
VOLATILE_KEYS = frozenset({"diagnostics", "elapsed_seconds", "seconds"})


def strip_volatile(payload):
    """Recursively drop per-run fields so comparisons see only facts."""
    if isinstance(payload, dict):
        return {
            key: strip_volatile(value)
            for key, value in payload.items()
            if key not in VOLATILE_KEYS
        }
    if isinstance(payload, list):
        return [strip_volatile(item) for item in payload]
    return payload


def resolve_plan(plan: "str | FaultPlan") -> FaultPlan:
    if isinstance(plan, FaultPlan):
        return plan
    return FaultPlan.load(plan)


def plan_job_kind(plan: FaultPlan) -> str:
    """Which job type exercises this plan's sites: ``bounds`` or ``kernel``."""
    for spec in plan.specs.values():
        if spec.site.startswith(("bounds.", "solver.")):
            return "bounds"
    return "kernel"


def _baseline(kind: str, kernel: str) -> dict:
    """Fault-free reference payload, computed directly (no service)."""
    if kind == "bounds":
        from repro.bounds import kernel_bounds
        from repro.reporting.serialize import bounds_report

        return bounds_report(kernel_bounds(kernel))
    from repro.analysis import analyze_kernel
    from repro.reporting.serialize import kernel_report

    return kernel_report(analyze_kernel(kernel))


def _verdict(result: dict | None, baseline: dict, error: dict | None) -> str:
    """Score one chaos answer: identical | degraded | failed | wrong."""
    if error is not None:
        # the job died loudly, with a typed error record: acceptable
        return "failed"
    stripped = strip_volatile(result)
    if stripped == strip_volatile(baseline):
        return "identical"
    if result.get("degraded"):
        return "degraded"
    return "wrong"


def run_chaos(
    kernels: Sequence[str] = DEFAULT_KERNELS,
    plans: Sequence["str | FaultPlan"] = DEFAULT_PLANS,
    *,
    workers: int = 2,
    out: "str | Path | None" = None,
) -> dict:
    """Run every (plan, kernel) combination; return the verdict report.

    The report's ``ok`` is True iff no answer was silently wrong.  Each
    plan entry also records the evidence that the plan actually *fired*
    (site counters from the parent process and the fleet's absorbed
    ``fault_injections_total``) plus the daemon's post-run degradation
    ledger, so callers can assert recovery happened rather than the
    fault never triggering.
    """
    from repro.service.client import ServiceClient
    from repro.service.core import ServiceConfig
    from repro.service.http import ServiceThread

    assert active_plan() is None, "chaos runs must start fault-free"

    resolved = [
        (p if isinstance(p, str) else f"plan-{i}", resolve_plan(p))
        for i, p in enumerate(plans)
    ]
    baselines: dict[tuple[str, str], dict] = {}
    for _, plan in resolved:
        kind = plan_job_kind(plan)
        for kernel in kernels:
            if (kind, kernel) not in baselines:
                baselines[(kind, kernel)] = _baseline(kind, kernel)

    report: dict = {"kernels": list(kernels), "plans": {}, "ok": True}
    for label, plan in resolved:
        kind = plan_job_kind(plan)
        entry = report["plans"][label] = {
            "plan": plan.as_dict(),
            "job_kind": kind,
            "results": {},
        }
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            # pre-create the store file: corrupt-at-open sites need a db
            # that exists before the daemon's boot integrity check runs
            from repro.engine.store import STORE_FILE, SharedSolveStore

            SharedSolveStore(Path(tmp) / STORE_FILE).close()
            config = ServiceConfig(workers=workers, cache_dir=tmp)
            with plan_scope(plan):
                with ServiceThread(config) as thread:
                    client = ServiceClient(port=thread.port)
                    metrics, health = {}, None
                    try:
                        for kernel in kernels:
                            result, error = _submit(client, kind, kernel)
                            verdict = _verdict(
                                result, baselines[(kind, kernel)], error
                            )
                            entry["results"][kernel] = {
                                "verdict": verdict,
                                "error": error,
                            }
                            if verdict == "wrong":
                                report["ok"] = False
                        metrics = client.metrics()
                        health = client.healthz()
                    finally:
                        client.close()
                # parent-side counters survive the scope via the plan object
                entry["injections"] = plan.snapshot()
                entry["resilience"] = metrics.get("resilience", {})
                entry["degraded"] = health.degraded if health else {}
        entry["verdicts"] = sorted(
            {row["verdict"] for row in entry["results"].values()}
        )
    if out is not None:
        Path(out).write_text(json.dumps(report, indent=1, default=str))
    return report


def _submit(client, kind: str, kernel: str):
    """One chaos job; returns ``(result, error)`` — exactly one is None."""
    from repro.service.client import ServiceError

    try:
        if kind == "bounds":
            record = client.bounds(kernel)
        else:
            record = client.kernel(kernel)
    except ServiceError as err:
        return None, {
            "status": err.status,
            "error": err.payload.get("error"),
            "error_kind": err.payload.get("error_kind"),
        }
    if not record.ok:
        return None, {
            "status": 422,
            "error": record.error,
            "error_kind": record.raw.get("error_kind"),
        }
    return record.result, None
