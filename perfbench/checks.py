"""Output checks and failure accounting of every workload.

Each function takes plain values (strings, dicts, floats) and returns the
reason an operation failed, or ``None``.  Keeping them free of analyzer
calls lets the tests exercise the accounting directly.
"""

from __future__ import annotations

import math

#: tightness points whose certified bound is known to exceed a replayed
#: schedule's I/O on this corpus, as ``(kernel, requested S)``.  They are
#: reported as violations; any other violation fails its point.
KNOWN_VIOLATIONS = frozenset({("jacobi1d", 18), ("fdtd2d", 18)})

#: report fields that legitimately differ between equal answers: timings,
#: stage diagnostics, the submitter-chosen program name (a coalesced or
#: report-cached answer carries the first submitter's) and build headers
VOLATILE_KEYS = frozenset(
    {"diagnostics", "elapsed_seconds", "seconds", "program", "version", "generator"}
)


def kernel_failure(
    name: str,
    output: dict,
    *,
    locked_equal: bool,
    locked_shape: bool,
    reference: dict | None,
) -> str | None:
    """One Table 2 kernel: the derived bound must equal the locked bound of
    ``repro.kernels.expected``, the shape verdict must match the locked
    one, and the bound, ratio and shape must equal the reference (cold)
    analysis byte for byte."""
    if not locked_equal:
        return f"{name}: bound {output['bound']} differs from the locked bound"
    if bool(output["shape"]) != bool(locked_shape):
        return f"{name}: shape verdict {output['shape']} differs from the locked one"
    if reference is not None and output != reference:
        return f"{name}: {output} differs from the reference analysis {reference}"
    return None


def audit_failure(row: dict) -> tuple[str | None, bool]:
    """One tightness point: ``(failure, known_violation)``.

    A point fails when it errors, when its certified bound or gap is not
    finite, or when the certified bound exceeds the I/O of a replayed
    schedule -- unless that point is a recorded known violation.
    """
    where = f"{row['kernel']} S={row['s_requested']}"
    if row.get("error"):
        return f"{where}: {row['error']}", False
    bound = float(row["bound"])
    if not (math.isfinite(bound) and math.isfinite(float(row["gap"]))):
        return f"{where}: non-finite bound {bound} or gap {row['gap']}", False
    replayed = min(int(row["schedule_cost"]), int(row["program_order_cost"]))
    if bound > replayed:
        if (row["kernel"], int(row["s_requested"])) in KNOWN_VIOLATIONS:
            return None, True
        return f"{where}: certified {bound} > replayed {replayed}", False
    return None, False


def replay_failure(label: str, cost: int, certified: float) -> str | None:
    """One large-stream replay: finite, positive, and not below the bound."""
    if not (math.isfinite(certified) and certified > 0):
        return f"{label}: certified bound {certified} is not a positive number"
    if cost < certified:
        return f"{label}: replayed I/O {cost} < certified {certified}"
    return None


def normalize_answer(payload):
    """``payload`` without :data:`VOLATILE_KEYS`, at any depth."""
    if isinstance(payload, dict):
        return {
            key: normalize_answer(value)
            for key, value in payload.items()
            if key not in VOLATILE_KEYS
        }
    if isinstance(payload, list):
        return [normalize_answer(value) for value in payload]
    return payload


def service_failure(
    ok: bool, error: str | None, answer, reference
) -> str | None:
    """One HTTP request: it must succeed, and its answer must equal the
    direct library call's."""
    if not ok:
        return f"request failed: {error}"
    if reference is None:
        return "no reference answer for this request"
    if normalize_answer(answer) != normalize_answer(reference):
        return "answer differs from the direct library call"
    return None
