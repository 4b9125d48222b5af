"""TIGHTNESS.md generation: the lower-bound/upper-bound sandwich, measured.

Renders a :class:`~repro.schedule.tightness.TightnessReport` as the
corpus-wide attainability record: per kernel and fast-memory size, every
bound engine's value and the certified max, the simulated I/O of the
derived blocked schedule, the plain program-order baseline, and the
resulting gap with its classification.
"""

from __future__ import annotations

from repro.schedule.tightness import ATTAINED_MAX, NEAR_MAX, TightnessReport

_PREAMBLE = f"""# TIGHTNESS — are the lower bounds attained?

The analysis is constructive (paper Section 4.5): substituting `X0` into
the tile closed forms yields the loop tiling of the maximal subcomputation.
This report replays exactly that derived tiling through the streaming I/O
simulator (`repro.schedule`) on concrete instances and compares the
measured (certified) I/O against the certified lower bound — the max over
every registered bound engine (`repro.bounds`): the evaluated `kkt` bound
(the paper's problem 8) and the `visit` DAG-visit bound computed on the
concrete CDAG.  Both bound the red-blue pebble game with recomputation,
the game the paper bounds, so their max does too.  The **best** column
marks the engine attaining the certified max on each row (`kkt` on a tie):

    gap = simulated I/O of the derived blocked schedule / certified bound

* **attained** — gap <= {ATTAINED_MAX}: the constructive tiling realizes the
  bound up to small-instance constants;
* **near** — gap <= {NEAR_MAX}: same order, looser constant (tile rounding,
  cold misses, multi-statement interleaving);
* **loose** — the derived schedule does not realize the bound on this
  instance (or the bound's constant is conservative).

`prog-order` is the untiled program-order baseline under the same Belady
eviction — the improvement of the derived schedule over it is the part of
the story the tiling actually contributes.  Instances are deliberately
small (concrete CDAGs); `S` values are clamped per kernel so every vertex's
operands fit.  Regenerate with `python -m repro tightness --markdown` (see
`benchmarks/bench_tightness.py` for the measured replay throughput).
"""


def _fmt_gap(value: float) -> str:
    if value != value:  # nan
        return "-"
    return f"{value:.2f}"


def _fmt_bound(value: float | None) -> str:
    if value is None or value != value:  # missing engine or nan
        return "-"
    return f"{value:.1f}"


def _engine_columns(report: TightnessReport) -> list[str]:
    """Engine columns present in this report, in registration order."""
    from repro.bounds import available_bound_engines

    seen: set[str] = set()
    for row in report.rows:
        seen.update(row.engine_bounds)
    ordered = [name for name in available_bound_engines() if name in seen]
    ordered.extend(sorted(seen.difference(ordered)))  # third-party engines
    return ordered


def tightness_markdown(report: TightnessReport) -> str:
    """Render the full TIGHTNESS.md document."""
    by_cat: dict[str, list] = {}
    for row in report.rows:
        by_cat.setdefault(row.category, []).append(row)

    parts = [_PREAMBLE]
    titles = {
        "polybench": "## Polybench",
        "nn": "## Neural networks",
        "various": "## LULESH and COSMO stencils",
    }
    engines = _engine_columns(report)
    engine_heads = "".join(f" {name} |" for name in engines)
    header = (
        f"| Kernel | params | S | vertices |{engine_heads} bound | best "
        "| derived schedule | prog-order | gap | class |\n"
        + "|---|---|---|---|" + "---|" * len(engines)
        + "---|---|---|---|---|---|\n"
    )
    for cat in ("polybench", "nn", "various"):
        rows = by_cat.get(cat)
        if not rows:
            continue
        parts.append(titles[cat])
        lines = []
        for r in rows:
            if not r.ok:
                blanks = "".join(" - |" for _ in engines)
                lines.append(
                    f"| {r.kernel} | `{_params_str(r.params)}` | {r.s} | - "
                    f"|{blanks} - | - | - | - | - | error: {r.error} |"
                )
                continue
            per_engine = "".join(
                f" {_fmt_bound(r.engine_bounds.get(name))} |"
                for name in engines
            )
            lines.append(
                f"| {r.kernel} | `{_params_str(r.params)}` | {r.s} "
                f"| {r.n_vertices} |{per_engine} {r.bound_value:.1f} "
                f"| {r.winning_engine or '-'} | {r.schedule_cost} "
                f"| {r.program_order_cost} | {_fmt_gap(r.gap)} "
                f"| {r.classification} |"
            )
        parts.append(header + "\n".join(lines) + "\n")

    summary = report.summary()
    parts.append(
        f"**Summary:** {summary['audited']}/{summary['kernels']} kernels "
        f"audited ({summary['attained']} attained, {summary['near']} near, "
        f"{summary['loose']} loose at the best swept S); "
        f"finite gaps: {summary['finite_gaps']}."
        + (
            f"  Failed: {', '.join(summary['failed'])}."
            if summary["failed"]
            else ""
        )
        + "\n"
    )
    return "\n".join(parts)


def _params_str(params: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(params.items()))
