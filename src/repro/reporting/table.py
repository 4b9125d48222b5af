"""Regenerate Table 2: per-kernel bounds, paper values, ratios.

Rows are produced through the staged engine's batch API
(:func:`repro.engine.analyze_many`): a single shared fused-problem cache
deduplicates solves across the suite, ``jobs > 1`` distributes kernels over
worker processes, and ``cache_dir`` persists solved problems between runs.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.engine import analyze_many
from repro.symbolic.printing import bound_str


@dataclass
class Table2Row:
    kernel: str
    category: str
    ours: str
    paper: str
    ratio: str
    shape_matches: bool
    improvement: str
    seconds: float = 0.0  #: engine wall time for this kernel's analysis
    #: concrete-CDAG bound diagnostics (``bounds=True``): which engine
    #: certifies the max, and the relative spread across engine values
    winning_engine: str | None = None
    bound_disagreement: float | None = None


def table2_rows(
    category: str | None = None,
    *,
    names: list[str] | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
    bounds: bool = False,
) -> list[Table2Row]:
    """Analyze the requested kernels and build comparison rows.

    ``bounds=True`` additionally runs every concrete-CDAG bound engine per
    kernel (at the audit-default instance sizes) and fills the
    ``winning_engine`` / ``bound_disagreement`` diagnostics; kernels whose
    concrete instances cannot be built keep ``None`` there.
    """
    from repro.kernels import get_kernel, kernel_names

    selected = names if names is not None else kernel_names(category)
    results = analyze_many(selected, jobs=jobs, cache_dir=cache_dir)
    rows: list[Table2Row] = []
    for name, result in zip(selected, results):
        spec = get_kernel(name)
        diagnostics = result.diagnostics
        winning = disagreement = None
        if bounds:
            from repro.bounds import kernel_bounds
            from repro.util.errors import SoapError

            try:
                kb = kernel_bounds(name, result=result)
            except (SoapError, ValueError):
                pass  # e.g. concrete instance too large to materialize
            else:
                winning = kb.winning_engine
                disagreement = kb.max_disagreement
        rows.append(
            Table2Row(
                kernel=name,
                category=spec.category,
                ours=bound_str(result.bound),
                paper=bound_str(result.paper_bound),
                ratio=str(result.ratio),
                shape_matches=result.shape_matches,
                improvement=spec.improvement,
                seconds=diagnostics.total_seconds if diagnostics is not None else 0.0,
                winning_engine=winning,
                bound_disagreement=disagreement,
            )
        )
    return rows


def render_table2(rows: list[Table2Row]) -> str:
    """Markdown rendering of the comparison table."""
    header = (
        "| Kernel | Ours (leading order) | Paper (Table 2) | ours/paper | shape |\n"
        "|---|---|---|---|---|\n"
    )
    lines = [
        f"| {r.kernel} | `{r.ours}` | `{r.paper}` | `{r.ratio}` | "
        f"{'match' if r.shape_matches else 'differs'} |"
        for r in rows
    ]
    return header + "\n".join(lines) + "\n"


def table2_json(
    rows: list[Table2Row], *, jobs: int = 1, elapsed: float | None = None
) -> dict:
    """Machine-readable Table 2 report (the CLI's ``table2 --json``)."""
    from repro.reporting.serialize import report_header

    report = report_header("table2")
    report.update({
        "kernels": [
            {
                "kernel": r.kernel,
                "category": r.category,
                "ours": r.ours,
                "paper": r.paper,
                "ratio": r.ratio,
                "shape_matches": r.shape_matches,
                "improvement": r.improvement,
                "seconds": r.seconds,
                "winning_engine": r.winning_engine,
                "bound_disagreement": r.bound_disagreement,
            }
            for r in rows
        ],
        "summary": {
            "total": len(rows),
            "exact": sum(1 for r in rows if r.ratio == "1"),
            "shape_matches": sum(1 for r in rows if r.shape_matches),
            "jobs": jobs,
            "elapsed_seconds": elapsed,
        },
    })
    return report
