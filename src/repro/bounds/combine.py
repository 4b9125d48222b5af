"""Combine layer: evaluate every applicable engine, certify the max.

Each lower-bound engine certifies its own value, so their pointwise
maximum is itself a certified lower bound -- that max is what tightness
gaps are measured against.  :func:`evaluate_bounds` runs the engines at
one (graph, S) point; :func:`kernel_bounds` drives a whole per-kernel
sweep (symbolic analysis for the KKT engine, memoized CDAG construction,
one :class:`CombinedBounds` per S) and is what ``repro bounds``, the
``/bounds`` service endpoint, and the Table-2 diagnostics all share.

The *winning* engine of a point is the first engine, in registration
order, attaining the certified max (strict improvement claims the win, so
the KKT engine wins exact ties).  :func:`bound_disagreement` -- the
relative spread across engine values -- is carried alongside as a
diagnostic: a large spread means one engine is far looser than another.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.bounds.registry import (
    BoundProblem,
    BoundResult,
    available_bound_engines,
    get_bound_engine,
)


def bound_disagreement(values: Iterable[float]) -> float:
    """Relative spread ``(max - min) / max`` across bound-engine values.

    Non-finite values are ignored.  0.0 means every engine agrees (or fewer
    than two produced a value).  Engines bound the *same* quantity, so a
    large spread is diagnostic signal -- one bound is far looser than
    another -- surfaced per kernel in ``repro status`` and the Table-2
    report rather than an error (the engines are not expected to coincide).
    """
    finite = [
        float(v)
        for v in values
        if v == v and v not in (float("inf"), float("-inf"))
    ]
    if len(finite) < 2:
        return 0.0
    top = max(finite)
    if top <= 0:
        return 0.0
    return (top - min(finite)) / top


@dataclass(frozen=True)
class CombinedBounds:
    """All engine verdicts at one (graph, S) point, plus the certified max."""

    s: int
    results: tuple[BoundResult, ...]
    certified: float  #: max over successful engines (nan if none succeeded)
    winning_engine: str | None

    def engine_values(self) -> dict[str, float]:
        return {result.engine: result.value for result in self.results}

    @property
    def disagreement(self) -> float:
        return bound_disagreement(
            [result.value for result in self.results if result.ok]
        )

    @property
    def failed_engines(self) -> tuple[str, ...]:
        """Applicable engines that errored at this point."""
        return tuple(r.engine for r in self.results if r.error is not None)

    @property
    def degraded(self) -> bool:
        """True when the certified max lost at least one applicable engine.

        A degraded point is still *correct* — every surviving engine
        certifies its value — but potentially looser than a healthy run,
        so reports must say so rather than silently serving the weaker max.
        """
        return bool(self.failed_engines)

    def as_dict(self) -> dict:
        out = {
            "s": self.s,
            "certified": self.certified,
            "winning_engine": self.winning_engine,
            "disagreement": self.disagreement,
            "engines": [result.as_dict() for result in self.results],
        }
        if self.degraded:
            out["degraded"] = True
            out["failed_engines"] = list(self.failed_engines)
        return out


def evaluate_bounds(
    *,
    s: int,
    graph=None,
    symbolic_bound=None,
    params: Mapping[str, int] | None = None,
    kernel: str | None = None,
    engines: Sequence[str] | None = None,
) -> CombinedBounds:
    """Run every applicable engine at one point; certify the max.

    ``s`` must be an integer of at least 1, or ``ValueError`` is raised
    (:func:`~repro.schedule.tightness.checked_s_values`).  ``engines``
    selects by name (default: all registered).  Engines whose requirements
    are not met (no graph / no symbolic bound) are skipped silently -- a
    differential test on raw graphs simply never sees the KKT engine.
    """
    from repro.schedule.tightness import checked_s_values

    (s,) = checked_s_values((s,))
    names = tuple(engines) if engines is not None else available_bound_engines()
    problem = BoundProblem(
        s=s,
        graph=graph,
        symbolic_bound=symbolic_bound,
        params=dict(params or {}),
        kernel=kernel,
    )
    results = []
    for name in names:
        engine = get_bound_engine(name)
        if engine.applicable(problem):
            results.append(engine.evaluate(problem))
    best: BoundResult | None = None
    for result in results:
        if not result.ok or math.isinf(result.value):
            continue
        if best is None or result.value > best.value:
            best = result
    return CombinedBounds(
        s=s,
        results=tuple(results),
        certified=best.value if best is not None else float("nan"),
        winning_engine=best.engine if best is not None else None,
    )


@dataclass(frozen=True)
class KernelBounds:
    """Per-kernel bound sweep: one :class:`CombinedBounds` per S."""

    kernel: str
    category: str
    params: dict
    n_vertices: int
    s_values: tuple[int, ...]
    points: tuple[CombinedBounds, ...]
    elapsed_seconds: float = 0.0

    @property
    def winning_engine(self) -> str | None:
        """Winner at the largest swept S (the asymptotically telling point)."""
        for point in reversed(self.points):
            if point.winning_engine is not None:
                return point.winning_engine
        return None

    @property
    def max_disagreement(self) -> float:
        return max((point.disagreement for point in self.points), default=0.0)

    @property
    def degraded(self) -> bool:
        return any(point.degraded for point in self.points)

    @property
    def failed_engines(self) -> tuple[str, ...]:
        """Union of engines that failed anywhere in the sweep (sorted)."""
        failed: set[str] = set()
        for point in self.points:
            failed.update(point.failed_engines)
        return tuple(sorted(failed))

    def as_dict(self) -> dict:
        out = {
            "kernel": self.kernel,
            "category": self.category,
            "params": dict(self.params),
            "n_vertices": self.n_vertices,
            "s_values": list(self.s_values),
            "winning_engine": self.winning_engine,
            "max_disagreement": self.max_disagreement,
            "points": [point.as_dict() for point in self.points],
        }
        if self.degraded:
            out["degraded"] = True
            out["failed_engines"] = list(self.failed_engines)
        return out


def kernel_bounds(
    name: str,
    *,
    params: Mapping[str, int] | None = None,
    s_values: Sequence[int] | None = None,
    engines: Sequence[str] | None = None,
    result=None,
    engine=None,
    cache_dir: str | None = None,
    max_vertices: int | None = None,
) -> KernelBounds:
    """Evaluate all bound engines for one kernel across an S sweep.

    Mirrors the tightness audit's parameter resolution (audit defaults +
    caller overrides, unknown names dropped) and shares its memoized
    CDAG, so a bounds call right after a sweep rebuilds nothing.
    ``result`` accepts a precomputed :class:`~repro.analysis.KernelResult`.
    Fast-memory sizes must be integers >= 1 and parameter values integers,
    or ``ValueError`` is raised before any analysis runs.
    """
    from repro.analysis import analyze_kernel
    from repro.cdag.cache import cached_cdag
    from repro.kernels import get_kernel
    from repro.schedule.tightness import (
        DEFAULT_MAX_VERTICES,
        DEFAULT_S_VALUES,
        _built_program,
        _merged_params,
        checked_s_values,
    )

    started = time.perf_counter()
    spec = get_kernel(name)
    sweep = checked_s_values(s_values or DEFAULT_S_VALUES)
    program = _built_program(name)
    merged = _merged_params(name, program, params)
    limit = int(max_vertices) if max_vertices is not None else DEFAULT_MAX_VERTICES
    if result is None:
        result = analyze_kernel(name, engine=engine, cache_dir=cache_dir)
    cdag = cached_cdag(name, merged, program=program)
    if cdag.n_vertices > limit:
        raise ValueError(
            f"instance too large: {cdag.n_vertices} > {limit} vertices "
            f"(raise --max-vertices or shrink --params)"
        )
    points = tuple(
        evaluate_bounds(
            s=s,
            graph=cdag.graph,
            symbolic_bound=result.bound,
            params=merged,
            kernel=name,
            engines=engines,
        )
        for s in sweep
    )
    return KernelBounds(
        kernel=name,
        category=spec.category,
        params=dict(merged),
        n_vertices=cdag.n_vertices,
        s_values=sweep,
        points=points,
        elapsed_seconds=time.perf_counter() - started,
    )
