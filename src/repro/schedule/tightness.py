"""Corpus-wide tightness audit: is the lower bound attained?

For every kernel the analysis derives a lower bound *and* (Section 4.5) the
tiling that should attain it.  This module closes the sandwich empirically:
derive the blocked schedule, replay its access stream through the streaming
I/O simulator, and compare against the certified lower bound -- the max
over every registered bound engine (:mod:`repro.bounds`: the evaluated
KKT bound and the DAG-visit engine on the concrete CDAG):

    gap  =  simulated I/O (certified upper bound)  /  certified lower bound

A gap near 1 means the bound is tight *and* the constructive tiling is
real; the per-kernel classification (``attained`` / ``near`` / ``loose``)
summarizes it for the whole Table 2 corpus.  Small concrete instances carry
constant-factor slop (leading-order truncation, cold misses, tile rounding),
so the thresholds are deliberately generous; the trend with growing ``S``
and problem size is the signal.

Every audit runs one pipeline per kernel (:func:`_audit_in_process`): it
builds the kernel's CDAG, its program-order stream and each distinct
derived-schedule stream once, fixes every (kernel, S) point's clamped size,
certified bound and schedule, replays both streams and assembles the row.
``audit_kernel`` runs it on one kernel.  ``audit_corpus`` analyzes and
then audits each kernel as one task of
:func:`repro.engine.batch.run_kernels`: in this process for ``jobs=1``,
over its one capped process pool for ``jobs=N`` (``repro tightness
--jobs``, the ``/tightness`` service endpoint,
``benchmarks/bench_tightness.py``), largest kernel first.  The rows come
back in kernel order, so both modes give the same rows.
``chunk_size`` bounds the replay slab so even huge streams replay in
O(chunk) extra memory.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.cdag.cache import cached_cdag
from repro.cdag.index import graph_index
from repro.obs import span as obs_span
from repro.schedule.derive import blocked_ids, derive_schedule
from repro.schedule.simulator import simulate_io
from repro.schedule.stream import stream_from_graph, stream_from_ids
from repro.util.errors import SoapError

#: gap thresholds for the classification buckets
ATTAINED_MAX = 2.5
NEAR_MAX = 10.0

#: default fast-memory sizes swept per kernel (clamped per-graph feasibility)
DEFAULT_S_VALUES = (8, 18)

#: vertex budget: kernels are audited on instances at most this large
#: (lenet5's fixed channel dimensions force ~90k vertices at minimum size)
DEFAULT_MAX_VERTICES = 120_000

#: default value for every size parameter, unless overridden below
DEFAULT_BASE = 8

#: per-kernel parameter overrides keeping concrete CDAGs tractable (time
#: loops short, deep nests narrow) -- audit instances, not benchmarks
PARAM_OVERRIDES: dict[str, dict[str, int]] = {
    "jacobi1d": {"T": 4},
    "jacobi2d": {"T": 4},
    "seidel2d": {"T": 4},
    "heat3d": {"T": 3, "N": 7},
    "fdtd2d": {"T": 3},
    "adi": {"T": 3},
    "doitgen": {"NR": 6, "NQ": 6, "NP": 6},
    "softmax": {"B": 2, "H": 2, "M": 8, "N": 8},
    "mlp": {"N": 4, "inp": 6, "fc1": 6, "fc2": 6, "out": 4},
    "conv": {"B": 2, "Cin": 3, "Cout": 3, "Hker": 2, "Wker": 2, "Hout": 5, "Wout": 5},
    "conv-unit-stride": {
        "B": 2, "Cin": 3, "Cout": 3, "Hker": 2, "Wker": 2, "Hout": 5, "Wout": 5,
    },
    "lenet5": {"N": 1, "C": 1, "H": 8, "W": 8},
    "bert-encoder": {"B": 1, "H": 4, "L": 6, "P": 4},
    "bert-ffn": {"B": 1, "H": 4, "L": 6, "P": 4},
    "lulesh": {"numElem": 8},
    "horizontal-diffusion": {"I": 6, "J": 6, "K": 4},
    "vertical-advection": {"I": 6, "J": 6, "K": 4},
}


def classify_gap(gap: float) -> str:
    """Bucket a gap: ``attained`` / ``near`` / ``loose``."""
    if gap <= ATTAINED_MAX:
        return "attained"
    if gap <= NEAR_MAX:
        return "near"
    return "loose"


def audit_params(name: str, program) -> dict[str, int]:
    """Concrete audit parameters for a kernel: base value + overrides."""
    import sympy as sp

    symbols: set[str] = set()
    for st in program.statements:
        for _, extent in st.domain.extents:
            symbols.update(s.name for s in sp.sympify(extent).free_symbols)
    params = {sym: DEFAULT_BASE for sym in sorted(symbols)}
    params.update(PARAM_OVERRIDES.get(name, {}))
    return params


@dataclass(frozen=True)
class TightnessRow:
    """One (kernel, S) audit point."""

    kernel: str
    category: str
    params: dict[str, int]
    s: int  #: fast-memory size actually used (feasibility-clamped)
    s_requested: int
    n_vertices: int
    bound_value: float  #: certified max over all evaluated bound engines
    schedule_cost: int  #: simulated I/O of the derived blocked schedule
    program_order_cost: int  #: simulated I/O of plain program order
    gap: float  #: schedule_cost / bound_value
    gap_program_order: float
    classification: str
    tiled: bool
    tile_sizes: dict[str, int] = field(default_factory=dict)
    notes: tuple[str, ...] = ()
    error: str | None = None
    #: per-engine bound values behind the certified max (nan = engine failed)
    engine_bounds: dict[str, float] = field(default_factory=dict)
    winning_engine: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def as_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "category": self.category,
            "params": dict(self.params),
            "s": self.s,
            "s_requested": self.s_requested,
            "n_vertices": self.n_vertices,
            "bound": self.bound_value,
            "schedule_cost": self.schedule_cost,
            "program_order_cost": self.program_order_cost,
            "gap": self.gap,
            "gap_program_order": self.gap_program_order,
            "classification": self.classification,
            "tiled": self.tiled,
            "tile_sizes": dict(self.tile_sizes),
            "notes": list(self.notes),
            "error": self.error,
            "engine_bounds": dict(self.engine_bounds),
            "winning_engine": self.winning_engine,
        }


@dataclass
class TightnessReport:
    """Audit outcome over a kernel selection."""

    rows: list[TightnessRow]
    s_values: tuple[int, ...]
    elapsed_seconds: float = 0.0

    @property
    def kernels(self) -> list[str]:
        seen: dict[str, None] = {}
        for row in self.rows:
            seen.setdefault(row.kernel)
        return list(seen)

    def summary(self) -> dict:
        ok = [r for r in self.rows if r.ok]
        buckets: dict[str, int] = {"attained": 0, "near": 0, "loose": 0}
        best: dict[str, TightnessRow] = {}
        for row in ok:
            current = best.get(row.kernel)
            if current is None or row.gap < current.gap:
                best[row.kernel] = row
        for row in best.values():
            buckets[row.classification] += 1
        failed = [r.kernel for r in self.rows if not r.ok]
        return {
            "kernels": len(self.kernels),
            "rows": len(self.rows),
            "audited": len(best),
            "attained": buckets["attained"],
            "near": buckets["near"],
            "loose": buckets["loose"],
            "failed": sorted(set(failed)),
            "finite_gaps": all(
                r.gap == r.gap and r.gap != float("inf") for r in ok
            ),
        }


def _error_row(name: str, category: str, params, s: int, message: str) -> TightnessRow:
    return TightnessRow(
        kernel=name,
        category=category,
        params=dict(params or {}),
        s=s,
        s_requested=s,
        n_vertices=0,
        bound_value=float("nan"),
        schedule_cost=0,
        program_order_cost=0,
        gap=float("nan"),
        gap_program_order=float("nan"),
        classification="error",
        tiled=False,
        error=message,
    )


@functools.lru_cache(maxsize=16)
def _built_program(name: str):
    """Registered kernels build immutable IR; share one instance per name
    between the driver's audit-default resolution and kernel planning."""
    from repro.kernels import get_kernel

    return get_kernel(name).build()


def checked_s_values(s_values) -> tuple[int, ...]:
    """``s_values`` as fast-memory sizes: each an integer of at least 1.

    Anything else is refused with ``ValueError``, not coerced: ``True``
    would run at S = 1, ``8.7`` and ``"8"`` at S = 8, and an S below 1
    has no pebbling at all.
    """
    checked = []
    for s in s_values:
        if not _is_int(s) or s < 1:
            raise ValueError(f"fast-memory sizes must be integers >= 1 (got {s!r})")
        checked.append(int(s))
    return tuple(checked)


def checked_params(params: Mapping[str, int] | None) -> dict[str, int]:
    """Parameter overrides as ``{name: int}``; a value that is no integer
    (a bool, a float, a string) is refused with ``ValueError``."""
    checked = {}
    for key, value in (params or {}).items():
        if not _is_int(value):
            raise ValueError(
                f"parameter values must be integers (got {key}={value!r})"
            )
        checked[str(key)] = int(value)
    return checked


def _is_int(value) -> bool:
    # bool is an Integral subclass: ``True`` must not mean 1
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _merged_params(
    name: str, program, params: Mapping[str, int] | None
) -> dict[str, int]:
    """Audit defaults merged with caller overrides (unknown names dropped)."""
    defaults = audit_params(name, program)
    # Overrides merge over the audit defaults; names the program does not
    # use are dropped (one global --params can serve a whole selection).
    defaults.update(
        {k: v for k, v in checked_params(params).items() if k in defaults}
    )
    return defaults


def audit_kernel(
    name: str,
    *,
    result=None,
    params: Mapping[str, int] | None = None,
    s_values: Sequence[int] = DEFAULT_S_VALUES,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    chunk_size: int | None = None,
    bounds_engines: Sequence[str] | None = None,
) -> list[TightnessRow]:
    """Audit one kernel: one row per fast-memory size.

    ``result`` takes a precomputed :class:`~repro.analysis.KernelResult`
    (the batch driver shares one engine); otherwise the kernel is analyzed
    on the spot.  ``chunk_size`` bounds the replay slab.
    ``bounds_engines`` selects the lower-bound engines behind the
    certified gap denominator (default: all registered).
    """
    from repro.analysis import analyze_kernel

    s_values = checked_s_values(s_values)
    chunk_size = _checked_chunk_size(chunk_size)
    bounds_engines = _checked_bounds_engines(bounds_engines)
    merged = _merged_params(name, _built_program(name), params)
    if result is None:
        result = analyze_kernel(name)
    return _audit_in_process(
        name,
        merged,
        result,
        s_values=s_values,
        max_vertices=int(max_vertices),
        chunk_size=chunk_size,
        bounds_engines=bounds_engines,
    )


def _checked_chunk_size(chunk_size) -> int | None:
    if chunk_size is None:
        return None
    chunk_size = int(chunk_size)
    if chunk_size < 1:
        raise ValueError(
            f"chunk size must be a positive integer (got {chunk_size})"
        )
    return chunk_size


def _checked_bounds_engines(engines) -> tuple[str, ...] | None:
    """Validate an engine selection up front (typos fail the whole sweep
    immediately, not once per kernel inside a worker)."""
    if engines is None:
        return None
    from repro.bounds import get_bound_engine

    engines = tuple(str(name) for name in engines)
    for name in engines:
        get_bound_engine(name)
    return engines


def audit_corpus(
    names: Sequence[str] | None = None,
    *,
    s_values: Sequence[int] = DEFAULT_S_VALUES,
    params_overrides: Mapping[str, Mapping[str, int]] | None = None,
    params: Mapping[str, int] | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
    engine=None,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    chunk_size: int | None = None,
    bounds_engines: Sequence[str] | None = None,
) -> TightnessReport:
    """Audit a kernel selection (default: the full Table 2 corpus).

    ``params`` overrides apply to every kernel (unused names are ignored);
    ``params_overrides`` adds per-kernel overrides on top.  ``engine``
    shares a live engine (and its solve cache) with the caller -- the
    service daemon's audit endpoint uses this.  ``jobs > 1`` runs one pool
    task per kernel that analyzes and audits it, on at most
    ``min(jobs, kernels, os.cpu_count())`` workers (see the module
    docstring); ``jobs`` below 1 or a bool is a ``ValueError``.
    ``chunk_size`` bounds the replay slab, trading time for peak memory --
    results are bit-identical whatever its value.  ``bounds_engines``
    restricts the lower-bound engines behind the certified gap denominator
    (default: all registered engines; ``("kkt",)`` reproduces the KKT-only
    audit).
    """
    import time

    from repro.engine.batch import checked_jobs, run_kernels
    from repro.kernels import kernel_names

    started = time.perf_counter()
    jobs = checked_jobs(jobs)
    s_values = checked_s_values(s_values)
    chunk_size = _checked_chunk_size(chunk_size)
    bounds_engines = _checked_bounds_engines(bounds_engines)
    selected = list(names) if names is not None else kernel_names()
    kernels = []
    for name in selected:
        overrides: dict[str, int] = dict(params or {})
        if params_overrides and name in params_overrides:
            overrides.update(params_overrides[name])
        kernels.append((name, _merged_params(name, _built_program(name), overrides)))
    task = functools.partial(
        _analyze_and_audit,
        s_values=s_values,
        max_vertices=int(max_vertices),
        chunk_size=chunk_size,
        bounds_engines=bounds_engines,
    )
    with obs_span("tightness.audit", jobs=jobs) as sweep_span:
        sweep_span.add("kernels", len(selected))
        per_kernel = run_kernels(
            task,
            kernels,
            jobs=jobs,
            cache_dir=cache_dir,
            engine=engine,
            size=_iteration_points,
        )
        rows = [row for kernel_rows in per_kernel for row in kernel_rows]
        sweep_span.add("rows", len(rows))
        return TightnessReport(
            rows=rows,
            s_values=s_values,
            elapsed_seconds=time.perf_counter() - started,
        )


def _analyze_and_audit(kernel: tuple, *, engine, **sweep) -> list[TightnessRow]:
    """One kernel of :func:`audit_corpus`: analyze it, then audit it."""
    from repro.analysis import analyze_kernel

    name, params = kernel
    return _audit_in_process(
        name, params, analyze_kernel(name, engine=engine), **sweep
    )


def _audit_in_process(
    name: str,
    params: dict[str, int],
    result,
    *,
    s_values: tuple[int, ...],
    max_vertices: int,
    chunk_size: int | None,
    bounds_engines: tuple[str, ...] | None,
) -> list[TightnessRow]:
    """One kernel's rows, one per distinct clamped fast-memory size.

    Builds the kernel's CDAG and program-order stream once and each
    distinct derived-schedule stream once.  Every requested S is clamped
    to the feasibility floor, and a size that clamping repeats is audited
    once.  Per point it evaluates the certified bound, derives the
    schedule and replays both streams.  A :class:`SoapError` on the way
    makes the point an error row; one in building the CDAG, or an
    instance above ``max_vertices``, makes every requested S one.
    ``result`` is the kernel's :class:`~repro.analysis.KernelResult`.
    """
    from repro.bounds import evaluate_bounds
    from repro.kernels import get_kernel

    category = get_kernel(name).category

    def error_row(s: int, message: str) -> TightnessRow:
        return _error_row(name, category, params, s, message)

    with obs_span("tightness.kernel", kernel=name):
        try:
            program = _built_program(name)
            cdag = cached_cdag(name, params, program=program)
        except SoapError as err:
            return [error_row(s, f"CDAG build failed: {err}") for s in s_values]
        if cdag.n_vertices > max_vertices:
            message = (
                f"instance too large: {cdag.n_vertices} > {max_vertices} vertices"
            )
            return [error_row(s, message) for s in s_values]
        baseline = stream_from_graph(cdag.graph)
        # Feasibility floor: a vertex's operands plus itself must fit.
        max_indegree = graph_index(cdag.graph).max_in_degree
        schedules: dict = {}  #: (tiled, variable order, tiles) -> stream
        rows: list[TightnessRow] = []
        audited: set[int] = set()
        for s_requested in s_values:
            s = max(s_requested, max_indegree + 2)
            if s in audited:
                continue  # clamping collapsed two requested sizes
            audited.add(s)
            try:
                # the certified value is the gap denominator; the raw
                # KKT value stays visible in the per-engine dict
                combined = evaluate_bounds(
                    s=s, graph=cdag.graph, symbolic_bound=result.bound,
                    params=params, kernel=name, engines=bounds_engines,
                )
                schedule = derive_schedule(program, result.program_bound, params, s)
                stream_key = (
                    schedule.tiled,
                    tuple(schedule.variable_order),
                    tuple(sorted(schedule.tile_sizes.items())),
                )
                if stream_key not in schedules:
                    schedules[stream_key] = stream_from_ids(
                        cdag.graph, blocked_ids(cdag, schedule)
                    )
                with obs_span("tightness.replay-point", kernel=name, s=s):
                    schedule_cost = simulate_io(
                        schedules[stream_key], s, slab_positions=chunk_size
                    ).cost
                    program_order_cost = simulate_io(
                        baseline, s, slab_positions=chunk_size
                    ).cost
            except SoapError as err:
                rows.append(error_row(s, str(err)))
                continue
            bound_value = combined.certified
            if not bound_value > 0:
                rows.append(error_row(
                    s, f"bound evaluates to {bound_value}; gap undefined"
                ))
                continue
            gap = schedule_cost / bound_value
            notes = []
            if s != s_requested:
                notes.append(f"S clamped to {s} (max in-degree {max_indegree})")
            if gap < 1.0:
                # Legal: the leading-order bound need not bind on tiny
                # instances (e.g. the whole working set fits in S, or the
                # truncated lower-order terms dominate).  Flag it rather
                # than hiding it.
                notes.append(
                    "gap < 1: instance too small for the leading-order "
                    "bound to bind"
                )
            rows.append(TightnessRow(
                kernel=name,
                category=category,
                params=dict(params),
                s=s,
                s_requested=s_requested,
                n_vertices=cdag.n_vertices,
                bound_value=bound_value,
                schedule_cost=schedule_cost,
                program_order_cost=program_order_cost,
                gap=gap,
                gap_program_order=program_order_cost / bound_value,
                classification=classify_gap(gap),
                tiled=schedule.tiled,
                tile_sizes=dict(schedule.tile_sizes),
                notes=tuple(notes) + tuple(schedule.notes),
                engine_bounds=combined.engine_values(),
                winning_engine=combined.winning_engine,
            ))
        return rows


def _iteration_points(kernel: tuple) -> int:
    """A kernel's iteration-point count at its audit params: the sum over
    statements of the product of the loop extents (0 when an extent does
    not resolve -- that kernel's audit fails fast).  The pool submits the
    largest kernels first, so the longest audit does not start last and
    leave the other workers idle while it runs."""
    from repro.cdag.build import extent_values

    name, params = kernel
    try:
        return sum(
            math.prod(extent_values(st, params).values())
            for st in _built_program(name).statements
        )
    except SoapError:
        return 0
