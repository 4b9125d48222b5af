"""Corpus-wide tightness audit: is the lower bound attained?

For every kernel the analysis derives a lower bound *and* (Section 4.5) the
tiling that should attain it.  This module closes the sandwich empirically:
derive the blocked schedule, replay its access stream through the streaming
I/O simulator, and compare against the certified lower bound -- the max
over every registered bound engine (:mod:`repro.bounds`: the evaluated
KKT bound plus the spectral and DAG-visit engines on the concrete CDAG):

    gap  =  simulated I/O (certified upper bound)  /  certified lower bound

A gap near 1 means the bound is tight *and* the constructive tiling is
real; the per-kernel classification (``attained`` / ``near`` / ``loose``)
summarizes it for the whole Table 2 corpus.  Small concrete instances carry
constant-factor slop (leading-order truncation, cold misses, tile rounding),
so the thresholds are deliberately generous; the trend with growing ``S``
and problem size is the signal.

The sweep itself is embarrassingly parallel: every (kernel, params, S)
point is an independent replay.  ``audit_corpus(jobs=N)`` runs it in two
phases over one process pool (``repro tightness --jobs``, the
``/tightness`` service endpoint, and ``benchmarks/bench_tightness.py`` all
thread it through).  Phase A fans *kernels* out: each worker builds the
CDAG, the baseline and derived-schedule streams, and their next-use arrays
exactly once, then **publishes** the streams to shared memory
(:mod:`repro.schedule.shared_streams`) keyed by stream signature.  Phase B
fans the (kernel, S) *points* out: workers attach zero-copy read-only
views of the published streams (cached per process) and replay -- no
worker ever rebuilds a stream another worker already built.  The driver
assembles rows from the replay costs, so parallel output is exactly the
serial sweep's, row for row.  ``chunk_size`` bounds the replay slab (and
next-use chunk) so even huge streams replay in O(chunk) extra memory.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.cdag.cache import cached_cdag
from repro.cdag.index import graph_index
from repro.obs import attach, trace_context
from repro.obs import span as obs_span
from repro.schedule import shared_streams
from repro.schedule.derive import blocked_order, derive_schedule
from repro.schedule.simulator import simulate_io
from repro.schedule.stream import stream_from_graph
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


@dataclass
class _KernelContext:
    """Everything one kernel instance shares across its S-sweep points.

    Built once per (kernel, params) -- in-process for serial sweeps, once
    per worker process for parallel ones -- and memoized so every further S
    point reuses the CDAG, the program-order baseline stream (whose next-use
    table is itself memoized on the stream), and any derived-schedule stream
    already built for the same tile sizes.
    """

    category: str
    program: object = None
    cdag: object = None
    baseline_stream: object = None
    min_s: int = 1
    max_indegree: int = 0
    #: derived-schedule streams keyed by (tiled, variable order, tile sizes)
    stream_cache: dict = field(default_factory=dict)
    error: str | None = None
    #: clamped sizes already audited in the current sweep (see _SWEEP_TOKENS)
    sweep_token: int = -1
    audited_s: set = field(default_factory=set)


#: size-1 per-process-per-thread memo: points arrive kernel-major, so one
#: slot suffices (and bounds worker memory at a single concrete CDAG).
#: Thread-local because the service daemon runs concurrent audit jobs on a
#: shared worker pool -- a module-global slot would race across jobs.
_CTX = threading.local()

#: one token per sweep, threaded through the point tasks so a worker can
#: tell "duplicate clamped S within this sweep" (skip cheaply) apart from
#: "same kernel audited again by a later sweep" (recompute)
_SWEEP_TOKENS = itertools.count()


@functools.lru_cache(maxsize=16)
def _built_program(name: str):
    """Registered kernels build immutable IR; share one instance per name
    between the driver's audit-default resolution and the audit contexts."""
    from repro.kernels import get_kernel

    return get_kernel(name).build()


def _kernel_context(
    name: str, params: Mapping[str, int], max_vertices: int
) -> _KernelContext:
    from repro.kernels import get_kernel

    key = (name, tuple(sorted(params.items())), int(max_vertices))
    if getattr(_CTX, "key", None) == key:
        return _CTX.val
    spec = get_kernel(name)
    ctx = _KernelContext(category=spec.category)
    try:
        program = _built_program(name)
        cdag = cached_cdag(name, params, program=program)
    except SoapError as err:
        ctx.error = f"CDAG build failed: {err}"
    else:
        if cdag.n_vertices > max_vertices:
            ctx.error = (
                f"instance too large: {cdag.n_vertices} > "
                f"{max_vertices} vertices"
            )
        else:
            ctx.program = program
            ctx.cdag = cdag
            ctx.baseline_stream = stream_from_graph(cdag.graph)
            # Feasibility floor: a vertex's operands plus itself must fit.
            ctx.max_indegree = graph_index(cdag.graph).max_in_degree
            ctx.min_s = ctx.max_indegree + 2
    _CTX.key, _CTX.val = key, ctx
    return ctx


def _certified_bounds(
    graph, name, params, s, bound, engines
) -> tuple[dict[str, float], float, str | None]:
    """Every applicable bound engine at one point: values, max, winner.

    The same call serves the serial and the parallel sweep so their rows
    stay bit-identical.  The certified value is the gap denominator; the
    raw KKT value stays visible in the per-engine dict.
    """
    from repro.bounds import evaluate_bounds

    combined = evaluate_bounds(
        s=s,
        graph=graph,
        symbolic_bound=bound,
        params=params,
        kernel=name,
        engines=engines,
    )
    return combined.engine_values(), combined.certified, combined.winning_engine


def _audit_point(task: tuple) -> tuple[bool, TightnessRow | None]:
    """One (kernel, params, S) audit point -- the serial sweep's unit of work.

    Returns ``(dedupable, row)``: rows that went through feasibility
    clamping carry ``dedupable=True`` so the driver can collapse requested
    sizes that clamp to the same S, exactly like the serial sweep did.
    A ``None`` row is a duplicate clamped size already audited by this
    worker in this sweep, skipped before any replay work.
    """
    with obs_span(
        "tightness.point", kernel=task[0], s_requested=int(task[2])
    ):
        return _audit_point_body(task)


def _audit_point_body(task: tuple) -> tuple[bool, TightnessRow | None]:
    (name, params, s_requested, max_vertices, bound, program_bound, token,
     chunk_size, bounds_engines) = task
    ctx = _kernel_context(name, params, max_vertices)
    if ctx.error is not None:
        return False, _error_row(
            name, ctx.category, params, int(s_requested), ctx.error
        )
    s = max(int(s_requested), ctx.min_s)
    if ctx.sweep_token != token:
        ctx.sweep_token = token
        ctx.audited_s = set()
    if s in ctx.audited_s:
        return True, None  # clamping collapsed two requested sizes
    ctx.audited_s.add(s)
    notes: list[str] = []
    if s != s_requested:
        notes.append(f"S clamped to {s} (max in-degree {ctx.max_indegree})")
    try:
        engine_bounds, bound_value, winning_engine = _certified_bounds(
            ctx.cdag.graph, name, params, s, bound, bounds_engines
        )
        schedule = derive_schedule(ctx.program, program_bound, params, s)
        stream_key = (
            schedule.tiled,
            tuple(schedule.variable_order),
            tuple(sorted(schedule.tile_sizes.items())),
        )
        stream = ctx.stream_cache.get(stream_key)
        if stream is None:
            order = blocked_order(ctx.cdag, schedule)
            stream = stream_from_graph(ctx.cdag.graph, order)
            ctx.stream_cache[stream_key] = stream
        schedule_cost = simulate_io(stream, s, slab_positions=chunk_size).cost
        program_order_cost = simulate_io(
            ctx.baseline_stream, s, slab_positions=chunk_size
        ).cost
    except SoapError as err:
        return True, _error_row(name, ctx.category, params, s, str(err))
    if not bound_value > 0:
        return True, _error_row(
            name, ctx.category, params, s,
            f"bound evaluates to {bound_value}; gap undefined",
        )
    gap = schedule_cost / bound_value
    if gap < 1.0:
        # Legal: the leading-order bound need not bind on tiny instances
        # (e.g. the whole working set fits in S, or the truncated
        # lower-order terms dominate).  Flag it rather than hiding it.
        notes.append(
            "gap < 1: instance too small for the leading-order bound to bind"
        )
    return True, TightnessRow(
        kernel=name,
        category=ctx.category,
        params=dict(params),
        s=s,
        s_requested=int(s_requested),
        n_vertices=ctx.cdag.n_vertices,
        bound_value=bound_value,
        schedule_cost=schedule_cost,
        program_order_cost=program_order_cost,
        gap=gap,
        gap_program_order=program_order_cost / bound_value,
        classification=classify_gap(gap),
        tiled=schedule.tiled,
        tile_sizes=dict(schedule.tile_sizes),
        notes=tuple(notes) + schedule.notes,
        engine_bounds=engine_bounds,
        winning_engine=winning_engine,
    )


def _collapse_clamped(
    outcomes: Sequence[tuple[bool, TightnessRow | None]]
) -> list[TightnessRow]:
    """Drop repeated clamped sizes of one kernel sweep (first row wins).

    Workers skip duplicates they can see themselves (``None`` rows); this
    driver-side pass also covers duplicates split across workers.
    """
    rows: list[TightnessRow] = []
    audited_s: set[int] = set()
    for dedupable, row in outcomes:
        if row is None:
            continue
        if dedupable:
            if row.s in audited_s:
                continue
            audited_s.add(row.s)
        rows.append(row)
    return rows


def _merged_params(
    name: str, program, params: Mapping[str, int] | None
) -> dict[str, int]:
    """Audit defaults merged with caller overrides (unknown names dropped)."""
    defaults = audit_params(name, program)
    if params:
        # Overrides merge over the audit defaults; names the program does not
        # use are dropped (one global --params can serve a whole selection).
        defaults.update(
            {k: int(v) for k, v in params.items() if k in defaults}
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

    chunk_size = _checked_chunk_size(chunk_size)
    bounds_engines = _checked_bounds_engines(bounds_engines)
    merged = _merged_params(name, _built_program(name), params)
    if result is None:
        result = analyze_kernel(name)
    token = next(_SWEEP_TOKENS)
    try:
        outcomes = [
            _audit_point(
                (name, merged, int(s), int(max_vertices),
                 result.bound, result.program_bound, token, chunk_size,
                 bounds_engines)
            )
            for s in s_values
        ]
    finally:
        _reset_context()
    return _collapse_clamped(outcomes)


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
    immediately, not once per point inside a worker)."""
    if engines is None:
        return None
    from repro.bounds import get_bound_engine

    engines = tuple(str(name) for name in engines)
    for name in engines:
        get_bound_engine(name)
    return engines


def _reset_context() -> None:
    """Drop the thread's kernel-context memo at sweep end.

    Long-lived daemon worker threads would otherwise retain the last
    kernel's CDAG and stream cache (tens of MB) indefinitely.  Pool workers
    do not need this: their processes exit with the sweep.
    """
    _CTX.key = _CTX.val = None


def audit_corpus(
    names: Sequence[str] | None = None,
    *,
    s_values: Sequence[int] = DEFAULT_S_VALUES,
    params_overrides: Mapping[str, Mapping[str, int]] | None = None,
    params: Mapping[str, int] | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
    engine=None,
    solver: str | None = None,
    max_vertices: int = DEFAULT_MAX_VERTICES,
    chunk_size: int | None = None,
    bounds_engines: Sequence[str] | None = None,
) -> TightnessReport:
    """Audit a kernel selection (default: the full Table 2 corpus).

    ``params`` overrides apply to every kernel (unused names are ignored);
    ``params_overrides`` adds per-kernel overrides on top.  ``engine``
    shares a live engine (and its solve cache) with the caller -- the
    service daemon's audit endpoint uses this.  ``jobs > 1`` parallelizes
    the analysis batch *and* the replay sweep, the latter in two phases
    over one pool: kernels prepare-and-publish, then points attach-and-
    replay (see the module docstring).  ``chunk_size`` bounds the replay
    slab and next-use chunk, trading time for peak memory -- results are
    bit-identical whatever its value.  ``bounds_engines`` restricts the
    lower-bound engines behind the certified gap denominator (default:
    all registered engines; ``("kkt",)`` reproduces the KKT-only audit).
    """
    import time

    from repro.engine import analyze_many
    from repro.kernels import kernel_names

    started = time.perf_counter()
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer (got {jobs})")
    chunk_size = _checked_chunk_size(chunk_size)
    bounds_engines = _checked_bounds_engines(bounds_engines)
    s_values = tuple(int(s) for s in s_values)
    selected = list(names) if names is not None else kernel_names()
    with obs_span("tightness.audit", jobs=jobs) as sweep_span:
        sweep_span.add("kernels", len(selected))
        results = analyze_many(
            selected, jobs=jobs, cache_dir=cache_dir, engine=engine,
            solver=solver,
        )
        token = next(_SWEEP_TOKENS)
        kernel_specs: list[tuple] = []
        tasks: list[tuple] = []
        for name, result in zip(selected, results):
            overrides: dict[str, int] = dict(params or {})
            if params_overrides and name in params_overrides:
                overrides.update(params_overrides[name])
            merged = _merged_params(name, _built_program(name), overrides)
            kernel_specs.append(
                (name, merged, result.bound, result.program_bound)
            )
            tasks.extend(
                (name, merged, s, int(max_vertices),
                 result.bound, result.program_bound, token, chunk_size,
                 bounds_engines)
                for s in s_values
            )

        per_kernel = max(1, len(s_values))
        if jobs > 1 and len(tasks) > 1:
            outcomes = _shared_sweep(
                kernel_specs,
                s_values=s_values,
                jobs=jobs,
                max_vertices=int(max_vertices),
                chunk_size=chunk_size,
                bounds_engines=bounds_engines,
            )
        else:
            try:
                outcomes = [_audit_point(task) for task in tasks]
            finally:
                _reset_context()

        rows: list[TightnessRow] = []
        for start in range(0, len(outcomes), per_kernel):
            rows.extend(_collapse_clamped(outcomes[start:start + per_kernel]))
        sweep_span.add("rows", len(rows))
        return TightnessReport(
            rows=rows,
            s_values=s_values,
            elapsed_seconds=time.perf_counter() - started,
        )


# ---------------------------------------------------------------------------
# Two-phase zero-copy parallel sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PreparedPoint:
    """One (kernel, S) point after phase A, before replay."""

    kind: str  #: "skip" (duplicate clamped S) | "error" | "replay"
    s: int = 0
    s_requested: int = 0
    message: str = ""
    notes: tuple = ()
    bound_value: float = 0.0
    tiled: bool = False
    tile_sizes: tuple = ()
    schedule_notes: tuple = ()
    schedule_ref: object = None
    baseline_ref: object = None
    #: per-engine bound values as (engine, value) pairs (picklable, ordered)
    engine_bounds: tuple = ()
    winning_engine: str | None = None


@dataclass
class _PreparedKernel:
    """Phase-A output for one kernel: published streams + point plans."""

    name: str
    category: str
    params: dict
    n_vertices: int = 0
    error: str | None = None  #: kernel-level error (CDAG build / too large)
    points: list = field(default_factory=list)
    refs: list = field(default_factory=list)  #: segments the driver unlinks


def _prepare_kernel(task: tuple) -> _PreparedKernel:
    """Phase A, one kernel: build once, publish, plan every sweep point.

    Mirrors :func:`_audit_point`'s decisions exactly (clamping, duplicate
    skipping, error capture, note text) so the driver can assemble rows
    identical to the serial sweep's.  Streams and their next-use arrays are
    built here -- once, total -- and published; phase B only ever attaches.
    """
    (name, params, s_values, max_vertices, bound, program_bound,
     bounds_engines, tctx) = task
    with attach(tctx), obs_span("tightness.prepare", kernel=name):
        return _prepare_kernel_body(
            name, params, s_values, max_vertices, bound, program_bound,
            bounds_engines,
        )


def _prepare_kernel_body(
    name, params, s_values, max_vertices, bound, program_bound, bounds_engines
) -> _PreparedKernel:
    ctx = _kernel_context(name, params, max_vertices)
    prep = _PreparedKernel(
        name=name, category=ctx.category, params=dict(params)
    )
    if ctx.error is not None:
        prep.error = ctx.error
        return prep
    prep.n_vertices = ctx.cdag.n_vertices
    param_key = tuple(sorted(params.items()))
    published: dict = {}
    baseline_ref = None
    audited: set[int] = set()
    for s_requested in s_values:
        s = max(int(s_requested), ctx.min_s)
        if s in audited:
            prep.points.append(_PreparedPoint(kind="skip"))
            continue
        audited.add(s)
        notes: list[str] = []
        if s != s_requested:
            notes.append(
                f"S clamped to {s} (max in-degree {ctx.max_indegree})"
            )
        try:
            engine_bounds, bound_value, winning_engine = _certified_bounds(
                ctx.cdag.graph, name, params, s, bound, bounds_engines
            )
            schedule = derive_schedule(ctx.program, program_bound, params, s)
            stream_key = (
                schedule.tiled,
                tuple(schedule.variable_order),
                tuple(sorted(schedule.tile_sizes.items())),
            )
            schedule_ref = published.get(stream_key)
            if schedule_ref is None:
                stream = ctx.stream_cache.get(stream_key)
                if stream is None:
                    order = blocked_order(ctx.cdag, schedule)
                    stream = stream_from_graph(ctx.cdag.graph, order)
                    ctx.stream_cache[stream_key] = stream
                schedule_ref = shared_streams.publish(
                    stream,
                    shared_streams.stream_signature(
                        name, param_key, "schedule", stream_key
                    ),
                )
                published[stream_key] = schedule_ref
                prep.refs.append(schedule_ref)
            if baseline_ref is None:
                baseline_ref = shared_streams.publish(
                    ctx.baseline_stream,
                    shared_streams.stream_signature(
                        name, param_key, "baseline"
                    ),
                )
                prep.refs.append(baseline_ref)
        except SoapError as err:
            prep.points.append(
                _PreparedPoint(
                    kind="error", s=s, s_requested=int(s_requested),
                    message=str(err),
                )
            )
            continue
        prep.points.append(
            _PreparedPoint(
                kind="replay",
                s=s,
                s_requested=int(s_requested),
                notes=tuple(notes),
                bound_value=bound_value,
                tiled=schedule.tiled,
                tile_sizes=tuple(sorted(schedule.tile_sizes.items())),
                schedule_notes=tuple(schedule.notes),
                schedule_ref=schedule_ref,
                baseline_ref=baseline_ref,
                engine_bounds=tuple(engine_bounds.items()),
                winning_engine=winning_engine,
            )
        )
    return prep


def _replay_shared(task: tuple) -> tuple:
    """Phase B, one point: attach published streams (cached) and replay.

    No stream construction happens here, by design -- the function only
    knows segment refs, so a worker cannot rebuild even by accident.
    """
    schedule_ref, baseline_ref, s, chunk_size, kernel, tctx = task
    with attach(tctx), obs_span(
        "tightness.replay-point", kernel=kernel, s=int(s)
    ):
        try:
            stream = shared_streams.attach_cached(schedule_ref)
            baseline = shared_streams.attach_cached(baseline_ref)
            schedule_cost = simulate_io(
                stream, s, slab_positions=chunk_size
            ).cost
            program_order_cost = simulate_io(
                baseline, s, slab_positions=chunk_size
            ).cost
        except SoapError as err:
            return ("error", str(err))
        except (FileNotFoundError, ValueError, OSError) as err:
            # A vanished or undersized segment (publisher died, orphan
            # sweep raced us) degrades this point to a typed error row;
            # it must never take the whole sweep down.
            return (
                "error",
                f"shared segment unavailable ({type(err).__name__}: {err})",
            )
        return ("ok", schedule_cost, program_order_cost)


def _shared_sweep(
    kernel_specs: list[tuple],
    *,
    s_values: tuple[int, ...],
    jobs: int,
    max_vertices: int,
    chunk_size: int | None,
    bounds_engines: tuple[str, ...] | None,
) -> list[tuple[bool, TightnessRow | None]]:
    """The parallel sweep: prepare-and-publish, then attach-and-replay.

    Both phases run on one process pool, order-preserving.  From the main
    thread, forked workers inherit the warm interpreter state (kernel
    registry, sympy caches); off the main thread -- the service daemon runs
    audits on a thread pool -- forking a multithreaded process can inherit
    held locks into the child and deadlock, so workers are spawned fresh
    instead (tasks and refs are plain picklable data either way).  Shared
    segments outlive the phase-A workers that created them; the driver
    unlinks every segment on the way out, success or not.
    """
    import multiprocessing
    import os
    from concurrent.futures import ProcessPoolExecutor

    on_main = threading.current_thread() is threading.main_thread()
    try:
        mp_context = multiprocessing.get_context("fork" if on_main else "spawn")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        mp_context = multiprocessing.get_context()
    # cap at the core count: the points are CPU-bound, and the service
    # endpoint forwards caller-supplied jobs values -- one request must not
    # be able to spawn a worker per sweep point on a large corpus
    n_points = len(kernel_specs) * max(1, len(s_values))
    workers = max(1, min(int(jobs), n_points, os.cpu_count() or 1))
    tctx = trace_context()  # workers stitch under the driver's sweep span
    prep_tasks = [
        (name, params, s_values, max_vertices, bound, program_bound,
         bounds_engines, tctx)
        for name, params, bound, program_bound in kernel_specs
    ]
    refs: list = []
    try:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=mp_context
        ) as pool:
            preps = list(pool.map(_prepare_kernel, prep_tasks, chunksize=1))
            replay_tasks = []
            slots = []
            for ki, prep in enumerate(preps):
                refs.extend(prep.refs)
                for pi, point in enumerate(prep.points):
                    if point.kind == "replay":
                        replay_tasks.append(
                            (point.schedule_ref, point.baseline_ref,
                             point.s, chunk_size, prep.name, tctx)
                        )
                        slots.append((ki, pi))
            replays = (
                list(
                    pool.map(
                        _replay_shared,
                        replay_tasks,
                        chunksize=max(1, len(s_values)),
                    )
                )
                if replay_tasks
                else []
            )
        return _assemble_outcomes(preps, replays, slots, s_values)
    finally:
        for ref in refs:
            shared_streams.unlink(ref)


def _assemble_outcomes(
    preps: list[_PreparedKernel],
    replays: list[tuple],
    slots: list[tuple[int, int]],
    s_values: tuple[int, ...],
) -> list[tuple[bool, TightnessRow | None]]:
    """Rows from phase-A plans + phase-B costs, serial-identical."""
    outcomes: list[tuple[bool, TightnessRow | None]] = []
    replay_by_slot = dict(zip(slots, replays))
    for ki, prep in enumerate(preps):
        if prep.error is not None:
            outcomes.extend(
                (False, _error_row(
                    prep.name, prep.category, prep.params,
                    int(s_requested), prep.error,
                ))
                for s_requested in s_values
            )
            continue
        for pi, point in enumerate(prep.points):
            if point.kind == "skip":
                outcomes.append((True, None))
                continue
            if point.kind == "error":
                outcomes.append((True, _error_row(
                    prep.name, prep.category, prep.params, point.s,
                    point.message,
                )))
                continue
            replay = replay_by_slot[(ki, pi)]
            if replay[0] == "error":
                outcomes.append((True, _error_row(
                    prep.name, prep.category, prep.params, point.s,
                    replay[1],
                )))
                continue
            _, schedule_cost, program_order_cost = replay
            if not point.bound_value > 0:
                outcomes.append((True, _error_row(
                    prep.name, prep.category, prep.params, point.s,
                    f"bound evaluates to {point.bound_value}; gap undefined",
                )))
                continue
            gap = schedule_cost / point.bound_value
            notes = list(point.notes)
            if gap < 1.0:
                notes.append(
                    "gap < 1: instance too small for the leading-order "
                    "bound to bind"
                )
            outcomes.append((True, TightnessRow(
                kernel=prep.name,
                category=prep.category,
                params=dict(prep.params),
                s=point.s,
                s_requested=point.s_requested,
                n_vertices=prep.n_vertices,
                bound_value=point.bound_value,
                schedule_cost=schedule_cost,
                program_order_cost=program_order_cost,
                gap=gap,
                gap_program_order=program_order_cost / point.bound_value,
                classification=classify_gap(gap),
                tiled=point.tiled,
                tile_sizes=dict(point.tile_sizes),
                notes=tuple(notes) + point.schedule_notes,
                engine_bounds=dict(point.engine_bounds),
                winning_engine=point.winning_engine,
            )))
    return outcomes
