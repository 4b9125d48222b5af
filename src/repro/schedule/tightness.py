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

Every audit runs one pipeline of three steps.  Step 1 plans a kernel: it
builds the CDAG, the program-order baseline stream and each distinct
derived-schedule stream exactly once, and fixes every (kernel, S) point's
clamped size, certified bound and schedule.  Step 2 replays each planned
point.  Step 3 assembles the rows.  ``audit_kernel`` and
``audit_corpus(jobs=1)`` run the steps in-process, kernel by kernel.
``audit_corpus(jobs=N)`` (``repro tightness --jobs``, the ``/tightness``
service endpoint, ``benchmarks/bench_tightness.py``) runs steps 1 and 2
over one process pool: planning workers **publish** their streams, with
their next-use arrays, to shared memory
(:mod:`repro.schedule.shared_streams`), and replaying workers attach
zero-copy read-only views (cached per process) -- no worker ever rebuilds
a stream another worker already built.  The two modes differ only in
carrying streams or segment refs, so their rows are identical.
``chunk_size`` bounds the replay slab so even huge streams replay in
O(chunk) extra memory.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.cdag.cache import cached_cdag
from repro.cdag.index import graph_index
from repro.obs import attach, trace_context
from repro.obs import span as obs_span
from repro.schedule import shared_streams
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
    return _audit_in_process(
        (name, merged, result.bound, result.program_bound),
        s_values=tuple(int(s) for s in s_values),
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
    immediately, not once per point inside a worker)."""
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
    service daemon's audit endpoint uses this.  ``jobs > 1`` parallelizes
    the analysis batch *and* the replay sweep, the latter over one process
    pool (see the module docstring).  ``chunk_size`` bounds the replay
    slab, trading time for peak memory -- results are bit-identical
    whatever its value.  ``bounds_engines`` restricts the lower-bound
    engines behind the certified gap denominator (default: all registered
    engines; ``("kkt",)`` reproduces the KKT-only audit).
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
            selected, jobs=jobs, cache_dir=cache_dir, engine=engine
        )
        kernel_specs: list[tuple] = []
        for name, result in zip(selected, results):
            overrides: dict[str, int] = dict(params or {})
            if params_overrides and name in params_overrides:
                overrides.update(params_overrides[name])
            merged = _merged_params(name, _built_program(name), overrides)
            kernel_specs.append(
                (name, merged, result.bound, result.program_bound)
            )
        sweep = dict(
            s_values=s_values,
            max_vertices=int(max_vertices),
            chunk_size=chunk_size,
            bounds_engines=bounds_engines,
        )
        if jobs > 1 and len(kernel_specs) * len(s_values) > 1:
            rows = _shared_sweep(kernel_specs, jobs=jobs, **sweep)
        else:
            rows = [
                row
                for spec in kernel_specs
                for row in _audit_in_process(spec, **sweep)
            ]
        sweep_span.add("rows", len(rows))
        return TightnessReport(
            rows=rows,
            s_values=s_values,
            elapsed_seconds=time.perf_counter() - started,
        )


# ---------------------------------------------------------------------------
# The audit pipeline: plan each kernel, replay its points, assemble the rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PreparedPoint:
    """One (kernel, S) point after planning, before replay."""

    kind: str  #: "error" | "replay"
    s: int = 0
    s_requested: int = 0
    message: str = ""
    notes: tuple = ()
    bound_value: float = 0.0
    tiled: bool = False
    tile_sizes: tuple = ()  #: (variable, tile) pairs in schedule order
    schedule_notes: tuple = ()
    #: the streams to replay: shared-memory refs in the pool, the
    #: :class:`~repro.schedule.stream.AccessStream` objects in-process
    schedule: object = None
    baseline: object = None
    #: per-engine bound values as (engine, value) pairs (picklable, ordered)
    engine_bounds: tuple = ()
    winning_engine: str | None = None


@dataclass
class _PreparedKernel:
    """Step-1 output for one kernel: point plans (+ published segments)."""

    name: str
    category: str
    params: dict
    n_vertices: int = 0
    error: str | None = None  #: kernel-level error (CDAG build / too large)
    points: list = field(default_factory=list)
    refs: list = field(default_factory=list)  #: segments the driver unlinks


def _prepare_kernel_body(
    name, params, s_values, max_vertices, bound, program_bound,
    bounds_engines, *, share: bool,
) -> _PreparedKernel:
    """Step 1, one kernel: build its CDAG and streams once, plan each point.

    Clamps every requested S to the feasibility floor and plans each
    clamped size once; per point it evaluates the certified bound and
    derives the schedule, building each distinct schedule stream once.
    With ``share`` (the pool) every stream is published to shared memory
    together with its next-use arrays, so replaying workers only attach,
    and the points carry the refs; a failure unlinks whatever this kernel
    already published.  Without it the points carry the streams.
    """
    from repro.bounds import evaluate_bounds
    from repro.kernels import get_kernel

    with obs_span("tightness.prepare", kernel=name):
        prep = _PreparedKernel(
            name=name, category=get_kernel(name).category, params=dict(params)
        )
        try:
            program = _built_program(name)
            cdag = cached_cdag(name, params, program=program)
        except SoapError as err:
            prep.error = f"CDAG build failed: {err}"
            return prep
        if cdag.n_vertices > max_vertices:
            prep.error = (
                f"instance too large: {cdag.n_vertices} > "
                f"{max_vertices} vertices"
            )
            return prep
        prep.n_vertices = cdag.n_vertices
        param_key = tuple(sorted(params.items()))

        def handle(stream, *kind):
            """The stream itself in-process, its published ref in the pool."""
            if not share:
                return stream
            ref = shared_streams.publish(
                stream,
                shared_streams.stream_signature(name, param_key, *kind),
            )
            prep.refs.append(ref)
            return ref

        baseline_stream = stream_from_graph(cdag.graph)
        # Feasibility floor: a vertex's operands plus itself must fit.
        max_indegree = graph_index(cdag.graph).max_in_degree
        baseline = None
        schedules: dict = {}  #: (tiled, variable order, tiles) -> handle
        planned: set[int] = set()
        try:
            for s_requested in s_values:
                s = max(int(s_requested), max_indegree + 2)
                if s in planned:
                    continue  # clamping collapsed two requested sizes
                planned.add(s)
                notes: list[str] = []
                if s != s_requested:
                    notes.append(
                        f"S clamped to {s} (max in-degree {max_indegree})"
                    )
                try:
                    # the certified value is the gap denominator; the raw
                    # KKT value stays visible in the per-engine dict
                    combined = evaluate_bounds(
                        s=s, graph=cdag.graph, symbolic_bound=bound,
                        params=params, kernel=name, engines=bounds_engines,
                    )
                    schedule = derive_schedule(
                        program, program_bound, params, s
                    )
                    stream_key = (
                        schedule.tiled,
                        tuple(schedule.variable_order),
                        tuple(sorted(schedule.tile_sizes.items())),
                    )
                    if stream_key not in schedules:
                        order = blocked_ids(cdag, schedule)
                        schedules[stream_key] = handle(
                            stream_from_ids(cdag.graph, order),
                            "schedule", stream_key,
                        )
                    if baseline is None:
                        baseline = handle(baseline_stream, "baseline")
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
                        bound_value=combined.certified,
                        tiled=schedule.tiled,
                        tile_sizes=tuple(schedule.tile_sizes.items()),
                        schedule_notes=tuple(schedule.notes),
                        schedule=schedules[stream_key],
                        baseline=baseline,
                        engine_bounds=tuple(combined.engine_values().items()),
                        winning_engine=combined.winning_engine,
                    )
                )
        except BaseException:
            for ref in prep.refs:
                shared_streams.unlink(ref)
            raise
        return prep


def _replay_point(schedule, baseline, s: int, chunk_size, kernel: str) -> tuple:
    """Step 2, one point: replay the schedule and the program-order stream.

    Returns ``("ok", schedule_cost, program_order_cost)`` or
    ``("error", message)``.
    """
    with obs_span("tightness.replay-point", kernel=kernel, s=int(s)):
        try:
            schedule_cost = simulate_io(
                schedule, s, slab_positions=chunk_size
            ).cost
            program_order_cost = simulate_io(
                baseline, s, slab_positions=chunk_size
            ).cost
        except SoapError as err:
            return ("error", str(err))
    return ("ok", schedule_cost, program_order_cost)


def _assemble_outcomes(
    preps: list[_PreparedKernel],
    replays: list[tuple],
    s_values: tuple[int, ...],
) -> list[TightnessRow]:
    """Step 3: rows from the point plans and, in plan order, their replays."""
    rows: list[TightnessRow] = []
    pending = iter(replays)
    for prep in preps:
        if prep.error is not None:
            rows.extend(
                _error_row(
                    prep.name, prep.category, prep.params,
                    int(s_requested), prep.error,
                )
                for s_requested in s_values
            )
            continue
        for point in prep.points:
            replay = (
                next(pending) if point.kind == "replay"
                else ("error", point.message)
            )
            if replay[0] == "error":
                rows.append(_error_row(
                    prep.name, prep.category, prep.params, point.s, replay[1],
                ))
                continue
            if not point.bound_value > 0:
                rows.append(_error_row(
                    prep.name, prep.category, prep.params, point.s,
                    f"bound evaluates to {point.bound_value}; gap undefined",
                ))
                continue
            _, schedule_cost, program_order_cost = replay
            gap = schedule_cost / point.bound_value
            notes = list(point.notes)
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
            ))
    return rows


def _audit_in_process(
    spec: tuple,
    *,
    s_values: tuple[int, ...],
    max_vertices: int,
    chunk_size: int | None,
    bounds_engines: tuple[str, ...] | None,
) -> list[TightnessRow]:
    """One kernel through the three steps in this process (``jobs=1``)."""
    name, params, bound, program_bound = spec
    prep = _prepare_kernel_body(
        name, params, s_values, max_vertices, bound, program_bound,
        bounds_engines, share=False,
    )
    replays = [
        _replay_point(point.schedule, point.baseline, point.s, chunk_size, name)
        for point in prep.points
        if point.kind == "replay"
    ]
    return _assemble_outcomes([prep], replays, s_values)


# ---------------------------------------------------------------------------
# The same pipeline over a process pool, streams in shared memory
# ---------------------------------------------------------------------------


def _prepare_kernel(task: tuple) -> _PreparedKernel:
    """Step 1 in a pool worker: plan one kernel and publish its streams."""
    (name, params, s_values, max_vertices, bound, program_bound,
     bounds_engines, tctx) = task
    with attach(tctx):
        return _prepare_kernel_body(
            name, params, s_values, max_vertices, bound, program_bound,
            bounds_engines, share=True,
        )


def _replay_shared(task: tuple) -> tuple:
    """Step 2 in a pool worker: attach the published streams and replay.

    Attaches are cached per process.  No stream construction happens here,
    by design -- the function only knows segment refs, so a worker cannot
    rebuild even by accident.
    """
    schedule_ref, baseline_ref, s, chunk_size, kernel, tctx = task
    with attach(tctx):
        try:
            schedule = shared_streams.attach_cached(schedule_ref)
            baseline = shared_streams.attach_cached(baseline_ref)
        except (FileNotFoundError, ValueError, OSError) as err:
            # A vanished or undersized segment (publisher died, orphan
            # sweep raced us) degrades this point to a typed error row;
            # it must never take the whole sweep down.
            return (
                "error",
                f"shared segment unavailable ({type(err).__name__}: {err})",
            )
        return _replay_point(schedule, baseline, s, chunk_size, kernel)


def _shared_sweep(
    kernel_specs: list[tuple],
    *,
    s_values: tuple[int, ...],
    jobs: int,
    max_vertices: int,
    chunk_size: int | None,
    bounds_engines: tuple[str, ...] | None,
) -> list[TightnessRow]:
    """The parallel sweep: plan-and-publish, then attach-and-replay.

    Both steps run on one process pool, order-preserving, and the driver
    assembles the rows.  From the main thread, forked workers inherit the
    warm interpreter state (kernel registry, sympy caches); off the main
    thread -- the service daemon runs audits on a thread pool -- forking a
    multithreaded process can inherit held locks into the child and
    deadlock, so workers are spawned fresh instead (tasks and refs are
    plain picklable data either way).  Shared segments outlive the workers
    that created them; the driver unlinks every segment any kernel
    published on the way out, success or not.
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
    futures: list = []
    try:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=mp_context
        ) as pool:
            for name, params, bound, program_bound in kernel_specs:
                futures.append(pool.submit(
                    _prepare_kernel,
                    (name, params, s_values, max_vertices, bound,
                     program_bound, bounds_engines, tctx),
                ))
            preps = [future.result() for future in futures]
            replay_tasks = [
                (point.schedule, point.baseline, point.s, chunk_size,
                 prep.name, tctx)
                for prep in preps
                for point in prep.points
                if point.kind == "replay"
            ]
            replays = list(
                pool.map(
                    _replay_shared,
                    replay_tasks,
                    chunksize=max(1, len(s_values)),
                )
            )
        return _assemble_outcomes(preps, replays, s_values)
    finally:
        # The pool has finished every submitted kernel by now, so this
        # also reaches the segments of kernels whose plans were never read
        # because another kernel failed first.
        for future in futures:
            if not future.cancelled() and future.exception() is None:
                for ref in future.result().refs:
                    shared_streams.unlink(ref)
