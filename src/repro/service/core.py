"""The analysis service: priority queue + forked worker fleet + coalescing.

:class:`AnalysisService` is the daemon core in fleet shape.  It owns

* a **worker fleet**: N forked processes (:mod:`repro.service.workers`),
  each with a full engine, all sharing one persistent
  :class:`~repro.engine.store.SharedSolveStore` (sqlite, WAL) keyed by the
  canonical ``sig-exact-rSOLVER_REVISION`` problem signature -- a problem
  solved by any worker, in any previous run, is a store hit everywhere;
* a **priority job queue** (``high`` < ``normal`` < ``low``, FIFO within a
  rank) drained by one asyncio dispatcher task per worker; the sympy work
  happens in the worker processes, so the HTTP event loop and the
  front-end GIL stay idle;
* two layers of **request coalescing**: in-flight jobs are keyed by
  canonical request identity (kernel name, or the engine's
  :func:`~repro.engine.program_fingerprint` for sources) so duplicate or
  isomorphic submissions attach to one job -- and *across* workers the
  store's claims table guarantees each canonical problem (8) solves once
  fleet-wide, with a lease so a crashed worker's claim is reclaimed;
* the **deploy verbs**: ``drain()`` stops accepting work (submissions and
  ``/healthz`` answer 503) and completes everything already accepted;
  ``reload()`` drains, re-forks the fleet, and resumes -- wired to
  SIGTERM/SIGHUP by :func:`repro.service.http.run_server`;
* optional **warm-up** (``ServiceConfig.warm``): at boot, the corpus is
  queued at low priority so a fresh deploy fills the store before real
  traffic lands on a cold solver.

Everything here is transport-free; the HTTP frontend lives in
:mod:`repro.service.http`.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro.engine import program_fingerprint
from repro.engine.cache import CacheStats
from repro.engine.core import STAGES
from repro.engine.store import STORE_FILE
from repro.opt.backends import get_backend
from repro.service.jobs import (
    DEFAULT_PRIORITY,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    priority_rank,
)
from repro.service.metrics import ServiceMetrics
from repro.service.workers import WorkerPool, worker_settings

#: completed/failed jobs retained for ``/jobs/<id>`` polling before eviction
MAX_RETAINED_JOBS = 1024


class ServiceUnavailable(RuntimeError):
    """Raised on submission while the service drains (HTTP 503)."""


@dataclass(frozen=True)
class ServiceConfig:
    """Daemon configuration (CLI ``serve`` flags map 1:1 onto this)."""

    workers: int = 2
    cache_dir: str | None = None  #: shared store location (None = ephemeral)
    max_cache_entries: int | None = None  #: per-worker memory-tier cap
    coalesce: bool = True
    #: problem (8) solver: ``"exact"`` is the only one; any other name raises
    #: :class:`~repro.util.errors.SolverError`
    solver: str = "exact"
    max_retained_jobs: int = MAX_RETAINED_JOBS
    #: corpus warm-up at boot: ``True`` queues every registered kernel,
    #: a tuple of names queues that subset, ``False`` skips warm-up
    warm: bool | tuple = False
    #: claim lease: how long a worker's in-flight solve blocks the fleet
    #: before another worker reclaims it (crash recovery)
    claim_lease_seconds: float = 300.0
    claim_poll_seconds: float = 0.02
    #: cache finished report artifacts in the shared store (warm requests
    #: skip the whole analysis pipeline, not just the solves)
    report_cache: bool = True

    def __post_init__(self) -> None:
        get_backend(self.solver)


class AnalysisService:
    """Queue, worker fleet, and job table behind the HTTP API."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics()
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}
        self._retired: deque[str] = deque()
        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
        self._seq = 0
        # fleet state (populated by start())
        self.pool: WorkerPool | None = None
        self._dispatchers: list[asyncio.Task] = []
        self._store = None  # front-end read handle on the shared store
        self._store_dir: str | None = None  # owned tempdir, if ephemeral
        self._active = 0  #: jobs currently executing on a worker
        self._draining = False
        self._stopped = False
        self._warm_task: asyncio.Task | None = None
        self._warm_state: dict | None = None
        # fleet-wide totals folded from per-job worker stats
        self._cache_totals = CacheStats()
        self._store_totals: dict[str, int] = {}
        self._solver_totals: dict[str, dict[str, int]] = {}
        self._bounds_totals: dict[str, int] = {}
        self._bounds_kernels: dict[str, dict] = {}
        # degradation ledger: everything /healthz reports under "degraded"
        self._bounds_errors: dict[str, int] = {}
        self._deadline_totals: dict[str, int] = {}
        self._requeued_jobs = 0
        # Parsing and fingerprinting (submission path) get their own small
        # pool so busy workers cannot stall new submissions or the event
        # loop; pipe I/O gets one thread per worker so dispatchers never
        # queue on threads.
        self._prep_pool = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="soap-service-prep"
        )
        self._io_pool = ThreadPoolExecutor(
            max_workers=max(1, int(self.config.workers)) + 1,
            thread_name_prefix="soap-service-io",
        )
        self.started_at = time.time()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def store_path(self) -> Path | None:
        if self.config.cache_dir is not None:
            return Path(self.config.cache_dir) / STORE_FILE
        if self._store_dir is not None:
            return Path(self._store_dir) / STORE_FILE
        return None

    async def start(self) -> None:
        if self._dispatchers:
            raise RuntimeError("service already started")
        from repro.engine.store import SharedSolveStore

        if self.config.cache_dir is None:
            self._store_dir = tempfile.mkdtemp(prefix="soap-service-store-")
        path = self.store_path
        # boot recovery: a corrupt store file is quarantined and rebuilt
        # inside the store constructor; surface the warm-boot counter here
        self._store = SharedSolveStore(
            path,
            lease_seconds=self.config.claim_lease_seconds,
            poll_seconds=self.config.claim_poll_seconds,
        )
        boot_stats = self._store.stats_snapshot()
        if boot_stats.quarantines:
            self._store_totals["quarantines"] = boot_stats.quarantines
            self.metrics.registry.inc(
                "service_store_quarantines_total", float(boot_stats.quarantines)
            )
        # fork the fleet BEFORE any request runs; each worker opens the
        # same store file and inherits this process's warm sympy caches
        self.pool = WorkerPool(
            self.config.workers,
            worker_settings(
                store_path=str(path),
                max_cache_entries=self.config.max_cache_entries,
                lease_seconds=self.config.claim_lease_seconds,
                poll_seconds=self.config.claim_poll_seconds,
                report_cache=self.config.report_cache,
            ),
        )
        for handle in self.pool.handles:
            self._dispatchers.append(
                asyncio.create_task(
                    self._dispatch(handle), name=f"analysis-dispatch-{handle.index}"
                )
            )
        if self.config.warm:
            self._warm_task = asyncio.create_task(self._warm_up())

    async def stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        if self._warm_task is not None:
            self._warm_task.cancel()
        for task in self._dispatchers:
            task.cancel()
        await asyncio.gather(*self._dispatchers, return_exceptions=True)
        self._dispatchers.clear()
        if self.pool is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.pool.stop)
        if self._store is not None:
            self._store.close()
        self._prep_pool.shutdown(wait=False)
        self._io_pool.shutdown(wait=False)
        if self._store_dir is not None:
            shutil.rmtree(self._store_dir, ignore_errors=True)
            self._store_dir = None

    async def drain(self) -> None:
        """Stop accepting work; return once all accepted jobs finished.

        While draining, submissions and ``/healthz`` answer 503 -- external
        load balancers see the deploy and stop routing here.  Already
        accepted jobs (queued or running) complete normally.
        """
        self._draining = True
        while self._queue.qsize() > 0 or self._active > 0:
            await asyncio.sleep(0.02)

    async def reload(self) -> None:
        """Zero-downtime deploy verb: drain, re-fork the fleet, resume."""
        await self.drain()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(self._io_pool, self.pool.restart_all)
        self._draining = False

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def workers(self) -> int:
        if self.pool is not None:
            return len(self.pool)
        return 0

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    # ------------------------------------------------------------------
    # warm-up
    # ------------------------------------------------------------------

    async def _warm_up(self) -> None:
        """Queue the corpus at low priority so the store fills before load."""
        from repro.kernels import kernel_names

        if self.config.warm is True:
            names = kernel_names()
        else:
            names = [str(name) for name in self.config.warm]
        self._warm_state = {
            "active": True,
            "kernels": len(names),
            "completed": 0,
            "seconds": None,
        }
        started = time.monotonic()
        jobs = []
        for name in names:
            try:
                jobs.append(self.submit_kernel(name, priority="low"))
            except (KeyError, ServiceUnavailable):
                self._warm_state["kernels"] -= 1
        for job in jobs:
            await self.wait(job)
            self._warm_state["completed"] += 1
        self._warm_state["active"] = False
        self._warm_state["seconds"] = time.monotonic() - started

    # ------------------------------------------------------------------
    # submission (event-loop side)
    # ------------------------------------------------------------------

    def submit_kernel(
        self,
        name: str,
        *,
        priority: str = DEFAULT_PRIORITY,
        trace: bool = False,
        deadline_seconds: float | None = None,
    ) -> Job:
        """Queue a registered-kernel analysis; unknown names raise KeyError."""
        from repro.kernels import get_kernel

        get_kernel(name)  # validate up front: a bad name is a 404, not a job
        return self._submit(
            kind="kernel",
            key=f"kernel:{name}",
            priority=priority,
            request={"kernel": name},
            descriptor={"kind": "kernel", "name": name, "trace": trace},
            trace=trace,
            deadline_seconds=deadline_seconds,
        )

    async def submit_source(
        self,
        source: str,
        *,
        name: str = "program",
        language: str = "python",
        policy: str = "sum",
        max_subgraph_size: int | None = None,
        allow_pinning: bool = False,
        priority: str = DEFAULT_PRIORITY,
        trace: bool = False,
        deadline_seconds: float | None = None,
    ) -> Job:
        """Queue a source analysis; parse errors and malformed options
        (``ValueError``, a 400 over HTTP) raise before a job exists.

        The coalescing key is the engine's canonical program fingerprint, so
        an isomorphic in-flight request (renamed loop variables, reordered
        statements) attaches to the running computation and receives its
        payload verbatim -- including the original submitter's ``program``
        name field.  Parsing and fingerprinting (sympy work) run on a
        dedicated prep pool: the event loop stays responsive and busy
        analysis workers cannot delay new submissions.  The fingerprint also
        keys the store's report-artifact cache, so isomorphic *repeat*
        requests are served without re-analysis even across daemon restarts.
        """
        from repro.sdg.subgraphs import DEFAULT_MAX_SIZE

        # options arrive as JSON values: check their types here, before they
        # reach the fingerprint (a bool is an int, and bool("false") is true)
        if not isinstance(source, str):
            raise ValueError("'source' must be a string")
        if policy not in ("sum", "max"):
            raise ValueError(f"unknown overlap policy {policy!r}")
        if max_subgraph_size is None:
            max_subgraph_size = DEFAULT_MAX_SIZE
        elif (
            isinstance(max_subgraph_size, bool)
            or not isinstance(max_subgraph_size, int)
            or max_subgraph_size < 1
        ):
            raise ValueError("'max_subgraph_size' must be a positive integer")
        if not isinstance(allow_pinning, bool):
            raise ValueError("'allow_pinning' must be true or false")
        if language not in ("python", "c"):
            raise ValueError(f"unknown language {language!r}")

        def fingerprint_source() -> str:
            if language == "python":
                from repro.frontend.python_frontend import parse_python

                program = parse_python(source, name=name)
            else:
                from repro.frontend.c_frontend import parse_c

                program = parse_c(source, name=name)
            return program_fingerprint(
                program,
                policy=policy,
                max_subgraph_size=max_subgraph_size,
                allow_pinning=allow_pinning,
            )

        loop = asyncio.get_running_loop()
        fingerprint = await loop.run_in_executor(
            self._prep_pool, fingerprint_source
        )
        return self._submit(
            kind="analyze",
            key=f"analyze:{fingerprint}",
            priority=priority,
            request={"program": name, "language": language, "policy": policy},
            descriptor={
                "kind": "analyze",
                "source": source,
                "name": name,
                "language": language,
                "policy": policy,
                "max_subgraph_size": max_subgraph_size,
                "allow_pinning": allow_pinning,
                "fingerprint": fingerprint,
                "trace": trace,
            },
            trace=trace,
            deadline_seconds=deadline_seconds,
        )

    def submit_batch(
        self, names: list[str], *, priority: str = "low"
    ) -> list[Job]:
        """Queue one job per kernel name (duplicates coalesce immediately)."""
        return [self.submit_kernel(name, priority=priority) for name in names]

    def submit_tightness(
        self,
        kernels: list[str] | None = None,
        *,
        s_values: list[int] | None = None,
        params: dict[str, int] | None = None,
        priority: str = "low",
        jobs: int = 1,
        chunk_size: int | None = None,
        trace: bool = False,
        deadline_seconds: float | None = None,
    ) -> Job:
        """Queue a schedule-replay tightness audit over ``kernels``.

        The audit runs on one worker process, whose engine shares the fleet
        store -- the analysis half reuses every solved problem (8) instance.
        ``jobs > 1`` fans the per-kernel audits out over the worker's own
        process pool; ``chunk_size`` bounds replay memory.  Both leave the
        result bit-identical, so neither is part of the coalescing key.
        Fast-memory sizes must be integers >= 1 and parameter values
        integers; anything else is a ``ValueError`` (a 400) before a job
        exists.
        """
        import json as _json

        from repro.kernels import get_kernel, kernel_names
        from repro.schedule.tightness import (
            DEFAULT_S_VALUES,
            checked_params,
            checked_s_values,
        )

        if kernels is None:
            names = kernel_names()
        elif not kernels:
            # an explicitly empty selection is a caller bug, not a request
            # for the (expensive) full-corpus default
            raise ValueError("'kernels' must name at least one kernel")
        else:
            names = list(kernels)
        for name in names:
            get_kernel(name)  # unknown kernels are a 404, not a failed job
        # each ValueError surfaces as a 400, like every malformed request body
        sweep = checked_s_values(s_values or DEFAULT_S_VALUES)
        overrides = checked_params(params)
        try:
            pool_jobs = int(jobs)
            slab = None if chunk_size is None else int(chunk_size)
        except (TypeError, ValueError):
            raise ValueError("jobs and chunk_size must be integers") from None
        if pool_jobs < 1:
            raise ValueError(f"jobs must be a positive integer (got {pool_jobs})")
        if slab is not None and slab < 1:
            raise ValueError(
                f"chunk size must be a positive integer (got {slab})"
            )
        key = "tightness:" + _json.dumps(
            [sorted(names), list(sweep), sorted(overrides.items())]
        )
        return self._submit(
            kind="tightness",
            key=key,
            priority=priority,
            request={
                "kernels": names,
                "s_values": list(sweep),
                "params": overrides,
                "jobs": pool_jobs,
                "chunk_size": slab,
            },
            descriptor={
                "kind": "tightness",
                "kernels": names,
                "s_values": list(sweep),
                "params": overrides,
                "jobs": pool_jobs,
                "chunk_size": slab,
                "trace": trace,
            },
            trace=trace,
            deadline_seconds=deadline_seconds,
        )

    def submit_bounds(
        self,
        name: str,
        *,
        s_values: list[int] | None = None,
        params: dict[str, int] | None = None,
        engines: list[str] | None = None,
        priority: str = DEFAULT_PRIORITY,
        trace: bool = False,
        deadline_seconds: float | None = None,
    ) -> Job:
        """Queue a concrete-CDAG bound evaluation (:mod:`repro.bounds`).

        Coalesced by CDAG signature: two requests naming the same
        (kernel, params) instance -- whatever the parameter order or
        default spelling -- attach to one job, and the worker-side report
        cache keys on the same identity, so a warm repeat is served
        without rebuilding the graph.  Unknown kernels are a 404; unknown
        engine names, fast-memory sizes that are not integers >= 1 and
        parameter values that are not integers a 400.
        """
        import json as _json

        from repro.cdag.cache import cdag_signature
        from repro.kernels import get_kernel
        from repro.schedule.tightness import checked_params, checked_s_values

        get_kernel(name)  # validate up front: a bad name is a 404, not a job
        sweep = None if s_values is None else list(checked_s_values(s_values))
        overrides = checked_params(params)
        if sweep is not None and not sweep:
            raise ValueError("'s_values' must name at least one memory size")
        wanted = None
        if engines is not None:
            from repro.bounds import get_bound_engine

            wanted = [str(e) for e in engines]
            if not wanted:
                raise ValueError("'engines' must name at least one bound engine")
            for engine_name in wanted:
                try:
                    get_bound_engine(engine_name)
                except KeyError as err:
                    # a bad engine name is a malformed request (400), not a
                    # missing resource (404)
                    raise ValueError(str(err).strip("'\"")) from None
        identity = _json.dumps([cdag_signature(name, overrides), sweep, wanted])
        return self._submit(
            kind="bounds",
            key="bounds:" + identity,
            priority=priority,
            request={
                "kernel": name,
                "s_values": sweep,
                "params": overrides,
                "engines": wanted,
            },
            descriptor={
                "kind": "bounds",
                "name": name,
                "s_values": sweep,
                "params": overrides,
                "engines": wanted,
                "identity": identity,
                "trace": trace,
            },
            trace=trace,
            deadline_seconds=deadline_seconds,
        )

    def _submit(
        self,
        *,
        kind,
        key,
        priority,
        request,
        descriptor,
        trace=False,
        deadline_seconds=None,
    ) -> Job:
        rank = priority_rank(priority)  # validate before touching any state
        if deadline_seconds is not None:
            seconds = float(deadline_seconds)
            if seconds <= 0:
                raise ValueError(
                    f"deadline_seconds must be positive (got {deadline_seconds})"
                )
            # absolute epoch: comparable in the dispatcher and the worker
            # process alike. Coalesced attachers inherit the first
            # submitter's deadline (the job is theirs too).
            descriptor = dict(descriptor, deadline=time.time() + seconds)
        if self._draining:
            raise ServiceUnavailable("service is draining; not accepting work")
        if trace:
            # a traced result carries extra payload, so it must never be
            # handed to a waiter that asked for the untraced shape
            key += ":traced"
        if self.config.coalesce:
            existing = self._inflight.get(key)
            if existing is not None and existing.state in (QUEUED, RUNNING):
                existing.attached += 1
                if existing.state == QUEUED and rank < existing.rank:
                    # A higher-priority waiter attached: escalate the queued
                    # job by re-pushing it at the better rank (the dispatcher
                    # skips the stale lower-rank entry when it surfaces).
                    existing.rank = rank
                    existing.priority = priority
                    self._queue.put_nowait((rank, existing.seq, existing))
                self.metrics.observe_coalesced()
                return existing
        self._seq += 1
        job = Job.new(
            kind=kind,
            key=key,
            priority=priority,
            seq=self._seq,
            request=request,
            descriptor=descriptor,
        )
        self._jobs[job.id] = job
        self._inflight[key] = job
        self._queue.put_nowait((job.rank, job.seq, job))
        self.metrics.observe_submitted(self._queue.qsize())
        return job

    # ------------------------------------------------------------------
    # job access
    # ------------------------------------------------------------------

    def get_job(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    async def wait(self, job: Job, timeout: float | None = None) -> Job:
        """Block until ``job`` finishes (its event fires once, for everyone)."""
        await asyncio.wait_for(job.done.wait(), timeout=timeout)
        return job

    # ------------------------------------------------------------------
    # dispatchers (one asyncio task per worker process)
    # ------------------------------------------------------------------

    async def _dispatch(self, handle) -> None:
        loop = asyncio.get_running_loop()
        registry = self.metrics.registry
        label = str(handle.index)
        while True:
            _, _, job = await self._queue.get()
            if job.state != QUEUED:
                # stale duplicate entry left behind by a priority escalation
                self._queue.task_done()
                continue
            job.state = RUNNING
            job.started = time.monotonic()
            self._active += 1
            handle.busy = True
            registry.set_gauge("service_worker_busy", 1.0, worker=label)
            try:
                raw_deadline = job.descriptor.get("deadline")
                if raw_deadline is not None and time.time() >= float(raw_deadline):
                    # cooperative cancellation of queued work: a job whose
                    # deadline lapsed in the queue never reaches a worker
                    registry.inc("deadline_expirations_total", stage="queue")
                    self._deadline_totals["queue"] = (
                        self._deadline_totals.get("queue", 0) + 1
                    )
                    response = {
                        "ok": False,
                        "result": None,
                        "error": f"deadline expired while job {job.id} was queued",
                        "error_kind": "deadline",
                        "stats": None,
                    }
                else:
                    try:
                        response = await loop.run_in_executor(
                            self._io_pool, handle.call, job.descriptor
                        )
                    except (EOFError, BrokenPipeError, OSError):
                        # the worker died mid-job: re-fork it (its claims
                        # expire via the store lease) and give the job one
                        # second chance on the fresh worker before failing it
                        registry.inc(
                            "service_worker_restarts_total", worker=label
                        )
                        await loop.run_in_executor(self._io_pool, handle.restart)
                        if job.requeues < 1:
                            job.requeues += 1
                            self._requeued_jobs += 1
                            registry.inc("service_jobs_requeued_total")
                            job.state = QUEUED
                            job.started = None
                            self._queue.put_nowait((job.rank, job.seq, job))
                            continue
                        response = {
                            "ok": False,
                            "result": None,
                            "error": (
                                f"analysis worker {handle.index} died while "
                                f"running job {job.id} (already retried)"
                            ),
                            "error_kind": "internal",
                            "stats": None,
                        }
                self._absorb_stats(response.get("stats"))
                if response["ok"]:
                    job.result = response["result"]
                    job.state = DONE
                    if job.kind == "bounds":
                        self._note_bounds(job.result)
                else:
                    job.error = response["error"]
                    job.error_kind = response.get("error_kind")
                    job.state = FAILED
                job.finished = time.monotonic()
                handle.jobs_done += 1
                registry.inc("service_worker_jobs_total", worker=label)
                if self._inflight.get(job.key) is job:
                    del self._inflight[job.key]
                self.metrics.observe_finished(job)
                self._retire(job)
                job.done.set()
            finally:
                handle.busy = False
                registry.set_gauge("service_worker_busy", 0.0, worker=label)
                self._active -= 1
                self._queue.task_done()

    def _absorb_stats(self, stats: dict | None) -> None:
        """Fold one job's worker-side metric deltas into the fleet totals."""
        if not stats:
            return
        registry = self.metrics.registry
        spans = stats.get("spans") or {}
        registry.merge_span_stats(spans)
        # the engine's stage spans are its one stage clock
        calls, seconds = spans.get("counts") or {}, spans.get("seconds") or {}
        for stage in STAGES:
            if calls.get(stage):
                registry.inc(
                    "engine_stage_seconds_total", float(seconds[stage]), stage=stage
                )
                registry.inc("engine_stages_total", float(calls[stage]), stage=stage)
        for field, value in (stats.get("cache") or {}).items():
            setattr(
                self._cache_totals,
                field,
                getattr(self._cache_totals, field) + int(value),
            )
        for field, value in (stats.get("store") or {}).items():
            self._store_totals[field] = self._store_totals.get(field, 0) + int(
                value
            )
            registry.inc(f"service_store_{field}_total", float(value))
        for backend, delta in (stats.get("solver") or {}).items():
            counts = self._solver_totals.setdefault(backend, {})
            for bucket, value in delta.items():
                counts[bucket] = counts.get(bucket, 0) + int(value)
        for engine_name, value in (stats.get("bounds") or {}).items():
            self._bounds_totals[engine_name] = self._bounds_totals.get(
                engine_name, 0
            ) + int(value)
            registry.inc(
                "service_bound_engine_evals_total", float(value), engine=engine_name
            )
        for engine_name, value in (stats.get("bounds_errors") or {}).items():
            self._bounds_errors[engine_name] = self._bounds_errors.get(
                engine_name, 0
            ) + int(value)
            registry.inc(
                "service_bound_engine_errors_total",
                float(value),
                engine=engine_name,
            )
        for backend, value in (stats.get("solver_closed_form") or {}).items():
            registry.inc(
                "service_solver_closed_form_total", float(value), backend=backend
            )
        if stats.get("solver_rescues"):
            registry.inc("service_solver_rescues_total", float(stats["solver_rescues"]))
        for stage, value in (stats.get("deadlines") or {}).items():
            self._deadline_totals[stage] = self._deadline_totals.get(
                stage, 0
            ) + int(value)
            registry.inc(
                "deadline_expirations_total", float(value), stage=stage
            )
        for site, value in (stats.get("faults") or {}).items():
            registry.inc("fault_injections_total", float(value), site=site)
        if stats.get("report_cache_hit"):
            registry.inc("service_report_cache_hits_total")
        if self._store is not None:
            registry.set_gauge(
                "service_store_entries", float(self._store.entry_count())
            )

    def _note_bounds(self, result: dict | None) -> None:
        """Record a finished bounds job's per-kernel certification verdict."""
        if not isinstance(result, dict) or "kernel" not in result:
            return
        self._bounds_kernels[str(result["kernel"])] = {
            "winning_engine": result.get("winning_engine"),
            "disagreement": result.get("max_disagreement"),
        }

    def _retire(self, job: Job) -> None:
        """Bound the finished-job table so the daemon's memory stays flat."""
        self._retired.append(job.id)
        while len(self._retired) > self.config.max_retained_jobs:
            self._jobs.pop(self._retired.popleft(), None)

    # ------------------------------------------------------------------
    # introspection payloads
    # ------------------------------------------------------------------

    def _bounds_block(self) -> dict:
        """Bound-engine activity: fleet-wide eval counts per engine plus the
        last certification verdict seen per kernel."""
        return {
            "evals": {
                name: int(count)
                for name, count in sorted(self._bounds_totals.items())
            },
            "kernels": {
                name: dict(record)
                for name, record in sorted(self._bounds_kernels.items())
            },
        }

    def _store_block(self) -> dict:
        block: dict = {
            "path": str(self.store_path) if self.store_path else None,
            **{name: int(value) for name, value in sorted(self._store_totals.items())},
        }
        if self._store is not None:
            block["entries"] = self._store.entry_count()
            block["reports"] = self._store.report_count()
        return block

    def healthz(self) -> dict:
        from repro import __version__

        return {
            "status": "draining" if self._draining else "ok",
            "version": __version__,
            "uptime_seconds": time.time() - self.started_at,
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "active_jobs": self._active,
            "coalescing": self.config.coalesce,
            "solver": self.config.solver,
            "solver_stats": {
                backend: dict(counts)
                for backend, counts in self._solver_totals.items()
            },
            "draining": self._draining,
            "warm": self._warm_state,
            "bounds": self._bounds_block(),
            "store": self._store_block(),
            "degraded": self._degraded_block(),
            "worker_processes": self.pool.records() if self.pool else [],
        }

    def _degraded_block(self) -> dict:
        """Every way the fleet is (or has been) serving degraded results.

        All entries are *explicit* markers: a non-empty block means some
        responses were produced by fallbacks -- never that any response was
        wrong.  ``healthy`` summarizes the block for load balancers.
        """
        from repro.schedule._native import native_status

        block = {
            "bound_engine_errors": {
                name: int(count)
                for name, count in sorted(self._bounds_errors.items())
            },
            "deadline_expirations": {
                stage: int(count)
                for stage, count in sorted(self._deadline_totals.items())
            },
            "store_quarantines": int(self._store_totals.get("quarantines", 0)),
            "store_errors": int(self._store_totals.get("errors", 0)),
            "requeued_jobs": int(self._requeued_jobs),
            "native_replay": native_status(),
        }
        block["healthy"] = not (
            block["bound_engine_errors"]
            or block["store_quarantines"]
            or block["store_errors"]
            or block["requeued_jobs"]
        )
        return block

    def _resilience_block(self) -> dict:
        """Fault/recovery counters for ``/metrics`` (chaos runs assert on
        these to prove a plan actually fired and recovery actually ran)."""
        reg = self.metrics.registry
        return {
            "fault_injections": {
                site: int(count)
                for site, count in sorted(
                    reg.counter_by_label("fault_injections_total", "site").items()
                )
            },
            "deadline_expirations": {
                stage: int(count)
                for stage, count in sorted(self._deadline_totals.items())
            },
            "worker_restarts": int(
                reg.counter_total("service_worker_restarts_total")
            ),
            "requeued_jobs": int(self._requeued_jobs),
            "store_quarantines": int(self._store_totals.get("quarantines", 0)),
            "store_errors": int(self._store_totals.get("errors", 0)),
            "bound_engine_errors": {
                name: int(count)
                for name, count in sorted(self._bounds_errors.items())
            },
        }

    def metrics_snapshot(self) -> dict:
        states: dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return self.metrics.snapshot(
            queue_depth=self.queue_depth,
            jobs={"by_state": states, "retained": len(self._jobs)},
            cache=self._cache_totals.as_dict(),
            workers=self.workers,
            solver={
                "backend": self.config.solver,
                "solves": {
                    backend: dict(counts)
                    for backend, counts in self._solver_totals.items()
                },
                "closed_form": {
                    backend: int(count)
                    for backend, count in sorted(
                        self.metrics.registry.counter_by_label(
                            "service_solver_closed_form_total", "backend"
                        ).items()
                    )
                },
                "rescues": int(
                    self.metrics.registry.counter_total("service_solver_rescues_total")
                ),
            },
            store=self._store_block(),
            bounds=self._bounds_block(),
            worker_detail=self.pool.records() if self.pool else [],
            resilience=self._resilience_block(),
        )
