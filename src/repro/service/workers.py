"""Forked analysis workers: one engine per process, one store per fleet.

The PR-2 daemon ran jobs on threads inside the front-end process, so one
slow sympy solve head-of-line-blocked everything behind the GIL.  Fleet
shape moves the work out: the front-end forks ``workers`` processes, each
owning a **full engine** (its own memory-tier cache, its own metrics
registry and tracer per job), all sharing one
:class:`~repro.engine.store.SharedSolveStore` -- so a problem solved by any
worker is a store hit for every other, and two workers racing the same
canonical signature coalesce on the store's claims table instead of solving
twice.

Protocol: each worker holds one duplex :func:`multiprocessing.Pipe`.  The
front-end sends a picklable *descriptor* (``{"kind": "kernel", ...}``) and
receives ``{"ok", "result", "error", "error_kind", "stats"}`` back; ``None``
asks the worker to exit.  ``stats`` carries the job's metric deltas (span
aggregates, the engine's stage spans among them, and cache/store/solver
counters) so the front-end can fold fleet-wide numbers into its
:class:`~repro.obs.metrics.MetricsRegistry` without sharing memory.

Workers are forked, not spawned: the service forks them at boot and on
reload -- both quiescent moments -- and fork inherits the parent's warm
sympy caches, making worker start cheap (the same trade recorded in
``schedule/tightness.py`` for the sweep pool).

Finished *reports* are cached in the store as well (the DaCe/PyOP2
compiled-artifact pattern): a warm ``/kernel`` request is served from the
``reports`` table without re-running the analysis pipeline at all, which is
what keeps warm p99 flat as client counts grow.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import tempfile

from repro import faults
from repro.util.errors import SoapError

#: worker stats ship at most this many slowest spans per job
_SLOW_SPANS_PER_JOB = 3


def worker_settings(
    *,
    store_path: str,
    max_cache_entries: int | None = None,
    lease_seconds: float | None = None,
    poll_seconds: float | None = None,
    report_cache: bool = True,
) -> dict:
    """Picklable worker configuration (one dict, shipped at fork time)."""
    return {
        "store_path": str(store_path),
        "max_cache_entries": max_cache_entries,
        "lease_seconds": lease_seconds,
        "poll_seconds": poll_seconds,
        "report_cache": bool(report_cache),
    }


# ---------------------------------------------------------------------------
# worker process side
# ---------------------------------------------------------------------------


def _build_engine(settings: dict):
    from repro.engine import Engine, SolveCache
    from repro.engine.store import (
        DEFAULT_LEASE_SECONDS,
        DEFAULT_POLL_SECONDS,
        SharedSolveStore,
    )

    store = SharedSolveStore(
        settings["store_path"],
        lease_seconds=settings.get("lease_seconds") or DEFAULT_LEASE_SECONDS,
        poll_seconds=settings.get("poll_seconds") or DEFAULT_POLL_SECONDS,
    )
    engine = Engine(
        cache=SolveCache(
            store=store,
            max_memory_entries=settings.get("max_cache_entries"),
        ),
    )
    return engine, store


def _report_key(kind: str, identity: str) -> str:
    from repro import __version__
    from repro.opt.backends import get_backend

    return f"{kind}:{identity}:{get_backend().cache_tag()}:v{__version__}"


def _execute(engine, store, descriptor: dict, report_cache: bool):
    """Run one descriptor; returns ``(result, served_from_report_cache)``."""
    kind = descriptor["kind"]
    traced = bool(descriptor.get("trace"))
    cacheable = report_cache and not traced

    if kind == "kernel":
        from repro.analysis import analyze_kernel
        from repro.reporting.serialize import kernel_report

        name = descriptor["name"]
        key = _report_key("kernel", name)
        if cacheable:
            cached = store.get_report(key)
            if cached is not None:
                return cached, True
        result = kernel_report(analyze_kernel(name, engine=engine))
        if cacheable:
            store.put_report(key, result)
        return result, False

    if kind == "analyze":
        from repro.frontend.python_frontend import parse_python
        from repro.reporting.serialize import program_bound_report

        key = _report_key("analyze", descriptor["fingerprint"])
        if cacheable:
            cached = store.get_report(key)
            if cached is not None:
                return cached, True
        if descriptor["language"] == "python":
            program = parse_python(descriptor["source"], name=descriptor["name"])
        elif descriptor["language"] == "c":
            from repro.frontend.c_frontend import parse_c

            program = parse_c(descriptor["source"], name=descriptor["name"])
        else:
            raise ValueError(f"unknown language {descriptor['language']!r}")
        bound = engine.analyze(
            program,
            policy=descriptor["policy"],
            max_subgraph_size=descriptor["max_subgraph_size"],
            allow_pinning=descriptor["allow_pinning"],
        )
        result = program_bound_report(
            bound, name=descriptor["name"], language=descriptor["language"]
        )
        if cacheable:
            store.put_report(key, result)
        return result, False

    if kind == "bounds":
        from repro.bounds import kernel_bounds
        from repro.reporting.serialize import bounds_report

        # identity = CDAG signature + sweep + engine selection (computed by
        # the front-end), so a warm repeat skips graph construction entirely
        key = _report_key("bounds", descriptor["identity"])
        if cacheable:
            cached = store.get_report(key)
            if cached is not None:
                return cached, True
        result = bounds_report(
            kernel_bounds(
                descriptor["name"],
                params=descriptor["params"] or None,
                s_values=descriptor["s_values"],
                engines=descriptor["engines"],
                engine=engine,
            )
        )
        if cacheable:
            store.put_report(key, result)
        return result, False

    if kind == "tightness":
        from repro.reporting.serialize import tightness_report
        from repro.schedule.tightness import audit_corpus

        report = audit_corpus(
            descriptor["kernels"],
            s_values=tuple(descriptor["s_values"]),
            params=descriptor["params"] or None,
            engine=engine,
            jobs=descriptor["jobs"],
            chunk_size=descriptor["chunk_size"],
        )
        return tightness_report(report), False

    raise ValueError(f"unknown job kind {kind!r}")


def _run_job(engine, store, descriptor: dict, report_cache: bool) -> dict:
    """Execute one descriptor under fresh metrics; package result + deltas."""
    from repro.obs import Tracer, read_trace, span_tree
    from repro.obs import span as obs_span
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    cache_before = engine.cache.stats_snapshot()
    store_before = store.stats_snapshot()
    solver_before = engine.solver_stats_snapshot()

    result = None
    error = None
    error_kind = None
    from_report_cache = False
    raw_deadline = descriptor.get("deadline")
    deadline = faults.Deadline(at=float(raw_deadline)) if raw_deadline else None
    try:
        # the job's deadline becomes ambient: engine stages, solver batches
        # and bound engines all check it at their cancellation points
        with faults.deadline_scope(deadline):
            faults.check_deadline("job-start")  # expired while queued/piped
            # crash-fault site: SIGKILL here models a worker dying mid-job
            faults.inject("worker.job")
            if not descriptor.get("trace"):
                with Tracer(registry=registry), obs_span(
                    "job", kind=descriptor["kind"]
                ):
                    result, from_report_cache = _execute(
                        engine, store, descriptor, report_cache
                    )
            else:
                # a traced job sinks spans to JSONL (forked sweep workers
                # append to it) and embeds the stitched tree in its result
                fd, path = tempfile.mkstemp(prefix="soap-trace-", suffix=".jsonl")
                os.close(fd)
                try:
                    tracer = Tracer(path, registry=registry)
                    with tracer, obs_span("job", kind=descriptor["kind"]):
                        result, _ = _execute(
                            engine, store, descriptor, report_cache
                        )
                    records = read_trace(path)
                finally:
                    os.unlink(path)
                result = dict(
                    result,
                    trace={
                        "trace_id": tracer.trace_id,
                        "spans": span_tree(records),
                    },
                )
    except faults.DeadlineExceeded as err:
        # before SoapError: a blown deadline is cancellation (HTTP 504),
        # not a malformed request
        error = str(err)
        error_kind = "deadline"
    except (SoapError, KeyError, ValueError, SyntaxError) as err:
        error = str(err) or type(err).__name__
        error_kind = "expected"
    except Exception as err:  # noqa: BLE001 - a worker must survive any job
        error = f"{type(err).__name__}: {err}"
        error_kind = "internal"

    cache_after = engine.cache.stats_snapshot()
    store_after = store.stats_snapshot()
    stats = {
        "spans": {
            "counts": registry.span_counts(),
            "seconds": registry.counter_by_label("span_seconds_total", "name"),
            "slowest": registry.slowest_spans(_SLOW_SPANS_PER_JOB),
        },
        "cache": {
            field: getattr(cache_after, field) - getattr(cache_before, field)
            for field in (
                "memory_hits", "disk_hits", "misses", "stores", "evictions",
            )
        },
        "store": {
            field: getattr(store_after, field) - getattr(store_before, field)
            for field in vars(store_after)
        },
        "solver": _solver_delta(solver_before, engine.solver_stats_snapshot()),
        "bounds": registry.counter_by_label("bound_engine_evals_total", "engine"),
        "bounds_errors": registry.counter_by_label(
            "bound_engine_errors_total", "engine"
        ),
        "solver_closed_form": registry.counter_by_label(
            "solver_closed_form_total", "backend"
        ),
        "solver_rescues": registry.counter_total("solver_rescues_total"),
        "deadlines": registry.counter_by_label(
            "deadline_expirations_total", "stage"
        ),
        "faults": registry.counter_by_label("fault_injections_total", "site"),
        "report_cache_hit": from_report_cache,
    }
    return {
        "ok": error is None,
        "result": result,
        "error": error,
        "error_kind": error_kind,
        "stats": stats,
    }


def _solver_delta(before: dict, after: dict) -> dict:
    out: dict = {}
    for backend, counts in after.items():
        base = before.get(backend, {})
        delta = {
            bucket: count - base.get(bucket, 0)
            for bucket, count in counts.items()
            if count - base.get(bucket, 0)
        }
        if delta:
            out[backend] = delta
    return out


def _worker_main(conn, settings: dict) -> None:
    """Worker process entry: recv descriptors forever, send responses."""
    # the front-end handles SIGINT/SIGTERM and drains us via the pipe;
    # a stray Ctrl-C in the terminal must not kill workers mid-solve
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:
        pass  # forked from a non-main thread (ServiceThread embedding)
    # replacement workers run with crash sites disarmed (the fault plan
    # targets the original fleet; a respawn must not re-kill itself forever)
    for site in settings.get("fault_disarm", ()):
        faults.disarm(site)
    engine, store = _build_engine(settings)
    report_cache = settings.get("report_cache", True)
    try:
        while True:
            try:
                descriptor = conn.recv()
            except (EOFError, OSError):
                break
            if descriptor is None:
                break
            try:
                # pipe-fault site: dropping the connection mid-protocol is
                # indistinguishable from a worker crash to the front-end
                faults.inject("worker.pipe")
            except (EOFError, OSError):
                break
            if descriptor.get("kind") == "ping":
                response = {
                    "ok": True,
                    "result": {"pid": os.getpid()},
                    "error": None,
                    "error_kind": None,
                    "stats": None,
                }
            else:
                response = _run_job(engine, store, descriptor, report_cache)
            try:
                conn.send(response)
            except (BrokenPipeError, OSError):
                break
    finally:
        store.close()
        conn.close()


# ---------------------------------------------------------------------------
# front-end side
# ---------------------------------------------------------------------------


class WorkerHandle:
    """One forked worker process plus its command pipe (front-end view)."""

    def __init__(self, index: int, settings: dict, ctx):
        self.index = index
        self.settings = settings
        self._ctx = ctx
        self.jobs_done = 0
        self.restarts = -1  # first spawn() brings it to 0
        self.busy = False
        self.process = None
        self.conn = None
        self.spawn()

    def spawn(self) -> None:
        parent, child = self._ctx.Pipe()
        # NOT daemonic: a worker must be able to fork its own children (the
        # tightness audit's kernel pool, the engine's jobs>1 solve pool),
        # which Python forbids for daemon processes.  Orphan protection
        # comes from the pipe instead -- a worker exits on EOF when the
        # front-end goes away -- plus the pool's atexit stop.
        self.process = self._ctx.Process(
            target=_worker_main,
            args=(child, self.settings),
            name=f"soap-analysis-worker-{self.index}",
        )
        self.process.start()
        child.close()
        self.conn = parent
        self.restarts += 1

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def call(self, descriptor: dict) -> dict:
        """Blocking round-trip (run on an executor thread, never the loop)."""
        self.conn.send(descriptor)
        return self.conn.recv()

    def restart(self) -> None:
        """Replace a dead or wedged worker with a fresh fork.

        Under an active fault plan the replacement runs with crash-type
        sites (kill actions, the worker pipe) disarmed: injected crashes
        target the original fleet, and a respawned worker re-inheriting the
        parent's pristine fault counters would kill itself again on every
        respawn -- turning one injected crash into a crash loop.
        """
        self._close(graceful=False)
        plan = faults.active_plan()
        if plan is not None:
            crash_sites = sorted(
                spec.site
                for spec in plan.specs.values()
                if spec.action == "kill" or spec.site.startswith("worker.")
            )
            if crash_sites:
                self.settings = dict(self.settings, fault_disarm=crash_sites)
        self.spawn()

    def stop(self) -> None:
        self._close(graceful=True)

    def _close(self, *, graceful: bool) -> None:
        if self.conn is not None:
            if graceful:
                try:
                    self.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            try:
                self.conn.close()
            except OSError:
                pass
            self.conn = None
        if self.process is not None:
            self.process.join(timeout=2.0 if graceful else 0.1)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=2.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=1.0)
            self.process = None

    def record(self) -> dict:
        """JSON-safe liveness record for ``/healthz`` and ``repro status``."""
        return {
            "index": self.index,
            "pid": self.pid,
            "alive": self.alive,
            "busy": self.busy,
            "jobs": self.jobs_done,
            "restarts": self.restarts,
        }


class WorkerPool:
    """The fleet: N forked workers sharing one solve store."""

    def __init__(self, count: int, settings: dict):
        ctx = multiprocessing.get_context("fork")
        self.handles = [
            WorkerHandle(index, settings, ctx) for index in range(max(1, int(count)))
        ]
        # registered after multiprocessing's own exit hook, so it runs
        # first (LIFO): workers get their exit sentinel before the parent
        # tries to join its non-daemon children
        atexit.register(self.stop)

    def __len__(self) -> int:
        return len(self.handles)

    def stop(self) -> None:
        for handle in self.handles:
            handle.stop()

    def restart_all(self) -> None:
        """Reload: replace every worker with a fresh fork (drained first)."""
        for handle in self.handles:
            handle.stop()
            handle.spawn()

    def records(self) -> list[dict]:
        return [handle.record() for handle in self.handles]
