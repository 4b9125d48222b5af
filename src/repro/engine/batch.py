"""Batch execution: many kernels, serially or over one process pool.

:func:`run_kernels` is the one fan-out of the analyzer.  Kernels are
independent, so they are its unit of parallelism; a kernel's own problem
(8) solves always run in the process that analyzes it.

* ``jobs == 1`` (or a single kernel): every kernel goes through **one
  shared engine**, so the in-process cache deduplicates problem (8)
  instances *across* kernels (the suite's gemm-shaped contractions all
  resolve to a handful of signatures);
* ``jobs > 1``: one task per kernel over one
  :class:`~concurrent.futures.ProcessPoolExecutor` of at most
  ``min(jobs, kernels, os.cpu_count())`` workers, whose engines share one
  :class:`~repro.engine.store.SharedSolveStore` -- the engine's, the one
  under ``cache_dir``, or one in a temp dir that lives as long as the
  batch.  The store's claims make the workers solve each signature once.
  Results come back in input order either way.

:func:`analyze_many` runs :func:`~repro.analysis.analyze_kernel` through it;
the tightness audit (:func:`repro.schedule.tightness.audit_corpus`) runs a
task that analyzes and then audits one kernel.
"""

from __future__ import annotations

import functools
import multiprocessing
import numbers
import os
import tempfile
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, closing
from typing import Callable, Iterable, Sequence

from repro.engine.cache import SolveCache
from repro.engine.core import Engine
from repro.engine.store import SharedSolveStore
from repro.obs import attach, trace_context


def checked_jobs(jobs) -> int:
    """``jobs`` as a worker count: an integer of at least 1.

    Anything else is refused with ``ValueError``, not coerced: ``True``
    would mean one worker and ``0`` has no meaning.
    """
    if not isinstance(jobs, numbers.Integral) or isinstance(jobs, bool) or jobs < 1:
        raise ValueError(f"jobs must be a positive integer (got {jobs!r})")
    return int(jobs)


def run_kernels(
    task: Callable,
    items: Sequence,
    *,
    jobs: int = 1,
    cache_dir: str | None = None,
    engine: Engine | None = None,
    size: Callable | None = None,
) -> list:
    """``task(item, engine=...)`` for every item; results in input order.

    With ``jobs > 1`` and more than one item, each call is one task of a
    process pool (see the module docstring); ``task`` must be picklable,
    i.e. a top-level function or a :func:`functools.partial` of one.
    Tasks are submitted in input order, or by descending ``size(item)``
    (ties in input order) when ``size`` is given.  From the main thread,
    forked workers inherit the warm interpreter state (kernel registry,
    sympy caches); called from another thread, forking the multithreaded
    process can inherit held locks into the child and deadlock, so
    workers are spawned fresh instead.  Workers trace under the caller's
    span.
    """
    jobs = checked_jobs(jobs)
    if engine is not None and cache_dir is not None:
        raise ValueError("pass either engine or cache_dir, not both")
    if jobs == 1 or len(items) <= 1:
        if engine is None:
            engine = Engine(cache=SolveCache(cache_dir))
        return [task(item, engine=engine) for item in items]
    on_main = threading.current_thread() is threading.main_thread()
    try:
        mp_context = multiprocessing.get_context("fork" if on_main else "spawn")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        mp_context = multiprocessing.get_context()
    # cap at the core count: the tasks are CPU-bound, and the service's
    # audit endpoint forwards caller-supplied jobs values -- one request
    # must not be able to start a worker per kernel on a large corpus
    workers = min(jobs, len(items), os.cpu_count() or 1)
    with ExitStack() as stack:
        # The parent opens the store before the pool starts and holds it for
        # the whole batch, so the workers never race to create the file.
        store = engine.cache.store if engine is not None else None
        if store is None:
            if cache_dir is None:
                cache_dir = stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="soap-engine-cache-")
                )
            store = stack.enter_context(closing(SolveCache(cache_dir).store))
        run = functools.partial(_pool_task, task, str(store.path), trace_context())
        pool = stack.enter_context(
            ProcessPoolExecutor(max_workers=workers, mp_context=mp_context)
        )
        positions = range(len(items))
        if size is not None:
            positions = sorted(positions, key=lambda i: -size(items[i]))
        futures = {i: pool.submit(run, items[i]) for i in positions}
        return [futures[i].result() for i in range(len(items))]


def _pool_task(task: Callable, store_path: str, tctx, item):
    """One pool task: ``task`` on an engine over the batch's shared store."""
    # stitch this worker's spans under the caller's trace (no-op untraced)
    with attach(tctx), closing(SharedSolveStore(store_path)) as store:
        return task(item, engine=Engine(cache=SolveCache(store=store)))


def analyze_many(
    names: Iterable[str] | None = None,
    *,
    jobs: int = 1,
    cache_dir: str | None = None,
    engine: Engine | None = None,
) -> list:
    """Analyze ``names`` (default: every registered kernel); returns
    :class:`~repro.analysis.KernelResult` objects in input order."""
    from repro.analysis import analyze_kernel
    from repro.kernels import kernel_names

    selected = list(names) if names is not None else kernel_names()
    return run_kernels(
        analyze_kernel, selected, jobs=jobs, cache_dir=cache_dir, engine=engine
    )
