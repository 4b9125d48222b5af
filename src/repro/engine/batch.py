"""Batch execution: the full Table 2 suite through one engine.

``analyze_many`` drives any list of registered kernels:

* ``jobs == 1``: every kernel goes through **one shared engine**, so the
  in-process cache deduplicates problem (8) instances *across* kernels (the
  suite's gemm-shaped contractions all resolve to a handful of signatures);
* ``jobs > 1``: kernels are distributed over a
  :class:`~concurrent.futures.ProcessPoolExecutor` whose workers share one
  :class:`~repro.engine.store.SharedSolveStore` -- the engine's, the one
  under ``cache_dir``, or one in a temp dir that lives as long as the
  batch.  The store's claims make the workers solve each signature once.
  ``executor.map`` preserves input order, so results are deterministic and
  position-aligned with ``names`` either way.
"""

from __future__ import annotations

import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, closing
from typing import Iterable, Sequence

from repro.engine.cache import SolveCache
from repro.engine.core import Engine
from repro.engine.store import SharedSolveStore
from repro.obs import attach, trace_context


def _kernel_task(task: tuple):
    """Analyze one kernel in a worker process (top-level for pickling)."""
    name, store_path, tctx = task
    from repro.analysis import analyze_kernel

    # stitch this worker's spans under the driver's trace (no-op untraced)
    with attach(tctx), closing(SharedSolveStore(store_path)) as store:
        engine = Engine(cache=SolveCache(store=store))
        return analyze_kernel(name, engine=engine)


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

    if engine is not None and cache_dir is not None:
        raise ValueError("pass either engine or cache_dir, not both")
    selected: Sequence[str] = (
        list(names) if names is not None else kernel_names()
    )
    jobs = max(1, int(jobs))
    if jobs == 1 or len(selected) <= 1:
        if engine is None:
            engine = Engine(cache=SolveCache(cache_dir))
        return [analyze_kernel(name, engine=engine) for name in selected]
    with ExitStack() as stack:
        # The parent opens the store before the pool forks and holds it for
        # the whole batch, so the workers never race to create the file.
        store = engine.cache.store if engine is not None else None
        if store is None:
            if cache_dir is None:
                cache_dir = stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="soap-engine-cache-")
                )
            store = stack.enter_context(closing(SolveCache(cache_dir).store))
        tctx = trace_context()
        tasks = [(name, str(store.path), tctx) for name in selected]
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return list(pool.map(_kernel_task, tasks))
