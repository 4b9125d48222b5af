"""Two-tier memoization cache for solved problem (8) instances.

Tier 1 is an in-process LRU (shared across every kernel analyzed by one
:class:`repro.engine.Engine`), tier 2 the persistent sqlite
:class:`~repro.engine.store.SharedSolveStore`: ``SolveCache(cache_dir)``
opens ``<cache_dir>/solves.sqlite``, the file ``repro serve --cache-dir``
uses too, and ``SolveCache(store=...)`` takes an open handle (service
workers pass one to set the claim lease).  Keys are composed by the engine
as ``<canonical signature>-exact-r<SOLVER_REVISION>``
(:meth:`~repro.opt.backends.SolverBackend.cache_tag`), so results produced
by different solver generations are namespaced and never alias.  Values are
either a serialized :class:`~repro.opt.kkt.ChiSolution` or a *negative*
entry recording the :class:`~repro.util.errors.SolverError` message -- warm
runs must skip the same subgraphs the cold run skipped, or the per-array
maxima (and hence the bounds) could drift.

The memory tier is unbounded by default (a suite run holds a few hundred
signatures at most), but a long-lived daemon serving arbitrary sources must
not grow without limit: pass ``max_memory_entries`` to cap it.  Eviction is
least-recently-used and counted in :class:`CacheStats`; an evicted entry
that is still in the store simply costs a store hit later.  All operations
take an internal lock, so one cache can back a multi-threaded worker pool
as well as the single-threaded CLI.  A sick store degrades to a miss or a
lost write, never to a failed analysis.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.engine.store import STORE_FILE, SharedSolveStore, SolveOutcome


@dataclass
class CacheStats:
    """Counters surfaced in engine diagnostics and ``--json`` reports."""

    memory_hits: int = 0
    disk_hits: int = 0  #: store hits
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class SolveCache:
    """Signature-keyed store of :class:`SolveOutcome` values.

    Tier 2 is the :class:`~repro.engine.store.SharedSolveStore` under
    ``cache_dir`` or the one passed as ``store``; with neither, the cache
    is memory-only.  A store hit counts as a ``disk_hit``.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        *,
        max_memory_entries: int | None = None,
        store: SharedSolveStore | None = None,
    ):
        if max_memory_entries is not None and max_memory_entries < 1:
            raise ValueError("max_memory_entries must be >= 1 (or None)")
        if cache_dir is not None and store is not None:
            raise ValueError("cache_dir and store are mutually exclusive")
        self._memory: OrderedDict[str, SolveOutcome] = OrderedDict()
        self._max_entries = max_memory_entries
        self._lock = threading.RLock()
        if cache_dir is not None:
            directory = Path(cache_dir)
            try:
                directory.mkdir(parents=True, exist_ok=True)
            except (FileExistsError, NotADirectoryError):
                raise NotADirectoryError(
                    f"cache dir {directory} exists and is not a directory"
                ) from None
            store = SharedSolveStore(directory / STORE_FILE)
        self.store = store
        self.stats = CacheStats()

    @property
    def max_memory_entries(self) -> int | None:
        return self._max_entries

    def get(self, signature: str) -> SolveOutcome | None:
        with self._lock:
            outcome = self._memory.get(signature)
            if outcome is not None:
                self._memory.move_to_end(signature)
                self.stats.memory_hits += 1
                return outcome
            if self.store is not None:
                try:
                    outcome = self.store.get(signature)
                except sqlite3.Error:
                    # A sick store degrades to a miss: re-solving is always
                    # correct, an error here must never fail the request.
                    self.store.count_error()
                    outcome = None
                if outcome is not None:
                    self._insert(signature, outcome)
                    self.stats.disk_hits += 1
                    return outcome
            self.stats.misses += 1
            return None

    def put(self, signature: str, outcome: SolveOutcome) -> None:
        with self._lock:
            self._insert(signature, outcome)
            self.stats.stores += 1
            if self.store is not None:
                try:
                    self.store.put(signature, outcome)
                except sqlite3.Error:
                    # lost sharing, not correctness -- but hand back any
                    # claim on the key, or other processes wait a lease
                    self.store.count_error()
                    try:
                        self.store.release(signature)
                    except sqlite3.Error:
                        pass

    def memorize(self, signature: str, outcome: SolveOutcome) -> None:
        """Adopt another process's solve into the memory tier only.

        No ``stores`` count and no tier-2 write: the result already lives in
        the shared store, and the fleet invariant *fresh solves == store
        writes == store entries* must keep holding.
        """
        with self._lock:
            self._insert(signature, outcome)

    def stats_snapshot(self) -> CacheStats:
        """Consistent copy of the counters (the live object keeps mutating)."""
        with self._lock:
            return CacheStats(**vars(self.stats))

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def _insert(self, signature: str, outcome: SolveOutcome) -> None:
        self._memory[signature] = outcome
        self._memory.move_to_end(signature)
        if self._max_entries is not None:
            while len(self._memory) > self._max_entries:
                self._memory.popitem(last=False)
                self.stats.evictions += 1
