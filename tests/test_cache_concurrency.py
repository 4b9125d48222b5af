"""Concurrent access to one ``--cache-dir`` solve store.

Two (or more) processes pointing at one ``--cache-dir`` share its
``solves.sqlite``.  They must never corrupt entries -- every finished row
has to stay a valid, decodable record -- the claims must make them solve
each signature once and leave no claim behind, and a warm reader must see a
fully usable store.
"""

import json
import sqlite3
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import sympy as sp

from repro.engine import SolveCache, SolveOutcome, analyze_many
from repro.engine.store import _SCHEMA, STORE_FILE, SharedSolveStore, decode_outcome
from repro.opt.kkt import ChiSolution


def _analyze_with_cache(task):
    """Run one kernel against the shared store (subprocess target)."""
    name, cache_dir = task
    from repro.analysis import analyze_kernel
    from repro.symbolic.printing import bound_str

    result = analyze_kernel(name, cache_dir=cache_dir)
    return name, bound_str(result.bound)


def _hammer_cache(task):
    """Write/read a fixed signature set against one directory (subprocess)."""
    worker, cache_dir, rounds = task
    from repro.symbolic.symbols import S_SYM, X_SYM

    cache = SolveCache(cache_dir)
    outcome = SolveOutcome(
        solution=ChiSolution(
            chi=X_SYM**2 / S_SYM,
            tiles={"i": sp.Symbol("b_0", positive=True)},
            capped=(),
            pinned=(),
            exact=True,
            notes=(f"writer {worker}",),
        )
    )
    for round_no in range(rounds):
        for index in range(8):
            signature = f"sig{index:02d}"
            cache.put(signature, outcome)
            loaded = cache.store.get(signature)  # bypass the memory tier
            assert loaded is not None, f"unreadable entry {signature}"
            assert loaded.ok
    return worker


def _done_rows(cache_dir: str) -> list[tuple[str, str]]:
    """``(key, payload)`` of every finished solve in the dir's store."""
    with sqlite3.connect(Path(cache_dir) / STORE_FILE) as conn:
        return conn.execute(
            "SELECT key, payload FROM solves WHERE state='done' ORDER BY key"
        ).fetchall()


class TestSharedDiskCache:
    def test_two_processes_same_kernel(self, tmp_path):
        """Simultaneous cold runs over one cache dir agree and stay clean."""
        cache_dir = str(tmp_path / "cache")
        tasks = [("gemm", cache_dir)] * 2 + [("atax", cache_dir)] * 2
        with ProcessPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(_analyze_with_cache, tasks))
        bounds = {}
        for name, bound in results:
            bounds.setdefault(name, set()).add(bound)
        assert bounds["gemm"] == {"2*N**3/sqrt(S)"}
        assert all(len(values) == 1 for values in bounds.values())
        rows = _done_rows(cache_dir)
        assert rows
        for _, payload in rows:
            assert json.loads(payload)["schema"] == _SCHEMA  # never torn
            assert decode_outcome(payload) is not None
        assert SharedSolveStore(Path(cache_dir) / STORE_FILE).claim_count() == 0

    def test_warm_process_solves_nothing(self, tmp_path):
        """After racing writers finish, a fresh process runs all-hits."""
        cache_dir = str(tmp_path / "cache")
        with ProcessPoolExecutor(max_workers=2) as pool:
            list(pool.map(_analyze_with_cache, [("gemm", cache_dir)] * 2))
        cache = SolveCache(cache_dir)
        from repro.analysis import analyze_kernel
        from repro.engine import Engine

        result = analyze_kernel("gemm", engine=Engine(cache=cache))
        assert result.program_bound.diagnostics.cache.misses == 0
        assert result.program_bound.diagnostics.cache.disk_hits >= 1

    def test_put_get_hammer_across_processes(self, tmp_path):
        """Racing writers on identical signatures never publish torn rows."""
        cache_dir = str(tmp_path / "cache")
        tasks = [(worker, cache_dir, 12) for worker in range(4)]
        with ProcessPoolExecutor(max_workers=4) as pool:
            finished = list(pool.map(_hammer_cache, tasks))
        assert sorted(finished) == [0, 1, 2, 3]
        rows = _done_rows(cache_dir)
        assert [key for key, _ in rows] == [f"sig{i:02d}" for i in range(8)]
        from repro.symbolic.symbols import S_SYM, X_SYM

        reader = SolveCache(cache_dir)
        for key, _ in rows:
            outcome = reader.get(key)
            assert outcome is not None and outcome.ok
            assert outcome.solution.chi == X_SYM**2 / S_SYM
        assert reader.stats.disk_hits == 8
        assert reader.stats.misses == 0

    def test_parallel_batch_solves_each_signature_once(self, tmp_path):
        """``analyze_many(jobs=2)`` workers share solves through the claims:
        fresh solves == store entries, and no claim is left behind."""
        cache_dir = str(tmp_path / "cache")
        names = ["gemm", "2mm", "atax", "bicg"]  # shared contraction shapes
        results = analyze_many(names, jobs=2, cache_dir=cache_dir)
        assert [r.name for r in results] == names
        stores = sum(r.diagnostics.cache.stores for r in results)
        store = SharedSolveStore(Path(cache_dir) / STORE_FILE)
        assert stores == store.entry_count() > 0
        assert store.claim_count() == 0
