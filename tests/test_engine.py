"""Staged engine: canonical signatures, memoization cache, the kernel pool."""

import hashlib
import json
import sqlite3

import pytest
import sympy as sp

from repro.analysis import analyze_kernel
from repro.cli import main
from repro.engine import (
    Engine,
    SolveCache,
    SolveOutcome,
    analyze_many,
    canonicalize_ir,
    rename_solution,
    rename_text,
)
from repro.engine.store import STORE_FILE
from repro.ir.array import Array
from repro.ir.program import Program
from repro.kernels import get_kernel, kernel_names
from repro.kernels.common import ref, stmt
from repro.opt.kkt import ChiSolution
from repro.sdg.bounds import io_footprint_floor, sdg_bound
from repro.sdg.graph import SDG
from repro.sdg.merge import fuse_statements
from repro.sdg.subgraphs import enumerate_subgraphs
from repro.symbolic.symbols import X_SYM
from repro.util.errors import SolverError

N = sp.Symbol("N", positive=True)
M = sp.Symbol("M", positive=True)

CACHE_KERNELS = ["gemm", "atax", "bicg", "mvt", "trisolv"]

#: sha256 of the sorted ``[kernel, subset, signature, sorted rename]`` rows of
#: every fused corpus subgraph (357 rows, 193 distinct signatures)
CORPUS_SIGNATURE_DIGEST = (
    "5c5d1ce34db82687cbf8adf94de4f63d7f1ed6c3be133e9ea38eb1bce17d2af6"
)


def _gemm_program(vars3, name="p"):
    i, j, k = vars3
    return Program.make(
        name,
        [
            stmt(
                "mm",
                {i: "N", j: "N", k: "N"},
                ref("C", f"{i},{j}"),
                ref("C", f"{i},{j}"),
                ref("A", f"{i},{k}"),
                ref("B", f"{k},{j}"),
            )
        ],
    )


def _atax_program():
    first = stmt(
        "Ax", {"i": "M", "j": "N"},
        ref("tmp", "i"), ref("tmp", "i"), ref("A", "i,j"), ref("x", "j"),
    )
    second = stmt(
        "Aty", {"i": "M", "j": "N"},
        ref("y", "j"), ref("y", "j"), ref("A", "i,j"), ref("tmp", "i"),
    )
    return Program.make("atax", [first, second])


def _canonical(program, arrays=("C",)):
    fused = fuse_statements(program, tuple(arrays))
    return canonicalize_ir(fused.problem)


class TestCanonicalSignature:
    def test_renamed_loop_vars_share_signature(self):
        """gemm written with i,j,k and with x,y,z is one cache entry."""
        a = _canonical(_gemm_program(("i", "j", "k")))
        b = _canonical(_gemm_program(("x", "y", "z")))
        assert a.signature == b.signature
        assert a.problem == b.problem

    def test_permuted_statement_vars_share_signature(self):
        """Same structure declared with permuted variable roles still collides."""
        a = _canonical(_gemm_program(("i", "j", "k")))
        b = _canonical(_gemm_program(("k", "i", "j")))
        assert a.signature == b.signature

    def test_different_problems_differ(self):
        copy = Program.make(
            "cp", [stmt("cp", {"i": "N", "j": "N"}, ref("z", "i,j"), ref("W", "i,j"))]
        )
        a = _canonical(_gemm_program(("i", "j", "k")))
        b = _canonical(copy, arrays=("z",))
        assert a.signature != b.signature

    def test_solver_flags_change_signature(self):
        fused = fuse_statements(_gemm_program(("i", "j", "k")), ("C",))
        interior = canonicalize_ir(fused.problem, allow_pinning=False)
        boundary = canonicalize_ir(fused.problem, allow_pinning=True)
        assert interior.signature != boundary.signature

    def test_canonical_name_collision_keeps_extents_attached(self):
        """A user loop variable literally named 'c1' must not steal extents.

        Canonical names are c0, c1, ...; extents are attached after renaming,
        so an original variable called like a canonical name cannot cause a
        second remap that hands its extent to a different variable.
        """
        program = Program.make(
            "collide",
            [
                stmt(
                    "s",
                    {"c1": "N", "j": "M"},
                    ref("out", "c1"),
                    ref("out", "c1"),
                    ref("inp", "c1"),
                )
            ],
        )
        fused = fuse_statements(program, ("out",))
        canonical = canonicalize_ir(fused.problem)
        # the uncapped variable's extent survives under its canonical name
        extents = canonical.problem.extents_dict()
        assert set(extents) <= set(canonical.rename.values())
        [(name, value)] = list(extents.items())
        assert canonical.inverse[name] == "j"
        assert value == M
        # and the whole analysis caps j at M instead of failing
        from repro.analysis import analyze_program

        bound = analyze_program(program, allow_pinning=True)
        assert bound.per_array  # solved (capped at M), not skipped
        assert bound.per_array["out"].intensity.chi_solution.capped == ("j",)

    def test_rename_is_bijective(self):
        canonical = _canonical(_gemm_program(("i", "j", "k")))
        assert sorted(canonical.rename) == ["i", "j", "k"]
        assert sorted(canonical.rename.values()) == ["c0", "c1", "c2"]
        assert {canonical.inverse[v]: v for v in canonical.inverse} == canonical.rename

    def test_rename_text_maps_canonical_tokens_back(self):
        inverse = {"c0": "i", "c1": "k", "c11": "t"}
        text = "optimum pins tiles ('c0', 'c11') to the boundary; capped b_c1"
        assert rename_text(text, inverse) == (
            "optimum pins tiles ('i', 't') to the boundary; capped b_k"
        )
        # unknown tokens are left alone
        assert rename_text("c99 stays", {"c0": "i"}) == "c99 stays"

    def test_solution_notes_use_original_variable_names(self):
        solution = ChiSolution(
            chi=X_SYM, notes=("capped ['c0'] at full extents",)
        )
        renamed = rename_solution(solution, {"c0": "i"})
        assert renamed.notes == ("capped ['i'] at full extents",)

    def test_rename_solution_maps_tiles_back(self):
        solution = ChiSolution(
            chi=X_SYM,
            tiles={"c0": sp.sqrt(X_SYM), "c1": sp.Integer(1)},
            capped=("c0",),
            pinned=("c1",),
        )
        renamed = rename_solution(solution, {"c0": "i", "c1": "j"})
        assert renamed.tiles == {"i": sp.sqrt(X_SYM), "j": sp.Integer(1)}
        assert renamed.capped == ("i",) and renamed.pinned == ("j",)
        assert renamed.chi == X_SYM

    def test_corpus_signatures_are_pinned(self):
        """Signatures and renames are the store's keys and decide which
        canonical problem the solver sees: every corpus (kernel, subset) row
        under its Table 2 options hashes to the same digest, whatever
        ``PYTHONHASHSEED`` is."""
        rows = []
        for name in kernel_names():
            spec = get_kernel(name)
            program = spec.build()
            sharing = SDG.from_program(program).sharing_graph()
            for subset in enumerate_subgraphs(sharing, max_size=spec.max_subgraph_size):
                try:
                    fused = fuse_statements(program, subset, policy=spec.policy)
                except SolverError:
                    continue
                canonical = canonicalize_ir(
                    fused.problem,
                    allow_pinning=spec.allow_pinning,
                    allow_caps=spec.allow_pinning,
                )
                rows.append([
                    name,
                    list(subset),
                    canonical.signature,
                    sorted(canonical.rename.items()),
                ])
        rows.sort()
        assert len(rows) == 357
        assert len({row[2] for row in rows}) == 193
        digest = hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()
        assert digest == CORPUS_SIGNATURE_DIGEST


class TestCacheCorrectness:
    @pytest.mark.parametrize("name", CACHE_KERNELS)
    def test_warm_cache_bounds_identical(self, tmp_path, name):
        """Cold disk-cache run and warm rerun derive identical expressions."""
        cache_dir = tmp_path / "cache"
        cold = analyze_kernel(name, cache_dir=str(cache_dir))
        warm = analyze_kernel(name, cache_dir=str(cache_dir))
        assert cold.bound == warm.bound  # expression identity, not just equality
        assert cold.program_bound.bound_full == warm.program_bound.bound_full
        assert cold.program_bound.skipped == warm.program_bound.skipped
        warm_cache = warm.diagnostics.cache
        assert warm_cache.misses == 0
        assert warm_cache.disk_hits > 0

    def test_shared_engine_hits_across_renamed_programs(self):
        engine = Engine()
        first = engine.analyze(_gemm_program(("i", "j", "k")))
        second = engine.analyze(_gemm_program(("x", "y", "z"), name="q"))
        assert first.bound == second.bound
        assert second.diagnostics.cache.memory_hits > 0
        assert second.diagnostics.cache.misses == 0

    def test_negative_entries_keep_skips_identical(self):
        """Solver failures are cached too: warm runs skip the same subgraphs."""
        rr = stmt(
            "rrow", {"k": "N", "j": "N", "i": "M"},
            ref("R", "k,j"), ref("R", "k,j"), ref("Q", "i,k"), ref("Aa", "i,j"),
        )
        au = stmt(
            "aupd", {"k2": "N", "j2": "N", "i2": "M"},
            ref("Aa", "i2,j2"), ref("Aa", "i2,j2"), ref("Q", "i2,k2"), ref("R", "k2,j2"),
        )
        program = Program.make("gs", [rr, au])
        cache = SolveCache()
        cold = sdg_bound(program, cache=cache)
        warm = sdg_bound(program, cache=cache)
        assert cold.skipped == warm.skipped
        assert cold.notes == warm.notes
        assert cold.bound == warm.bound
        assert warm.diagnostics.cache.misses == 0

    def test_stale_negative_entry_resolved_by_newer_solver(self, tmp_path):
        store = SolveCache(tmp_path / "cache")
        store.put("sig", SolveOutcome(error="boundary optimum"))
        assert SolveCache(tmp_path / "cache").get("sig") is not None
        with sqlite3.connect(tmp_path / "cache" / STORE_FILE) as conn:
            (payload,) = conn.execute(
                "SELECT payload FROM solves WHERE key='sig'"
            ).fetchone()
            entry = json.loads(payload)
            entry["solver_revision"] = entry["solver_revision"] - 1
            conn.execute(
                "UPDATE solves SET payload=? WHERE key='sig'", (json.dumps(entry),)
            )
        fresh = SolveCache(tmp_path / "cache")  # empty in-process tier
        assert fresh.get("sig") is None  # stale failure: treated as a miss

    def test_corrupt_disk_entry_falls_back_to_solve(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = analyze_kernel("gemm", cache_dir=str(cache_dir))
        with sqlite3.connect(cache_dir / STORE_FILE) as conn:
            corrupted = conn.execute(
                "UPDATE solves SET payload='{not json' WHERE state='done'"
            ).rowcount
        assert corrupted > 0
        again = analyze_kernel("gemm", cache_dir=str(cache_dir))
        assert again.bound == cold.bound
        assert again.diagnostics.cache.misses == corrupted

    def test_disk_roundtrip_preserves_solution(self, tmp_path):
        fused = fuse_statements(_gemm_program(("i", "j", "k")), ("C",))
        canonical = canonicalize_ir(fused.problem)
        from repro.engine.core import _solve_problems

        (outcome,) = _solve_problems([canonical.problem], False)
        store = SolveCache(tmp_path / "cache")
        store.put(canonical.signature, outcome)
        fresh = SolveCache(tmp_path / "cache")  # new in-process tier
        loaded = fresh.get(canonical.signature)
        assert loaded is not None and loaded.ok
        assert sp.simplify(loaded.solution.chi - outcome.solution.chi) == 0
        assert loaded.solution.tiles == outcome.solution.tiles


class _RecordingPool:
    """Stand-in for ``ProcessPoolExecutor``: records each pool's width and
    runs its tasks in this process."""

    widths: list = []

    def __init__(self, max_workers=None, mp_context=None):
        self.widths.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args, **kwargs):
        from concurrent.futures import Future

        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestParallelExecution:
    def test_kernel_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        """Every pool the batch and the audit open has at most
        min(jobs, kernels, CPU count) workers, and the audit opens one."""
        import concurrent.futures
        import os

        import repro.engine.batch as batch
        from repro.schedule.tightness import audit_corpus

        monkeypatch.setattr(_RecordingPool, "widths", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(batch, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        names = ["gemm", "atax", "mvt"]
        report = audit_corpus(names, s_values=(8,), jobs=8)
        assert [r.kernel for r in report.rows] == names
        assert _RecordingPool.widths == [2]
        results = analyze_many(names, jobs=8)
        assert [r.name for r in results] == names
        assert _RecordingPool.widths == [2, 2]

    @pytest.mark.parametrize("jobs", [0, -1, True])
    def test_bad_jobs_are_refused(self, jobs):
        from repro.schedule.tightness import audit_corpus

        with pytest.raises(ValueError, match="jobs must be a positive integer"):
            analyze_many(["gemm"], jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be a positive integer"):
            audit_corpus(["gemm"], s_values=(8,), jobs=jobs)

    def test_analyze_many_rejects_engine_plus_cache_dir(self, tmp_path):
        with pytest.raises(ValueError):
            analyze_many(["gemm"], engine=Engine(), cache_dir=str(tmp_path))

    def test_analyze_many_jobs_match_serial(self, tmp_path):
        names = ["gemm", "atax"]
        serial = analyze_many(names)
        parallel = analyze_many(names, jobs=2, cache_dir=str(tmp_path / "cache"))
        assert [r.name for r in parallel] == names
        for a, b in zip(serial, parallel):
            assert a.bound == b.bound
            assert a.ratio == b.ratio


class TestStageDiagnostics:
    def test_stage_sequence_and_counts(self):
        result = sdg_bound(_atax_program())
        diagnostics = result.diagnostics
        assert [s.name for s in diagnostics.stages] == [
            "build-sdg", "enumerate", "fuse", "solve", "combine",
        ]
        assert diagnostics.stage("enumerate").count("subgraphs") == 3
        assert diagnostics.stage("solve").count("problems") == 3
        assert diagnostics.total_seconds > 0
        payload = diagnostics.as_dict()  # must be JSON-serializable
        json.dumps(payload)
        assert payload["stages"][0]["name"] == "build-sdg"

    def test_raising_stage_closes_its_span_tagged_error(self):
        from repro import faults
        from repro.faults.plan import FaultPlan, FaultSpec
        from repro.obs import MetricsRegistry, Tracer

        plan = FaultPlan(seed=1, specs=[FaultSpec(site="solver.solve", p=1.0)])
        tracer = Tracer(keep_spans=True, registry=MetricsRegistry())
        with tracer, faults.plan_scope(plan), pytest.raises(faults.FaultInjected):
            sdg_bound(_atax_program())
        spans = {span["name"]: span for span in tracer.spans}
        assert spans["solve"]["attrs"]["error"] == "FaultInjected"
        assert "error" not in spans["fuse"]["attrs"]
        assert "combine" not in spans


class TestIoFloorEdgeCases:
    def test_no_declared_element_counts_gives_zero_floor(self):
        s = stmt("s", {"i": "N"}, ref("out", "i"), ref("inp", "i"))
        program = Program.make("p", [s])  # no Array declarations at all
        assert io_footprint_floor(program) == 0

    def test_computed_and_read_array_excluded_even_when_declared(self):
        s1 = stmt("s1", {"i": "N"}, ref("mid", "i"), ref("inp", "i"))
        s2 = stmt("s2", {"i2": "N"}, ref("out", "i2"), ref("mid", "i2"))
        program = Program.make(
            "p",
            [s1, s2],
            [Array("inp", 1, N), Array("mid", 1, N), Array("out", 1, N)],
        )
        # inp (input) + out (dead output) count; mid (computed *and* read) not.
        assert sp.simplify(io_footprint_floor(program) - 2 * N) == 0

    def test_partially_declared_inputs_still_lower_bound(self):
        s = stmt("s", {"i": "N"}, ref("out", "i"), ref("a", "i"), ref("b", "i"))
        program = Program.make("p", [s], [Array("a", 1, N)])
        assert sp.simplify(io_footprint_floor(program) - N) == 0


class TestCLIPlumbing:
    def test_analyze_flags_reach_engine(self, tmp_path, capsys):
        path = tmp_path / "atax.py"
        path.write_text(
            "for i in range(M):\n"
            "    for j in range(N):\n"
            "        tmp[i] += A[i, j] * x[j]\n"
            "for i in range(M):\n"
            "    for j in range(N):\n"
            "        y[j] += A[i, j] * tmp[i]\n"
        )
        assert main(["analyze", str(path), "--json", "--max-subgraph-size", "1"]) == 0
        capped = json.loads(capsys.readouterr().out)
        assert main(["analyze", str(path), "--json"]) == 0
        full = json.loads(capsys.readouterr().out)
        # size-1 enumeration cannot discover the fused tmp/y pair
        assert all(len(v["subgraph"]) == 1 for v in capped["per_array"].values())
        assert any(len(v["subgraph"]) == 2 for v in full["per_array"].values())

    def test_kernel_json_report(self, capsys, tmp_path):
        code = main([
            "kernel", "gemm", "--json", "--cache-dir", str(tmp_path / "c"),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ours"] == "2*N**3/sqrt(S)"
        assert payload["ratio"] == "1" and payload["shape_matches"] is True
        stage_names = [s["name"] for s in payload["diagnostics"]["stages"]]
        assert stage_names == ["build-sdg", "enumerate", "fuse", "solve", "combine"]

    @pytest.mark.parametrize("command", ["analyze", "kernel", "bounds"])
    def test_jobs_is_a_usage_error_outside_table2_and_tightness(
        self, command, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, "gemm", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_cache_dir_that_is_a_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "not-a-dir"
        path.write_text("")
        assert main(["kernel", "gemm", "--cache-dir", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cache dir {path} exists and is not a directory\n"


class TestLRUCap:
    """Bounded memory tier: least-recently-used eviction, counted in stats."""

    def _outcome(self, tag):
        return SolveOutcome(error=f"marker {tag}")

    def test_unbounded_by_default(self):
        cache = SolveCache()
        for index in range(100):
            cache.put(f"sig{index}", self._outcome(index))
        assert len(cache) == 100
        assert cache.stats.evictions == 0

    def test_evicts_least_recently_used(self):
        cache = SolveCache(max_memory_entries=2)
        cache.put("a", self._outcome("a"))
        cache.put("b", self._outcome("b"))
        assert cache.get("a") is not None  # refresh a: b is now LRU
        cache.put("c", self._outcome("c"))
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.stats.evictions == 1

    def test_eviction_falls_back_to_disk_tier(self, tmp_path):
        cache = SolveCache(tmp_path / "c", max_memory_entries=1)
        cache.put("a", self._outcome("a"))
        cache.put("b", self._outcome("b"))  # evicts a from memory, not disk
        assert cache.stats.evictions == 1
        outcome = cache.get("a")
        assert outcome is not None and outcome.error == "marker a"
        assert cache.stats.disk_hits == 1

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            SolveCache(max_memory_entries=0)

    def test_engine_runs_with_tiny_cache(self):
        engine = Engine(cache=SolveCache(max_memory_entries=1))
        result = analyze_kernel("gemm", engine=engine)
        assert str(result.bound) == "2*N**3/sqrt(S)"

    def test_stats_snapshot_is_a_copy(self):
        cache = SolveCache()
        snapshot = cache.stats_snapshot()
        cache.put("a", self._outcome("a"))
        assert snapshot.stores == 0
        assert cache.stats.stores == 1
