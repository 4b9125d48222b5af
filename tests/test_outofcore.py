"""Out-of-core replay pipeline: every chunk size gives the same stream.

Three contracts cover the whole chunked path:

1. **Chunked stream build** (``single_statement_stream(chunk_positions=...)``)
   produces arrays *identical* to the monolithic reference -- the graph
   stream, ``stream_from_graph`` over the whole materialized CDAG in the
   same blocked order: same ids, same offsets, same store markers -- for
   every chunk size, including degenerate ones (1, a prime, larger than
   the stream).
2. **Chunked next-use** equals the one-slab scan at every chunk size.
3. **Slab-driven native replay** equals the whole-stream replay and the
   pure-Python loop, for Belady and LRU, at every slab size.

Plus the pooled audit (the same rows as the serial audit, each stream
built exactly once, a worker's exception failing the sweep) and the
satellite knobs: native-core cache-dir resolution and jobs / chunk-size
validation at every entry point.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cdag.build import build_cdag
from repro.kernels import get_kernel
from repro.pebbling.greedy import tiled_order
from repro.schedule.simulator import _replay, simulate_io
from repro.schedule.stream import (
    ScheduleError,
    single_statement_stream,
    stream_from_graph,
)
from repro.util.errors import PebblingError

#: (kernel, params, tile_sizes, variable_order) -- single-statement kernels
#: with known-legal blocked orders, covering tiled/untiled, multi-array
#: reads, strided accesses, and reduction dimensions
STREAM_CASES = [
    ("gemm", {"N": 6}, {"i": 2, "j": 3, "k": 2}, ["i", "j", "k"]),
    ("gemm", {"N": 5}, None, None),
    ("syrk", {"M": 4, "N": 4}, {"i": 2, "j": 2}, None),
    (
        "conv",
        {"B": 1, "Cin": 2, "Cout": 2, "Wout": 3, "Hout": 3,
         "Wker": 2, "Hker": 2},
        {"k": 2, "w": 2, "h": 2},
        None,
    ),
]

CHUNK_SIZES = [1, 7, 4096, 10**9]


def _build(case, **kwargs):
    name, params, tiles, order = case
    return single_statement_stream(
        get_kernel(name).build(), params,
        tile_sizes=tiles, variable_order=order, **kwargs
    )


def _graph_stream(program, params, tiles=None, order=None):
    """The independent reference: the CDAG built whole, then flattened in
    the blocked order of the reference scheduler ``tiled_order``."""
    cdag = build_cdag(program, params)
    variables = list(order or program.statements[0].iteration_vars)
    return stream_from_graph(
        cdag.graph,
        tiled_order(cdag.graph, cdag.point_of, tiles or {}, variables),
    )


def _guarded_gemm():
    import dataclasses

    from repro.ir.program import Program

    st_ = get_kernel("gemm").build().statements[0]
    return Program(
        name="tri", statements=[dataclasses.replace(st_, guard="i <= j")]
    )


def assert_streams_identical(a, b):
    assert a.n_positions == b.n_positions
    assert a.n_ids == b.n_ids
    for fname in ("parent_offsets", "parent_ids", "computed_ids",
                  "starts_blue", "store_at_compute"):
        np.testing.assert_array_equal(
            np.asarray(getattr(a, fname)), np.asarray(getattr(b, fname)),
            err_msg=fname,
        )


class TestChunkedBuildBitIdentical:
    @pytest.mark.parametrize("case", STREAM_CASES, ids=lambda c: c[0])
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_matches_monolithic(self, case, chunk):
        name, params, tiles, order = case
        reference = _graph_stream(get_kernel(name).build(), params, tiles, order)
        assert_streams_identical(reference, _build(case, chunk_positions=chunk))

    def test_guarded_stream_identical(self):
        guarded = _guarded_gemm()
        reference = _graph_stream(guarded, {"N": 6})
        for chunk in CHUNK_SIZES:
            chunked = single_statement_stream(
                guarded, {"N": 6}, chunk_positions=chunk
            )
            assert_streams_identical(reference, chunked)

    def test_illegal_tiling_raises_in_both_paths(self):
        # tiling the reduction variable r of conv reorders version chains,
        # whether the violation falls inside one chunk or across two
        program = get_kernel("conv").build()
        params = {"B": 1, "Cin": 2, "Cout": 2, "Wout": 3, "Hout": 3,
                  "Wker": 2, "Hker": 2}
        with pytest.raises(ScheduleError):
            single_statement_stream(
                program, params, tile_sizes={"r": 2, "s": 1}
            )
        with pytest.raises(ScheduleError):
            single_statement_stream(
                program, params, tile_sizes={"r": 2, "s": 1},
                chunk_positions=7,
            )

    def test_chunk_size_validated(self):
        with pytest.raises(ScheduleError):
            _build(STREAM_CASES[0], chunk_positions=0)
        stream = _build(STREAM_CASES[0])
        with pytest.raises(ScheduleError):
            stream.next_use_arrays(chunk_positions=0)
        for slab in (0, -1):
            with pytest.raises(PebblingError, match="slab_positions"):
                simulate_io(stream, 12, slab_positions=slab)

    def test_sparse_keys_refused(self):
        """``A[i,i,i]`` spans an N^3 key box for N points: too sparse for
        the builder's dense tables, so it refuses instead of building."""
        from repro.ir.program import Program
        from repro.kernels.common import ref, stmt

        program = Program.make("diag", [stmt(
            "diag", {"i": "N"},
            ref("C", "i"), ref("C", "i"), ref("A", "i,i,i"),
        )])
        with pytest.raises(ScheduleError, match="stream_from_graph"):
            single_statement_stream(program, {"N": 200})
        with pytest.raises(ScheduleError, match="stream_from_graph"):
            single_statement_stream(program, {"N": 200}, chunk_positions=7)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=6),
        tile=st.integers(min_value=1, max_value=4),
        chunk=st.integers(min_value=1, max_value=300),
    )
    def test_random_instances_identical(self, n, tile, chunk):
        program = get_kernel("gemm").build()
        tiles = {"i": tile, "j": tile, "k": tile}
        chunked = single_statement_stream(
            program, {"N": n}, tile_sizes=tiles, chunk_positions=chunk
        )
        assert_streams_identical(
            _graph_stream(program, {"N": n}, tiles), chunked
        )


class TestChunkedNextUse:
    @pytest.mark.parametrize("case", STREAM_CASES, ids=lambda c: c[0])
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_matches_monolithic(self, case, chunk):
        """Every slab size gives the one-slab scan's arrays (which
        ``test_schedule_sim`` pins against a pure-Python scan)."""
        one_na, one_fu = _build(case).next_use_arrays(chunk_positions=10**9)
        chunk_na, chunk_fu = _build(case).next_use_arrays(
            chunk_positions=chunk
        )
        np.testing.assert_array_equal(one_na, chunk_na)
        np.testing.assert_array_equal(one_fu, chunk_fu)

    def test_chunked_stream_defaults_to_chunked_next_use(self):
        """A stream built in chunks scans next-use in the same chunks."""
        stream = _build(STREAM_CASES[0], chunk_positions=16)
        assert stream.chunk_positions == 16
        one = _build(STREAM_CASES[0])
        na, fu = stream.next_use_arrays()
        one_na, one_fu = one.next_use_arrays()
        np.testing.assert_array_equal(one_na, na)
        np.testing.assert_array_equal(one_fu, fu)


class TestSlabReplay:
    @pytest.mark.parametrize("case", STREAM_CASES[:2], ids=lambda c: c[0])
    @pytest.mark.parametrize("policy", ["belady", "lru"])
    @pytest.mark.parametrize("slab", [1, 7, 64, 10**9])
    def test_matches_whole_stream_and_python(self, case, policy, slab):
        stream = _build(case)
        for s in (10, 14):
            whole = simulate_io(stream, s, policy=policy)
            slabbed = simulate_io(
                stream, s, policy=policy, slab_positions=slab
            )
            python = _replay(stream, s, belady=policy == "belady")
            assert (slabbed.cost, slabbed.loads, slabbed.stores,
                    slabbed.evictions) == (
                whole.cost, whole.loads, whole.stores, whole.evictions
            )
            assert slabbed.cost == python.cost

    def test_chunk_built_stream_replays_identically(self):
        one = _build(STREAM_CASES[0])
        chunked = _build(STREAM_CASES[0], chunk_positions=7)
        for policy in ("belady", "lru"):
            assert (
                simulate_io(chunked, 12, policy=policy,
                            slab_positions=7).cost
                == simulate_io(one, 12, policy=policy).cost
            )

    def test_too_small_s_raises_through_slab_path(self):
        stream = _build(STREAM_CASES[0])
        with pytest.raises(PebblingError):
            simulate_io(stream, 2, slab_positions=8)


class TestParallelSweepSharing:
    """``audit_corpus(jobs > 1)`` maps the serial per-kernel analysis and
    audit over a process pool: it must give the serial rows, error rows
    included."""

    def test_pooled_rows_match_serial(self):
        from repro.schedule.tightness import audit_corpus

        kwargs = dict(s_values=(8, 18), max_vertices=300)
        serial = audit_corpus(["gemm", "atax", "bicg"], jobs=1, **kwargs)
        pooled = audit_corpus(["gemm", "atax", "bicg"], jobs=2, **kwargs)
        rows = [r.as_dict() for r in serial.rows]
        # as JSON text: an error row's nan bound is not equal to itself
        assert json.dumps([r.as_dict() for r in pooled.rows]) == json.dumps(rows)
        # gemm (512 computed vertices at N=8) is over the cap: its rows
        # are error rows, assembled in a worker like the others
        assert [r["kernel"] for r in rows if r["error"]] == ["gemm", "gemm"]
        assert all("instance too large" in r["error"] for r in rows[:2])
        assert all(r["error"] is None for r in rows[2:])

    def test_pool_submits_largest_first(self, monkeypatch):
        """Kernels go to the pool, one task each that analyzes and audits,
        by descending iteration-point count (ties in the given order), and
        the rows come back in kernel order, equal to the serial rows."""
        from concurrent.futures import ProcessPoolExecutor

        from repro.schedule.tightness import audit_corpus

        submitted = []
        real_submit = ProcessPoolExecutor.submit

        def submit(pool, fn, *args, **kwargs):
            submitted.append(args[0][0])
            return real_submit(pool, fn, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        # points at the audit params: doitgen 1512, gemm 512, atax and
        # mvt 128 each, jacobi1d 64
        names = ["jacobi1d", "atax", "gemm", "mvt", "doitgen"]
        pooled = audit_corpus(names, s_values=(8,), jobs=2)
        assert submitted == ["doitgen", "gemm", "atax", "mvt", "jacobi1d"]
        serial = audit_corpus(names, s_values=(8,), jobs=1)
        assert [r.kernel for r in pooled.rows] == names
        assert json.dumps([r.as_dict() for r in pooled.rows]) == json.dumps(
            [r.as_dict() for r in serial.rows]
        )

    def test_workers_never_rebuild_streams(self, monkeypatch):
        """Every distinct stream is built once, total, across the pool.

        ``stream_from_graph`` and ``stream_from_ids`` calls are counted in
        a fork-shared value; each kernel is audited in one worker, so the
        parallel count must match the serial sweep's.
        """
        import multiprocessing

        from repro.schedule import tightness as tightness_mod

        counter = multiprocessing.Value("i", 0)

        def counting(real):
            def count(*args, **kwargs):
                with counter.get_lock():
                    counter.value += 1
                return real(*args, **kwargs)

            return count

        for builder in ("stream_from_graph", "stream_from_ids"):
            real = getattr(tightness_mod, builder)
            monkeypatch.setattr(tightness_mod, builder, counting(real))
        kwargs = dict(s_values=(6, 10, 14), params={"N": 4})
        serial = tightness_mod.audit_corpus(["gemm", "mvt"], jobs=1, **kwargs)
        serial_builds = counter.value
        counter.value = 0
        parallel = tightness_mod.audit_corpus(["gemm", "mvt"], jobs=2, **kwargs)
        assert [r.as_dict() for r in parallel.rows] == [
            r.as_dict() for r in serial.rows
        ]
        assert counter.value == serial_builds

    def test_worker_exception_fails_the_sweep(self, monkeypatch):
        """An exception in one kernel's audit fails ``jobs=2`` as it fails
        ``jobs=1``.  Fork workers inherit the patched builder and the CDAG
        cache, so mvt's graph is the same object in every process."""
        import errno

        from repro.schedule import tightness as tightness_mod

        mvt = tightness_mod._merged_params(
            "mvt", tightness_mod._built_program("mvt"), None
        )
        doomed = tightness_mod.cached_cdag("mvt", mvt).graph
        real = tightness_mod.stream_from_ids

        def stream_from_ids(graph, order):
            if graph is doomed:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(graph, order)

        monkeypatch.setattr(tightness_mod, "stream_from_ids", stream_from_ids)
        for jobs in (1, 2):
            with pytest.raises(OSError, match="No space left"):
                tightness_mod.audit_corpus(
                    ["gemm", "atax", "mvt"], s_values=(8,), jobs=jobs
                )

    def test_parallel_chunked_rows_match_serial(self):
        from repro.schedule.tightness import audit_corpus

        kwargs = dict(s_values=(8, 18), params={"N": 4})
        plain = audit_corpus(["gemm", "mvt"], jobs=1, **kwargs)
        chunked = audit_corpus(["gemm", "mvt"], jobs=2, chunk_size=16, **kwargs)
        assert [r.as_dict() for r in chunked.rows] == [
            r.as_dict() for r in plain.rows
        ]


class TestValidation:
    def test_audit_corpus_rejects_bad_jobs(self):
        from repro.schedule.tightness import audit_corpus

        with pytest.raises(ValueError, match="jobs must be a positive"):
            audit_corpus(["gemm"], jobs=0)

    @pytest.mark.parametrize("chunk", [0, -3])
    def test_audit_corpus_rejects_bad_chunk_size(self, chunk):
        from repro.schedule.tightness import audit_corpus

        with pytest.raises(ValueError, match="chunk size must be a positive"):
            audit_corpus(["gemm"], chunk_size=chunk)

    def test_cli_rejects_nonpositive_jobs(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["tightness", "gemm", "--jobs", "0"])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_cli_rejects_nonpositive_chunk_size(self, capsys):
        from repro.cli import main

        assert main(["tightness", "gemm", "--chunk-size", "0"]) == 2
        assert "positive integer" in capsys.readouterr().err

    def test_cli_chunk_size_flows_through(self):
        from repro.cli import main

        assert main([
            "tightness", "gemm", "--s", "18", "--params", "N=4",
            "--chunk-size", "32",
        ]) == 0


class TestNativeCacheDir:
    def test_respects_xdg_cache_home(self, tmp_path, monkeypatch):
        from repro.schedule import _native

        monkeypatch.delenv("REPRO_NATIVE_CACHE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert _native._cache_dir() == tmp_path / "xdg" / "repro-native"

    def test_explicit_override_wins(self, tmp_path, monkeypatch):
        from repro.schedule import _native

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "override"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert _native._cache_dir() == tmp_path / "override"

    def test_defaults_to_home_cache(self, monkeypatch):
        from repro.schedule import _native

        monkeypatch.delenv("REPRO_NATIVE_CACHE", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        assert _native._cache_dir() == (
            __import__("pathlib").Path.home() / ".cache" / "repro-native"
        )

    def test_tempdir_fallback_candidate(self, monkeypatch):
        import tempfile

        from repro.schedule import _native

        candidates = _native._cache_candidates()
        assert candidates[0] == _native._cache_dir()
        assert str(candidates[-1]).startswith(tempfile.gettempdir())

    def test_build_falls_back_when_cache_unwritable(
        self, tmp_path, monkeypatch
    ):
        """An unwritable primary cache dir must not disable the native core."""
        from repro.schedule import _native

        blocked = tmp_path / "blocked"
        blocked.write_text("")  # a *file*: mkdir under it raises OSError
        monkeypatch.setenv(
            "REPRO_NATIVE_CACHE", str(blocked / "cache")
        )
        fallback = tmp_path / "fallback"
        monkeypatch.setattr(
            _native, "_cache_candidates",
            lambda: [blocked / "cache", fallback],
        )
        lib = _native._build()
        if lib is None:  # no compiler in this environment
            pytest.skip("no C compiler available")
        assert lib._name.startswith(str(fallback))
        assert os.path.exists(lib._name)
