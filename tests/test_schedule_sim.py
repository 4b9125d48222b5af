"""Streaming replay simulator: equivalence with the pebble game, edge cases.

The central contract: ``simulate_io`` over ``stream_from_graph(graph, order)``
is **bit-identical** to ``greedy_pebbling_cost(graph, s, order)`` under the
same eviction policy -- the simulator is a reimplementation of the same
deterministic schedule executor, not an approximation.  Identity is checked
move-for-move (loads, stores, evictions), across both replay backends (the
pure-Python loop and the optional compiled core).
"""

import os
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cdag.build import build_cdag
from repro.kernels import get_kernel
from repro.pebbling.greedy import (
    default_order,
    greedy_pebbling_cost,
    stream_vertex_ids,
)
from repro.schedule.simulator import _replay, simulate_io
from repro.schedule.stream import (
    AccessStream,
    single_statement_stream,
    stream_from_graph,
)
from repro.util.errors import PebblingError


def game_counts(graph, s, order=None, *, policy="belady"):
    """(cost, loads, stores, evictions) straight from the pebble game."""
    cost, moves = greedy_pebbling_cost(
        graph, s, order, policy=policy, return_moves=True
    )
    kinds = [m.kind for m in moves]
    return (
        cost,
        kinds.count("load"),
        kinds.count("store"),
        kinds.count("discard_red"),
    )


def chain(n: int) -> nx.DiGraph:
    return nx.DiGraph([(i, i + 1) for i in range(n)])


def fan_in(n_vertices=3000, n_inputs=10, *, rare_every=None):
    """``n_inputs`` shared inputs feed each of ``n_vertices`` vertices.

    With ``rare_every``, each vertex first reads a fresh input of its own,
    and every ``rare_every``-th vertex last reads one more input, rarely
    used: at ``S = 2 * rare_every + n_inputs`` that input is the least
    recently used resident whenever it is read again.
    """
    g = nx.DiGraph()
    for v in range(n_vertices):
        if rare_every:
            g.add_edge(("fresh", v), ("v", v))
        for x in range(n_inputs):
            g.add_edge(("x", x), ("v", v))
        if rare_every and v % rare_every == 0:
            g.add_edge(("rare", 0), ("v", v))
    return g


def sym_n():
    import sympy as sp

    return sp.Symbol("N", positive=True)


KERNEL_CASES = [
    ("gemm", {"N": 4}, (4, 6, 8, 12)),
    ("atax", {"M": 4, "N": 4}, (4, 6, 10)),
    ("jacobi1d", {"N": 8, "T": 4}, (4, 6, 8)),
    ("cholesky", {"N": 5}, (6, 9)),
    ("syrk", {"M": 4, "N": 4}, (6, 8)),
    ("doitgen", {"NR": 3, "NQ": 3, "NP": 3}, (6, 10)),
    ("gesummv", {"N": 4}, (4, 8)),
]


class TestEquivalenceWithPebbleGame:
    @pytest.mark.parametrize("name,params,s_values", KERNEL_CASES)
    @pytest.mark.parametrize("policy", ["belady", "lru"])
    def test_kernel_cdags_bit_identical(self, name, params, s_values, policy):
        """Not just total cost: loads, stores, and evictions all match."""
        cdag = build_cdag(get_kernel(name).build(), params)
        stream = stream_from_graph(cdag.graph)
        for s in s_values:
            game = game_counts(cdag.graph, s, policy=policy)
            replay = simulate_io(stream, s, policy=policy)
            assert (
                replay.cost, replay.loads, replay.stores, replay.evictions
            ) == game, (name, s, policy)

    def test_explicit_order_bit_identical(self):
        from repro.analysis import analyze_kernel
        from repro.schedule.derive import blocked_order, derive_schedule

        program = get_kernel("gemm").build()
        result = analyze_kernel("gemm")
        params = {"N": 6}
        cdag = build_cdag(program, params)
        schedule = derive_schedule(program, result.program_bound, params, 18)
        order = blocked_order(cdag, schedule)
        stream = stream_from_graph(cdag.graph, order)
        for s in (8, 18):
            assert (
                simulate_io(stream, s).cost
                == greedy_pebbling_cost(cdag.graph, s, order)
            )

    def test_chain(self):
        stream = stream_from_graph(chain(4))
        assert simulate_io(stream, 2).cost == greedy_pebbling_cost(chain(4), 2)
        assert simulate_io(stream, 2).cost == 2  # 1 load + 1 final store

    def test_too_small_s_raises_like_game(self):
        g = nx.DiGraph([(0, 3), (1, 3), (2, 3)])
        stream = stream_from_graph(g)
        with pytest.raises(PebblingError):
            greedy_pebbling_cost(g, 3)
        with pytest.raises(PebblingError):
            simulate_io(stream, 3)

    @pytest.mark.parametrize("s", [0, -3, True, 8.7, "8"])
    @pytest.mark.parametrize("native", [True, False])
    def test_s_must_be_an_integer_of_at_least_one(self, s, native, monkeypatch):
        """Both executors refuse the same sizes, typed, before replaying:
        no coercion of ``True`` to 1 or of ``8.7`` to 8."""
        if not native:
            monkeypatch.setenv("REPRO_NO_NATIVE_REPLAY", "1")
        stream = stream_from_graph(build_cdag(
            get_kernel("gemm").build(), {"N": 4}
        ).graph)
        with pytest.raises(PebblingError, match="integer >= 1"):
            simulate_io(stream, s)
        assert simulate_io(stream, np.int64(8)).cost == simulate_io(
            stream, 8
        ).cost

    def test_unknown_policy_rejected(self):
        stream = stream_from_graph(chain(3))
        with pytest.raises(PebblingError):
            simulate_io(stream, 2, policy="fifo")
        with pytest.raises(PebblingError):
            greedy_pebbling_cost(chain(3), 2, policy="fifo")


# ---------------------------------------------------------------------------
# Belady tie-breaking edge cases
# ---------------------------------------------------------------------------


class TestTieBreaking:
    def test_dead_values_evicted_without_store(self):
        """Outputs with no further use are never written back at eviction --
        they were already stored at compute time."""
        # two independent chains sharing capacity: finishing chain A's output
        # leaves a dead red vertex that must be discarded silently.
        g = nx.DiGraph([(0, 1), (2, 3)])
        stream = stream_from_graph(g)
        for s in (2, 3):
            result = simulate_io(stream, s)
            assert result.cost == greedy_pebbling_cost(g, s)
        # 2 loads + 2 stores: no spurious write-backs of the dead chain head
        assert simulate_io(stream, 2).cost == 4

    def test_repeated_use_same_vertex(self):
        """A parent used at several consecutive positions keeps its pebble
        under Belady; its next-use index advances per position."""
        g = nx.DiGraph([(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
        stream = stream_from_graph(g)
        for s in (3, 4):
            assert simulate_io(stream, s).cost == greedy_pebbling_cost(g, s)

    def test_tied_next_use_broken_by_stream_id(self):
        """Two reds used at the same future position: the one with the larger
        stream id is evicted, in both implementations."""
        # inputs 0,1 both feed vertex 4 (same next use); vertex 2,3 chain
        # forces an eviction while 0,1 are tied.
        g = nx.DiGraph([(0, 4), (1, 4), (2, 3), (3, 4)])
        order = [v for v in nx.topological_sort(g) if g.in_degree(v) > 0]
        stream = stream_from_graph(g, order)
        for s in (4, 5):
            assert (
                simulate_io(stream, s).cost
                == greedy_pebbling_cost(g, s, order)
            )

    def test_determinism_across_runs(self):
        """Same graph, same order -> same cost, every time (no set-iteration
        nondeterminism left in the greedy pebbler)."""
        cdag = build_cdag(get_kernel("gemm").build(), {"N": 4})
        costs = {greedy_pebbling_cost(cdag.graph, 6) for _ in range(3)}
        assert len(costs) == 1


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


class TestAccessStream:
    def test_ids_are_first_appearance(self):
        g = nx.DiGraph([(0, 2), (1, 2), (2, 3)])
        order = default_order(g)
        ids = stream_vertex_ids(g, order)
        stream = stream_from_graph(g, order)
        assert stream.labels[ids[0]] == 0
        assert sorted(ids.values()) == list(range(len(ids)))
        # parents of the first computed vertex come first
        assert stream.parent_ids[0] == ids[0]

    def test_starts_blue_marks_inputs_only(self):
        cdag = build_cdag(get_kernel("gemm").build(), {"N": 3})
        stream = stream_from_graph(cdag.graph)
        n_blue = sum(stream.starts_blue)
        assert n_blue == len(cdag.inputs)

    def test_store_at_compute_marks_outputs(self):
        cdag = build_cdag(get_kernel("gemm").build(), {"N": 3})
        stream = stream_from_graph(cdag.graph)
        assert sum(stream.store_at_compute) == len(cdag.outputs)

    def test_rejects_partial_order(self):
        with pytest.raises(PebblingError):
            stream_from_graph(chain(3), order=[1])


class TestInvalidOrders:
    """``x -> a -> b, y -> c``: every legal order replays at cost 4 (S=4);
    each invalid one must be refused up front, not replayed."""

    @pytest.fixture
    def graph(self):
        return nx.DiGraph([("x", "a"), ("a", "b"), ("y", "c")])

    def test_legal_orders_cost_four(self, graph):
        for order in (["a", "b", "c"], ["c", "a", "b"], ["a", "c", "b"]):
            stream = stream_from_graph(graph, order)
            assert simulate_io(stream, 4).cost == 4
            assert greedy_pebbling_cost(graph, 4, order) == 4

    def test_repeated_vertex_rejected(self, graph):
        """Used to replay at cost 3: ``c`` was never computed or stored."""
        with pytest.raises(PebblingError, match="exactly once"):
            stream_from_graph(graph, ["a", "b", "b"])

    def test_input_vertex_rejected(self, graph):
        """Used to replay at cost 1: the input ``x`` counted as computed."""
        with pytest.raises(PebblingError, match="exactly once"):
            stream_from_graph(graph, ["x", "a", "b"])

    def test_unknown_vertex_rejected(self, graph):
        with pytest.raises(PebblingError, match="exactly once"):
            stream_from_graph(graph, ["a", "b", "z"])

    def test_child_before_parent_rejected(self, graph):
        """Used to fail only inside the replay, as a recomputed value."""
        with pytest.raises(PebblingError, match="order is not topological"):
            stream_from_graph(graph, ["b", "a", "c"])


class TestSingleStatementStream:
    @pytest.mark.parametrize("tile", [1, 2, 3])
    def test_gemm_matches_graph_stream(self, tile):
        """IR-direct stream == graph stream under the same blocked order
        (tile=1 degenerates to plain lexicographic program order)."""
        from repro.pebbling.greedy import tiled_order

        program = get_kernel("gemm").build()
        params = {"N": 6}
        tiles = {"i": tile, "j": tile, "k": tile}
        direct = single_statement_stream(
            program, params, tile_sizes=tiles, variable_order=["i", "j", "k"]
        )
        cdag = build_cdag(program, params)
        order = tiled_order(cdag.graph, cdag.point_of, tiles, ["i", "j", "k"])
        graph_stream = stream_from_graph(cdag.graph, order)
        assert direct.n_ids == graph_stream.n_ids
        for fname in ("parent_offsets", "parent_ids", "computed_ids",
                      "starts_blue", "store_at_compute"):
            np.testing.assert_array_equal(
                getattr(direct, fname), getattr(graph_stream, fname),
                err_msg=fname,
            )

    def test_duplicate_reads_deduplicated(self):
        """syrk reads A[i,k] and A[j,k]: at i == j they are one parent,
        matching build_cdag's edge semantics."""
        from repro.pebbling.greedy import tiled_order

        program = get_kernel("syrk").build()
        params = {"N": 4, "M": 4}
        variables = ["i", "j", "k"]
        tiles = {v: 1 for v in variables}
        direct = single_statement_stream(
            program, params, tile_sizes=tiles, variable_order=variables
        )
        cdag = build_cdag(program, params)
        order = tiled_order(cdag.graph, cdag.point_of, tiles, variables)
        graph_stream = stream_from_graph(cdag.graph, order)
        assert direct.n_accesses == graph_stream.n_accesses
        assert simulate_io(direct, 8).cost == simulate_io(graph_stream, 8).cost

    def test_multi_statement_rejected(self):
        from repro.schedule.stream import ScheduleError

        program = get_kernel("atax").build()
        with pytest.raises(ScheduleError):
            single_statement_stream(program, {"M": 3, "N": 3})

    def test_illegal_order_detected(self):
        """An order executing a reduction chain out of program order must
        raise, not silently build a different CDAG.  A single reduction
        variable stays legal under any blocking (its own order is preserved);
        swapping the relative order of *two* reduction variables is not."""
        from repro.ir.program import Program
        from repro.kernels.common import ref, stmt
        from repro.schedule.stream import ScheduleError

        update = stmt(
            "acc", {"i": sym_n(), "a": sym_n(), "b": sym_n()},
            ref("C", "i"), ref("C", "i"), ref("A", "i,a,b"),
        )
        program = Program.make("acc3", [update])
        params = {"N": 3}
        # legal: blocking the spatial loop keeps each (a, b) chain in order
        single_statement_stream(
            program, params, tile_sizes={"i": 2}, variable_order=["i", "a", "b"]
        )
        with pytest.raises(ScheduleError):
            # swapped reduction variables: chains execute out of program order
            single_statement_stream(
                program, params, variable_order=["i", "b", "a"]
            )
        with pytest.raises(ScheduleError):
            # jointly blocking both reduction dims also reorders the chain
            single_statement_stream(
                program, params, tile_sizes={"a": 2, "b": 2},
                variable_order=["i", "a", "b"],
            )

    def test_single_reduction_var_any_order_legal(self):
        """gemm's k chain stays ascending under any lexicographic blocking,
        so even k-outermost streams legally (and matches the graph)."""
        from repro.pebbling.greedy import tiled_order

        program = get_kernel("gemm").build()
        params = {"N": 4}
        tiles = {"i": 2, "j": 2, "k": 2}
        variables = ["k", "i", "j"]
        direct = single_statement_stream(
            program, params, tile_sizes=tiles, variable_order=variables
        )
        cdag = build_cdag(program, params)
        order = tiled_order(cdag.graph, cdag.point_of, tiles, variables)
        graph_stream = stream_from_graph(cdag.graph, order)
        assert simulate_io(direct, 8).cost == simulate_io(graph_stream, 8).cost


# ---------------------------------------------------------------------------
# property-based: equivalence on random DAGs
# ---------------------------------------------------------------------------


@st.composite
def _random_dags(draw):
    n = draw(st.integers(4, 10))
    edges = []
    for v in range(1, n):
        parents = draw(
            st.lists(st.integers(0, v - 1), min_size=0, max_size=3, unique=True)
        )
        edges.extend((p, v) for p in parents)
    g = nx.DiGraph(edges)
    g.add_nodes_from(range(n))
    return g


@given(dag=_random_dags(), s=st.integers(3, 6), policy=st.sampled_from(["belady", "lru"]))
@settings(max_examples=80, deadline=None)
def test_simulator_matches_game_on_random_dags(dag, s, policy):
    """Full-count equivalence (loads, stores, evictions) on random legal
    streams, exercising both replay backends against the pebble game."""
    belady = policy == "belady"
    try:
        game = game_counts(dag, s, policy=policy)
    except PebblingError:
        stream = stream_from_graph(dag)
        with pytest.raises(PebblingError):
            simulate_io(stream, s, policy=policy)
        with pytest.raises(PebblingError):
            _replay(stream, s, belady=belady)
        return
    stream = stream_from_graph(dag)
    replay = simulate_io(stream, s, policy=policy)
    assert (replay.cost, replay.loads, replay.stores, replay.evictions) == game
    pure = _replay(stream, s, belady=belady)
    assert (pure.cost, pure.loads, pure.stores, pure.evictions) == game


# ---------------------------------------------------------------------------
# next-use table: pinned against a pure-Python scan, memoization
# ---------------------------------------------------------------------------


class TestNextUseTable:
    def pinned_table(self, stream):
        """Reference next-use data from per-id use lists built by walking
        the stream position by position in plain Python."""
        offsets = stream.parent_offsets.tolist()
        parents = stream.parent_ids.tolist()
        uses = [[] for _ in range(stream.n_ids)]
        positions = []
        for pos in range(stream.n_positions):
            for pid in parents[offsets[pos]:offsets[pos + 1]]:
                uses[pid].append(pos)
                positions.append(pos)
        inf = stream.n_positions
        consumed = [0] * stream.n_ids
        next_after = []
        for pid in parents:
            k = consumed[pid] = consumed[pid] + 1
            u = uses[pid]
            next_after.append(u[k] if k < len(u) else inf)
        first = [u[0] if u else inf for u in uses]
        return next_after, first, positions

    @pytest.mark.parametrize("name,params", [
        ("gemm", {"N": 5}), ("atax", {"M": 4, "N": 5}),
        ("jacobi1d", {"N": 8, "T": 3}), ("cholesky", {"N": 5}),
    ])
    def test_vectorized_table_matches_use_lists(self, name, params):
        cdag = build_cdag(get_kernel(name).build(), params)
        stream = stream_from_graph(cdag.graph)
        next_after, first_use, positions = stream.next_use_table()
        ref_next, ref_first, ref_pos = self.pinned_table(stream)
        assert next_after.tolist() == ref_next
        assert first_use.tolist() == ref_first
        assert positions.tolist() == ref_pos

    def test_table_is_memoized(self):
        stream = stream_from_graph(chain(5))
        assert stream.next_use_table() is stream.next_use_table()


# ---------------------------------------------------------------------------
# next-use scan: the native reverse pass against the numpy executor
# ---------------------------------------------------------------------------


def both_scans(stream, chunk):
    """``((next_after, first_use) native, (next_after, first_use) numpy)``
    of one stream, each from a fresh scan of ``chunk``-position slabs."""
    next_after, first_use, native = stream._next_use_scan(chunk)
    if not native:
        pytest.skip("no C compiler available for the native core")
    with mock.patch.dict(os.environ, {"REPRO_NO_NATIVE_REPLAY": "1"}):
        ref_next, ref_first, used = stream._next_use_scan(chunk)
    assert not used
    return (next_after, first_use), (ref_next, ref_first)


def assert_same_arrays(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@st.composite
def _random_streams(draw):
    """Streams of random reads (distinct ids per position) in random
    column widths: only the columns the next-use scan reads are real."""
    n_ids = draw(st.integers(1, 12))
    reads = draw(st.lists(
        st.lists(st.integers(0, n_ids - 1), max_size=4, unique=True),
        max_size=30,
    ))
    id_dtype, off_dtype = (
        draw(st.sampled_from([np.int32, np.int64])) for _ in range(2)
    )
    offsets = np.zeros(len(reads) + 1, dtype=off_dtype)
    offsets[1:] = np.cumsum([len(r) for r in reads])
    return AccessStream(
        n_positions=len(reads),
        n_ids=n_ids,
        parent_offsets=offsets,
        parent_ids=np.array([i for r in reads for i in r], dtype=id_dtype),
        computed_ids=np.zeros(len(reads), dtype=id_dtype),
        starts_blue=np.zeros(n_ids, dtype=np.uint8),
        store_at_compute=np.zeros(len(reads), dtype=np.uint8),
    )


class TestNativeNextUse:
    def test_every_corpus_program_order_stream(self):
        from repro.cdag.cache import cached_cdag
        from repro.kernels import kernel_names
        from repro.schedule.tightness import _built_program, _merged_params

        for name in kernel_names():
            params = _merged_params(name, _built_program(name), None)
            stream = stream_from_graph(cached_cdag(name, params).graph)
            assert_same_arrays(*both_scans(stream, 1 << 20))

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_ir_direct_int32_columns(self, chunk):
        stream = single_statement_stream(
            get_kernel("gemm").build(), {"N": 12},
            tile_sizes={"i": 4, "j": 4, "k": 4}, chunk_positions=chunk,
        )
        assert stream.parent_ids.dtype == np.int32
        assert stream.parent_offsets.dtype == np.int32
        got, want = both_scans(stream, chunk)
        assert got[0].dtype == np.int32
        assert_same_arrays(got, want)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(stream=_random_streams(), chunk=st.integers(1, 40))
    def test_random_streams(self, stream, chunk):
        got, want = both_scans(stream, chunk)
        assert_same_arrays(got, want)
        ref_next, ref_first, _ = TestNextUseTable().pinned_table(stream)
        assert got[0].tolist() == ref_next
        assert got[1].tolist() == ref_first

    def test_chunk_positions_do_not_change_the_arrays(self):
        def fresh():
            cdag = build_cdag(get_kernel("cholesky").build(), {"N": 6})
            return stream_from_graph(cdag.graph)

        reference = fresh().next_use_arrays()
        for chunk in (1, 3, 17, 10**9):
            assert_same_arrays(fresh().next_use_arrays(chunk), reference)
            assert_same_arrays(*both_scans(fresh(), chunk))

    def test_every_column_width_gives_the_same_arrays(self):
        """Positions int64 only arise past 2^31 positions, so each width
        triple of the compiled scan is called directly here."""
        import itertools

        from repro.schedule._native import native_replay_lib

        lib = native_replay_lib()
        if lib is None:
            pytest.skip("no C compiler available for the native core")
        stream = single_statement_stream(
            get_kernel("gemm").build(), {"N": 6},
            tile_sizes={"i": 2, "j": 3, "k": 2},
        )
        want = stream.next_use_arrays()
        n = stream.n_positions
        for widths in itertools.product((32, 64), repeat=3):
            off, ids, pos = (f"int{w}" for w in widths)
            columns = [
                stream.parent_offsets.astype(off),
                stream.parent_ids.astype(ids),
                np.empty(stream.n_accesses, dtype=pos),
                np.full(stream.n_ids, n, dtype=pos),
            ]
            scan = getattr(lib, "next_use_slab_%d_%d_%d" % widths)
            for hi in range(n, 0, -5):
                scan(max(0, hi - 5), hi, *(c.ctypes.data for c in columns))
            for got, ref in zip(columns[2:], want):
                assert got.tolist() == ref.tolist(), widths


# ---------------------------------------------------------------------------
# native backend: differential against the pure-Python loop
# ---------------------------------------------------------------------------


class TestNativeBackend:
    @pytest.mark.parametrize("name,params,s_values", KERNEL_CASES)
    @pytest.mark.parametrize("policy", ["belady", "lru"])
    def test_native_matches_python(self, name, params, s_values, policy):
        from repro.schedule.simulator import _native_replay

        cdag = build_cdag(get_kernel(name).build(), params)
        stream = stream_from_graph(cdag.graph)
        belady = policy == "belady"
        for s in s_values:
            native = _native_replay(stream, s, belady=belady)
            if native is None:
                pytest.skip("no C compiler available for the native core")
            pure = _replay(stream, s, belady=belady)
            assert (
                native.loads, native.stores, native.evictions,
                native.compactions,
            ) == (
                pure.loads, pure.stores, pure.evictions, pure.compactions
            ), (name, s, policy)

    @pytest.mark.parametrize("rare_every,s", [
        (None, 3010), (None, 2048), (None, 12), (1000, 2010),
    ], ids=["all-fit", "s2048", "s12", "rare-parent"])
    def test_lru_queue_compacts_like_the_heap(self, rare_every, s):
        """No corpus stream makes LRU compact its snapshots, so the
        queue's compaction (a filter, no heapify) is pinned here: native =
        Python = pebble game, compaction counts included.  With the rare
        parent, the least recently used resident at each of its reads is
        that parent itself, protected, so the queue keeps it in front."""
        from repro.schedule.simulator import _native_replay

        graph = fan_in(rare_every=rare_every)
        stream = stream_from_graph(graph)
        native = _native_replay(stream, s, belady=False)
        if native is None:
            pytest.skip("no C compiler available for the native core")
        pure = _replay(stream, s, belady=False)
        assert (
            native.loads, native.stores, native.evictions, native.compactions
        ) == (pure.loads, pure.stores, pure.evictions, pure.compactions)
        assert native.cost == greedy_pebbling_cost(graph, s, policy="lru")
        if s > 12:
            assert native.compactions > 0
        if rare_every:
            # the rare parent stays resident: one load per input, no more
            assert native.loads == stream.starts_blue.sum()

    @pytest.mark.parametrize("policy,counts", [
        ("belady", (23412, 2304, 133748, 38)),
        ("lru", (39168, 13824, 149504, 0)),
    ])
    def test_mid_size_ir_gemm_is_pinned(self, policy, counts, monkeypatch):
        """An IR-direct gemm (N = 48, 8^3 tiles, int32 columns from
        4096-position chunks) at S = 256: loads, stores, evictions and
        compactions of both executors, as the heap-only core counted
        them."""
        stream = single_statement_stream(
            get_kernel("gemm").build(), {"N": 48},
            tile_sizes={"i": 8, "j": 8, "k": 8}, chunk_positions=4096,
        )
        assert stream.parent_ids.dtype == np.int32
        native = simulate_io(stream, 256, policy=policy)
        monkeypatch.setenv("REPRO_NO_NATIVE_REPLAY", "1")
        stream._next_use_pair = None  # rescan with the numpy executor
        pure = simulate_io(stream, 256, policy=policy)
        for result in (native, pure):
            assert (
                result.loads, result.stores, result.evictions,
                result.compactions,
            ) == counts

    def test_kill_switch_forces_python(self, monkeypatch):
        from repro.schedule import _native

        monkeypatch.setenv("REPRO_NO_NATIVE_REPLAY", "1")
        assert _native.native_replay_lib() is None

    @pytest.mark.parametrize("name,params,s_values", KERNEL_CASES)
    @pytest.mark.parametrize("policy", ["belady", "lru"])
    def test_python_fallback_matches_game(
        self, name, params, s_values, policy, monkeypatch
    ):
        """Hosts without ``cc`` replay through the Python loop: the public
        route must still reproduce the pebble game move for move."""
        monkeypatch.setenv("REPRO_NO_NATIVE_REPLAY", "1")
        cdag = build_cdag(get_kernel(name).build(), params)
        stream = stream_from_graph(cdag.graph)
        for s in s_values:
            replay = simulate_io(stream, s, policy=policy)
            assert (
                replay.cost, replay.loads, replay.stores, replay.evictions
            ) == game_counts(cdag.graph, s, policy=policy), (name, s, policy)
