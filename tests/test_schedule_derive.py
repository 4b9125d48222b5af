"""Schedule derivation: generic point mapping, tiles, bandwidth degrade."""

import sympy as sp
import pytest

from repro.analysis import analyze_kernel
from repro.cdag.build import build_cdag
from repro.kernels import get_kernel
from repro.opt.tiling import (
    concrete_tiles_at_x0,
    is_bandwidth_bound,
    tiles_at_x0,
)
from repro.pebbling.greedy import greedy_pebbling_cost, tiled_order
from repro.schedule.derive import blocked_order, derive_schedule
from repro.symbolic.symbols import X_SYM


@pytest.fixture(scope="module")
def gemm_result():
    return analyze_kernel("gemm")


class TestRecordedPoints:
    def test_points_recorded_by_default(self):
        cdag = build_cdag(get_kernel("gemm").build(), {"N": 3})
        vertex = cdag.vertices_of("C")[0]
        statement, point = cdag.points[vertex]
        assert statement == "gemm"
        assert set(point) == {"i", "j", "k"}
        assert cdag.point_of(vertex) == point
        assert cdag.statement_of(vertex) == "gemm"

    def test_inputs_have_no_point(self):
        cdag = build_cdag(get_kernel("gemm").build(), {"N": 3})
        assert cdag.point_of(cdag.inputs[0]) is None
        assert cdag.statement_of(cdag.inputs[0]) is None

    def test_record_points_false_saves_the_mapping(self):
        cdag = build_cdag(get_kernel("gemm").build(), {"N": 3}, record_points=False)
        assert cdag.points == {}

    def test_generic_point_of_matches_vertex_structure(self):
        """The recorded point is the hand-coding it replaces: for gemm,
        vertex ('v', 'C', (i, j), k) -> {i, j, k}."""
        cdag = build_cdag(get_kernel("gemm").build(), {"N": 3})
        for vertex in cdag.vertices_of("C"):
            _, _, (i, j), k = vertex
            assert cdag.point_of(vertex) == {"i": i, "j": j, "k": k}


class TestDeriveSchedule:
    def test_gemm_square_tiles(self, gemm_result):
        schedule = derive_schedule(
            get_kernel("gemm").build(), gemm_result.program_bound, {"N": 8}, 18
        )
        assert schedule.tiled
        # sqrt(18) ~ 4.24 -> 4 per loop (the paper's sqrt(S) x sqrt(S) tile)
        assert schedule.tile_sizes == {"i": 4, "j": 4, "k": 4}
        assert schedule.variable_order == ("i", "j", "k")
        assert schedule.source_arrays == ("C",)

    def test_tiles_clamped_to_extents(self, gemm_result):
        schedule = derive_schedule(
            get_kernel("gemm").build(), gemm_result.program_bound, {"N": 3}, 100
        )
        assert all(size <= 3 for size in schedule.tile_sizes.values())

    def test_blocked_order_is_topological_and_better(self, gemm_result):
        program = get_kernel("gemm").build()
        params, s = {"N": 8}, 18
        schedule = derive_schedule(program, gemm_result.program_bound, params, s)
        cdag = build_cdag(program, params)
        order = blocked_order(cdag, schedule)
        blocked_cost = greedy_pebbling_cost(cdag.graph, s, order)  # checks topo
        plain_cost = greedy_pebbling_cost(cdag.graph, s)
        assert blocked_cost < plain_cost

    def test_multi_statement_partial_tiles(self):
        """cholesky: the A3 subgraph yields sqrt(S) tiles; the bandwidth-bound
        A1/A2 subgraphs contribute streaming notes, not symbolic tiles."""
        result = analyze_kernel("cholesky")
        schedule = derive_schedule(
            get_kernel("cholesky").build(), result.program_bound, {"N": 6}, 18
        )
        assert schedule.tiled
        assert any("bandwidth-bound" in note for note in schedule.notes)
        assert all(isinstance(t, int) and t >= 1 for t in schedule.tile_sizes.values())

    def test_as_dict_round_trips_to_json(self, gemm_result):
        import json

        schedule = derive_schedule(
            get_kernel("gemm").build(), gemm_result.program_bound, {"N": 4}, 8
        )
        payload = json.loads(json.dumps(schedule.as_dict()))
        assert payload["tiled"] is True
        assert payload["tile_sizes"]["i"] >= 1


class TestBandwidthBoundPath:
    """Satellite fix: ``x0 == oo`` must not leak symbolic tiles downstream."""

    @pytest.fixture(scope="class")
    def atax_result(self):
        return analyze_kernel("atax")

    def test_tiles_at_x0_stays_symbolic(self):
        """Pinned behavior: the raw accessor returns the unsubstituted tile
        *shapes* (possibly containing X) for bandwidth-bound subgraphs."""
        result = analyze_kernel("cholesky")
        analysis = result.program_bound.per_array["A1"]
        assert is_bandwidth_bound(analysis.intensity)
        tiles = tiles_at_x0(analysis.intensity)
        assert any(X_SYM in sp.sympify(e).free_symbols for e in tiles.values())

    def test_concrete_tiles_refuse_bandwidth_bound(self):
        result = analyze_kernel("cholesky")
        analysis = result.program_bound.per_array["A1"]
        assert concrete_tiles_at_x0(analysis.intensity, {"N": 6}, 18) is None

    def test_concrete_tiles_for_compute_bound(self):
        result = analyze_kernel("gemm")
        analysis = result.program_bound.per_array["C"]
        tiles = concrete_tiles_at_x0(analysis.intensity, {"N": 8}, 18)
        assert tiles == {"i": 4, "j": 4, "k": 4}

    def test_tiles_at_x0_memoized_per_result(self, gemm_result, monkeypatch):
        """Substituted once per analysis; every caller gets its own copy,
        and the memo takes no part in equality."""
        import dataclasses

        import repro.opt.tiling as tiling

        intensity = gemm_result.program_bound.per_array["C"].intensity
        first = tiles_at_x0(intensity)
        first["i"] = None

        def recompute(result):
            raise AssertionError("tiles_at_x0 recomputed")

        monkeypatch.setattr(tiling, "_substitute_x0", recompute)
        second = tiles_at_x0(intensity)
        assert second["i"] is not None and second == tiles_at_x0(intensity)
        assert concrete_tiles_at_x0(intensity, {"N": 8}, 18) == {
            "i": 4, "j": 4, "k": 4,
        }
        assert dataclasses.replace(intensity, _tiles_at_x0=None) == intensity

    def test_derive_degrades_to_streaming(self, atax_result):
        """Fully bandwidth-bound kernel: the schedule is untiled program
        order, by design, not an error."""
        assert is_bandwidth_bound(
            atax_result.program_bound.per_array["tmp"].intensity
        )
        schedule = derive_schedule(
            get_kernel("atax").build(),
            atax_result.program_bound,
            {"M": 4, "N": 4},
            8,
        )
        assert not schedule.tiled
        assert all(size == 1 for size in schedule.tile_sizes.values())
        assert any("bandwidth-bound" in note for note in schedule.notes)
        cdag = build_cdag(get_kernel("atax").build(), {"M": 4, "N": 4})
        order = blocked_order(cdag, schedule)
        greedy_pebbling_cost(cdag.graph, 8, order)  # legal order


class TestTiledOrderGeneric:
    """`tiled_order` with the recorded point mapping (no hand-coding)."""

    def test_statement_rank_orders_statements_within_tile(self):
        program = get_kernel("atax").build()
        cdag = build_cdag(program, {"M": 4, "N": 4})
        ranks = {"Ax": 0, "Aty": 1}

        order = tiled_order(
            cdag.graph,
            cdag.point_of,
            {"i": 2, "j": 2},
            ["i", "j"],
            statement_rank=lambda v: ranks.get(cdag.statement_of(v), 0),
        )
        greedy_pebbling_cost(cdag.graph, 8, order)  # must be legal

    def test_missing_vars_default_to_tile_zero(self):
        """Vertices whose point lacks a variable sort into tile 0 (the
        multi-statement case where statements use different loop names)."""
        program = get_kernel("gesummv").build()
        cdag = build_cdag(program, {"N": 4})
        order = tiled_order(
            cdag.graph, cdag.point_of, {"i": 2, "j": 2}, ["i", "j"]
        )
        assert len(order) == cdag.n_vertices - len(cdag.inputs)

    def test_tiled_order_beats_plain_on_gemm(self):
        cdag = build_cdag(get_kernel("gemm").build(), {"N": 6})
        order = tiled_order(
            cdag.graph, cdag.point_of, {"i": 3, "j": 3, "k": 3}, ["i", "j", "k"]
        )
        assert greedy_pebbling_cost(cdag.graph, 11, order) <= greedy_pebbling_cost(
            cdag.graph, 11
        )
