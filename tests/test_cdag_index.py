"""Integer CDAG index: blocked orders and graph streams against the oracles.

``blocked_order`` must reproduce ``pebbling.greedy.tiled_order`` exactly, and
``stream_from_graph`` must number ids like ``stream_vertex_ids`` and read
each vertex's parents in ``graph.predecessors`` order -- on corpus kernels
whose preferred blocked sequence needs the topological repair, on kernels
whose sequence is already topological, and on random DAGs.  The id path the
audit takes (``blocked_ids`` into ``stream_from_ids``) must build the same
stream and refuse the same illegal orders.
"""

import dataclasses

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import analyze_kernel
from repro.cdag.build import ConcreteCDAG, build_cdag
from repro.cdag.index import graph_index
from repro.engine import Engine, SolveCache
from repro.kernels import get_kernel
from repro.pebbling.greedy import default_order, stream_vertex_ids, tiled_order
from repro.schedule.derive import (
    TiledSchedule,
    _preferred_order,
    blocked_ids,
    blocked_order,
    derive_schedule,
)
from repro.schedule.stream import stream_from_graph, stream_from_ids
from repro.schedule.tightness import audit_params
from repro.util.errors import PebblingError

#: corpus kernels whose preferred blocked sequence is not topological
REPAIRED = ("2mm", "cholesky", "lu", "trmm", "jacobi2d", "seidel2d")
#: corpus kernels whose preferred blocked sequence already is
ALREADY_TOPOLOGICAL = ("gemm", "syrk", "conv")


def oracle_order(cdag: ConcreteCDAG, schedule: TiledSchedule) -> list:
    """``tiled_order`` with statements ranked by first appearance in
    ``cdag.points`` -- the networkx blocked order ``blocked_order`` replaces."""
    statement_pos: dict[str, int] = {}
    for statement, _ in cdag.points.values():
        statement_pos.setdefault(statement, len(statement_pos))

    def rank(vertex) -> int:
        entry = cdag.points.get(vertex)
        return statement_pos[entry[0]] if entry is not None else 0

    return tiled_order(
        cdag.graph,
        cdag.point_of,
        schedule.tile_sizes,
        schedule.variable_order,
        statement_rank=rank,
    )


def assert_same_stream(a, b) -> None:
    assert (a.n_positions, a.n_ids, a.labels) == (b.n_positions, b.n_ids, b.labels)
    for field in (
        "parent_offsets", "parent_ids", "computed_ids", "starts_blue", "store_at_compute"
    ):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def assert_ids_match_labels(cdag: ConcreteCDAG, schedule: TiledSchedule) -> None:
    """The audit's id path builds the stream the label path builds."""
    index = graph_index(cdag.graph)
    ids = blocked_ids(cdag, schedule)
    order = blocked_order(cdag, schedule)
    assert [index.labels[i] for i in ids.tolist()] == order
    assert_same_stream(
        stream_from_ids(cdag.graph, ids), stream_from_graph(cdag.graph, order)
    )


def assert_stream_matches_graph(graph: nx.DiGraph, order: list) -> None:
    stream = stream_from_graph(graph, order)
    ids = stream_vertex_ids(graph, order)
    assert {label: i for i, label in enumerate(stream.labels)} == ids
    assert stream.n_positions == len(order)
    offsets = stream.parent_offsets.tolist()
    for pos, vertex in enumerate(order):
        assert stream.computed_ids[pos] == ids[vertex]
        reads = stream.parent_ids[offsets[pos]:offsets[pos + 1]].tolist()
        assert [stream.labels[i] for i in reads] == list(graph.predecessors(vertex))
        assert stream.store_at_compute[pos] == (graph.out_degree(vertex) == 0)
    assert stream.starts_blue.tolist() == [
        int(graph.in_degree(label) == 0) for label in stream.labels
    ]


@pytest.fixture(scope="module")
def engine():
    return Engine(cache=SolveCache())


@pytest.mark.parametrize("name", REPAIRED + ALREADY_TOPOLOGICAL)
def test_blocked_order_matches_tiled_order_on_corpus(name, engine):
    program = get_kernel(name).build()
    params = audit_params(name, program)
    cdag = build_cdag(program, params)
    index = graph_index(cdag.graph)
    s = max(8, index.max_in_degree + 2)  # the audit's feasibility clamp
    bound = analyze_kernel(name, engine=engine).program_bound
    schedule = derive_schedule(program, bound, params, s)
    assert schedule.tiled

    order = blocked_order(cdag, schedule)
    assert order == oracle_order(cdag, schedule)
    preferred = _preferred_order(index, cdag, schedule).tolist()
    repaired = order != [index.labels[i] for i in preferred]
    assert repaired == (name in REPAIRED)
    assert_stream_matches_graph(cdag.graph, order)
    assert_ids_match_labels(cdag, schedule)


def test_index_is_built_once_per_graph():
    cdag = build_cdag(get_kernel("gemm").build(), {"N": 3})
    assert graph_index(cdag.graph) is graph_index(cdag.graph)
    copy = nx.DiGraph(cdag.graph)
    assert graph_index(copy) is not graph_index(cdag.graph)


def test_untiled_schedule_keeps_default_order():
    cdag = build_cdag(get_kernel("gemm").build(), {"N": 3})
    schedule = TiledSchedule(
        program="gemm", params={"N": 3}, s=8, variable_order=("i", "j", "k"),
        tile_sizes={"i": 1, "j": 1, "k": 1}, tiled=False, source_arrays=(),
    )
    assert blocked_order(cdag, schedule) == default_order(cdag.graph)
    assert_ids_match_labels(cdag, schedule)


class TestIdOrders:
    """``x -> a -> b, y -> c``: an id order is refused where its labels are."""

    @pytest.fixture
    def graph(self):
        return nx.DiGraph([("x", "a"), ("a", "b"), ("y", "c")])

    def ids(self, graph, labels):
        return np.array([graph_index(graph).position[v] for v in labels])

    def test_legal_order_builds_the_label_stream(self, graph):
        for order in (["a", "b", "c"], ["c", "a", "b"], ["a", "c", "b"]):
            assert_same_stream(
                stream_from_ids(graph, self.ids(graph, order)),
                stream_from_graph(graph, order),
            )

    @pytest.mark.parametrize(
        "order, message",
        [
            (["a", "b", "b"], "exactly once"),
            (["x", "a", "b"], "exactly once"),
            (["a", "b"], "exactly once"),
            (["b", "a", "c"], "order is not topological"),
        ],
    )
    def test_illegal_order_rejected(self, graph, order, message):
        with pytest.raises(PebblingError, match=message):
            stream_from_graph(graph, order)
        with pytest.raises(PebblingError, match=message):
            stream_from_ids(graph, self.ids(graph, order))

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_out_of_range_id_rejected(self, graph, bad):
        order = self.ids(graph, ["a", "b", "c"])
        order[2] = bad
        with pytest.raises(PebblingError, match="exactly once"):
            stream_from_ids(graph, order)


def test_point_columns_follow_a_new_points_mapping():
    """The point table is cached per ``points`` mapping, not per graph."""
    cdag = build_cdag(get_kernel("gemm").build(), {"N": 3})
    schedule = TiledSchedule(
        program="gemm", params={"N": 3}, s=8, variable_order=("i", "j", "k"),
        tile_sizes={"i": 2, "j": 2, "k": 2}, tiled=True, source_arrays=(),
    )
    assert blocked_order(cdag, schedule) == oracle_order(cdag, schedule)
    reversed_k = {
        vertex: (statement, {**point, "k": 2 - point["k"]})
        for vertex, (statement, point) in cdag.points.items()
    }
    other = dataclasses.replace(cdag, points=reversed_k)
    assert blocked_order(other, schedule) == oracle_order(other, schedule)


VARIABLES = ("i", "j", "k")


@st.composite
def blocked_instances(draw):
    """A random DAG (node order shuffled, so it is not topological) with
    random statements, partial points, variable order and tile sizes."""
    n = draw(st.integers(1, 30))
    graph = nx.DiGraph()
    graph.add_nodes_from(draw(st.permutations(range(n))))
    for child in range(1, n):
        parents = draw(
            st.lists(st.integers(0, child - 1), max_size=3, unique=True)
        )
        graph.add_edges_from((parent, child) for parent in parents)
    points = {}
    for vertex in draw(st.permutations(range(n))):
        if draw(st.integers(0, 4)) == 0:
            continue  # no recorded point: tile 0, rank 0
        statement = draw(st.sampled_from(("S0", "S1", "S2")))
        variables = draw(st.lists(st.sampled_from(VARIABLES), unique=True))
        points[vertex] = (
            statement,
            {var: draw(st.integers(0, 7)) for var in variables},
        )
    variable_order = draw(st.permutations(VARIABLES))
    tile_sizes = {
        var: draw(st.integers(0, 4))
        for var in draw(st.lists(st.sampled_from(VARIABLES), unique=True))
    }
    cdag = ConcreteCDAG(
        graph=graph, inputs=(), outputs=(), by_array={}, points=points
    )
    schedule = TiledSchedule(
        program="random", params={}, s=1, variable_order=tuple(variable_order),
        tile_sizes=tile_sizes, tiled=True, source_arrays=(),
    )
    return cdag, schedule


@given(instance=blocked_instances())
@settings(max_examples=100, deadline=None)
def test_blocked_order_and_streams_match_oracles_on_random_dags(instance):
    cdag, schedule = instance
    order = blocked_order(cdag, schedule)
    assert order == oracle_order(cdag, schedule)
    assert_stream_matches_graph(cdag.graph, order)
    assert_stream_matches_graph(cdag.graph, default_order(cdag.graph))
    assert_ids_match_labels(cdag, schedule)
