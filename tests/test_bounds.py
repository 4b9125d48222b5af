"""Concrete-CDAG bound engines: registry, combine, soundness, service."""

import hashlib
import json
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bounds import (
    available_bound_engines,
    evaluate_bounds,
    get_bound_engine,
    kernel_bounds,
)
from repro.bounds.registry import MODEL_PEBBLING, BoundProblem
from repro.bounds.structure import graph_facts, io_floor
from repro.cdag.build import build_cdag
from repro.cdag.cache import cached_cdag, cdag_signature, clear_cdag_cache
from repro.cdag.index import graph_index, index_built_graph
from repro.cli import main
from repro.kernels import get_kernel, kernel_names
from repro.obs import MetricsRegistry, Tracer
from repro.pebbling.greedy import default_order
from repro.pebbling.optimal import optimal_pebbling_cost
from repro.schedule.simulator import simulate_io
from repro.schedule.stream import stream_from_graph
from repro.schedule.tightness import audit_params
from repro.util.errors import PebblingError


def chain(n: int) -> nx.DiGraph:
    return nx.DiGraph([(i, i + 1) for i in range(n)])


def diamond() -> nx.DiGraph:
    return nx.DiGraph([(0, 1), (0, 2), (1, 3), (2, 3)])


class TestStructure:
    def test_floor_counts_live_inputs_and_computed_sinks(self):
        # diamond: one input feeding work, one computed sink
        assert io_floor(diamond()) == 2
        # chain(3): 0 is a live input, 3 the only computed sink
        assert io_floor(chain(3)) == 2

    def test_isolated_vertices_do_not_count(self):
        g = diamond()
        g.add_node("lonely")  # in=0, out=0: neither loaded nor stored
        assert io_floor(g) == 2

    def test_graph_facts_shape(self):
        facts = graph_facts(diamond())
        assert facts.n_vertices == 4
        assert facts.floor == 2
        assert len(facts.computed) == 3
        # facts are cached per graph object
        g = diamond()
        assert graph_facts(g) is graph_facts(g)


class TestRegistry:
    def test_builtin_engines_in_registration_order(self):
        assert list(available_bound_engines()) == ["kkt", "visit"]

    def test_every_engine_certifies_the_pebbling_game(self):
        """The certified max is a bound only if every term bounds the same
        game: an engine of another cost model must not join it unnoticed."""
        for name in available_bound_engines():
            assert get_bound_engine(name).model == MODEL_PEBBLING, name

    def test_each_evaluation_runs_under_an_engine_span(self):
        cdag = cached_cdag("atax", {"M": 8, "N": 8})
        bound = get_kernel("atax").paper_bound_expr()
        tracer = Tracer(keep_spans=True, registry=MetricsRegistry())
        with tracer:
            evaluate_bounds(
                s=8, graph=cdag.graph, symbolic_bound=bound, params={"M": 8, "N": 8}
            )
        spans = [s for s in tracer.spans if s["name"] == "bounds.engine"]
        assert [(s["attrs"]["engine"], s["attrs"]["s"]) for s in spans] == [
            ("kkt", 8), ("visit", 8)
        ]
        assert tracer.registry.counter_by_label(
            "bound_engine_evals_total", "engine"
        ) == {"kkt": 1.0, "visit": 1.0}

    def test_unknown_engine_names_the_alternatives(self):
        with pytest.raises(KeyError, match="available: kkt, visit"):
            get_bound_engine("bogus")

    def test_engine_failure_is_a_result_not_an_exception(self):
        # a malformed symbolic bound makes the kkt evaluation blow up;
        # the registry converts that into an error-carrying result
        problem = BoundProblem(s=8, symbolic_bound=object())
        result = get_bound_engine("kkt").evaluate(problem)
        assert not result.ok
        assert result.error
        assert math.isnan(result.value)

    def test_applicability_gating(self):
        graph_only = BoundProblem(s=8, graph=diamond())
        assert not get_bound_engine("kkt").applicable(graph_only)
        assert get_bound_engine("visit").applicable(graph_only)


class TestCombine:
    def test_graph_only_skips_kkt(self):
        combined = evaluate_bounds(s=4, graph=diamond())
        assert set(combined.engine_values()) == {"visit"}

    def test_certified_is_the_max_and_ties_go_to_registration_order(self):
        import sympy as sp

        # visit sits on the diamond's floor of 2; a symbolic bound of 2
        # ties it, and the earlier-registered kkt engine keeps the win
        combined = evaluate_bounds(
            s=4, graph=diamond(), symbolic_bound=sp.Integer(2)
        )
        values = combined.engine_values()
        assert combined.certified == max(values.values())
        assert values["kkt"] == values["visit"] == 2
        assert combined.winning_engine == "kkt"
        higher = evaluate_bounds(
            s=4, graph=diamond(), symbolic_bound=sp.Integer(1)
        )
        assert higher.winning_engine == "visit"

    @pytest.mark.parametrize("s", [0, -1, True, 8.7, "8"])
    def test_s_must_be_an_integer_of_at_least_one(self, s):
        """An S below 1 has no pebbling, so no bound is certified for it
        (visit used to return the gemm floor, 192, at S = 0)."""
        graph = cached_cdag("gemm", {"N": 8}).graph
        with pytest.raises(ValueError, match="integers >= 1"):
            evaluate_bounds(s=s, graph=graph)
        assert evaluate_bounds(s=np.int64(8), graph=graph).s == 8

    def test_engine_selection(self):
        combined = evaluate_bounds(s=4, graph=diamond(), engines=["visit"])
        assert list(combined.engine_values()) == ["visit"]
        assert combined.winning_engine == "visit"

    def test_as_dict_shape(self):
        payload = evaluate_bounds(s=4, graph=diamond()).as_dict()
        assert payload["s"] == 4
        assert {"certified", "winning_engine", "disagreement", "engines"} <= set(
            payload
        )
        for entry in payload["engines"]:
            assert {"engine", "value", "model", "notes"} <= set(entry)


class TestVisitEngine:
    def test_never_below_floor(self):
        g = chain(6)
        result = get_bound_engine("visit").evaluate(BoundProblem(s=3, graph=g))
        assert result.ok
        assert result.value >= io_floor(g)

    def test_sound_against_exact_pebbling_on_a_grid(self):
        g = nx.DiGraph()
        for i in range(3):
            for j in range(3):
                if i + 1 < 3:
                    g.add_edge((i, j), (i + 1, j))
                if j + 1 < 3:
                    g.add_edge((i, j), (i, j + 1))
        for s in (3, 4, 6):
            value = get_bound_engine("visit").evaluate(
                BoundProblem(s=s, graph=g)
            ).value
            assert value <= optimal_pebbling_cost(g, s)

    def test_small_graphs_fall_back_to_the_floor(self):
        g = diamond()
        result = get_bound_engine("visit").evaluate(BoundProblem(s=4, graph=g))
        assert result.ok
        assert result.value == io_floor(g)
        assert any("floor" in note for note in result.notes)

    def test_large_graph_is_finite_and_at_least_the_floor(self):
        cdag = cached_cdag("cholesky", {"N": 8})
        result = get_bound_engine("visit").evaluate(
            BoundProblem(s=8, graph=cdag.graph)
        )
        assert result.ok
        assert math.isfinite(result.value)
        assert result.value >= io_floor(cdag.graph)


def networkx_facts(graph: nx.DiGraph) -> dict:
    """The networkx walk ``graph_facts`` replaced, kept as its oracle."""
    nodes = list(nx.topological_sort(graph))
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    preds = tuple(
        tuple(sorted(index[p] for p in graph.predecessors(node)))
        for node in nodes
    )
    succs = tuple(
        tuple(sorted(index[s] for s in graph.successors(node)))
        for node in nodes
    )
    in_deg = tuple(len(p) for p in preds)
    out_deg = tuple(len(s) for s in succs)
    floor = sum(1 for i in range(n) if in_deg[i] == 0 and out_deg[i] > 0)
    floor += sum(1 for i in range(n) if in_deg[i] > 0 and out_deg[i] == 0)
    return {
        "n_vertices": n,
        "preds": preds,
        "succs": succs,
        "in_deg": in_deg,
        "out_deg": out_deg,
        "floor": floor,
        "computed": tuple(i for i in range(n) if in_deg[i] > 0),
    }


def facts_view(facts) -> dict:
    """``GraphFacts`` in the oracle's shape: tuples of Python ints."""

    def rows(offsets, ids):
        ids, offsets = ids.tolist(), offsets.tolist()
        return tuple(tuple(ids[a:b]) for a, b in zip(offsets, offsets[1:]))

    view = {
        "preds": rows(facts.pred_offsets, facts.pred_ids),
        "succs": rows(facts.succ_offsets, facts.succ_ids),
    }
    for name in ("in_deg", "out_deg", "computed"):
        view[name] = tuple(getattr(facts, name).tolist())
    for name in ("n_vertices", "floor"):
        value = getattr(facts, name)
        assert type(value) is int, name
        view[name] = value
    return view


def networkx_default_order(graph: nx.DiGraph) -> list:
    return [v for v in nx.topological_sort(graph) if graph.in_degree(v) > 0]


#: sha256 prefix of ``repr([(S, value, notes)])`` of the visit engine at
#: S = 8 and 18 on each corpus CDAG at its audit params
VISIT_DIGESTS = {
    "covariance": "abc18e13aef17813",
    "correlation": "8f2f58821abbfe95",
    "gemm": "c2bd1eee1f617b88",
    "2mm": "4ad8b5c52697c8aa",
    "3mm": "d33784d09a6f335f",
    "atax": "7ab724d1fa623e95",
    "bicg": "3e6984850dd38c98",
    "mvt": "3e6984850dd38c98",
    "gemver": "6f049e252a008f04",
    "gesummv": "5fbf1ac8f24aee80",
    "symm": "c40b0fd627f7edfe",
    "syrk": "ef57055e571b78d1",
    "syr2k": "c2bd1eee1f617b88",
    "trmm": "220684206d483118",
    "doitgen": "52fa5f4c03af37c0",
    "deriche": "f53fc1ddfc5174e3",
    "floyd-warshall": "c15f5482ede8758a",
    "nussinov": "808dbad5582434f8",
    "cholesky": "9bc213c6ed445fa6",
    "lu": "72cc13dd8a350109",
    "ludcmp": "8a1af999f2e0be70",
    "trisolv": "8bb9a115c8af7a8a",
    "durbin": "8857efaf129cd880",
    "gramschmidt": "d0986be23cf02d2b",
    "jacobi1d": "d15215164c550e16",
    "jacobi2d": "01da9ef6e8ea264b",
    "heat3d": "cc5b3612161343d2",
    "seidel2d": "b5b75f5f544916f5",
    "fdtd2d": "d92d3ad0ae2e7117",
    "adi": "770da1fb12625ce1",
    "conv": "9cf68823406f8483",
    "conv-unit-stride": "18d1dda4637c7063",
    "softmax": "ba79c4e187df2362",
    "mlp": "84ac995fa0ae1ff9",
    "lenet5": "a68896b8a1782e30",
    "bert-encoder": "3febcbf0060f3c66",
    "bert-ffn": "8221ad9a5d4d062a",
    "lulesh": "9a242cda3ec2bea7",
    "horizontal-diffusion": "93098d3f21f90b1d",
    "vertical-advection": "7bd469ced1355394",
}


@pytest.fixture(scope="module", params=kernel_names())
def corpus_cdag(request):
    """Each corpus CDAG at its audit params, built once for every test."""
    program = get_kernel(request.param).build()
    return request.param, build_cdag(program, audit_params(request.param, program))


class TestCorpusFacts:
    def test_facts_and_default_order_match_networkx(self, corpus_cdag):
        _, cdag = corpus_cdag
        assert facts_view(graph_facts(cdag.graph)) == networkx_facts(cdag.graph)
        assert default_order(cdag.graph) == networkx_default_order(cdag.graph)

    def test_visit_bounds_are_pinned(self, corpus_cdag):
        name, cdag = corpus_cdag
        visit = get_bound_engine("visit")
        text = repr([
            (s, result.value, result.notes)
            for s in (8, 18)
            for result in [visit.evaluate(BoundProblem(s=s, graph=cdag.graph))]
        ])
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert digest == VISIT_DIGESTS[name]


@st.composite
def insertion_ordered_dags(draw):
    """A random DAG, its node order and its edges in insertion order.

    Nodes are added in shuffled order, edges in shuffled order (so not
    grouped by child), and some vertices have no edges at all.
    """
    n = draw(st.integers(1, 25))
    rank = draw(st.permutations(range(n)))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60)
    )
    edges = list(
        dict.fromkeys(
            (u, v) if rank[u] < rank[v] else (v, u) for u, v in pairs if u != v
        )
    )
    edges = draw(st.permutations(edges))
    isolated = [("isolated", k) for k in range(draw(st.integers(0, 3)))]
    nodes = draw(st.permutations(list(range(n)) + isolated))
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return graph, nodes, edges


@given(dag=insertion_ordered_dags())
@settings(max_examples=150, deadline=None)
def test_index_facts_and_default_order_match_networkx_on_random_dags(dag):
    graph, nodes, edges = dag
    index = graph_index(graph)
    labels = index.labels
    assert [labels[i] for i in index.topo_order.tolist()] == list(
        nx.topological_sort(graph)
    )
    for v, vertex in enumerate(labels):
        parents = index.parent_ids[index.parent_offsets[v]:index.parent_offsets[v + 1]]
        children = index.child_ids[index.child_offsets[v]:index.child_offsets[v + 1]]
        assert [labels[i] for i in parents] == list(graph.predecessors(vertex))
        assert [labels[i] for i in children] == list(graph.successors(vertex))
    # the build's path: the same graph indexed from its insertion lists
    twin = nx.DiGraph()
    twin.add_nodes_from(nodes)
    twin.add_edges_from(edges)
    position = {vertex: i for i, vertex in enumerate(nodes)}
    built = index_built_graph(
        twin,
        nodes,
        np.array([position[u] for u, _ in edges], dtype=np.int64),
        np.array([position[v] for _, v in edges], dtype=np.int64),
    )
    assert built is graph_index(twin)
    for name in (
        "parent_offsets", "parent_ids", "child_offsets", "child_ids",
        "in_degree", "out_degree", "topo_order",
    ):
        assert np.array_equal(getattr(built, name), getattr(index, name)), name
    assert facts_view(graph_facts(graph)) == networkx_facts(graph)
    assert default_order(graph) == networkx_default_order(graph)


class TestCyclicGraphs:
    """A graph with a cycle has no topological order: every reader of the
    index raises the typed :class:`PebblingError`, never networkx's."""

    @pytest.fixture
    def cyclic(self):
        return nx.DiGraph([("x", "a"), ("a", "b"), ("b", "c"), ("c", "a")])

    def test_orders_streams_and_facts_raise_pebbling_error(self, cyclic):
        for read in (default_order, stream_from_graph, graph_facts):
            with pytest.raises(PebblingError, match="cycle"):
                read(cyclic)

    def test_graph_engines_record_a_typed_error(self, cyclic):
        combined = evaluate_bounds(s=4, graph=cyclic)
        assert {r.engine: r.error_class for r in combined.results} == {
            "visit": "PebblingError",
        }


class TestKernelBounds:
    def test_gemm_sweep(self):
        kb = kernel_bounds("gemm", s_values=(8, 18))
        assert kb.kernel == "gemm"
        assert kb.s_values == (8, 18)
        assert len(kb.points) == 2
        for point in kb.points:
            values = [r.value for r in point.results if r.ok]
            assert point.certified == max(values)
        assert kb.winning_engine in available_bound_engines()
        assert 0.0 <= kb.max_disagreement <= 1.0

    def test_report_payload(self):
        from repro.reporting.serialize import bounds_report

        payload = bounds_report(kernel_bounds("gemm", s_values=(8,)))
        assert payload["report"] == "bounds"
        assert payload["kernel"] == "gemm"
        assert payload["points"][0]["s"] == 8
        json.dumps(payload)  # fully serializable

    def test_too_large_instance_is_an_error(self):
        with pytest.raises(ValueError, match="instance too large"):
            kernel_bounds("gemm", s_values=(8,), max_vertices=1)

    @pytest.mark.parametrize("s", [0, -3, True, 8.7, "8"])
    def test_fast_memory_sizes_are_integers_of_at_least_one(self, s):
        with pytest.raises(ValueError, match="fast-memory sizes"):
            kernel_bounds("gemm", s_values=(8, s))

    @pytest.mark.parametrize("value", [4.5, True, "4"])
    def test_parameter_values_are_integers(self, value):
        with pytest.raises(ValueError, match="parameter values"):
            kernel_bounds("gemm", params={"N": value}, s_values=(8,))


class TestCdagCache:
    def test_shared_instance_and_signature(self):
        clear_cdag_cache()
        first = cached_cdag("gemm", {"N": 4})
        assert cached_cdag("gemm", {"N": 4}) is first
        assert cdag_signature("gemm", {"N": 4}) == cdag_signature(
            "gemm", {"N": True and 4}
        )
        clear_cdag_cache()
        assert cached_cdag("gemm", {"N": 4}) is not first


@st.composite
def small_dags(draw):
    """Random DAGs on <= 7 vertices (edges only ever point forward)."""
    n = draw(st.integers(min_value=2, max_value=7))
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    for j in range(1, n):
        for i in range(j):
            if draw(st.booleans()):
                g.add_edge(i, j)
    return g


class TestDifferentialSoundness:
    """Satellite guarantee: no registered engine ever exceeds the exact
    optimal pebbling cost, nor the simulated replay I/O, on any graph."""

    @given(small_dags(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_engines_below_exact_and_replay(self, graph, s_extra):
        max_in = max((graph.in_degree(v) for v in graph.nodes), default=0)
        s = max_in + 2 + s_extra
        combined = evaluate_bounds(s=s, graph=graph)
        computed = [v for v in graph.nodes if graph.in_degree(v) > 0]
        replay = (
            simulate_io(stream_from_graph(graph), s).cost if computed else 0
        )
        try:
            exact = optimal_pebbling_cost(graph, s)
        except PebblingError:
            exact = None
        for result in combined.results:
            assert result.ok, result.error
            assert result.value <= replay, (
                f"{result.engine} claims {result.value} > replay {replay} "
                f"at S={s} on edges {sorted(graph.edges)}"
            )
            if exact is not None:
                assert result.value <= exact, (
                    f"{result.engine} claims {result.value} > exact {exact} "
                    f"at S={s} on edges {sorted(graph.edges)}"
                )


class TestTightnessIntegration:
    def test_rows_carry_engine_bounds_and_winner(self):
        from repro.schedule.tightness import audit_kernel

        (row,) = audit_kernel("gemm", s_values=(18,))
        assert row.ok
        assert set(row.engine_bounds) == {"kkt", "visit"}
        assert row.winning_engine in row.engine_bounds
        finite = [v for v in row.engine_bounds.values() if math.isfinite(v)]
        assert row.bound_value == max(finite)

    def test_engine_restriction(self):
        from repro.schedule.tightness import audit_kernel

        (row,) = audit_kernel("gemm", s_values=(18,), bounds_engines=("kkt",))
        assert set(row.engine_bounds) == {"kkt"}
        assert row.winning_engine == "kkt"

    def test_unknown_engine_rejected_up_front(self):
        from repro.schedule.tightness import audit_kernel

        with pytest.raises(KeyError, match="unknown bound engine"):
            audit_kernel("gemm", s_values=(18,), bounds_engines=("bogus",))

    @pytest.mark.parametrize("s", [0, -3, True, 8.7, "8"])
    def test_audit_refuses_bad_fast_memory_sizes(self, s):
        from repro.schedule.tightness import audit_corpus, audit_kernel

        with pytest.raises(ValueError, match="fast-memory sizes"):
            audit_corpus(["gemm"], s_values=(s,))
        with pytest.raises(ValueError, match="fast-memory sizes"):
            audit_kernel("gemm", s_values=(s,))

    @pytest.mark.parametrize("params", [{"N": 4.5}, {"N": True}, {"T": "4"}])
    def test_audit_refuses_non_integer_params(self, params):
        from repro.schedule.tightness import audit_corpus

        # a bad value is refused even for a name the kernel does not use
        with pytest.raises(ValueError, match="parameter values"):
            audit_corpus(["gemm"], params=params)
        with pytest.raises(ValueError, match="parameter values"):
            audit_corpus(["gemm"], params_overrides={"gemm": params})

    def test_small_positive_s_is_still_clamped(self):
        from repro.schedule.tightness import audit_kernel

        (row,) = audit_kernel("gemm", params={"N": 4}, s_values=(1,))
        assert row.ok
        assert (row.s_requested, row.s) == (1, 5)
        assert "S clamped to 5 (max in-degree 3)" in row.notes


class TestCli:
    def test_bounds_json(self, capsys):
        assert main(["bounds", "gemm", "--s", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"] == "bounds"
        point = payload["points"][0]
        engines = {entry["engine"] for entry in point["engines"]}
        assert engines == {"kkt", "visit"}

    def test_bounds_text_marks_the_winner(self, capsys):
        assert main(["bounds", "gemm", "--s", "8"]) == 0
        out = capsys.readouterr().out
        assert "certified" in out
        assert "winner:" in out

    def test_bounds_unknown_engine_is_a_usage_error(self, capsys):
        assert main(["bounds", "gemm", "--engines", "bogus"]) == 2
        assert "unknown bound engine" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bounds", "tightness"])
    @pytest.mark.parametrize("s", ["0", "-3"])
    def test_fast_memory_size_below_one_is_a_usage_error(self, capsys, command, s):
        assert main([command, "gemm", "--s", s]) == 2
        assert "fast-memory sizes must be integers >= 1" in capsys.readouterr().err

    def test_tightness_engine_flag(self, capsys):
        assert main(
            ["tightness", "gemm", "--s", "18", "--bounds-engines", "kkt",
             "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        row = payload["rows"][0]
        assert list(row["engine_bounds"]) == ["kkt"]
        assert row["winning_engine"] == "kkt"


class TestService:
    def test_post_bounds_roundtrip(self):
        from repro.service.client import ServiceClient, ServiceError
        from repro.service.core import ServiceConfig
        from repro.service.http import ServiceThread

        with ServiceThread(ServiceConfig(workers=1)) as daemon:
            client = ServiceClient(port=daemon.port)
            record = client.bounds("gemm", s_values=[8])
            assert record.ok
            payload = record.result
            assert payload["report"] == "bounds"
            assert payload["kernel"] == "gemm"
            point = payload["points"][0]
            values = [
                entry["value"] for entry in point["engines"]
                if entry["error"] is None
            ]
            assert point["certified"] == max(values)
            # an identical repeat is served from the report cache,
            # bit-identical
            again = client.bounds("gemm", s_values=[8])
            assert again.result["points"] == payload["points"]
            health = client.healthz()
            assert health.bounds["evals"].get("kkt", 0) >= 1
            assert health.bounds["kernels"]["gemm"]["winning_engine"]
            prometheus = client.metrics_prometheus()
            assert 'service_bound_engine_evals_total{engine="kkt"}' in prometheus
            with pytest.raises(ServiceError) as err:
                client.bounds("gemm", engines=["bogus"])
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client.bounds("no-such-kernel")
            assert err.value.status == 404
