"""Concrete CDAG construction, dominator sets, Min sets."""

import networkx as nx
import pytest

from repro.cdag.build import _element_of, build_cdag
from repro.cdag.dominator import min_dominator_size, min_set
from repro.ir.access import AffineIndex, component
from repro.ir.program import Program
from repro.kernels.common import ref, stmt
from repro.frontend.python_frontend import parse_python
from tests.test_sdg_graph import figure2_program


class TestBuild:
    def test_gemm_vertex_count(self):
        gemm = stmt(
            "gemm", {"i": "N", "j": "N", "k": "N"},
            ref("C", "i,j"), ref("C", "i,j"), ref("A", "i,k"), ref("B", "k,j"),
        )
        cdag = build_cdag(Program.make("gemm", [gemm]), {"N": 3})
        # 27 update versions + 9 + 9 input elements.
        assert len(cdag.vertices_of("C")) == 27
        assert len(cdag.inputs) == 18
        assert nx.is_directed_acyclic_graph(cdag.graph)

    def test_figure2_example(self):
        """Paper Figure 2: N=M=2, K=3."""
        cdag = build_cdag(figure2_program(), {"N": 2, "M": 2, "K": 3})
        assert len(cdag.vertices_of("C")) == 4  # N*M
        assert len(cdag.vertices_of("E")) == 12  # N*K*M accumulation versions
        # inputs: A (3 distinct elements), B (3), D (M*K = 6)
        assert len(cdag.inputs) == 12

    def test_versions_chain(self):
        acc = stmt(
            "acc", {"i": "N", "k": "N"},
            ref("s", "i"), ref("s", "i"), ref("A", "i,k"),
        )
        cdag = build_cdag(Program.make("acc", [acc]), {"N": 2})
        versions = cdag.vertices_of("s")
        assert len(versions) == 4  # two accumulations per element
        # each later version depends on the previous one
        chained = [
            (u, v) for u, v in cdag.graph.edges
            if u in versions and v in versions
        ]
        assert len(chained) == 2

    def test_shared_loop_interleaves_statements(self):
        """Ping-pong sweeps in a shared t loop must alternate."""
        b = stmt("sb", {"t": "T", "i": "N"}, ref("B", "i"), ref("A", "i"))
        a = stmt("sa", {"t": "T", "i": "N"}, ref("A", "i"), ref("B", "i"))
        cdag = build_cdag(Program.make("pp", [b, a]), {"T": 2, "N": 2})
        # B at t=1 must read A written at t=0 (not the input).
        b_versions = sorted(cdag.vertices_of("B"))
        later = [v for v in b_versions if v[3] == 1]  # version 1 of B elements
        for v in later:
            parents = list(cdag.graph.predecessors(v))
            assert all(p[0] == "v" for p in parents)

    def test_guard_restricts_domain(self):
        program = parse_python(
            "for k in range(N):\n"
            "    for i in range(k + 1, N):\n"
            "        A[i, k] = B[i, k]\n",
            name="tri",
        )
        cdag = build_cdag(program, {"N": 4})
        assert len(cdag.vertices_of("A")) == 6  # strictly-lower triangle

    def test_bad_params_raise(self):
        s = stmt("s", {"i": "N"}, ref("A", "i"), ref("B", "i"))
        from repro.util.errors import SoapError

        with pytest.raises(SoapError):
            build_cdag(Program.make("p", [s]), {})

    @pytest.mark.parametrize(
        "indices",
        [
            (),
            ("i",),
            ("i", "j"),
            (AffineIndex.var("i", 1), "j"),
            (0, "k"),
            (AffineIndex.make({"i": 2, "j": 1}, -1),),
            ("k", AffineIndex.make({"j": -1}, 3), "i"),
        ],
    )
    def test_element_evaluator_matches_affine_evaluate(self, indices):
        comp = component(*indices)
        point = {"i": 3, "j": 5, "k": 2}
        assert _element_of(comp)(point) == tuple(idx.evaluate(point) for idx in comp)


class TestDominator:
    def test_chain_dominator_is_one(self):
        g = nx.DiGraph([(0, 1), (1, 2), (2, 3)])
        assert min_dominator_size(g, [3]) == 1

    def test_diamond(self):
        g = nx.DiGraph([(0, 1), (0, 2), (1, 3), (2, 3)])
        assert min_dominator_size(g, [3]) == 1  # the input 0 cuts everything

    def test_two_independent_paths(self):
        g = nx.DiGraph([(0, 2), (1, 3)])
        assert min_dominator_size(g, [2, 3]) == 2

    def test_empty_targets(self):
        g = nx.DiGraph([(0, 1)])
        assert min_dominator_size(g, []) == 0

    def test_gemm_tile_dominator(self):
        """A full MMM CDAG needs all 2N^2 inputs to compute everything."""
        gemm = stmt(
            "gemm", {"i": "N", "j": "N", "k": "N"},
            ref("C", "i,j"), ref("C", "i,j"), ref("A", "i,k"), ref("B", "k,j"),
        )
        cdag = build_cdag(Program.make("gemm", [gemm]), {"N": 2})
        size = min_dominator_size(cdag.graph, cdag.vertices_of("C"))
        assert size == 8  # |A| + |B| = 2 * N^2

    def test_min_set(self):
        g = nx.DiGraph([(0, 1), (1, 2)])
        assert min_set(g, {0, 1}) == {1}
        assert min_set(g, {0, 2}) == {0, 2}
