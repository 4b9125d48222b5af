"""Subgraph-statement fusion tests (Definition 6 mechanics)."""

import sympy as sp

from repro.kernels import get_kernel, kernel_names
from repro.kernels.common import ref, stmt
from repro.ir.program import Program
from repro.sdg.graph import SDG
from repro.sdg.merge import fuse_statements
from repro.sdg.subgraphs import enumerate_subgraphs
from repro.symbolic.symbols import is_version_var, tile
from repro.util.errors import SolverError
from tests.posynomial import posynomials_of

bi, bj, bt = tile("i"), tile("j"), tile("t")


def _atax() -> Program:
    first = stmt(
        "Ax",
        {"i": "M", "j": "N"},
        ref("tmp", "i"),
        ref("tmp", "i"),
        ref("A", "i,j"),
        ref("x", "j"),
    )
    second = stmt(
        "Aty",
        {"i": "M", "j": "N"},
        ref("y", "j"),
        ref("y", "j"),
        ref("A", "i,j"),
        ref("tmp", "i"),
    )
    return Program.make("atax", [first, second])


def _jacobi() -> Program:
    b = stmt(
        "sweepB",
        {"t": "T", "i": "N"},
        ref("B", "i"),
        ref("A", "i-1", "i", "i+1"),
    )
    a = stmt(
        "sweepA",
        {"t": "T", "i": "N"},
        ref("A", "i"),
        ref("B", "i-1", "i", "i+1"),
    )
    return Program.make("jacobi", [b, a])


class TestAtaxFusion:
    def test_objective_counts_both_statements(self):
        fused = fuse_statements(_atax(), ("tmp", "y"))
        # Both statements share (i, j) after unification: 2 * b_i * b_j.
        assert sp.simplify(posynomials_of(fused.problem)[0].expr - 2 * bi * bj) == 0

    def test_shared_matrix_counted_once(self):
        fused = fuse_statements(_atax(), ("tmp", "y"))
        a_terms = [
            t for t in posynomials_of(fused.problem)[1].terms
            if t.exponent(bi) == 1 and t.exponent(bj) == 1
        ]
        assert len(a_terms) == 1 and sp.simplify(a_terms[0].coeff - 1) == 0

    def test_inputs_exclude_internal_arrays(self):
        fused = fuse_statements(_atax(), ("tmp", "y"))
        assert set(fused.input_arrays) == {"A", "x"}

    def test_singleton_subgraph(self):
        fused = fuse_statements(_atax(), ("tmp",))
        assert set(fused.input_arrays) == {"A", "x"}
        assert sp.simplify(posynomials_of(fused.problem)[0].expr - bi * bj) == 0


class TestJacobiFusion:
    def test_fused_variables_unified(self):
        fused = fuse_statements(_jacobi(), ("B", "A"))
        assert set(fused.variables) == {"t", "i"}

    def test_objective(self):
        fused = fuse_statements(_jacobi(), ("B", "A"))
        assert sp.simplify(posynomials_of(fused.problem)[0].expr - 2 * bi * bt) == 0

    def test_surface_constraint(self):
        """A contributes b_i + 2 b_t (bottom edge + side columns), B only
        2 b_t (its consumer runs after its producer in the same sweep);
        constants are below leading order and dropped."""
        fused = fuse_statements(_jacobi(), ("B", "A"))
        expr = sp.expand(posynomials_of(fused.problem)[1].expr)
        assert sp.simplify(expr - (bi + 4 * bt)) == 0

    def test_no_external_inputs(self):
        fused = fuse_statements(_jacobi(), ("B", "A"))
        assert fused.input_arrays == ()


class Test2mmFusion:
    def test_positional_unification_through_intermediate(self):
        first = stmt(
            "mm1",
            {"i": "N", "j": "N", "k": "N"},
            ref("tmp", "i,j"),
            ref("tmp", "i,j"),
            ref("A", "i,k"),
            ref("B", "k,j"),
        )
        second = stmt(
            "mm2",
            {"i2": "N", "l": "N", "m": "N"},
            ref("D", "i2,l"),
            ref("D", "i2,l"),
            ref("tmp", "i2,m"),
            ref("C", "m,l"),
        )
        program = Program.make("2mm", [first, second])
        fused = fuse_statements(program, ("tmp", "D"))
        # St2's (i2, m) unify with St1's (i, j); l stays fresh.
        assert set(fused.variables) == {"i", "j", "k", "l"}
        bl, bk = tile("l"), tile("k")
        assert sp.simplify(
            posynomials_of(fused.problem)[0].expr - (bi * bj * bk + bi * bj * bl)
        ) == 0

    def test_intermediate_surface_is_its_footprint(self):
        first = stmt(
            "mm1",
            {"i": "N", "j": "N", "k": "N"},
            ref("tmp", "i,j"),
            ref("tmp", "i,j"),
            ref("A", "i,k"),
            ref("B", "k,j"),
        )
        second = stmt(
            "mm2",
            {"i2": "N", "l": "N", "m": "N"},
            ref("D", "i2,l"),
            ref("D", "i2,l"),
            ref("tmp", "i2,m"),
            ref("C", "m,l"),
        )
        program = Program.make("2mm", [first, second])
        fused = fuse_statements(program, ("tmp", "D"))
        tmp_terms = [
            t
            for t in posynomials_of(fused.problem)[1].terms
            if t.exponent(bi) == 1 and t.exponent(bj) == 1 and t.degree == 2
        ]
        # tmp's Corollary-1 term b_i*b_j appears exactly once.
        assert len(tmp_terms) == 1


def test_no_corpus_constraint_holds_a_version_tile():
    """Access sizes replace a version dimension by its loop tiles, so every
    fused constraint of the corpus is over real loop tiles only."""
    fused_count = 0
    for name in kernel_names():
        spec = get_kernel(name)
        program = spec.build()
        sharing = SDG.from_program(program).sharing_graph()
        for subset in enumerate_subgraphs(sharing, max_size=spec.max_subgraph_size):
            try:
                fused = fuse_statements(program, subset, policy=spec.policy)
            except SolverError:
                continue
            fused_count += 1
            problem = fused.problem
            tiles = {name for t in problem.constraint for name, _ in problem.powers(t)}
            assert not any(is_version_var(v) for v in tiles), (name, subset)
            assert not any(is_version_var(v) for v in fused.problem.variables)
    assert fused_count == 357
