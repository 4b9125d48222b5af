"""Materialize a concrete CDAG from an IR program.

Vertices are data versions: every statement execution produces a fresh
vertex for the element it writes; reads connect to the *latest* version of
the element at that point of the execution, or to an input vertex when the
element was never written.

Execution semantics: loop variables sharing a *name* across statements
denote a common (outer) loop -- e.g. the ``t`` loop enclosing both sweeps of
a ping-pong stencil -- so execution iterates shared variables outermost and,
for each combination, runs the statements in program order over their
private variables (lexicographically, in declared order).  This matches the
loop structure of every kernel in the suite and of the paper's examples.

Statement ``guard`` expressions restrict non-rectangular nests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterator, Mapping

import networkx as nx
import numpy as np
import sympy as sp

from repro.cdag.index import index_built_graph
from repro.ir.access import AccessComponent
from repro.ir.program import Program
from repro.ir.statement import Statement
from repro.util import unique_in_order
from repro.util.errors import SoapError

#: Vertex naming: inputs are ("in", array, element); computed vertices are
#: ("v", array, element, version_counter).
Vertex = tuple


@dataclass
class ConcreteCDAG:
    """A materialized CDAG plus bookkeeping for validation."""

    graph: nx.DiGraph
    inputs: tuple[Vertex, ...]
    outputs: tuple[Vertex, ...]
    #: vertices grouped by array name (computed vertices only)
    by_array: dict[str, tuple[Vertex, ...]]
    #: computed vertex -> (statement name, iteration point)
    points: dict[Vertex, tuple[str, dict[str, int]]] = field(default_factory=dict)

    @property
    def n_vertices(self) -> int:
        return self.graph.number_of_nodes()

    def vertices_of(self, array: str) -> tuple[Vertex, ...]:
        return self.by_array.get(array, ())

    def point_of(self, vertex: Vertex) -> dict[str, int] | None:
        """Iteration point of a computed vertex (``None`` for inputs).

        This is the generic point mapping for blocked-schedule construction
        (:func:`repro.pebbling.greedy.tiled_order` and
        :mod:`repro.schedule`): no per-kernel hand-coding needed.
        """
        entry = self.points.get(vertex)
        return entry[1] if entry is not None else None

    def statement_of(self, vertex: Vertex) -> str | None:
        """Name of the statement that computed ``vertex`` (``None`` for inputs)."""
        entry = self.points.get(vertex)
        return entry[0] if entry is not None else None


def extent_values(statement: Statement, params: Mapping[str, int]) -> dict[str, int]:
    """Concrete loop extents of one statement under ``params``.

    The single place extents are evaluated: the CDAG builder, the schedule
    deriver, and the IR-direct stream generator all agree on loop bounds by
    construction.  Raises :class:`SoapError` when an extent does not resolve
    to a non-negative integer.
    """
    values: dict[str, int] = {}
    for var, extent in statement.domain.extents:
        concrete = sp.sympify(extent).subs(
            {sp.Symbol(k, positive=True): v for k, v in params.items()}
        )
        if not concrete.is_Integer or int(concrete) < 0:
            raise SoapError(
                f"extent of {var!r} does not evaluate to a non-negative "
                f"integer under {dict(params)}: {concrete}"
            )
        values[var] = int(concrete)
    return values


def _iteration_points(
    statement: Statement,
    fixed: Mapping[str, int],
    extents: Mapping[str, int],
    params: Mapping[str, int],
) -> Iterator[dict[str, int]]:
    free = [v for v in statement.iteration_vars if v not in fixed]
    ranges = [range(extents[v]) for v in free]
    guard = compile(statement.guard, "<guard>", "eval") if statement.guard else None
    for combo in itertools.product(*ranges):
        point = dict(fixed)
        point.update(zip(free, combo))
        if guard is not None:
            scope = dict(params)
            scope.update(point)
            if not eval(guard, {}, scope):  # noqa: S307 - trusted IR guards
                continue
        yield point


def _element_of(comp: AccessComponent) -> Callable[[Mapping[str, int]], tuple]:
    """Evaluator of one access component at an iteration point.

    Plain-variable components (``A[i, j]``), most of the corpus's reads,
    become one ``itemgetter``; the rest evaluate index by index.
    """
    if comp and all(idx.is_single_var and idx.offset == 0 for idx in comp):
        getter = itemgetter(*(idx.single_var for idx in comp))
        if len(comp) == 1:
            return lambda point: (getter(point),)
        return getter
    return lambda point: tuple(idx.evaluate(point) for idx in comp)


def build_cdag(program: Program, params: Mapping[str, int]) -> ConcreteCDAG:
    """Materialize ``program`` for concrete ``params`` (e.g. ``{"N": 4}``).

    The result keeps the (statement, iteration point) of every computed
    vertex, enabling generic blocked-schedule derivation.
    """
    # Vertices in creation order and edges (as positions in ``nodes``) in
    # insertion order; the graph is built from both at the end, so its node,
    # predecessor and successor orders are those of the execution, and its
    # index comes from the same lists.
    nodes: list[Vertex] = []
    edge_parents: list[int] = []
    edge_children: list[int] = []
    # element -> position of its latest version, or of its input vertex
    latest: dict[tuple[str, tuple[int, ...]], int] = {}
    version_counter: dict[tuple[str, tuple[int, ...]], int] = {}
    by_array: dict[str, list[Vertex]] = {}
    input_ids: list[int] = []
    points: dict[Vertex, tuple[str, dict[str, int]]] = {}

    computed_arrays = set(program.computed_arrays())
    extents_per_stmt = {
        st.name: extent_values(st, params) for st in program.statements
    }

    # Shared loop variables (same name in several statements) iterate
    # outermost, in first-appearance order.
    counts: dict[str, int] = {}
    for st in program.statements:
        for var in st.iteration_vars:
            counts[var] = counts.get(var, 0) + 1
    shared = unique_in_order(
        v
        for st in program.statements
        for v in st.iteration_vars
        if counts[v] > 1
    )
    shared_extents: dict[str, int] = {}
    for var in shared:
        for st in program.statements:
            if st.domain.has_variable(var):
                shared_extents[var] = extents_per_stmt[st.name][var]
                break

    # Per statement: its reads in edge order as (array, element evaluator,
    # array is computed), and the evaluator of the written element.
    plans = {
        st.name: (
            [
                (access.array, _element_of(comp), access.array in computed_arrays)
                for access in st.inputs
                for comp in access.components
            ],
            _element_of(st.output.components[0]),
        )
        for st in program.statements
    }

    def run_statement(st: Statement, fixed: Mapping[str, int]) -> None:
        reads, written = plans[st.name]
        out_array = st.output.array
        for point in _iteration_points(st, fixed, extents_per_stmt[st.name], params):
            parents: dict[int, None] = {}
            for array, element_of, computed in reads:
                element = element_of(point)
                parent = latest.get((array, element))
                if parent is None:
                    if computed:
                        continue  # read before first write: initial value
                    # input arrays are never written, so their entries in
                    # ``latest`` stay the input vertices
                    parent = latest[array, element] = len(nodes)
                    input_ids.append(parent)
                    nodes.append(("in", array, element))
                parents[parent] = None
            key = (out_array, written(point))
            version = version_counter.get(key, 0)
            version_counter[key] = version + 1
            vertex = ("v", out_array, key[1], version)
            latest[key] = len(nodes)
            edge_parents.extend(parents)
            edge_children.extend([len(nodes)] * len(parents))
            nodes.append(vertex)
            by_array.setdefault(out_array, []).append(vertex)
            points[vertex] = (st.name, point)

    def run_shared(index: int, fixed: dict[str, int]) -> None:
        if index == len(shared):
            for st in program.statements:
                relevant = {
                    v: val for v, val in fixed.items() if st.domain.has_variable(v)
                }
                run_statement(st, relevant)
            return
        var = shared[index]
        for value in range(shared_extents[var]):
            fixed[var] = value
            run_shared(index + 1, fixed)
        del fixed[var]

    run_shared(0, {})

    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(
        zip(
            map(nodes.__getitem__, edge_parents),
            map(nodes.__getitem__, edge_children),
        )
    )
    index = index_built_graph(
        graph,
        nodes,
        np.array(edge_parents, dtype=np.int64),
        np.array(edge_children, dtype=np.int64),
    )
    return ConcreteCDAG(
        graph=graph,
        inputs=tuple(nodes[i] for i in input_ids),
        outputs=tuple(
            nodes[i] for i in np.flatnonzero(index.out_degree == 0).tolist()
        ),
        by_array={a: tuple(vs) for a, vs in by_array.items()},
        points=points,
    )
