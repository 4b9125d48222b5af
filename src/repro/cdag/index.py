"""Integer index of a concrete CDAG, built once per graph.

The :class:`GraphIndex` numbers the vertices ``0 .. n-1`` in ``graph.nodes``
order and keeps the predecessor and successor lists as CSR arrays (in
``graph.predecessors`` and ``graph.successors`` order; the first fixes
stream ids and eviction tie-breaks).  It also holds the topological order
``networkx.topological_sort`` yields.  The default
and blocked orders (:func:`repro.pebbling.greedy.default_order`,
:func:`repro.schedule.derive.blocked_order`), the graph-stream builder
(:func:`repro.schedule.stream.stream_from_graph`) and the bound engines'
:func:`repro.bounds.structure.graph_facts` are array operations over it, so
nothing on the audit path walks the ``networkx.DiGraph`` vertex by vertex.

:func:`repro.cdag.build.build_cdag` indexes its graph from the vertex and
edge lists it built the graph from (:func:`index_built_graph`); any other
graph is indexed from ``graph.pred`` and ``graph.succ`` on first use.  The
index lives in a :class:`weakref.WeakKeyDictionary` keyed by the graph
object, so every consumer of one CDAG shares it and it dies with the graph.
Its own numbering is ``graph.nodes`` order.  ``GraphFacts`` numbers
vertices by :attr:`GraphIndex.topo_order` instead, so that parents come
before children; the facts are memoized on the index.
"""

from __future__ import annotations

import heapq
import threading
import weakref
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import networkx as nx
import numpy as np

from repro.util.errors import PebblingError


@dataclass(eq=False)
class GraphIndex:
    """One CDAG's vertices as integers, in ``graph.nodes`` order."""

    labels: list  #: vertex label per index
    position: dict  #: vertex label -> index
    #: ``parent_ids[parent_offsets[v]:parent_offsets[v + 1]]`` are the
    #: predecessors of ``v`` in ``graph.predecessors`` order
    parent_offsets: np.ndarray
    parent_ids: np.ndarray
    #: ``child_ids[child_offsets[v]:child_offsets[v + 1]]`` are the
    #: successors of ``v`` in ``graph.successors`` order
    child_offsets: np.ndarray
    child_ids: np.ndarray
    in_degree: np.ndarray
    out_degree: np.ndarray
    #: every vertex in ``networkx.topological_sort`` order: Kahn's algorithm
    #: by generations, in-degree-0 vertices in ``graph.nodes`` order first
    topo_order: np.ndarray
    #: :func:`repro.bounds.structure.graph_facts` memo
    facts: object = field(default=None, repr=False)
    #: ``(points, statement_rank, columns)`` -- see :meth:`point_columns`
    _points: tuple | None = field(default=None, repr=False)

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def max_in_degree(self) -> int:
        return int(self.in_degree.max(initial=0))

    def computed_order(self) -> np.ndarray:
        """The in-degree > 0 vertices in :attr:`topo_order` -- the default
        schedule.  In-degree-0 vertices form generation 0, so they lead."""
        return self.topo_order[np.count_nonzero(self.in_degree == 0):]

    def _child_of_slots(self) -> np.ndarray:
        """The vertex owning each entry of :attr:`parent_ids`."""
        return np.repeat(
            np.arange(self.n_vertices, dtype=np.int64), self.in_degree
        )

    def point_columns(
        self,
        points: Mapping[Hashable, tuple[str, Mapping[str, int]]],
        variables: Sequence[str],
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """``(statement_rank, columns)`` per vertex from a CDAG's ``points``.

        ``statement_rank`` numbers statements by first appearance in
        ``points``; ``columns[k]`` holds each vertex's value of
        ``variables[k]``.  Vertices without a point, and points lacking a
        variable, read 0 -- the conventions of
        :func:`repro.pebbling.greedy.tiled_order`.  The per-vertex walk over
        ``points`` runs once per ``points`` mapping.
        """
        table = self._points
        if table is None or table[0] is not points:
            table = self._points = (points, *self._point_table(points))
        _, ranks, columns = table
        zero = np.zeros(self.n_vertices, dtype=np.int64)
        return ranks, [columns.get(var, zero) for var in variables]

    def _point_table(self, points) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        n = self.n_vertices
        at = np.fromiter(
            map(self.position.__getitem__, points), dtype=np.int64, count=len(points)
        )
        # statement -> (entries of ``points``, their points)
        by_statement: dict[str, tuple[list[int], list]] = {}
        for k, (statement, point) in enumerate(points.values()):
            entries, coords = by_statement.setdefault(statement, ([], []))
            entries.append(k)
            coords.append(point)
        ranks = np.zeros(n, dtype=np.int64)
        columns: dict[str, np.ndarray] = {}
        for rank, (entries, coords) in enumerate(by_statement.values()):
            where = at[entries]
            ranks[where] = rank
            for var in set().union(*coords):
                if var not in columns:
                    columns[var] = np.zeros(n, dtype=np.int64)
                columns[var][where] = [point.get(var, 0) for point in coords]
        return ranks, columns

    def schedule_positions(self, order: Sequence[Hashable]) -> np.ndarray:
        """Indices of ``order``'s vertices, checked to form a legal schedule
        (:meth:`checked_schedule`)."""
        try:
            vertices = np.fromiter(
                map(self.position.__getitem__, order),
                dtype=np.int64,
                count=len(order),
            )
        except KeyError:
            raise PebblingError(
                "order must cover every computed vertex exactly once"
            ) from None
        return self.checked_schedule(vertices)

    def checked_schedule(self, vertices: np.ndarray) -> np.ndarray:
        """``vertices`` (indices into this index), checked to form a legal
        schedule.

        A legal schedule computes every in-degree > 0 vertex exactly once
        and each computed parent before its child.  Anything else raises
        :class:`PebblingError` with the pebble game's messages.
        """
        if len(vertices) and (
            int(vertices.min()) < 0 or int(vertices.max()) >= self.n_vertices
        ):
            raise PebblingError(
                "order must cover every computed vertex exactly once"
            )
        computed = self.in_degree > 0
        covered = np.zeros(self.n_vertices, dtype=bool)
        covered[vertices] = True
        if (
            len(vertices) != int(computed.sum())
            or not computed[vertices].all()
            or int(covered.sum()) != len(vertices)
        ):
            raise PebblingError(
                "order must cover every computed vertex exactly once"
            )
        step = np.full(self.n_vertices, -1, dtype=np.int64)
        step[vertices] = np.arange(len(vertices), dtype=np.int64)
        parent_step = step[self.parent_ids]
        if (parent_step > step[self._child_of_slots()]).any():
            raise PebblingError("order is not topological")
        return vertices

    def min_rank_order(self, preferred: np.ndarray) -> np.ndarray:
        """Topological order of the computed vertices closest to ``preferred``.

        ``preferred`` lists every computed vertex once.  At each step the
        ready vertex (all computed parents emitted) that comes earliest in
        ``preferred`` is emitted -- the heap-driven Kahn pass of
        :func:`repro.pebbling.greedy.tiled_order`, over int arrays.  An
        already topological ``preferred`` is returned as is.
        """
        m = len(preferred)
        rank = np.full(self.n_vertices, -1, dtype=np.int64)
        rank[preferred] = np.arange(m, dtype=np.int64)
        parent_rank = rank[self.parent_ids]
        computed_parent = parent_rank >= 0
        parent_rank = parent_rank[computed_parent]
        child_rank = rank[self._child_of_slots()[computed_parent]]
        if (parent_rank < child_rank).all():
            return preferred
        by_parent = np.argsort(parent_rank, kind="stable")
        successors = child_rank[by_parent].tolist()
        offsets = np.searchsorted(
            parent_rank[by_parent], np.arange(m + 1, dtype=np.int64)
        ).tolist()
        pending = np.bincount(child_rank, minlength=m).tolist()
        ready = [r for r in range(m) if not pending[r]]  # sorted: a heap
        emitted: list[int] = []
        while ready:
            r = heapq.heappop(ready)
            emitted.append(r)
            for child in successors[offsets[r]:offsets[r + 1]]:
                pending[child] -= 1
                if not pending[child]:
                    heapq.heappush(ready, child)
        if len(emitted) != m:
            raise PebblingError("cycle detected while building tiled order")
        return preferred[np.asarray(emitted, dtype=np.int64)]


_INDEX: "weakref.WeakKeyDictionary[nx.DiGraph, GraphIndex]" = (
    weakref.WeakKeyDictionary()
)
_LOCK = threading.Lock()


def graph_index(graph: nx.DiGraph) -> GraphIndex:
    """The :class:`GraphIndex` of ``graph``, built once per graph object.

    A graph :func:`index_built_graph` did not index is read through
    ``graph.pred`` and ``graph.succ``.  A cyclic graph has no topological
    order and raises :class:`PebblingError`.
    """
    with _LOCK:
        index = _INDEX.get(graph)
    if index is not None:
        return index
    labels = list(graph.nodes)
    position = {vertex: i for i, vertex in enumerate(labels)}
    parent_ids, in_degree = _adjacency(graph.pred, labels, position)
    child_ids, out_degree = _adjacency(graph.succ, labels, position)
    return _register(
        graph, labels, position, parent_ids, in_degree, child_ids, out_degree
    )


def index_built_graph(
    graph: nx.DiGraph,
    labels: list,
    parents: np.ndarray,
    children: np.ndarray,
) -> GraphIndex:
    """Index ``graph`` from the vertex and edge lists it was built from.

    ``labels`` lists the vertices in ``graph.nodes`` order, and edge ``k``
    runs ``parents[k] -> children[k]`` (positions in ``labels``) in the
    order the edges were added.  A vertex's predecessors and successors
    keep that order in the graph, so stable sorts of the edges by child and
    by parent give both CSR arrays without walking the graph.
    """
    n = len(labels)
    by_child = np.argsort(children, kind="stable")
    by_parent = np.argsort(parents, kind="stable")
    return _register(
        graph,
        labels,
        {vertex: i for i, vertex in enumerate(labels)},
        parents[by_child],
        np.bincount(children, minlength=n),
        children[by_parent],
        np.bincount(parents, minlength=n),
    )


def _adjacency(adj, labels: list, position: dict) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, degree)`` of one networkx adjacency (``pred`` or ``succ``)."""
    degree = np.fromiter(
        (len(adj[v]) for v in labels), dtype=np.int64, count=len(labels)
    )
    ids = np.fromiter(
        (position[u] for v in labels for u in adj[v]),
        dtype=np.int64,
        count=int(degree.sum()),
    )
    return ids, degree


def _register(
    graph, labels, position, parent_ids, in_degree, child_ids, out_degree
) -> GraphIndex:
    child_offsets = _offsets(out_degree)
    topo_order = _generations(in_degree, child_offsets, child_ids)
    index = GraphIndex(
        labels=labels,
        position=position,
        parent_offsets=_offsets(in_degree),
        parent_ids=parent_ids,
        child_offsets=child_offsets,
        child_ids=child_ids,
        in_degree=in_degree,
        out_degree=out_degree,
        topo_order=topo_order,
    )
    with _LOCK:
        _INDEX[graph] = index
    return index


def _offsets(degree: np.ndarray) -> np.ndarray:
    offsets = np.zeros(len(degree) + 1, dtype=np.int64)
    np.cumsum(degree, out=offsets[1:])
    return offsets


def _generations(
    in_degree: np.ndarray, child_offsets: np.ndarray, child_ids: np.ndarray
) -> np.ndarray:
    """The topological order by ``networkx.topological_generations``' rule.

    Generation 0 is the in-degree-0 vertices in index order.  Scanning a
    generation in order, and each vertex's children in successor order, a
    child joins the next generation when its last parent is scanned.  The
    concatenated generations are ``networkx.topological_sort``'s order.
    """
    n = len(in_degree)
    pending = in_degree.tolist()
    offsets = child_offsets.tolist()
    children = child_ids.tolist()
    generation = [v for v in range(n) if not pending[v]]
    order: list[int] = []
    while generation:
        order.extend(generation)
        released = []
        for v in generation:
            for child in children[offsets[v]:offsets[v + 1]]:
                pending[child] -= 1
                if not pending[child]:
                    released.append(child)
        generation = released
    if len(order) != n:
        raise PebblingError("cycle detected: the graph has no topological order")
    return np.asarray(order, dtype=np.int64)
