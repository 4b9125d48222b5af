"""Integer index of a concrete CDAG, built once per graph.

The :class:`GraphIndex` numbers the vertices ``0 .. n-1`` in ``graph.nodes``
order and keeps the predecessor lists as CSR arrays (in
``graph.predecessors`` order, which fixes stream ids and eviction
tie-breaks).  The blocked order (:func:`repro.schedule.derive.blocked_order`)
and the graph-stream builder (:func:`repro.schedule.stream.stream_from_graph`)
are array operations over it, so no derived schedule walks the
``networkx.DiGraph`` vertex by vertex.

Like :func:`repro.bounds.structure.graph_facts`, the index lives in a
:class:`weakref.WeakKeyDictionary` keyed by the graph object, so every
consumer of one CDAG shares it and it dies with the graph.  It keeps its
own vertex numbering: ``GraphFacts`` numbers vertices topologically, and
the spectral engine's float output depends on that numbering.
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
    in_degree: np.ndarray
    out_degree: np.ndarray
    #: ``(points, statement_rank, columns)`` -- see :meth:`point_columns`
    _points: tuple | None = field(default=None, repr=False)

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def max_in_degree(self) -> int:
        return int(self.in_degree.max(initial=0))

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
        """Indices of ``order``'s vertices, checked to form a legal schedule.

        A legal schedule computes every in-degree > 0 vertex exactly once
        and each computed parent before its child.  Anything else raises
        :class:`PebblingError` with the pebble game's messages.
        """
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
    """The :class:`GraphIndex` of ``graph``, built once per graph object."""
    with _LOCK:
        index = _INDEX.get(graph)
    if index is not None:
        return index
    index = _build_index(graph)
    with _LOCK:
        _INDEX[graph] = index
    return index


def _build_index(graph: nx.DiGraph) -> GraphIndex:
    labels = list(graph.nodes)
    n = len(labels)
    position = {vertex: i for i, vertex in enumerate(labels)}
    pred = graph.pred
    in_degree = np.fromiter(
        (len(pred[v]) for v in labels), dtype=np.int64, count=n
    )
    parent_ids = np.fromiter(
        (position[p] for v in labels for p in pred[v]),
        dtype=np.int64,
        count=int(in_degree.sum()),
    )
    parent_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(in_degree, out=parent_offsets[1:])
    return GraphIndex(
        labels=labels,
        position=position,
        parent_offsets=parent_offsets,
        parent_ids=parent_ids,
        in_degree=in_degree,
        out_degree=np.bincount(parent_ids, minlength=n).astype(np.int64),
    )
