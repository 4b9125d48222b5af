"""Valid pebblings from topological schedules (upper bounds on Q).

``greedy_pebbling_cost`` executes vertices in a given topological order with
``S`` red pebbles, Belady eviction (evict the pebble whose next use lies
farthest in the schedule) or LRU eviction, and write-back on eviction of
live values.  The produced move sequence is replayed through
:class:`repro.pebbling.game` for legality, so the returned cost is a
*certified* upper bound on the optimal I/O ``Q``.

Eviction is fully deterministic: every vertex receives a *stream id* (its
first-appearance position in the access stream of the schedule, see
:func:`stream_vertex_ids`) and ties are broken by the largest id.  The
streaming replay simulator (:mod:`repro.schedule.simulator`) implements the
same policy over flat arrays; cross-validation tests assert the two produce
bit-identical costs.

``tiled_order`` turns the analyzer's optimal tile sizes into a blocked
topological order, closing the loop of the paper's pipeline: derived tiling
-> schedule -> measured I/O close to the lower bound.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping, Sequence

import networkx as nx

from repro.cdag.index import graph_index
from repro.pebbling.game import Move, replay
from repro.util.errors import PebblingError

#: sentinel next-use position: "never used again"
NEVER = 1 << 60


def default_order(graph: nx.DiGraph) -> list[Hashable]:
    """The schedule used when none is given: topological, inputs excluded.

    The order is ``networkx.topological_sort``'s without the in-degree-0
    vertices, read off the graph's index
    (:meth:`~repro.cdag.index.GraphIndex.computed_order`); a cyclic graph
    raises :class:`PebblingError`.
    """
    index = graph_index(graph)
    return [index.labels[i] for i in index.computed_order().tolist()]


def stream_vertex_ids(
    graph: nx.DiGraph, order: Sequence[Hashable]
) -> dict[Hashable, int]:
    """Deterministic integer ids: first appearance in the access stream.

    Scanning ``order``, each computed vertex's parents (in predecessor
    order) are numbered on first use, then the vertex itself.  Both the
    greedy pebbler and :func:`repro.schedule.stream.stream_from_graph` use
    this rule, so their eviction tie-breaks agree exactly.
    """
    ids: dict[Hashable, int] = {}
    for v in order:
        for parent in graph.predecessors(v):
            if parent not in ids:
                ids[parent] = len(ids)
        if v not in ids:
            ids[v] = len(ids)
    return ids


def greedy_pebbling_cost(
    graph: nx.DiGraph,
    s: int,
    order: Sequence[Hashable] | None = None,
    *,
    policy: str = "belady",
    return_moves: bool = False,
):
    """I/O cost of the eviction-``policy`` schedule over ``order``.

    ``order`` defaults to a topological order of the computed vertices.
    ``policy`` is ``"belady"`` (farthest next use) or ``"lru"`` (least
    recently touched); both write back evicted live values.
    """
    if policy not in ("belady", "lru"):
        raise PebblingError(f"unknown eviction policy {policy!r}")
    inputs = {v for v in graph.nodes if graph.in_degree(v) == 0}
    outputs = {v for v in graph.nodes if graph.out_degree(v) == 0}
    if order is None:
        order = default_order(graph)
    else:
        order = list(order)
        position = {v: i for i, v in enumerate(order)}
        for u, v in graph.edges:
            if u in inputs:
                continue
            if position.get(u, -1) > position.get(v, len(order)):
                raise PebblingError("order is not topological")

    vertex_id = stream_vertex_ids(graph, order)

    # Next-use positions for Belady eviction and write-back decisions.
    uses: dict[Hashable, list[int]] = {v: [] for v in graph.nodes}
    for pos, v in enumerate(order):
        for parent in graph.predecessors(v):
            uses[parent].append(pos)
    for v in uses:
        uses[v].reverse()  # pop() yields the earliest remaining use

    moves: list[Move] = []
    red: set[Hashable] = set()
    blue: set[Hashable] = set(inputs)
    stamp: dict[Hashable, int] = {}
    clock = 0

    def next_use(v: Hashable) -> int:
        stack = uses[v]
        return stack[-1] if stack else NEVER

    def touch(v: Hashable) -> None:
        nonlocal clock
        stamp[v] = clock
        clock += 1

    if policy == "belady":
        def victim_key(v: Hashable):
            return (next_use(v), vertex_id[v])
    else:  # lru: evict the *least* recently touched -> maximize -stamp
        def victim_key(v: Hashable):
            return (-stamp[v], vertex_id[v])

    def make_room(protect: set[Hashable]) -> None:
        while len(red) >= s:
            candidates = [v for v in red if v not in protect]
            if not candidates:
                raise PebblingError(f"S={s} too small for the working set")
            victim = max(candidates, key=victim_key)
            if next_use(victim) < NEVER and victim not in blue:
                moves.append(Move("store", victim))
                blue.add(victim)
            moves.append(Move("discard_red", victim))
            red.remove(victim)

    for pos, v in enumerate(order):
        parents = list(graph.predecessors(v))
        protect = set(parents)
        for parent in parents:
            if parent not in red:
                if parent not in blue:
                    raise PebblingError(
                        f"value {parent!r} needed but neither red nor blue "
                        "(order recomputes a discarded value?)"
                    )
                make_room(protect)
                moves.append(Move("load", parent))
                red.add(parent)
                touch(parent)
            else:
                touch(parent)
        make_room(protect | {v})
        moves.append(Move("compute", v))
        red.add(v)
        touch(v)
        # Consume the use positions of the parents.
        for parent in parents:
            stack = uses[parent]
            while stack and stack[-1] <= pos:
                stack.pop()
        if v in outputs:
            moves.append(Move("store", v))
            blue.add(v)

    cost = replay(graph, s, moves)
    if return_moves:
        return cost, moves
    return cost


def tiled_order(
    graph: nx.DiGraph,
    point_of: Callable[[Hashable], Mapping[str, int] | None],
    tile_sizes: Mapping[str, int],
    variable_order: Sequence[str],
    *,
    statement_rank: Callable[[Hashable], int] | None = None,
) -> list[Hashable]:
    """Blocked topological order from tile sizes.

    ``point_of`` maps a vertex to its iteration point (``None`` for inputs);
    use :meth:`repro.cdag.build.ConcreteCDAG.point_of` for the generic
    mapping recorded at CDAG construction.  Vertices are sorted by (tile
    coordinates, statement rank, intra-tile coordinates) and the result is
    repaired into a topological order by a stable Kahn pass that prefers the
    blocked sequence.  ``statement_rank`` orders statements sharing a tile
    (program order for multi-statement kernels); it defaults to 0.

    This is the reference for :func:`repro.schedule.derive.blocked_order`,
    which builds the same order over integer arrays.
    """
    inputs = {v for v in graph.nodes if graph.in_degree(v) == 0}

    def key(vertex: Hashable):
        point = point_of(vertex) or {}
        tiles = tuple(
            point.get(var, 0) // max(1, tile_sizes.get(var, 1))
            for var in variable_order
        )
        rank = statement_rank(vertex) if statement_rank is not None else 0
        intra = tuple(point.get(var, 0) for var in variable_order)
        return (tiles, rank, intra)

    preferred = sorted((v for v in graph.nodes if v not in inputs), key=key)
    rank = {v: i for i, v in enumerate(preferred)}

    import heapq

    indegree = {
        v: sum(1 for p in graph.predecessors(v) if p not in inputs)
        for v in graph.nodes
        if v not in inputs
    }
    ready = [(rank[v], v) for v, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    out: list[Hashable] = []
    while ready:
        _, v = heapq.heappop(ready)
        out.append(v)
        for child in graph.successors(v):
            if child in indegree:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, (rank[child], child))
    if len(out) != len(indegree):
        raise PebblingError("cycle detected while building tiled order")
    return out
