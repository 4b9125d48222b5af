"""Shared structural facts about a concrete CDAG, memoized on its index.

Every graph engine needs the same skeleton -- predecessor/successor index
lists, degrees, the computed vertices and the cold input/output floor.
Computing it once per graph (not once per engine per S) is what keeps a
multi-engine tightness sweep within the benchmark gate.  The facts are
array operations over the graph's :class:`~repro.cdag.index.GraphIndex`
and are memoized on it, so they live exactly as long as the
``networkx.DiGraph`` and nothing here walks it.

Vertices are numbered in ``networkx.topological_sort`` order
(:attr:`~repro.cdag.index.GraphIndex.topo_order`), so a forward scan over
the numbers meets every parent before its children -- the visit engine's
reachability pass relies on it.  That order runs generation by
generation, and the in-degree-0 vertices (generation 0) come first: the
computed vertices are the trailing range of indices.

The floor is the one bound every engine can always fall back to::

    floor = #{v : in(v)=0, out(v)>0} + #{v : in(v)>0, out(v)=0}

It is sound for the full red-blue game *with recomputation*: inputs have
no parents so they can never be (re)computed, only loaded, and every
child-bearing input is an ancestor of some output, so it is loaded at
least once; every computed sink must end blue, so it is stored at least
once.  It also never exceeds the replay simulator's cost on
``stream_from_graph`` streams, which start blue exactly at in-degree-0
vertices and store exactly at out-degree-0 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.cdag.index import GraphIndex, graph_index


@dataclass(frozen=True, eq=False)
class GraphFacts:
    """S-independent skeleton of one CDAG, shared by all bound engines.

    All vertex numbers are topological (see the module docstring).
    """

    n_vertices: int
    #: ``pred_ids[pred_offsets[v]:pred_offsets[v + 1]]`` are the
    #: predecessors of ``v``, ascending; likewise the successors
    pred_offsets: np.ndarray
    pred_ids: np.ndarray
    succ_offsets: np.ndarray
    succ_ids: np.ndarray
    in_deg: np.ndarray
    out_deg: np.ndarray
    #: cold input/output floor (recomputation-safe)
    floor: int
    #: the computed vertices (in-degree > 0), ascending
    computed: np.ndarray


def graph_facts(graph: nx.DiGraph) -> GraphFacts:
    """Structural facts for ``graph``, computed once per graph object."""
    index = graph_index(graph)
    if index.facts is None:
        index.facts = _facts_of(index)
    return index.facts


def _facts_of(index: GraphIndex) -> GraphFacts:
    order = index.topo_order
    n = index.n_vertices
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    # every edge as (parent, child) in topological numbering
    parent = rank[index.parent_ids]
    child = np.repeat(rank, index.in_degree)
    in_deg = index.in_degree[order]
    out_deg = index.out_degree[order]
    return GraphFacts(
        n_vertices=n,
        pred_offsets=np.concatenate(([0], np.cumsum(in_deg))),
        pred_ids=parent[np.lexsort((parent, child))],
        succ_offsets=np.concatenate(([0], np.cumsum(out_deg))),
        succ_ids=child[np.lexsort((child, parent))],
        in_deg=in_deg,
        out_deg=out_deg,
        floor=int(np.count_nonzero((in_deg == 0) & (out_deg > 0)))
        + int(np.count_nonzero((in_deg > 0) & (out_deg == 0))),
        computed=np.flatnonzero(in_deg > 0),
    )


def io_floor(graph: nx.DiGraph) -> int:
    """Cold input/output floor of ``graph`` (see module docstring)."""
    return graph_facts(graph).floor
