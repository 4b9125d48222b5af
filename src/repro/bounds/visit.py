"""DAG-visit lower bound (Bilardi-style boundary argument).

Works on the Hong--Kung ``X``-partition with ``X = 2S``: any pebbling
with ``Q`` I/O operations induces a partition of the computed vertex set
``C`` into ``h`` segments with ``Q >= S * (h - 1)``, where each segment
``A`` has

* a *minimum set* ``Min(A)`` (vertices of ``A`` with no successor in
  ``A``) of size at most ``2S`` -- every vertex of ``A`` is an ancestor
  of (or equal to) some ``t in Min(A)``, so
  ``|A| <= sum_t (|anc(t) & C| + 1)``;
* a *dominator set* ``Dom(A)`` of size at most ``2S`` -- every vertex of
  ``A`` is a descendant of (or equal to) some dominator ``d`` (which may
  be any vertex, including an input), so
  ``|A| <= sum_d (|desc(d) & C| + 1)``.

The visit bound caps the segment size by the best of the two post-order
boundary sums -- take the ``2S`` largest ``|anc(v) & C| + 1`` over
``v in C`` and the ``2S`` largest ``|desc(v) & C| + 1`` over all ``v``
-- and converts the resulting minimum segment count ``h = ceil(|C| / M)``
into ``Q >= S * (h - 1)``.  Both counts come from a bitset DP
(python-int OR in topological / reverse order), cached per graph since
they are S-independent; the quadratic bitset memory caps the structural
term at ``MAX_STRUCTURAL_VERTICES`` vertices, beyond which the engine
reports the input/output floor only.

The bound holds for the full red-blue game with recomputation (it counts
segments of the actual computation sequence, which may compute a vertex
several times -- each repeat only adds segments).
"""

from __future__ import annotations

import math
import threading
import weakref

from repro.bounds.registry import (
    MODEL_PEBBLING,
    BoundEngine,
    BoundProblem,
    register_bound_engine,
)
from repro.bounds.structure import graph_facts

#: bitset DP is O(n^2 / 64) time and n^2/8 bytes per direction; 12k
#: vertices ~ 18 MB each, a comfortable ceiling for sweep workers
MAX_STRUCTURAL_VERTICES = 12_000

_COUNTS: "weakref.WeakKeyDictionary[object, tuple]" = weakref.WeakKeyDictionary()
_LOCK = threading.Lock()


def _reach_counts(graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(|anc(v) & C|, |desc(v) & C|)`` per vertex, cached per graph."""
    with _LOCK:
        cached = _COUNTS.get(graph)
    if cached is not None:
        return cached
    facts = graph_facts(graph)
    n = facts.n_vertices
    # Bit i of a set is vertex i; only computed vertices get a bit when
    # counted, but every vertex carries a (possibly empty) reach set.
    is_computed = (facts.in_deg > 0).tolist()
    preds, pred_at = facts.pred_ids.tolist(), facts.pred_offsets.tolist()
    succs, succ_at = facts.succ_ids.tolist(), facts.succ_offsets.tolist()
    anc_bits = [0] * n
    for v in range(n):  # topological order by construction
        acc = 0
        for p in preds[pred_at[v]:pred_at[v + 1]]:
            acc |= anc_bits[p]
            if is_computed[p]:
                acc |= 1 << p
        anc_bits[v] = acc
    anc_counts = tuple(bits.bit_count() for bits in anc_bits)
    desc_bits = [0] * n
    for v in range(n - 1, -1, -1):
        acc = 0
        for c in succs[succ_at[v]:succ_at[v + 1]]:
            # every successor has in-degree >= 1, hence is computed
            acc |= desc_bits[c] | (1 << c)
        desc_bits[v] = acc
    desc_counts = tuple(bits.bit_count() for bits in desc_bits)
    counts = (anc_counts, desc_counts)
    with _LOCK:
        _COUNTS[graph] = counts
    return counts


@register_bound_engine
class VisitBound(BoundEngine):
    """r-visit / DAG-visit bound on the concrete CDAG."""

    name = "visit"
    max_vertices = MAX_STRUCTURAL_VERTICES
    model = MODEL_PEBBLING

    def _value(self, problem: BoundProblem) -> tuple[float, tuple[str, ...]]:
        facts = graph_facts(problem.graph)
        s = int(problem.s)
        n_computed = len(facts.computed)
        if n_computed == 0:
            return float(facts.floor), ("no computed vertices; floor only",)
        if facts.n_vertices > self.max_vertices:
            return float(facts.floor), (
                f"structural term skipped: {facts.n_vertices} vertices "
                f"exceed the {self.max_vertices}-vertex bitset cap; "
                "floor only",
            )
        anc_counts, desc_counts = _reach_counts(problem.graph)
        cap = 2 * s
        # minimum-set cover: 2S largest |anc(t) & C| + 1 over t in C
        min_cover = sorted(
            (anc_counts[v] + 1 for v in facts.computed), reverse=True
        )
        m_min = sum(min_cover[:cap])
        # dominator cover: 2S largest |desc(d) & C| + 1 over all vertices
        dom_cover = sorted((c + 1 for c in desc_counts), reverse=True)
        m_dom = sum(dom_cover[:cap])
        m_max = min(m_min, m_dom, n_computed)
        notes = []
        if m_max <= 0:
            return float(facts.floor), ("degenerate cover; floor only",)
        h = math.ceil(n_computed / m_max)
        structural = s * (h - 1)
        limiting = (
            "minimum-set" if m_min <= min(m_dom, n_computed) else
            "dominator" if m_dom <= n_computed else "whole-graph"
        )
        notes.append(
            f"segments >= {h} ({n_computed} computed vertices, segment "
            f"cap {m_max} via {limiting} cover at X=2S)"
        )
        if structural >= facts.floor:
            notes.append(f"segment term {structural} >= floor {facts.floor}")
            return float(structural), tuple(notes)
        notes.append(
            f"floor {facts.floor} dominates segment term {structural}"
        )
        return float(facts.floor), tuple(notes)
