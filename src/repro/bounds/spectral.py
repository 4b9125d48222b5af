"""Spectral I/O lower bound (Jain--Zaharia style) on the concrete CDAG.

Model: *store-once* schedules (every vertex computed exactly once), the
model of Jain & Zaharia's eigenvalue bounds -- and the model in which the
repo's derived schedules and the replay simulator operate, so certified
values are valid denominators for tightness gaps.  The recomputing
red-blue game is NOT covered by the structural term; below
``MIN_STRUCTURAL_VERTICES`` the engine reports only the recomputation-safe
input/output floor, which keeps it sound on the tiny random CDAGs of the
differential test where the exact pebbler may recompute.

Argument, per *level band* ``B`` (consecutive longest-path levels of
computed vertices, greedily grouped up to ``BAND_CAP`` vertices):

1. Chop any store-once schedule into segments of ``S`` I/O operations:
   ``Q >= S * (h - 1)`` with ``h`` segments.  Each segment computes a part
   ``A = W_i & B`` of the band; a segment touches at most ``2S``
   in-boundary vertices (``<= S`` resident + ``<= S`` loaded) and at most
   ``2S`` live-out vertices, so the undirected edge boundary of ``A``
   inside the band is at most ``b = 4 * S * max_out_degree``.
2. Cheeger-type inequality on the band's undirected Laplacian: any
   ``A subset B`` with ``|A| = m`` has boundary
   ``>= lambda2 * m * (n_B - m) / n_B``.  Combining with (1), feasible
   part sizes satisfy ``m^2 - n_B*m + b*n_B/lambda2 >= 0``: sizes strictly
   between the roots ``m_lo <= m_hi`` (``m_lo + m_hi = n_B``) are
   impossible.
3. Big parts (``m >= m_hi``) are excluded through the *input-parent*
   argument: inputs have no parents, hence are never computed and never
   belong to any part, so every distinct in-degree-0 parent of a vertex
   in ``A`` is an in-boundary vertex of its segment -- at most ``2S`` of
   them.  A part of size ``m >= m_hi`` misses at most
   ``m_lo_int = max(1, floor(m_lo))`` band vertices, so it has at least
   ``inputs_B - m_lo_int * max_in_degree`` distinct input parents.  When
   that exceeds ``2S`` no big part can exist, every part has size at most
   ``m_lo_int``, and ``h >= ceil(n_B / m_lo_int)``.

``lambda2`` must never be over-estimated (a larger ``lambda2`` shrinks
``m_lo`` and strengthens both the segment count and the exclusion test),
and power-iteration Rayleigh quotients only *upper*-bound it.  So power
iteration merely screens bands -- ranking them by estimated
``n_B * lambda2`` -- and the top ``CERT_BANDS`` candidates are certified
with a dense ``numpy.linalg.eigvalsh`` minus a conservative margin.  A
candidate whose undirected graph is disconnected has ``lambda2 = 0``
exactly, so a union-find pass answers it without an eigensolve (the margin
exceeds eigvalsh's rounding, so the dense path also returns 0.0 there);
the ``bounds.engine`` span counts ``eigensolves`` and
``disconnected_bands``.  Band spectra are S-independent and cached per
graph; per-S evaluation is just the quadratic above.

Bands come from :func:`~repro.bounds.structure.graph_facts`, whose
topological numbering keeps levels non-decreasing, so every band is a
range of vertex numbers and its edges are one slice of the successor CSR.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np

from repro.bounds.registry import (
    MODEL_STORE_ONCE,
    BoundEngine,
    BoundProblem,
    register_bound_engine,
)
from repro.bounds.structure import GraphFacts, graph_facts
from repro.obs import current_span

#: below this many vertices the structural term is skipped entirely --
#: small graphs are the exact pebbler's (recomputing) territory
MIN_STRUCTURAL_VERTICES = 64
#: greedy level-band size target; also the dense-eigensolve ceiling
BAND_CAP = 1024
#: number of screened bands that get a certified dense eigensolve
CERT_BANDS = 4
#: power-iteration steps for the screening estimate
SCREEN_ITERATIONS = 64

_SPECTRA: "weakref.WeakKeyDictionary[object, tuple]" = weakref.WeakKeyDictionary()
_LOCK = threading.Lock()


@dataclass(frozen=True)
class BandSpectrum:
    """One level band's S-independent data."""

    levels: tuple[int, int]  #: inclusive level range
    n_vertices: int
    n_inputs: int  #: distinct in-degree-0 parents of band vertices
    lambda2: float | None  #: certified lambda2; None = not certified


def _level_bands(facts: GraphFacts) -> list[tuple[int, int]]:
    """Group computed vertices into bands of consecutive levels.

    Each band is a range ``[lo, hi)`` of vertex numbers: the computed
    vertices are a trailing range, ordered by level.
    """
    if not len(facts.computed):
        return []
    _, sizes = np.unique(facts.level[facts.computed], return_counts=True)
    bands: list[tuple[int, int]] = []
    lo = hi = int(facts.computed[0])
    for size in sizes.tolist():
        if hi > lo and hi - lo + size > BAND_CAP:
            bands.append((lo, hi))
            lo = hi
        hi += size
    bands.append((lo, hi))
    return bands


def _band_edges(facts: GraphFacts, lo: int, hi: int) -> np.ndarray:
    """Within-band directed edges as local-index pairs, shape (m, 2).

    Rows run by source vertex, then by successor: a successor of ``v``
    comes after ``v``, so it is in the band iff it is below ``hi``.
    """
    sources = np.repeat(np.arange(lo, hi, dtype=np.int64), facts.out_deg[lo:hi])
    targets = facts.succ_ids[facts.succ_offsets[lo]:facts.succ_offsets[hi]]
    inside = targets < hi
    return np.stack((sources[inside], targets[inside]), axis=1) - lo


def _screen_lambda2(n: int, edges: np.ndarray) -> float:
    """Cheap lambda2 *estimate* (may over-shoot; ranking only)."""
    if n < 2 or edges.shape[0] == 0:
        return 0.0
    deg = np.zeros(n)
    np.add.at(deg, edges[:, 0], 1.0)
    np.add.at(deg, edges[:, 1], 1.0)
    shift = 2.0 * float(deg.max()) + 1.0

    def laplacian(x: np.ndarray) -> np.ndarray:
        out = deg * x
        np.add.at(out, edges[:, 0], -x[edges[:, 1]])
        np.add.at(out, edges[:, 1], -x[edges[:, 0]])
        return out

    rng = np.random.default_rng(0)
    x = rng.standard_normal(n)
    for _ in range(SCREEN_ITERATIONS):
        x -= x.mean()  # deflate the all-ones kernel of L
        norm = np.linalg.norm(x)
        if norm < 1e-30:
            return 0.0
        x /= norm
        x = shift * x - laplacian(x)
    x -= x.mean()
    norm = np.linalg.norm(x)
    if norm < 1e-30:
        return 0.0
    x /= norm
    return float(x @ laplacian(x))


def _connected(n: int, edges: np.ndarray) -> bool:
    """Is the undirected graph on ``n`` vertices with ``edges`` connected?"""
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    components = n
    for u, v in edges.tolist():
        u, v = find(u), find(v)
        if u != v:
            root[u] = v
            components -= 1
    return components == 1


def _certified_lambda2(n: int, edges: np.ndarray) -> tuple[float, bool]:
    """``(lambda2, eigensolved)``: a dense eigensolve with a conservative
    down-shift, or 0.0 without one when the band is disconnected.

    Rounding the result *down* is the safe direction: a smaller lambda2
    widens ``m_lo`` and weakens (never falsifies) the bound.
    """
    if n < 2 or not _connected(n, edges):
        return 0.0, False
    sources, targets = edges[:, 0], edges[:, 1]
    lap = np.zeros((n, n))
    np.add.at(lap, (sources, targets), -1.0)
    np.add.at(lap, (targets, sources), -1.0)
    lap[np.diag_indices(n)] += np.bincount(edges.ravel(), minlength=n)
    eigenvalues = np.linalg.eigvalsh(lap)
    max_degree = float(lap.diagonal().max())
    margin = 1e-8 * (1.0 + 2.0 * max_degree)
    return max(0.0, float(eigenvalues[1]) - margin), True


def _band_spectra(graph) -> tuple[BandSpectrum, ...]:
    """Certified band data for ``graph``, computed once and cached.

    Computing them adds the ``eigensolves`` and ``disconnected_bands``
    counts to the open span.
    """
    with _LOCK:
        cached = _SPECTRA.get(graph)
    if cached is not None:
        return cached
    facts = graph_facts(graph)
    screened = []
    for lo, hi in _level_bands(facts):
        edges = _band_edges(facts, lo, hi)
        estimate = _screen_lambda2(hi - lo, edges)
        screened.append(((hi - lo) * estimate, lo, hi, edges))
    screened.sort(key=lambda item: item[0], reverse=True)
    certify = {
        lo
        for score, lo, hi, _ in screened[:CERT_BANDS]
        if score > 0.0 and hi - lo <= BAND_CAP
    }
    eigensolves = disconnected = 0
    spectra = []
    for _, lo, hi, edges in screened:
        lambda2 = None
        if lo in certify:
            lambda2, eigensolved = _certified_lambda2(hi - lo, edges)
            eigensolves += eigensolved
            disconnected += not eigensolved
        parents = facts.pred_ids[facts.pred_offsets[lo]:facts.pred_offsets[hi]]
        spectra.append(
            BandSpectrum(
                levels=(int(facts.level[lo]), int(facts.level[hi - 1])),
                n_vertices=hi - lo,
                n_inputs=len(np.unique(parents[facts.in_deg[parents] == 0])),
                lambda2=lambda2,
            )
        )
    span = current_span()
    span.add("eigensolves", eigensolves)
    span.add("disconnected_bands", disconnected)
    result = tuple(spectra)
    with _LOCK:
        _SPECTRA[graph] = result
    return result


def _band_segments(
    band: BandSpectrum, s: int, max_in: int, max_out: int
) -> int:
    """Minimum segment count forced by ``band`` at fast-memory ``s``."""
    lam = band.lambda2
    n = band.n_vertices
    if lam is None or lam <= 0.0 or n < 2:
        return 0
    boundary = 4.0 * s * max(1, max_out)
    discriminant = float(n) * n - 4.0 * boundary * n / lam
    if discriminant <= 0.0:
        return 0  # no part size is excluded
    m_lo = (n - math.sqrt(discriminant)) / 2.0
    m_lo_int = max(1, math.floor(m_lo))
    # exclude parts of size >= m_hi via their distinct input parents
    if band.n_inputs - m_lo_int * max(1, max_in) <= 2 * s:
        return 0
    return math.ceil(n / m_lo_int)


@register_bound_engine
class SpectralBound(BoundEngine):
    """Eigenvalue (lambda2) I/O bound on level bands of the CDAG."""

    name = "spectral"
    max_vertices = 150_000
    model = MODEL_STORE_ONCE

    def _value(self, problem: BoundProblem) -> tuple[float, tuple[str, ...]]:
        facts = graph_facts(problem.graph)
        s = int(problem.s)
        if s <= 0 or not len(facts.computed):
            return float(facts.floor), ("no computed vertices; floor only",)
        if facts.n_vertices < MIN_STRUCTURAL_VERTICES:
            return float(facts.floor), (
                f"{facts.n_vertices} vertices below the "
                f"{MIN_STRUCTURAL_VERTICES}-vertex spectral gate; floor only",
            )
        if facts.n_vertices > self.max_vertices:
            return float(facts.floor), (
                f"structural term skipped: {facts.n_vertices} vertices "
                f"exceed the {self.max_vertices}-vertex cap; floor only",
            )
        spectra = _band_spectra(problem.graph)
        best_h = 0
        best_band = None
        for band in spectra:
            h = _band_segments(
                band, s, facts.max_in_degree, facts.max_out_degree
            )
            if h > best_h:
                best_h = h
                best_band = band
        structural = s * (best_h - 1) if best_h > 1 else 0
        notes = [
            f"{len(spectra)} level bands, "
            f"{sum(1 for b in spectra if b.lambda2 is not None)} certified"
        ]
        if best_band is not None and structural > 0:
            notes.append(
                f"band levels {best_band.levels[0]}..{best_band.levels[1]} "
                f"({best_band.n_vertices} vertices, lambda2="
                f"{best_band.lambda2:.4g}) forces >= {best_h} segments "
                "(store-once model)"
            )
        else:
            notes.append("no band excludes large parts; floor only")
        if structural >= facts.floor:
            return float(structural), tuple(notes)
        notes.append(
            f"floor {facts.floor} dominates spectral term {structural}"
        )
        return float(facts.floor), tuple(notes)
