"""Generic tiled-schedule derivation (paper Section 4.5, made executable).

``derive_schedule`` turns an analyzed program's optimal tile closed forms
(:func:`repro.opt.tiling.concrete_tiles_at_x0`) into a :class:`TiledSchedule`
for concrete parameters and fast-memory size: one integer tile size per loop
variable, plus the loop order the concrete CDAG executes (shared variables
outermost, mirroring :func:`repro.cdag.build.build_cdag`).  The mapping from
CDAG vertices to iteration points is the generic one recorded at CDAG
construction -- no per-kernel hand-coded ``point_of`` anywhere.

Bandwidth-bound kernels (``alpha == 1``, ``X0 = oo``) have no finite optimal
tiles: the analysis says a *streaming* schedule already attains the bound at
leading order.  ``derive_schedule`` degrades gracefully to exactly that
(``tiled=False``, unit tiles == program order) instead of leaking symbolic
``X`` tiles to consumers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping

import numpy as np

from repro.cdag.build import ConcreteCDAG, extent_values
from repro.cdag.index import GraphIndex, graph_index
from repro.ir.program import Program
from repro.opt.tiling import concrete_tiles_at_x0
from repro.sdg.bounds import ProgramBound
from repro.util import unique_in_order
from repro.util.errors import SoapError


@dataclass(frozen=True)
class TiledSchedule:
    """A concrete blocked execution order for one program instance."""

    program: str
    params: dict[str, int]
    s: int
    variable_order: tuple[str, ...]
    tile_sizes: dict[str, int]  #: >= 1 per variable (1 = streaming along it)
    tiled: bool  #: False -> no finite tiles derived; plain program order
    source_arrays: tuple[str, ...]  #: arrays whose subgraph supplied tiles
    notes: tuple[str, ...] = ()
    symbolic_tiles: dict[str, str] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "program": self.program,
            "params": dict(self.params),
            "s": self.s,
            "variable_order": list(self.variable_order),
            "tile_sizes": dict(self.tile_sizes),
            "tiled": self.tiled,
            "source_arrays": list(self.source_arrays),
            "symbolic_tiles": dict(self.symbolic_tiles),
            "notes": list(self.notes),
        }


def _variable_order(program: Program) -> tuple[str, ...]:
    """Loop order of the concrete execution: shared vars outermost, then each
    statement's private variables in declared order (same convention as
    :func:`repro.cdag.build.build_cdag`)."""
    counts: dict[str, int] = {}
    for st in program.statements:
        for var in st.iteration_vars:
            counts[var] = counts.get(var, 0) + 1
    shared = unique_in_order(
        v for st in program.statements for v in st.iteration_vars if counts[v] > 1
    )
    private = unique_in_order(
        v for st in program.statements for v in st.iteration_vars if counts[v] == 1
    )
    return tuple(shared) + tuple(private)


def _concrete_extents(
    program: Program, params: Mapping[str, int]
) -> dict[str, int]:
    """Concrete extents across all statements; unresolvable ones are simply
    absent (their tiles then stay unclamped rather than failing derivation)."""
    extents: dict[str, int] = {}
    for st in program.statements:
        try:
            values = extent_values(st, params)
        except SoapError:
            continue
        for var, value in values.items():
            extents.setdefault(var, value)
    return extents


def derive_schedule(
    program: Program,
    bound: ProgramBound,
    params: Mapping[str, int],
    s: int,
) -> TiledSchedule:
    """Derive the blocked schedule of ``program`` at ``params`` and ``S=s``.

    Tile sizes come from the intensity-maximizing subgraph of each array
    (``bound.per_array``), matched to loop variables by the unified names the
    fusion kept; statements whose analysis is bandwidth-bound (or whose
    variables the fusion renamed beyond recognition) fall back to streaming
    (tile 1) along the unmatched variables.
    """
    order = _variable_order(program)
    extents = _concrete_extents(program, params)
    tile_sizes: dict[str, int] = {}
    symbolic: dict[str, str] = {}
    sources: list[str] = []
    notes: list[str] = []

    for st in program.statements:
        analysis = bound.per_array.get(st.output.array)
        if analysis is None:
            continue
        tiles = concrete_tiles_at_x0(analysis.intensity, params, s)
        if tiles is None:
            notes.append(
                f"{st.output.array}: bandwidth-bound subgraph "
                f"{analysis.arrays}; streaming (no finite tiles)"
            )
            continue
        used = False
        solution = analysis.intensity.chi_solution
        sym_tiles = solution.tiles if solution is not None else {}
        for var in st.iteration_vars:
            if var in tile_sizes or var not in tiles:
                continue
            size = tiles[var]
            if var in extents:
                size = min(size, extents[var])
            tile_sizes[var] = max(1, size)
            if var in sym_tiles:
                symbolic[var] = str(sym_tiles[var])
            used = True
        if used and st.output.array not in sources:
            sources.append(st.output.array)

    for var in order:
        tile_sizes.setdefault(var, 1)

    tiled = any(size > 1 for size in tile_sizes.values())
    if not tiled:
        notes.append("no finite tiles derived; schedule is plain program order")
    return TiledSchedule(
        program=program.name,
        params={k: int(v) for k, v in params.items()},
        s=s,
        variable_order=order,
        tile_sizes=tile_sizes,
        tiled=tiled,
        source_arrays=tuple(sources),
        notes=tuple(notes),
    )


def blocked_order(cdag: ConcreteCDAG, schedule: TiledSchedule) -> list[Hashable]:
    """Blocked topological order of ``cdag`` under ``schedule``.

    Uses the iteration points recorded on the CDAG (the generic vertex ->
    point mapping) and ranks statements sharing a tile by program position.
    Returns the default topological order for untiled schedules.

    The order is exactly :func:`repro.pebbling.greedy.tiled_order`'s, built
    on the graph's :class:`~repro.cdag.index.GraphIndex`: one ``lexsort``
    over (tile coordinates, statement rank, intra-tile point, vertex
    position) gives the preferred sequence, and
    :meth:`~repro.cdag.index.GraphIndex.min_rank_order` repairs it into a
    topological order.  The labels of :func:`blocked_ids`.
    """
    index = graph_index(cdag.graph)
    return [index.labels[i] for i in blocked_ids(cdag, schedule).tolist()]


def blocked_ids(cdag: ConcreteCDAG, schedule: TiledSchedule) -> np.ndarray:
    """:func:`blocked_order` as indices into the graph's
    :class:`~repro.cdag.index.GraphIndex` -- the order
    :func:`repro.schedule.stream.stream_from_ids` takes, with no label
    built or hashed."""
    index = graph_index(cdag.graph)
    if not schedule.tiled:
        return index.computed_order()
    return index.min_rank_order(_preferred_order(index, cdag, schedule))


def _preferred_order(
    index: GraphIndex, cdag: ConcreteCDAG, schedule: TiledSchedule
) -> np.ndarray:
    """Computed vertices sorted by (tile coordinates, statement rank,
    intra-tile point, vertex position) -- ``tiled_order``'s stable sort key."""
    ranks, columns = index.point_columns(cdag.points, schedule.variable_order)
    computed = np.flatnonzero(index.in_degree > 0)
    intra = [column[computed] for column in columns]
    tiles = [
        values // max(1, schedule.tile_sizes.get(var, 1))
        for var, values in zip(schedule.variable_order, intra)
    ]
    # lexsort's last key is the primary one
    keys = [computed, *reversed(intra), ranks[computed], *reversed(tiles)]
    return computed[np.lexsort(keys)]
