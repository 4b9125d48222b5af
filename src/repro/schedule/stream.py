"""Flat access streams: the replay simulator's input encoding.

An :class:`AccessStream` is the memory traffic of one schedule in struct-of-
arrays form: for every computed vertex, in execution order, the integer ids
of its parents plus its own id.  Ids are first-appearance positions in the
stream (:func:`repro.pebbling.greedy.stream_vertex_ids`), so the stream and
the mutating :class:`~repro.pebbling.game.PebbleGame` path agree on eviction
tie-breaks exactly.

All stream fields are numpy integer arrays, and the expensive derived
structure -- the *next-use arrays* consumed by Belady replay and write-back
decisions -- is computed once per stream by a reverse scan over position
slabs (:meth:`AccessStream.next_use_arrays`) and memoized, so replaying the
same stream under several policies or fast-memory sizes never recomputes
it.  The scan's peak extra memory is O(chunk + id space), not O(stream).

Two builders:

* :func:`stream_from_graph` -- from a materialized CDAG and a topological
  order; works for any program.  It gathers parents from the graph's CSR
  index (:mod:`repro.cdag.index`, built once per graph), checks the order,
  and numbers ids with one first-appearance factorization -- no per-vertex
  Python.
* :func:`single_statement_stream` -- straight from the IR for
  single-statement self-update kernels (gemm, syrk, jacobi-style sweeps
  collapse to this shape after versioning): no graph is ever materialized.
  It generates the blocked order chunk by chunk (at most
  :data:`DEFAULT_CHUNK_POSITIONS` positions each, unless told otherwise)
  into preallocated RAM arrays, carrying first-appearance id tables and
  per-element version-chain state across chunks, so peak transient memory
  is O(chunk + key space).  A stream that fits one chunk is the one-chunk
  case of the same code.  A stream spanning several chunks stores ids and
  offsets in ``int32`` whenever they fit, halving resident size at the
  10^8-access scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import networkx as nx
import numpy as np

from repro.cdag.index import GraphIndex, graph_index
from repro.ir.program import Program
from repro.obs import span as obs_span
from repro.util.errors import SoapError

#: default positions per chunk for the IR-direct builder, the next-use scan
#: and the replay slab
DEFAULT_CHUNK_POSITIONS = 1 << 20


class ScheduleError(SoapError):
    """Raised when a schedule cannot be derived or streamed."""


@dataclass(eq=False)
class AccessStream:
    """One schedule's memory traffic as flat numpy arrays.

    ``parent_ids[parent_offsets[p]:parent_offsets[p+1]]`` are the operands of
    the vertex computed at position ``p``; ``computed_ids[p]`` is the vertex
    itself.  ``starts_blue`` marks input ids (initially in slow memory);
    ``store_at_compute`` marks positions computing a program output (stored
    immediately, mirroring the greedy pebbler).  Id and offset columns are
    int64, or int32 in IR-direct streams spanning several chunks.
    """

    n_positions: int
    n_ids: int
    parent_offsets: np.ndarray  #: length n_positions + 1
    parent_ids: np.ndarray  #: one entry per operand read
    computed_ids: np.ndarray  #: length n_positions
    starts_blue: np.ndarray  #: uint8 per id
    store_at_compute: np.ndarray  #: uint8 per position
    labels: list | None = None  #: id -> vertex label (None for IR-direct streams)
    #: positions per chunk the IR-direct builder used (None for graph
    #: streams); doubles as the default next-use chunk and replay slab size
    chunk_positions: int | None = None
    #: memoized next-use table -- see :meth:`next_use_table`
    _next_use_cache: tuple | None = field(default=None, repr=False)
    #: memoized ``(next_after, first_use)`` -- see :meth:`next_use_arrays`
    _next_use_pair: tuple | None = field(default=None, repr=False)

    @property
    def n_accesses(self) -> int:
        """Total operand reads -- the stream's length in the I/O sense."""
        return len(self.parent_ids)

    def next_use_arrays(
        self, chunk_positions: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(next_after, first_use)`` -- memoized.

        * ``next_after[k]`` -- the position of the *next* read of the same
          id after access ``k`` (``parent_ids[k]``), or ``n_positions`` when
          it is never read again ("infinity": strictly greater than any real
          position).
        * ``first_use[i]`` -- the first position reading id ``i``, or
          ``n_positions`` when the id is never read.

        One reverse pass over slabs of ``chunk_positions`` positions
        (default: the stream's own chunk size, else
        :data:`DEFAULT_CHUNK_POSITIONS`), last slab first, with a carried
        ``last_seen[id]`` table: each access, latest first, takes its
        id's ``last_seen`` as its next use and becomes it, so after the
        sweep ``last_seen`` *is* the first-use table.  The compiled core
        of :mod:`repro.schedule._native` runs each slab in place on the
        stream's own columns; on hosts without it (or under
        ``REPRO_NO_NATIVE_REPLAY=1``) a numpy slab body gives the same
        arrays with one stable argsort per slab.  Peak extra memory is
        O(id space) natively and O(chunk + id space) in numpy; both
        arrays are int32 below 2^31 positions.  Computed once and shared
        by every replay of this stream -- Belady then LRU, or a whole
        sweep of ``S`` values.
        """
        if chunk_positions is not None and int(chunk_positions) < 1:
            raise ScheduleError("chunk_positions must be >= 1")
        if self._next_use_pair is None:
            chunk = int(
                chunk_positions
                or self.chunk_positions
                or DEFAULT_CHUNK_POSITIONS
            )
            with obs_span("next-use", chunk_positions=chunk) as sp:
                sp.add("accesses", self.n_accesses)
                next_after, first_use, native = self._next_use_scan(chunk)
                sp.note(native=native)
                self._next_use_pair = (next_after, first_use)
        return self._next_use_pair

    def _next_use_scan(
        self, chunk_positions: int
    ) -> tuple[np.ndarray, np.ndarray, bool]:
        """``(next_after, last_seen, native)``: the slab loop of
        :meth:`next_use_arrays`, and whether the compiled core ran it."""
        from repro.schedule._native import native_replay_lib

        n = self.n_positions
        pos_dtype = (
            np.int32 if n < np.iinfo(np.int32).max else np.int64
        )
        # carried across slabs: earliest position seen so far per id
        last_seen = np.full(self.n_ids, n, dtype=pos_dtype)
        next_after = np.empty(self.n_accesses, dtype=pos_dtype)
        lib = native_replay_lib()
        if lib is not None:
            columns = [
                _native_column(self.parent_offsets),
                _native_column(self.parent_ids),
                next_after,
            ]
            scan = getattr(lib, "next_use_slab_%d_%d_%d" % tuple(
                8 * col.itemsize for col in columns
            ))
            pointers = [col.ctypes.data for col in columns]
            pointers.append(last_seen.ctypes.data)
        for hi_pos in range(n, 0, -chunk_positions):
            lo_pos = max(0, hi_pos - chunk_positions)
            if lib is not None:
                scan(lo_pos, hi_pos, *pointers)
            else:
                self._next_use_slab(lo_pos, hi_pos, next_after, last_seen)
        return next_after, last_seen, lib is not None

    def _next_use_slab(
        self,
        lo_pos: int,
        hi_pos: int,
        next_after: np.ndarray,
        last_seen: np.ndarray,
    ) -> None:
        """The numpy slab body: one stable argsort groups the slab's
        accesses by id (positions ascending within a group, since ids are
        read at most once per position), so each access's successor in its
        group is its next use, and each id's last slab occurrence chains to
        ``last_seen``."""
        offsets = self.parent_offsets
        a_lo = int(offsets[lo_pos])
        a_hi = int(offsets[hi_pos])
        if a_lo == a_hi:
            return
        inf = self.n_positions
        pos_dtype = next_after.dtype
        pids = np.asarray(self.parent_ids[a_lo:a_hi])
        counts = np.diff(offsets[lo_pos:hi_pos + 1])
        positions = np.repeat(
            np.arange(lo_pos, hi_pos, dtype=pos_dtype), counts
        )
        order = np.argsort(pids, kind="stable")
        sorted_ids = pids[order]
        sorted_pos = positions[order]
        k = len(pids)
        same = sorted_ids[1:] == sorted_ids[:-1]
        nxt = np.full(k, inf, dtype=pos_dtype)
        nxt[:-1][same] = sorted_pos[1:][same]
        tail = np.ones(k, dtype=bool)
        tail[:-1] = ~same  # last slab occurrence chains to later slabs
        nxt[tail] = last_seen[sorted_ids[tail]]
        head = np.ones(k, dtype=bool)
        head[1:] = ~same
        last_seen[sorted_ids[head]] = sorted_pos[head]
        out = np.empty(k, dtype=pos_dtype)
        out[order] = nxt
        next_after[a_lo:a_hi] = out

    def next_use_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(next_after, first_use, access_positions)`` -- memoized.

        :meth:`next_use_arrays` plus ``access_positions[k]``, the position
        whose vertex reads access ``k`` -- O(stream) extra memory, so replay
        consumes :meth:`next_use_arrays` directly and derives slab-local
        positions on the fly.
        """
        if self._next_use_cache is None:
            next_after, first_use = self.next_use_arrays()
            positions = np.repeat(
                np.arange(self.n_positions, dtype=np.int64),
                np.diff(self.parent_offsets),
            )
            self._next_use_cache = (next_after, first_use, positions)
        return self._next_use_cache


def _native_column(column: np.ndarray) -> np.ndarray:
    """``column`` as the native core reads it: C-contiguous int32 or int64,
    without a copy when it already is one."""
    if column.dtype not in (np.int32, np.int64):
        return np.ascontiguousarray(column, dtype=np.int64)
    return np.ascontiguousarray(column)


@obs_span("stream.build", builder="graph")
def stream_from_graph(
    graph: nx.DiGraph, order: Sequence[Hashable] | None = None
) -> AccessStream:
    """Flatten a CDAG + topological order into an :class:`AccessStream`.

    ``order`` defaults to :func:`~repro.pebbling.greedy.default_order`, taken
    from the index as ids.  A given order must compute every in-degree > 0
    vertex exactly once, parents first; otherwise :class:`PebblingError` is
    raised.  Built from the graph's :class:`~repro.cdag.index.GraphIndex`:
    the parents of each position are gathered from the CSR arrays, and ids
    come from one first-appearance factorization of the interleaved
    ``[parents..., vertex]`` sequence -- the numbering of
    :func:`~repro.pebbling.greedy.stream_vertex_ids`.
    """
    index = graph_index(graph)
    if order is None:
        return _stream_from_index(index, index.computed_order())
    return _stream_from_index(index, index.schedule_positions(list(order)))


def stream_from_ids(graph: nx.DiGraph, vertices: np.ndarray) -> AccessStream:
    """:func:`stream_from_graph` for an order given as indices into the
    graph's :class:`~repro.cdag.index.GraphIndex` (as
    :func:`repro.schedule.derive.blocked_ids` returns it): no label is
    hashed.  The order is checked like a label order
    (:meth:`~repro.cdag.index.GraphIndex.checked_schedule`)."""
    index = graph_index(graph)
    return _stream_from_index(
        index, index.checked_schedule(np.asarray(vertices, dtype=np.int64))
    )


def _stream_from_index(index: GraphIndex, vertices: np.ndarray) -> AccessStream:
    """The stream of the legal schedule ``vertices`` of ``index``'s graph."""
    m = len(vertices)
    counts = index.in_degree[vertices]
    parent_offsets = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=parent_offsets[1:])
    n_reads = int(parent_offsets[-1])
    slots = np.repeat(
        index.parent_offsets[vertices] - parent_offsets[:-1], counts
    ) + np.arange(n_reads, dtype=np.int64)
    # position p's parents, then p's vertex: the vertex sits at
    # parent_offsets[p + 1] + p of the interleaved sequence
    compute_at = parent_offsets[1:] + np.arange(m, dtype=np.int64)
    is_read = np.ones(n_reads + m, dtype=bool)
    is_read[compute_at] = False
    seq = np.empty(n_reads + m, dtype=np.int64)
    seq[compute_at] = vertices
    seq[is_read] = index.parent_ids[slots]
    ids_seq, first_seen = _first_appearance_ids(seq, index.n_vertices)

    return AccessStream(
        n_positions=m,
        n_ids=len(first_seen),
        parent_offsets=parent_offsets,
        parent_ids=ids_seq[is_read],
        computed_ids=ids_seq[compute_at],
        starts_blue=(index.in_degree[first_seen] == 0).astype(np.uint8),
        store_at_compute=(index.out_degree[vertices] == 0).astype(np.uint8),
        labels=[index.labels[i] for i in first_seen.tolist()],
    )


# ---------------------------------------------------------------------------
# IR-direct streaming (the million-vertex and 10^8-access path)
# ---------------------------------------------------------------------------


def _self_update_statement(program: Program):
    """The single statement, validated for IR-direct streaming.

    Supported shape: one statement whose only computed-array read is the
    element it writes (``C[i,j] = f(C[i,j], ...)`` after loop versioning);
    every other read touches pure input arrays.  This is exactly the class
    whose CDAG factorizes into per-element version chains, so parents can be
    resolved on the fly without materializing the graph.
    """
    if len(program.statements) != 1:
        raise ScheduleError(
            "IR-direct streaming supports single-statement programs; "
            f"{program.name!r} has {len(program.statements)}"
        )
    st = program.statements[0]
    out = st.output
    for acc in st.inputs:
        if acc.array == out.array:
            if acc.components != out.components:
                raise ScheduleError(
                    f"{program.name!r}: self-read of {acc.array!r} must match "
                    "the written element for IR-direct streaming"
                )
        # other arrays are treated as inputs below
    return st


def _eval_affine(idx, cols: Mapping[str, np.ndarray], n: int) -> np.ndarray:
    """An :class:`~repro.ir.access.AffineIndex` over whole point columns.

    The overwhelmingly common ``var + 0`` case returns the column itself
    (callers only read); general affine forms are accumulated.
    """
    coeffs = idx.coeffs
    if idx.offset == 0 and len(coeffs) == 1 and coeffs[0][1] == 1:
        return cols[coeffs[0][0]]
    out = np.full(n, idx.offset, dtype=np.int64)
    for var, coeff in coeffs:
        out += coeff * cols[var]
    return out


def _first_appearance_ids(
    seq: np.ndarray, key_space: int
) -> tuple[np.ndarray, np.ndarray]:
    """Factorize ``seq`` into dense first-appearance ids.

    Returns ``(ids_seq, unique_keys_by_id)``: ``ids_seq[t]`` is the id of
    ``seq[t]``, numbering keys 0, 1, ... in order of their first occurrence
    -- the numbering :func:`repro.pebbling.greedy.stream_vertex_ids`
    produces by scanning the access stream.

    When the key space is dense enough a reversed scatter finds each key's
    first occurrence without sorting the whole sequence (first writes win in
    a reversed fancy assignment); otherwise ``np.unique`` does the general
    job.
    """
    if key_space <= max(2 * len(seq), 1 << 16):
        first_slot = np.full(key_space, -1, dtype=np.int64)
        first_slot[seq[::-1]] = np.arange(
            len(seq) - 1, -1, -1, dtype=np.int64
        )
        present = np.nonzero(first_slot >= 0)[0]
        order = np.argsort(first_slot[present], kind="stable")
        uniq = present[order]  # keys in first-appearance order
        id_table = np.empty(key_space, dtype=np.int64)
        id_table[uniq] = np.arange(len(uniq), dtype=np.int64)
        return id_table[seq], uniq
    keys, first_idx, inverse = np.unique(
        seq, return_index=True, return_inverse=True
    )
    order = np.argsort(first_idx, kind="stable")
    id_of_key = np.empty(len(keys), dtype=np.int64)
    id_of_key[order] = np.arange(len(keys), dtype=np.int64)
    return id_of_key[inverse], keys[order]


def _guard_mask(guard: str, params: Mapping[str, int],
                cols: Mapping[str, np.ndarray], n: int) -> np.ndarray:
    """Evaluate a statement guard over whole point columns.

    Tries one vectorized ``eval`` with the iteration variables bound to
    arrays; guards numpy cannot broadcast (chained comparisons, ``and``/
    ``or``) fall back to the per-point loop -- correctness first, the fast
    path covers the simple affine guards.
    """
    code = compile(guard, "<guard>", "eval")
    scope = dict(params)
    scope.update(cols)
    try:
        raw = eval(code, {}, scope)  # noqa: S307 - trusted IR guards
        mask = np.asarray(raw)
        if mask.shape == ():
            return np.full(n, bool(mask))
        if mask.shape != (n,):
            raise ValueError(f"guard mask has shape {mask.shape}")
        return mask.astype(bool)
    except Exception:
        scope = dict(params)
        variables = list(cols)
        columns = [cols[v] for v in variables]
        out = np.empty(n, dtype=bool)
        for i in range(n):
            for var, col in zip(variables, columns):
                scope[var] = int(col[i])
            out[i] = bool(eval(code, {}, scope))  # noqa: S307 - trusted IR
        return out


def _affine_box_range(idx, extents: Mapping[str, int]) -> tuple[int, int]:
    """``(min, max)`` of an affine index over the full iteration box."""
    lo = hi = int(idx.offset)
    for var, coeff in idx.coeffs:
        top = int(extents[var]) - 1
        if coeff >= 0:
            hi += coeff * top
        else:
            lo += coeff * top
    return lo, hi


def _box_spec(
    components: Sequence, extents: Mapping[str, int]
) -> tuple[list[tuple[int, int]], int]:
    """Per-dimension ``(lo, radix)`` shared by all slots of one array.

    Radices come from the affine range over the full iteration box, not
    from the data in hand, so every chunk linearizes into the *same* dense
    key space.  The map is injective on the box, and first-appearance ids
    depend only on the key equality pattern and emission order -- never on
    key values -- so the ids match :func:`stream_from_graph`'s.
    """
    ndim = len(components[0])
    spec: list[tuple[int, int]] = []
    size = 1
    for d in range(ndim):
        lo = hi = None
        for comp in components:
            a, b = _affine_box_range(comp[d], extents)
            lo = a if lo is None else min(lo, a)
            hi = b if hi is None else max(hi, b)
        radix = hi - lo + 1
        spec.append((lo, radix))
        size *= radix
    return spec, size


def _box_keys(
    comp, spec: Sequence[tuple[int, int]], cols: Mapping[str, np.ndarray],
    n: int,
) -> np.ndarray:
    """Linearize one read slot's point columns against a :func:`_box_spec`."""
    key = np.zeros(n, dtype=np.int64)
    for (lo, radix), idx in zip(spec, comp):
        key = key * radix + (_eval_affine(idx, cols, n) - lo)
    return key


def _blocked_column_chunks(
    variables: Sequence[str],
    extents: Mapping[str, int],
    tiles: Mapping[str, int],
    chunk_positions: int,
):
    """Yield ``(columns, n)`` segments of the blocked iteration order.

    The blocked order -- tiles lexicographic over ``variables``, intra-tile
    points lexicographic -- in segments of at most ``chunk_positions``
    points with O(chunk) peak memory.  Tile batches are decomposed fully
    vectorized: tile linear indices -> per-variable tile coordinates (mixed
    radix), then per-point intra-tile coordinates with *per-tile* radices,
    so ragged edge tiles need no special casing.
    """
    if not variables:
        yield {}, 1
        return
    ext = [int(extents[v]) for v in variables]
    tile = [max(1, min(int(tiles[v]), e)) for v, e in zip(variables, ext)]
    n_tiles = [-(-e // t) for e, t in zip(ext, tile)]
    total_tiles = 1
    for x in n_tiles:
        total_tiles *= x
    full_tile = 1
    for x in tile:
        full_tile *= x
    per_batch = max(1, chunk_positions // full_tile)
    for start in range(0, total_tiles, per_batch):
        linear = np.arange(
            start, min(start + per_batch, total_tiles), dtype=np.int64
        )
        tile_coords: list[np.ndarray] = []
        rem = linear
        for count in reversed(n_tiles):
            tile_coords.append(rem % count)
            rem = rem // count
        tile_coords.reverse()
        sizes = [
            np.where(tc == cnt - 1, e - t * (cnt - 1), t)
            for tc, cnt, e, t in zip(tile_coords, n_tiles, ext, tile)
        ]
        counts = sizes[0].astype(np.int64)
        for sz in sizes[1:]:
            counts = counts * sz
        offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
        )
        total = int(offsets[-1])
        tile_of = np.repeat(np.arange(len(linear), dtype=np.int64), counts)
        local = np.arange(total, dtype=np.int64) - offsets[tile_of]
        cols: dict[str, np.ndarray] = {}
        rem = local
        for v, tc, sz, t in zip(
            reversed(variables), reversed(tile_coords), reversed(sizes),
            reversed(tile),
        ):
            per_point = sz[tile_of]
            cols[v] = tc[tile_of] * t + rem % per_point
            rem = rem // per_point
        for a in range(0, total, chunk_positions):
            b = min(a + chunk_positions, total)
            yield {v: cols[v][a:b] for v in variables}, b - a


def single_statement_stream(
    program: Program,
    params: Mapping[str, int],
    *,
    tile_sizes: Mapping[str, int] | None = None,
    variable_order: Sequence[str] | None = None,
    chunk_positions: int | None = None,
) -> AccessStream:
    """Stream a single-statement self-update kernel without building a graph.

    The blocked order (tiles lexicographic over ``variable_order``, then
    intra-tile points) is generated in chunks of at most ``chunk_positions``
    points (default :data:`DEFAULT_CHUNK_POSITIONS`) straight into
    preallocated RAM arrays.  Per chunk, every affine access is evaluated
    over whole point columns, new keys get first-appearance ids from one
    factorization, and program-order legality of each element's
    self-update chain is one grouped monotonicity check; id tables and
    version-chain state carry across chunks, so the stream is the same
    whatever the chunk size.  Raises :class:`ScheduleError` if the blocked
    order would execute a self-update chain out of program order (illegal
    tiling), or if the access keys are too sparse for the carried dense
    tables -- build the CDAG and use :func:`stream_from_graph` then.
    """
    st = _self_update_statement(program)
    variables = list(variable_order or st.iteration_vars)
    if set(variables) != set(st.iteration_vars):
        raise ScheduleError(
            f"variable order {variables} does not match loop variables "
            f"{list(st.iteration_vars)}"
        )
    from repro.cdag.build import extent_values

    extents = extent_values(st, params)
    tiles = {
        var: max(1, min(int(tile_sizes.get(var, 1)), extents[var]))
        if tile_sizes is not None
        else extents[var]
        for var in variables
    }
    if chunk_positions is not None and int(chunk_positions) < 1:
        raise ScheduleError("chunk_positions must be >= 1")
    chunk = int(chunk_positions or DEFAULT_CHUNK_POSITIONS)
    with obs_span("stream.build", builder="ir", kernel=program.name) as sp:
        stream = _ir_stream(
            program, st, params, variables, extents, tiles, chunk
        )
        sp.note(chunk_positions=chunk)
        sp.add("positions", stream.n_positions)
        sp.add("accesses", stream.n_accesses)
        return stream


def _ir_stream(
    program: Program,
    st,
    params: Mapping[str, int],
    variables: list[str],
    extents: Mapping[str, int],
    tiles: Mapping[str, int],
    chunk_positions: int,
) -> AccessStream:
    """Chunk-at-a-time build into preallocated arrays.

    Carried across chunks: a dense ``id_table`` over the input key space
    (first-appearance ids already assigned), per-element ``last_writer`` /
    ``last_rank`` tables resolving self-update chains and their legality,
    and the running position / access / id counters.  Earlier-chunk version
    keys resolve through ``computed_ids`` already written; everything else
    gets ids from one :func:`_first_appearance_ids` call per chunk.
    """
    out_array = st.output.array
    out_component = st.output.components[0]
    # (array, component, is_self) per read, in build_cdag's edge order
    reads = []
    for acc in st.inputs:
        for comp in acc.components:
            reads.append((acc.array, comp, acc.array == out_array))
    # Without a self-read, versions of an element are independent vertices:
    # all of them are program outputs and any execution order is legal.
    has_self = any(is_self for _, _, is_self in reads)
    # Reduction variables: those the output access does not use.  Their
    # lexicographic order (in declared variable order) is the program order
    # of each element's version chain.
    out_vars = set()
    for idx in out_component:
        out_vars.update(idx.variables())
    reduction_vars = [v for v in st.iteration_vars if v not in out_vars]

    n_grid = 1
    for v in variables:
        n_grid *= int(extents[v])

    # Per-array box-derived key specs with disjoint global base ranges.
    input_arrays: list[str] = []
    for arr, _, is_self in reads:
        if not is_self and arr not in input_arrays:
            input_arrays.append(arr)
    array_spec: dict[str, list[tuple[int, int]]] = {}
    array_base: dict[str, int] = {}
    input_total = 0
    for arr in input_arrays:
        comps = [
            comp for a, comp, is_self in reads if a == arr and not is_self
        ]
        spec, size = _box_spec(comps, extents)
        array_spec[arr] = spec
        array_base[arr] = input_total
        input_total += size
    if input_total + n_grid >= 1 << 62:
        raise ScheduleError(
            f"{program.name!r}: access key space too large to linearize"
        )
    # the carried tables are dense over the key spaces: refuse key spaces
    # that would dwarf the stream itself
    dense_cap = max(16 * n_grid, 1 << 22)
    elem_spec = None
    elem_space = 0
    if has_self:
        elem_spec, elem_space = _box_spec([out_component], extents)
    if max(input_total, elem_space) > dense_cap:
        raise ScheduleError(
            f"{program.name!r}: access keys too sparse for IR-direct "
            f"streaming ({max(input_total, elem_space)} keys for {n_grid} "
            "points); build the CDAG and use stream_from_graph"
        )

    # Output arrays at upper-bound sizes (guards can only shrink), trimmed
    # at the end.  A stream spanning several chunks stores int32 wherever
    # the value ranges allow, halving its footprint; a one-chunk stream is
    # small and keeps int64, which replay hands to the native core as is.
    n_read_cols = (
        sum(1 for _, _, is_self in reads if not is_self) + int(has_self)
    )
    id_ub = input_total + n_grid
    acc_ub = n_grid * n_read_cols
    narrow = n_grid > chunk_positions
    int32_max = np.iinfo(np.int32).max
    itype = np.int32 if narrow and id_ub < int32_max else np.int64
    off_dtype = np.int32 if narrow and acc_ub < int32_max else np.int64
    parent_offsets = np.empty(n_grid + 1, off_dtype)
    parent_ids = np.empty(acc_ub, itype)
    computed_ids = np.empty(n_grid, itype)
    store_at = np.empty(n_grid, np.uint8)
    starts_blue = np.zeros(min(id_ub, n_grid * (n_read_cols + 1)), np.uint8)

    id_table = np.full(input_total, -1, dtype=np.int64)
    if has_self:
        last_writer = np.full(elem_space, -1, dtype=np.int64)
        last_rank = np.full(elem_space, -1, dtype=np.int64)

    ncols = len(reads) + 1
    pos_filled = 0
    acc_filled = 0
    next_id = 0
    parent_offsets[0] = 0
    guard = st.guard
    for cols, c in _blocked_column_chunks(
        variables, extents, tiles, chunk_positions
    ):
        if c and guard:
            mask = _guard_mask(guard, params, cols, c)
            if not mask.all():
                cols = {v: col[mask] for v, col in cols.items()}
                c = int(mask.sum())
        if c == 0:
            continue

        # -- self-update chains: previous version per position (global),
        #    legality, and store flags (later chunks may retroactively
        #    clear a store bit already written) ------------------------
        prev_write = np.full(c, -1, dtype=np.int64)
        store = np.ones(c, dtype=np.uint8)
        if has_self:
            elem_keys = _box_keys(out_component, elem_spec, cols, c)
            grouped = np.argsort(elem_keys, kind="stable")
            skeys = elem_keys[grouped]
            same = skeys[1:] == skeys[:-1]
            rank = np.zeros(c, dtype=np.int64)
            for var in reduction_vars:
                rank = rank * int(extents[var]) + cols[var]
            srank = rank[grouped]
            head = np.ones(c, dtype=bool)
            head[1:] = ~same
            tail = np.ones(c, dtype=bool)
            tail[:-1] = ~same
            chain_prev = last_writer[skeys[head]]
            chain_rank = last_rank[skeys[head]]
            bad_in = same & (srank[1:] <= srank[:-1])
            bad_across = (chain_prev >= 0) & (chain_rank >= srank[head])
            if bad_in.any() or bad_across.any():
                _raise_chunk_order_error(
                    out_array, out_component, reduction_vars, extents, cols,
                    c, grouped, same, srank, head, chain_prev, chain_rank,
                    bad_in, bad_across,
                )
            prev_write[grouped[1:][same]] = grouped[:-1][same] + pos_filled
            prev_write[grouped[head]] = chain_prev
            store[grouped[:-1][same]] = 0
            superseded = chain_prev[chain_prev >= 0]
            if len(superseded):
                store_at[superseded] = 0
            last_writer[skeys[tail]] = grouped[tail] + pos_filled
            last_rank[skeys[tail]] = srank[tail]

        # -- key matrix: one row per position, one column per read slot
        #    plus the compute slot; -1 marks suppressed slots (first-version
        #    self-reads and per-position duplicate reads, matching
        #    build_cdag's parent dedup) --------------------------------
        keymat = np.full((c, ncols), -1, dtype=np.int64)
        read_keys: list[np.ndarray | None] = [None] * len(reads)
        self_emitted = False
        for j, (arr, comp, is_self) in enumerate(reads):
            if is_self:
                if self_emitted:
                    continue
                self_emitted = True
                live = prev_write >= 0
                keymat[live, j] = input_total + prev_write[live]
                continue
            key = _box_keys(comp, array_spec[arr], cols, c) + array_base[arr]
            read_keys[j] = key
            keep = np.ones(c, dtype=bool)
            for i in range(j):
                arr_i, _, self_i = reads[i]
                if arr_i == arr and not self_i:
                    keep &= key != read_keys[i]
            keymat[keep, j] = key[keep]
        keymat[:, -1] = (
            input_total + pos_filled + np.arange(c, dtype=np.int64)
        )

        # -- id resolution: table hits, earlier-chunk versions, then one
        #    first-appearance factorization of what is left -------------
        flat = keymat.reshape(-1)
        emitted = flat >= 0
        seq = flat[emitted]
        ids = np.empty(len(seq), dtype=np.int64)
        unknown = np.zeros(len(seq), dtype=bool)
        is_version = seq >= input_total
        v_idx = np.nonzero(is_version)[0]
        v_pos = seq[v_idx] - input_total
        earlier = v_pos < pos_filled
        ids[v_idx[earlier]] = computed_ids[v_pos[earlier]]
        unknown[v_idx[~earlier]] = True
        i_idx = np.nonzero(~is_version)[0]
        looked = id_table[seq[i_idx]]
        ids[i_idx] = looked
        unknown[i_idx] = looked < 0
        if unknown.any():
            sub = seq[unknown]
            # this chunk's version keys, chunk-relative: the key space is
            # then the inputs plus c positions, dense enough to scatter
            sub[sub >= input_total] -= pos_filled
            rank_of, new_keys = _first_appearance_ids(sub, input_total + c)
            ids[unknown] = next_id + rank_of
            new_ids = next_id + np.arange(len(new_keys), dtype=np.int64)
            fresh_inputs = new_keys < input_total
            starts_blue[new_ids[fresh_inputs]] = 1
            id_table[new_keys[fresh_inputs]] = new_ids[fresh_inputs]
            next_id += len(new_keys)

        # -- scatter into the preallocated columns ---------------------
        slot_index = np.nonzero(emitted)[0]
        is_compute = (slot_index % ncols) == ncols - 1
        computed_ids[pos_filled:pos_filled + c] = ids[is_compute]
        n_parents = len(ids) - c
        parent_ids[acc_filled:acc_filled + n_parents] = ids[~is_compute]
        counts = (keymat[:, :-1] >= 0).sum(axis=1, dtype=np.int64)
        parent_offsets[pos_filled + 1:pos_filled + c + 1] = (
            acc_filled + np.cumsum(counts)
        )
        store_at[pos_filled:pos_filled + c] = store
        pos_filled += c
        acc_filled += n_parents

    return AccessStream(
        n_positions=pos_filled,
        n_ids=next_id,
        parent_offsets=parent_offsets[:pos_filled + 1],
        parent_ids=parent_ids[:acc_filled],
        computed_ids=computed_ids[:pos_filled],
        starts_blue=starts_blue[:next_id],
        store_at_compute=store_at[:pos_filled],
        labels=None,
        chunk_positions=chunk_positions,
    )


def _raise_chunk_order_error(
    out_array, out_component, reduction_vars, extents, cols, c, grouped,
    same, srank, head, chain_prev, chain_rank, bad_in, bad_across,
):
    """Reconstruct the offending element/coords for the legality check."""
    out_vals = [_eval_affine(idx, cols, c) for idx in out_component]
    if bad_in.any():
        offenders = grouped[1:][bad_in]
        j = int(np.argmin(offenders))
        p = int(offenders[j])
        q = int(grouped[:-1][bad_in][j])
        element = tuple(int(vals[p]) for vals in out_vals)
        previous = tuple(int(cols[v][q]) for v in reduction_vars)
        current = tuple(int(cols[v][p]) for v in reduction_vars)
    else:
        heads = grouped[head]
        offenders = heads[bad_across]
        j = int(np.argmin(offenders))
        p = int(offenders[j])
        element = tuple(int(vals[p]) for vals in out_vals)
        current = tuple(int(cols[v][p]) for v in reduction_vars)
        # decode the carried mixed-radix rank back into loop coordinates
        rank = int(chain_rank[bad_across][j])
        decoded = []
        for var in reversed(reduction_vars):
            rank, coord = divmod(rank, int(extents[var]))
            decoded.append(coord)
        previous = tuple(reversed(decoded))
    raise ScheduleError(
        f"blocked order executes element {element} of "
        f"{out_array!r} out of program order "
        f"({previous} before {current})"
    )
