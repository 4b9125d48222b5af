"""Streaming I/O replay: flat-array pebbling without the pebble game.

``simulate_io`` replays an :class:`~repro.schedule.stream.AccessStream`
against a fast memory of ``S`` slots and counts loads and stores.  The
semantics are exactly those of :func:`repro.pebbling.greedy
.greedy_pebbling_cost`, which stays the test oracle: operands are loaded on
miss, a slot is freed by evicting the victim chosen by the policy (Belady:
farthest next use; LRU: least recently touched; ties to the largest stream
id), evicted live values (a further use exists and no blue copy) are
written back first, and program outputs are stored at compute time.
Differential tests assert **bit-identical** loads, stores, and evictions
on the same stream.

Why it scales where :class:`~repro.pebbling.game.PebbleGame` cannot: no
per-vertex hashing of tuple labels, no move list, no legality replay.  The
heap keys are *precomputed as whole numpy arrays*, one position slab at a
time (:func:`_policy_keys_slab`), from the stream's memoized next-use
arrays (:meth:`~repro.schedule.stream.AccessStream.next_use_arrays`):

* Belady pushes ``-(next_use * n_ids + id)`` -- a min-heap of negatives
  pops the farthest next use, ties to the largest id, and an entry above
  ``-(inf * n_ids)`` is live (needs write-back);
* LRU pushes ``(clock * 2 + live) * n_ids + id`` where the touch clock is
  known in advance (touches happen in stream order), so even the liveness
  bit is baked into the key.

The eviction core therefore does no arithmetic beyond indexing: an entry
is valid iff it equals ``current_key[id]`` (no division), and each access
pushes exactly one fresh snapshot.  The production executor is the
compiled core of :mod:`repro.schedule._native`, fed slab by slab; the
pure-Python loop :func:`_replay` runs the same algorithm on hosts without
a C compiler (or under ``REPRO_NO_NATIVE_REPLAY=1``).  The whole replay is
``O(accesses * log S)`` with tiny constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import islice

import numpy as np

from repro.obs import NULL_SPAN
from repro.obs import span as obs_span
from repro.schedule.stream import DEFAULT_CHUNK_POSITIONS, AccessStream
from repro.util.errors import PebblingError

#: ``current_key`` sentinel for "not resident": Belady keys are <= 0 and
#: LRU keys are >= 2, so 1 collides with neither.
_NOT_RESIDENT = 1
#: ``current_key`` sentinel for a resident whose next use is infinity (it
#: lives in the dead heap, not the lazy snapshot heap)
_DEAD = 2


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one replay."""

    policy: str
    s: int
    loads: int
    stores: int
    n_positions: int
    n_accesses: int
    evictions: int
    #: stale-snapshot heap compactions performed during the replay
    compactions: int = 0

    @property
    def cost(self) -> int:
        """Total I/O: the certified upper bound on ``Q`` for this schedule."""
        return self.loads + self.stores


def simulate_io(
    stream: AccessStream,
    s: int,
    *,
    policy: str = "belady",
    slab_positions: int | None = None,
) -> SimulationResult:
    """Replay ``stream`` with ``s`` fast-memory slots under ``policy``.

    Runs the compiled replay core (see :mod:`repro.schedule._native`), or
    the pure-Python loop on hosts where it cannot be built; differential
    tests assert the two agree bit for bit.  ``slab_positions`` bounds how
    many positions are converted and handed to the C core per call
    (default: the stream's own chunk size, else
    :data:`~repro.schedule.stream.DEFAULT_CHUNK_POSITIONS`) -- the result
    is bit-identical whatever the slab size, only peak memory changes.
    """
    if s < 1:
        raise PebblingError("need at least one fast-memory slot")
    if slab_positions is not None and int(slab_positions) < 1:
        raise PebblingError("slab_positions must be >= 1")
    if policy not in ("belady", "lru"):
        raise PebblingError(f"unknown eviction policy {policy!r}")
    belady = policy == "belady"
    with obs_span("replay", policy=policy, s=int(s)) as sp:
        result = _native_replay(
            stream, s, belady=belady, slab_positions=slab_positions
        )
        native = result is not None
        if result is None:
            result = _replay(stream, s, belady=belady)
        sp.note(native=native, n_accesses=result.n_accesses)
        sp.add("loads", result.loads)
        sp.add("stores", result.stores)
        sp.add("evictions", result.evictions)
        sp.add("compactions", result.compactions)
        return result


def _native_replay(
    stream: AccessStream,
    s: int,
    *,
    belady: bool,
    slab_positions: int | None = None,
) -> SimulationResult | None:
    """Drive the compiled core; ``None`` when no native library exists.

    The core runs over position slabs with carried state (one
    ``replay_slab`` call each): per slab, the stream columns are converted
    to contiguous int64 and the policy heap keys computed from the
    O(chunk + id-space) next-use arrays -- so replay never materializes an
    O(stream) int64 temporary.
    """
    from repro.schedule._native import native_replay_lib

    lib = native_replay_lib()
    if lib is None:
        return None
    import ctypes

    n = stream.n_positions
    m = stream.n_ids
    slab = int(
        slab_positions or stream.chunk_positions or DEFAULT_CHUNK_POSITIONS
    )
    next_after, first_use = stream.next_use_arrays()

    i64p = ctypes.POINTER(ctypes.c_longlong)
    u8p = ctypes.POINTER(ctypes.c_ubyte)
    starts_blue = np.ascontiguousarray(stream.starts_blue, dtype=np.uint8)
    ctx = lib.replay_new(
        m, s, 1 if belady else 0, starts_blue.ctypes.data_as(u8p), -(n * m)
    )
    if not ctx:
        return None  # allocation failure: fall back to the Python loop
    try:
        err_id = (ctypes.c_longlong * 1)(-1)
        out = (ctypes.c_longlong * 4)(0, 0, 0, 0)
        prev_counts = (0, 0, 0, 0)
        offsets = stream.parent_offsets
        for lo in range(0, n, slab) if n else ():
            hi = min(lo + slab, n)
            a_lo = int(offsets[lo])
            a_hi = int(offsets[hi])
            # NULL_SPAN when untraced: the per-slab counter readback below
            # is skipped and the slab loop stays free of tracing overhead
            with obs_span("replay.slab", lo=lo, hi=hi) as slab_span:
                slab_off = np.subtract(
                    offsets[lo:hi + 1], a_lo, dtype=np.int64
                )
                parents = np.ascontiguousarray(
                    stream.parent_ids[a_lo:a_hi], dtype=np.int64
                )
                computed = np.ascontiguousarray(
                    stream.computed_ids[lo:hi], dtype=np.int64
                )
                store_at = np.ascontiguousarray(
                    stream.store_at_compute[lo:hi], dtype=np.uint8
                )
                akeys, ckeys = _policy_keys_slab(
                    stream, next_after, first_use, lo, hi, a_lo, a_hi,
                    parents, computed, belady=belady,
                )
                rc = lib.replay_slab(
                    ctx,
                    hi - lo,
                    slab_off.ctypes.data_as(i64p),
                    parents.ctypes.data_as(i64p),
                    computed.ctypes.data_as(i64p),
                    store_at.ctypes.data_as(u8p),
                    akeys.ctypes.data_as(i64p),
                    ckeys.ctypes.data_as(i64p),
                    err_id,
                )
                if rc == -1:
                    raise PebblingError(f"S={s} too small for the working set")
                if rc == -2:
                    raise PebblingError(
                        f"value id={int(err_id[0])} needed but neither red "
                        "nor blue (order recomputes a discarded value?)"
                    )
                if rc != 0:  # allocation failure: fall back to Python loop
                    return None
                if slab_span is not NULL_SPAN:
                    lib.replay_counts(ctx, out)
                    now = (int(out[0]), int(out[1]), int(out[2]), int(out[3]))
                    slab_span.add("accesses", a_hi - a_lo)
                    slab_span.add("loads", now[0] - prev_counts[0])
                    slab_span.add("stores", now[1] - prev_counts[1])
                    slab_span.add("evictions", now[2] - prev_counts[2])
                    slab_span.add("compactions", now[3] - prev_counts[3])
                    prev_counts = now
        lib.replay_counts(ctx, out)
        loads, stores, evictions, compactions = (
            int(out[0]), int(out[1]), int(out[2]), int(out[3])
        )
    finally:
        lib.replay_free(ctx)
    return SimulationResult(
        policy="belady" if belady else "lru",
        s=s,
        loads=loads,
        stores=stores,
        n_positions=n,
        n_accesses=stream.n_accesses,
        evictions=evictions,
        compactions=compactions,
    )


def _policy_keys_slab(
    stream: AccessStream,
    next_after: np.ndarray,
    first_use: np.ndarray,
    lo: int,
    hi: int,
    a_lo: int,
    a_hi: int,
    parents: np.ndarray,
    computed: np.ndarray,
    *,
    belady: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Heap keys for positions ``[lo, hi)`` / accesses ``[a_lo, a_hi)``.

    One key per access, one per computed vertex: the key *is* the priority
    snapshot the eviction core compares and the value stored in
    ``current_key``, so the executors do no key arithmetic.  ``parents`` /
    ``computed`` are the already-converted int64 slab columns; clocks use
    global indices, so the keys do not depend on the slab boundaries.
    """
    m = stream.n_ids
    # Widen while computing, into fresh int64 buffers finished in place:
    # extra slab-sized temporaries are measurable next to the replay.
    # Index first_use before widening: widening first would materialize
    # the O(id-space) table on every slab.
    if belady:
        akeys = np.multiply(next_after[a_lo:a_hi], -m, dtype=np.int64)
        akeys -= parents
        ckeys = np.multiply(first_use[computed], -m, dtype=np.int64)
        ckeys -= computed
        return akeys, ckeys
    # LRU: the touch clock is deterministic -- one tick per operand read
    # (in stream order), one per compute -- so the stamp of every touch is
    # known in advance.  The liveness bit rides along in the key.
    inf = stream.n_positions
    offsets = stream.parent_offsets
    access_live = next_after[a_lo:a_hi] < inf
    compute_live = first_use[computed] < inf
    akeys = np.repeat(
        np.arange(lo, hi, dtype=np.int64), np.diff(offsets[lo:hi + 1])
    )
    akeys += np.arange(a_lo + 1, a_hi + 1, dtype=np.int64)
    ckeys = np.add(
        offsets[lo + 1:hi + 1], np.arange(lo + 1, hi + 1, dtype=np.int64),
        dtype=np.int64,
    )
    for keys, live, ids in (
        (akeys, access_live, parents), (ckeys, compute_live, computed)
    ):
        keys *= 2
        keys += live
        keys *= m
        keys += ids
    return akeys, ckeys


def _replay(stream: AccessStream, s: int, *, belady: bool) -> SimulationResult:
    """The pure-Python replay loop; ``belady`` selects the eviction priority.

    The executor on hosts without a C compiler: the same algorithm as the
    native core, keyed by :func:`_policy_keys_slab` over one whole-stream
    slab.  State is flat and integer-indexed: ``current_key[id]`` holds the
    only valid heap snapshot of a resident id (``_NOT_RESIDENT``
    otherwise), so pop-time validity is a single equality test, and stale
    or protected entries are skipped (protected ones stashed and re-pushed).
    """
    n_positions = stream.n_positions
    m = stream.n_ids
    next_after, first_use = stream.next_use_arrays()
    parents_arr = np.asarray(stream.parent_ids, dtype=np.int64)
    computed_arr = np.asarray(stream.computed_ids, dtype=np.int64)
    access_keys_arr, compute_keys_arr = _policy_keys_slab(
        stream, next_after, first_use, 0, n_positions, 0, len(parents_arr),
        parents_arr, computed_arr, belady=belady,
    )
    access_keys = access_keys_arr.tolist()
    compute_keys = compute_keys_arr.tolist()
    counts_arr = np.diff(stream.parent_offsets)
    # per-position operand counts iterate as bytes when they fit (cached
    # small ints, no per-element conversion); pathological fan-in falls
    # back to a list
    if len(counts_arr) == 0 or int(counts_arr.max()) < 256:
        counts = counts_arr.astype(np.uint8).tobytes()
    else:
        counts = counts_arr.tolist()
    parents = parents_arr.tolist()
    computed = computed_arr.tolist()
    store_flag = stream.store_at_compute.tobytes()
    dead_floor = -(n_positions * m)  # Belady: entries <= floor have nu == inf

    current_key = [_NOT_RESIDENT] * m
    blue = bytearray(stream.starts_blue.tobytes())
    loads = stores = evictions = compactions = 0
    red_count = 0
    heap: list[int] = []
    #: Belady only: resident ids whose next use is infinity, as a max-id
    #: heap of ``-id``.  Dead residents outrank every live one (inf beats
    #: any real next use, ties to the largest id), are never accessed again
    #: (so entries cannot go stale), and are evicted without write-back --
    #: the common-case eviction is two O(log S) heap ops on small ints,
    #: and the lazy snapshot heap is only consulted when no unprotected
    #: dead resident exists.
    dead_heap: list[int] = []
    stash: list[int] = []
    push, pop = heappush, heappop

    def make_room(protect: list[int]) -> None:
        """Shared eviction core: free one slot, writing back live victims.

        Callers take the Belady dead fast path inline (pop the max-id dead
        resident -- it outranks every live one, cannot be stale, and ids
        dying at the current position are not pushed yet, so it is never
        protected); this core runs when the dead heap is empty, and always
        under LRU.
        """
        nonlocal red_count, stores, evictions
        while red_count >= s:
            victim = -1
            entry = 0
            while heap:
                entry = pop(heap)
                pid = (-entry if belady else entry) % m
                if current_key[pid] != entry:
                    continue  # stale snapshot or already evicted
                if pid in protect:
                    stash.append(entry)
                    continue
                victim = pid
                break
            for stashed in stash:
                push(heap, stashed)
            del stash[:]
            if victim < 0:
                raise PebblingError(f"S={s} too small for the working set")
            live = entry > dead_floor if belady else (entry // m) & 1
            if live and not blue[victim]:
                stores += 1
                blue[victim] = 1
            current_key[victim] = _NOT_RESIDENT
            red_count -= 1
            evictions += 1

    not_resident = _NOT_RESIDENT
    dead_mark = _DEAD
    dying: list[int] = []  # ids whose last use is the current position
    # Stale snapshots outnumber valid ones quickly (every re-access strands
    # one), and under Belady they are the *last* entries a max-pop would
    # surface -- left alone the heap grows with the stream and drags cache
    # locality down.  Compacting to the currently-valid entries whenever the
    # heap passes ~4x the resident capacity keeps it O(S): each compaction
    # is O(cap) and at least half the entries it scans are garbage.
    heap_cap = max(4 * s, 8192)
    accesses = zip(parents, access_keys)  # consumed in step with positions
    lo = 0
    for count, vid, compute_key, store in zip(
        counts, computed, compute_keys, store_flag
    ):
        hi = lo + count
        for pid, key in islice(accesses, count):
            if current_key[pid] == not_resident:
                if not blue[pid]:
                    raise PebblingError(
                        f"value id={pid} needed but neither red nor blue "
                        "(order recomputes a discarded value?)"
                    )
                loads += 1
                if red_count < s:
                    red_count += 1
                elif dead_heap:
                    # inlined dead fast path: one out, one in -- red_count
                    # is unchanged and the victim needs no write-back
                    current_key[-pop(dead_heap)] = not_resident
                    evictions += 1
                else:
                    # only the snapshot-heap path needs the protected set
                    make_room(parents[lo:hi])
                    red_count += 1
            if key > dead_floor:  # still has a future use
                current_key[pid] = key
                push(heap, key)
            else:
                # Last use: nu == inf from here on.  The dead-heap push is
                # deferred past this position's evictions -- the id is
                # protected here anyway (it is being read), exactly as its
                # not-yet-advanced next use protects it in the pebble game.
                current_key[pid] = dead_mark
                dying.append(-pid)
        # the fresh vertex holds no red pebble yet, so it can never be
        # popped as a victim -- protecting the parents suffices
        if red_count < s:
            red_count += 1
        elif dead_heap:
            current_key[-pop(dead_heap)] = not_resident
            evictions += 1
        else:
            make_room(parents[lo:hi])
            red_count += 1
        if compute_key > dead_floor:
            current_key[vid] = compute_key
            push(heap, compute_key)
        else:  # computed but never read: dead on arrival
            current_key[vid] = dead_mark
            dying.append(-vid)
        if store:
            blue[vid] = 1
            stores += 1
        lo = hi
        if dying:
            for entry in dying:
                push(dead_heap, entry)
            del dying[:]
        if len(heap) > heap_cap:
            if belady:
                heap[:] = [e for e in heap if current_key[-e % m] == e]
            else:
                heap[:] = [e for e in heap if current_key[e % m] == e]
            heapify(heap)
            compactions += 1

    return SimulationResult(
        policy="belady" if belady else "lru",
        s=s,
        loads=loads,
        stores=stores,
        n_positions=n_positions,
        n_accesses=stream.n_accesses,
        evictions=evictions,
        compactions=compactions,
    )
