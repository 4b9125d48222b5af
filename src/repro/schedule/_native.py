"""Native replay core: the simulator's production executor, compiled C.

This module compiles the replay algorithm of
:mod:`repro.schedule.simulator` -- same heaps, same snapshot-staleness
rule, same deferred dead-marking, same tie-breaks -- to a small shared
object with the system C compiler and drives it through :mod:`ctypes`.
Nothing is installed: the source is embedded here, built once into a user
cache directory (keyed by a hash of the source, so edits rebuild
automatically).  On hosts where that fails (no compiler, sandboxed
filesystem, exotic platform) the pure-Python loop
(:func:`repro.schedule.simulator._replay`) replays instead; the failure is
recorded (:func:`native_status`) and counted (``native_fallbacks_total``).
Equivalence tests pin both executors against
:func:`repro.pebbling.greedy.greedy_pebbling_cost`.

The core is **slab-driven**: ``replay_new`` allocates a replay context
(heaps, residency table, blue set, counters), ``replay_slab`` advances it
over one chunk of positions with slab-local arrays (offsets rebased to 0),
``replay_counts`` reads the running totals, and ``replay_free`` releases
everything.  The simulator feeds chunk-sized slabs so the C core never
needs the full stream resident -- one ctypes call per slab, state carried
in the context.

Set ``REPRO_NO_NATIVE_REPLAY=1`` to force the pure-Python path (used by the
differential tests and benchmark A/B runs).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

_SOURCE = r"""
#include <stdlib.h>
#include <string.h>

typedef long long i64;

typedef struct { i64 *a; i64 len, cap; } heap_t;

static int hpush(heap_t *h, i64 v) {
    if (h->len == h->cap) {
        i64 ncap = h->cap ? h->cap * 2 : 1024;
        i64 *na = (i64 *)realloc(h->a, (size_t)ncap * sizeof(i64));
        if (!na) return -1;
        h->a = na; h->cap = ncap;
    }
    i64 i = h->len++;
    while (i > 0) {
        i64 p = (i - 1) >> 1;
        if (h->a[p] <= v) break;
        h->a[i] = h->a[p]; i = p;
    }
    h->a[i] = v;
    return 0;
}

/* Bottom-up O(n) heapify, used after stale-snapshot compaction. */
static void hheapify(heap_t *h) {
    for (i64 i = h->len / 2 - 1; i >= 0; i--) {
        i64 v = h->a[i], j = i;
        for (;;) {
            i64 c = 2 * j + 1;
            if (c >= h->len) break;
            if (c + 1 < h->len && h->a[c + 1] < h->a[c]) c++;
            if (h->a[c] >= v) break;
            h->a[j] = h->a[c]; j = c;
        }
        h->a[j] = v;
    }
}

/* Keys are unique (id is mixed into every key), so pops return the same
 * sequence as CPython's heapq regardless of internal layout. */
static i64 hpop(heap_t *h) {
    i64 top = h->a[0];
    i64 last = h->a[--h->len];
    i64 i = 0;
    for (;;) {
        i64 c = 2 * i + 1;
        if (c >= h->len) break;
        if (c + 1 < h->len && h->a[c + 1] < h->a[c]) c++;
        if (h->a[c] >= last) break;
        h->a[i] = h->a[c]; i = c;
    }
    if (h->len) h->a[i] = last;
    return top;
}

/* Replay context: everything carried across slabs. */
typedef struct {
    i64 m, s, dead_floor, heap_cap;
    int belady;
    heap_t heap, dead, stash;
    i64 *current_key;
    unsigned char *blue;
    i64 *dying;
    i64 dying_len, dying_cap;
    i64 loads, stores, evictions, compactions, red;
} ctx_t;

/* Shared eviction core: mirror of simulator.make_room.  The callers take
 * the Belady dead fast path first, so this only runs when the dead heap is
 * empty (and always under LRU). */
static int make_room(ctx_t *c, const i64 *protect, i64 n_protect) {
    while (c->red >= c->s) {
        i64 victim = -1, entry = 0;
        while (c->heap.len) {
            entry = hpop(&c->heap);
            i64 pid = (c->belady ? -entry : entry) % c->m;
            if (c->current_key[pid] != entry) continue;  /* stale */
            int prot = 0;
            for (i64 t = 0; t < n_protect; t++)
                if (protect[t] == pid) { prot = 1; break; }
            if (prot) {
                if (hpush(&c->stash, entry)) return -3;
                continue;
            }
            victim = pid;
            break;
        }
        while (c->stash.len)
            if (hpush(&c->heap, hpop(&c->stash))) return -3;
        if (victim < 0) return -1;
        int live = c->belady ? (entry > c->dead_floor)
                             : (int)((entry / c->m) & 1);
        if (live && !c->blue[victim]) { c->stores++; c->blue[victim] = 1; }
        c->current_key[victim] = 1;  /* NOT_RESIDENT */
        c->red--; c->evictions++;
    }
    return 0;
}

void replay_free(void *ptr) {
    ctx_t *c = (ctx_t *)ptr;
    if (!c) return;
    free(c->current_key); free(c->blue); free(c->dying);
    free(c->heap.a); free(c->dead.a); free(c->stash.a);
    free(c);
}

/* A fresh context, or NULL on allocation failure. */
void *replay_new(i64 m, i64 s, int belady,
                 const unsigned char *starts_blue, i64 dead_floor)
{
    ctx_t *c = (ctx_t *)calloc(1, sizeof(ctx_t));
    if (!c) return 0;
    c->m = m; c->s = s; c->dead_floor = dead_floor; c->belady = belady;
    c->heap_cap = 4 * s > 8192 ? 4 * s : 8192;
    size_t mm = (size_t)(m > 0 ? m : 1);
    c->current_key = (i64 *)malloc(mm * sizeof(i64));
    c->blue = (unsigned char *)malloc(mm);
    c->dying = (i64 *)malloc(64 * sizeof(i64));
    c->dying_cap = 64;
    if (!c->current_key || !c->blue || !c->dying) {
        replay_free(c);
        return 0;
    }
    for (i64 i = 0; i < m; i++) c->current_key[i] = 1;  /* NOT_RESIDENT */
    if (m) memcpy(c->blue, starts_blue, (size_t)m);
    return c;
}

/* Advance the context over one slab of positions.  ``offsets`` has
 * slab_positions + 1 entries rebased to 0; parents/access_keys run over
 * the slab's accesses only; computed/store_at/compute_keys over its
 * positions.  Returns 0 on success, -1 when S is too small, -2 when a
 * needed value is neither red nor blue (id in *err_id), -3 on allocation
 * failure. */
int replay_slab(void *ptr, i64 slab_positions,
                const i64 *offsets, const i64 *parents, const i64 *computed,
                const unsigned char *store_at,
                const i64 *access_keys, const i64 *compute_keys,
                i64 *err_id)
{
    ctx_t *c = (ctx_t *)ptr;
    const i64 NOT_RES = 1, DEAD_MARK = 2;
    i64 s = c->s, dead_floor = c->dead_floor;
    int belady = c->belady;

    for (i64 pos = 0; pos < slab_positions; pos++) {
        i64 lo = offsets[pos], hi = offsets[pos + 1];
        for (i64 k = lo; k < hi; k++) {
            i64 pid = parents[k];
            i64 key = access_keys[k];
            if (c->current_key[pid] == NOT_RES) {
                if (!c->blue[pid]) { *err_id = pid; return -2; }
                c->loads++;
                if (c->red < s) c->red++;
                else if (c->dead.len) {
                    c->current_key[-hpop(&c->dead)] = NOT_RES;
                    c->evictions++;
                } else {
                    int rc = make_room(c, parents + lo, hi - lo);
                    if (rc) return rc;
                    c->red++;
                }
            }
            if (key > dead_floor) {
                c->current_key[pid] = key;
                if (hpush(&c->heap, key)) return -3;
            } else {  /* last use: deferred dead-heap push */
                c->current_key[pid] = DEAD_MARK;
                if (c->dying_len == c->dying_cap) {
                    i64 ncap = c->dying_cap * 2;
                    i64 *nd = (i64 *)realloc(c->dying,
                                             (size_t)ncap * sizeof(i64));
                    if (!nd) return -3;
                    c->dying = nd; c->dying_cap = ncap;
                }
                c->dying[c->dying_len++] = -pid;
            }
        }
        if (c->red < s) c->red++;
        else if (c->dead.len) {
            c->current_key[-hpop(&c->dead)] = NOT_RES;
            c->evictions++;
        } else {
            int rc = make_room(c, parents + lo, hi - lo);
            if (rc) return rc;
            c->red++;
        }
        i64 vid = computed[pos], ckey = compute_keys[pos];
        if (ckey > dead_floor) {
            c->current_key[vid] = ckey;
            if (hpush(&c->heap, ckey)) return -3;
        } else {
            c->current_key[vid] = DEAD_MARK;
            if (hpush(&c->dead, -vid)) return -3;
        }
        if (store_at[pos]) { c->blue[vid] = 1; c->stores++; }
        while (c->dying_len)
            if (hpush(&c->dead, c->dying[--c->dying_len])) return -3;
        /* Mirror the Python loop's compaction: bound the lazy snapshot
         * heap at O(S) instead of O(accesses).  Removing stale entries
         * never changes a pop result (they are skipped at pop time). */
        if (c->heap.len > c->heap_cap) {
            i64 w = 0;
            for (i64 t = 0; t < c->heap.len; t++) {
                i64 e = c->heap.a[t];
                i64 pid = (belady ? -e : e) % c->m;
                if (c->current_key[pid] == e) c->heap.a[w++] = e;
            }
            c->heap.len = w;
            hheapify(&c->heap);
            c->compactions++;
        }
    }
    return 0;
}

/* out: loads, stores, evictions, heap compactions.  Cheap enough to call
 * after every slab -- the traced replay path reads per-slab deltas from
 * here so spans carry real work counters. */
void replay_counts(void *ptr, i64 *out) {
    ctx_t *c = (ctx_t *)ptr;
    out[0] = c->loads; out[1] = c->stores; out[2] = c->evictions;
    out[3] = c->compactions;
}
"""

_lib: ctypes.CDLL | None | bool = None  # None = not tried, False = unavailable
#: typed record of why the native core is unavailable (None while untried
#: or loaded): {"error_class", "message"} -- surfaced via native_status()
_build_error: dict | None = None


def _cache_dir() -> Path:
    """The preferred build cache: override, then XDG, then ``~/.cache``."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "repro-native"
    return Path.home() / ".cache" / "repro-native"


def _cache_candidates() -> list[Path]:
    """Cache dirs in preference order: :func:`_cache_dir`, then a per-user
    tempdir -- sandboxed CI often mounts the home cache read-only, and
    silently losing the native core there costs 30x replay throughput."""
    user = getattr(os, "getuid", lambda: "u")()
    return [
        _cache_dir(),
        Path(tempfile.gettempdir()) / f"repro-native-{user}",
    ]


def _build() -> ctypes.CDLL | None:
    from repro import faults

    faults.inject("native.compile")
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    so_name = f"replay-{digest}.so"
    candidates = _cache_candidates()
    for cache in candidates:
        so_path = cache / so_name
        if so_path.exists():
            return _load(so_path)
    for cache in candidates:
        try:
            cache.mkdir(parents=True, exist_ok=True)
            so_path = cache / so_name
            src = cache / f"replay-{digest}.c"
            src.write_text(_SOURCE)
            with tempfile.NamedTemporaryFile(
                suffix=".so", dir=cache, delete=False
            ) as tmp:
                tmp_path = Path(tmp.name)
        except OSError:
            continue  # unwritable cache: fall through to the next candidate
        result = subprocess.run(
            ["cc", "-O2", "-shared", "-fPIC", "-o", str(tmp_path), str(src)],
            capture_output=True,
            timeout=120,
        )
        if result.returncode != 0:
            tmp_path.unlink(missing_ok=True)
            return None  # a broken compiler will not improve elsewhere
        os.replace(tmp_path, so_path)  # atomic under concurrent builders
        return _load(so_path)
    return None


def _load(so_path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(so_path))
    i64 = ctypes.c_longlong
    p64 = ctypes.POINTER(i64)
    pu8 = ctypes.POINTER(ctypes.c_ubyte)
    lib.replay_new.argtypes = [i64, i64, ctypes.c_int, pu8, i64]
    lib.replay_new.restype = ctypes.c_void_p
    lib.replay_slab.argtypes = [
        ctypes.c_void_p, i64, p64, p64, p64, pu8, p64, p64, p64,
    ]
    lib.replay_slab.restype = ctypes.c_int
    lib.replay_counts.argtypes = [ctypes.c_void_p, p64]
    lib.replay_counts.restype = None
    lib.replay_free.argtypes = [ctypes.c_void_p]
    lib.replay_free.restype = None
    return lib


def native_replay_lib() -> ctypes.CDLL | None:
    """The compiled replay core, or ``None`` when unavailable/disabled.

    A failed build degrades to the (30x slower) Python core.  The failure
    is recorded typed (:func:`native_status`) and counted once per process
    (``native_fallbacks_total``) so the degradation is visible in metrics
    instead of being a silent throughput cliff.
    """
    global _lib, _build_error
    if os.environ.get("REPRO_NO_NATIVE_REPLAY"):
        return None
    if _lib is None:
        try:
            lib = _build()
            if lib is None:
                _build_error = {
                    "error_class": "CompileFailed",
                    "message": "cc failed or no writable cache dir",
                }
            _lib = lib or False
        except Exception as err:  # noqa: BLE001 - degrade, never crash replay
            _build_error = {
                "error_class": type(err).__name__,
                "message": str(err),
            }
            _lib = False
        if _lib is False:
            from repro.obs import default_registry

            default_registry().inc(
                "native_fallbacks_total",
                error=_build_error["error_class"],
            )
    return _lib or None


def native_status() -> dict:
    """Diagnostics: is the native core loaded, and if not, why not."""
    if os.environ.get("REPRO_NO_NATIVE_REPLAY"):
        return {"available": False, "reason": "disabled (REPRO_NO_NATIVE_REPLAY)"}
    if _lib is None:
        return {"available": None, "reason": "not yet attempted"}
    if _lib is False:
        out = {"available": False}
        if _build_error is not None:
            out.update(_build_error)
        return out
    return {"available": True}
