"""Persistent solve store: the one sqlite tier behind every solve cache.

:class:`SharedSolveStore` is the only persistence tier of
:class:`~repro.engine.cache.SolveCache`.  ``SolveCache(cache_dir)`` opens
``<cache_dir>/solves.sqlite`` (:data:`STORE_FILE`), the same file the
analysis service opens under ``repro serve --cache-dir``, so the CLI, the
library, ``analyze_many``'s workers and the daemon's fleet all share one
store.  Every process opens the same sqlite file (WAL mode, so N readers
and one writer coexist without blocking each other), keyed by the engine's
canonical problem identity ``<signature>-exact-r<SOLVER_REVISION>``.
Three guarantees:

* **solve-once across processes** -- a ``claims`` protocol layered on the
  same table: a process that misses atomically *claims* the key before
  solving, and any other process arriving at the same signature blocks on
  the claim instead of duplicating the solve (cross-process request
  coalescing at the solver level);
* **crash safety** -- claims carry a lease; a claim whose holder died is
  reclaimed by the next arrival once the lease expires, so a crashed
  worker can delay a solve but never wedge it;
* **fork safety** -- sqlite connections must not cross ``fork()``, so the
  store hands out one connection per (process, thread) and re-opens
  transparently when the pid changes (the tightness sweep forks workers
  that inherit the engine's store handle).

Values are :class:`SolveOutcome` records serialized by
:func:`encode_outcome` as JSON with :func:`sympy.srepr` expressions, which
round-trips symbol assumptions (``positive=True``) -- essential, because
``repro``'s canonical symbols carry assumptions and sympy treats
``Symbol('N')`` and ``Symbol('N', positive=True)`` as different symbols.
Results served from the store are therefore bit-identical to fresh solves,
whichever process solved them.  A second ``reports`` table stores finished
analysis artifacts (the DaCe/PyOP2 compiled-artifact pattern): warm kernel
requests are served straight from the store without re-running the
analysis pipeline.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import sympy as sp

from repro import faults
from repro.opt.kkt import SOLVER_REVISION, ChiSolution

#: the store's file name inside a ``--cache-dir``
STORE_FILE = "solves.sqlite"
#: version of the ``solves.payload`` JSON encoding
_SCHEMA = 1
#: version of the table layout, recorded in the ``meta`` table
_DB_SCHEMA = 1

#: how long a claim protects an in-flight solve before others may reclaim it
DEFAULT_LEASE_SECONDS = 300.0
#: how often a coalesced waiter re-checks the claim it is blocked on
DEFAULT_POLL_SECONDS = 0.02
#: sqlite busy handler budget (writer contention between workers)
_BUSY_TIMEOUT_SECONDS = 10.0


@dataclass(frozen=True)
class SolveOutcome:
    """Result of one canonical problem (8): a solution or a solver failure."""

    solution: ChiSolution | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.solution is not None


def encode_outcome(outcome: SolveOutcome) -> str:
    """The JSON payload of one ``solves`` row."""
    if outcome.solution is None:
        # Failures depend on what the solver *can* do, so they carry the
        # solver revision; solutions are verified facts and never go stale.
        payload = {
            "schema": _SCHEMA,
            "status": "error",
            "message": outcome.error,
            "solver_revision": SOLVER_REVISION,
        }
    else:
        solution = outcome.solution
        payload = {
            "schema": _SCHEMA,
            "status": "ok",
            "chi": sp.srepr(solution.chi),
            "tiles": {name: sp.srepr(expr) for name, expr in solution.tiles.items()},
            "capped": list(solution.capped),
            "pinned": list(solution.pinned),
            "exact": bool(solution.exact),
            "notes": list(solution.notes),
        }
    return json.dumps(payload)


def decode_outcome(payload: str | None) -> SolveOutcome | None:
    """Inverse of :func:`encode_outcome`; ``None`` for anything unusable.

    Corrupt rows, other payload schemas and failures recorded by an older
    solver revision all read as a miss: re-solving is always correct.
    """
    try:
        decoded = json.loads(payload)
        if decoded.get("schema") != _SCHEMA:
            return None
        if decoded["status"] == "error":
            if decoded.get("solver_revision") != SOLVER_REVISION:
                return None  # stale failure: a newer solver may succeed
            return SolveOutcome(error=str(decoded["message"]))
        return SolveOutcome(
            solution=ChiSolution(
                chi=_parse_srepr(decoded["chi"]),
                tiles={
                    name: _parse_srepr(expr)
                    for name, expr in decoded["tiles"].items()
                },
                capped=tuple(decoded["capped"]),
                pinned=tuple(decoded["pinned"]),
                exact=bool(decoded["exact"]),
                notes=tuple(decoded["notes"]),
            )
        )
    except Exception:  # noqa: BLE001 - corrupt rows fall through to re-solve
        return None


@lru_cache(maxsize=4096)
def _parse_srepr(text: str) -> sp.Expr:
    """``sp.sympify`` of one stored ``srepr``; rows repeat their expressions."""
    return sp.sympify(text)


@dataclass
class StoreStats:
    """Per-process counters of one store handle (deltas ship to /metrics)."""

    hits: int = 0  #: get/claim found a finished solve
    misses: int = 0  #: get found nothing usable
    stores: int = 0  #: finished solves written
    claims: int = 0  #: claims acquired (fresh solves started here)
    reclaims: int = 0  #: claims taken over after a holder's lease expired
    waits: int = 0  #: wait episodes on another process's claim
    coalesced: int = 0  #: waits resolved by the other process's result
    report_hits: int = 0
    report_misses: int = 0
    report_stores: int = 0
    quarantines: int = 0  #: corrupt db files set aside + rebuilt at boot
    errors: int = 0  #: store operations that failed and were degraded around

    def as_dict(self) -> dict:
        return dict(vars(self))


class SharedSolveStore:
    """Sqlite-backed solve/artifact store shared by a fleet of processes."""

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        poll_seconds: float = DEFAULT_POLL_SECONDS,
    ):
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        if poll_seconds <= 0:
            raise ValueError("poll_seconds must be positive")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.lease_seconds = float(lease_seconds)
        self.poll_seconds = float(poll_seconds)
        #: claim ownership token: unique per store handle, survives nothing
        self.owner = f"{os.getpid()}:{uuid.uuid4().hex[:8]}"
        self.stats = StoreStats()
        self._stats_lock = threading.Lock()
        self._local = threading.local()
        #: verdict of the last failed integrity check (diagnostics)
        self.last_quarantine: str | None = None
        self._verify_or_quarantine()
        self._conn()  # create the schema eagerly; surface bad paths here

    # ------------------------------------------------------------------
    # boot integrity: quarantine-and-rebuild instead of crashing the fleet
    # ------------------------------------------------------------------

    def _verify_or_quarantine(self) -> None:
        """Check an existing db file; set it aside and start fresh if broken.

        A corrupt store must never take the fleet down — the store is a
        cache, so the worst legal outcome of losing it is re-solving.  On a
        failed ``PRAGMA quick_check`` the file (plus WAL/SHM sidecars) is
        renamed to ``<name>.corrupt-<ts>`` for post-mortems and a fresh
        schema is created by the next :meth:`_conn`.
        """
        faults.corrupt_file("store.open", self.path)
        if not self.path.exists():
            return
        try:
            probe = sqlite3.connect(str(self.path), timeout=_BUSY_TIMEOUT_SECONDS)
            try:
                (verdict,) = probe.execute("PRAGMA quick_check").fetchone()
            finally:
                probe.close()
            if str(verdict).lower() == "ok":
                return
            reason = f"quick_check: {verdict}"
        except sqlite3.Error as err:
            reason = f"{type(err).__name__}: {err}"
        stamp = time.time_ns() // 1_000_000  # ms: unique enough for sidecars
        quarantine = f"{self.path}.corrupt-{stamp}"
        for suffix in ("", "-wal", "-shm"):
            source = Path(str(self.path) + suffix)
            if source.exists():
                source.rename(quarantine + suffix)
        self.last_quarantine = reason
        self._count("quarantines")

    # ------------------------------------------------------------------
    # connections (per process+thread; reopened across fork)
    # ------------------------------------------------------------------

    def _conn(self) -> sqlite3.Connection:
        local = self._local
        if getattr(local, "conn", None) is None or local.pid != os.getpid():
            conn = sqlite3.connect(
                str(self.path),
                timeout=_BUSY_TIMEOUT_SECONDS,
                isolation_level=None,  # autocommit; claims use BEGIN IMMEDIATE
            )
            _enable_wal(conn)
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS solves ("
                " key TEXT PRIMARY KEY,"
                " state TEXT NOT NULL,"  # 'claimed' | 'done'
                " payload TEXT,"
                " owner TEXT,"
                " lease_until REAL,"
                " created REAL NOT NULL,"
                " solved REAL)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS reports ("
                " key TEXT PRIMARY KEY,"
                " payload TEXT NOT NULL,"
                " created REAL NOT NULL)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
            )
            conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES ('schema', ?)",
                (str(_DB_SCHEMA),),
            )
            local.conn = conn
            local.pid = os.getpid()
            # a fresh handle in a fresh process must re-announce ownership,
            # or a forked child would release the parent's claims
            if local.pid != int(self.owner.split(":", 1)[0]):
                self.owner = f"{os.getpid()}:{uuid.uuid4().hex[:8]}"
        return local.conn

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            try:
                conn.close()
            except sqlite3.Error:
                pass
            self._local.conn = None

    def _count(self, field: str, n: int = 1) -> None:
        with self._stats_lock:
            setattr(self.stats, field, getattr(self.stats, field) + n)

    def stats_snapshot(self) -> StoreStats:
        with self._stats_lock:
            return StoreStats(**vars(self.stats))

    def count_error(self) -> None:
        """Record a store operation a caller degraded around (see callers)."""
        self._count("errors")

    # ------------------------------------------------------------------
    # solve tier
    # ------------------------------------------------------------------

    def get(self, key: str) -> SolveOutcome | None:
        faults.inject("store.get")
        row = self._conn().execute(
            "SELECT state, payload FROM solves WHERE key = ?", (key,)
        ).fetchone()
        outcome = None
        if row is not None and row[0] == "done":
            outcome = decode_outcome(row[1])
        self._count("hits" if outcome is not None else "misses")
        return outcome

    def put(self, key: str, outcome: SolveOutcome) -> None:
        """Record a finished solve; releases any claim on ``key``."""
        faults.inject("store.put")
        now = time.time()
        self._conn().execute(
            "INSERT INTO solves (key, state, payload, created, solved)"
            " VALUES (?, 'done', ?, ?, ?)"
            " ON CONFLICT(key) DO UPDATE SET state='done',"
            "  payload=excluded.payload, solved=excluded.solved,"
            "  owner=NULL, lease_until=NULL",
            (key, encode_outcome(outcome), now, now),
        )
        self._count("stores")

    # ------------------------------------------------------------------
    # claims: cross-process solve-once
    # ------------------------------------------------------------------

    def try_claim(self, key: str) -> tuple[str, SolveOutcome | None]:
        """Atomically resolve who owns the solve of ``key`` right now.

        Returns one of

        * ``("solved", outcome)`` -- another process already finished it;
        * ``("acquired", None)``  -- the caller holds the claim and must
          solve and :meth:`put` (or :meth:`release` on abort);
        * ``("busy", None)``      -- a live claim is held elsewhere; wait.
        """
        faults.inject("store.claim")
        conn = self._conn()
        now = time.time()
        lease = now + self.lease_seconds
        try:
            conn.execute("BEGIN IMMEDIATE")
        except sqlite3.OperationalError:
            return "busy", None  # writer-lock starvation: treat as contended
        try:
            row = conn.execute(
                "SELECT state, payload, lease_until FROM solves WHERE key = ?",
                (key,),
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO solves (key, state, owner, lease_until, created)"
                    " VALUES (?, 'claimed', ?, ?, ?)",
                    (key, self.owner, lease, now),
                )
                conn.execute("COMMIT")
                self._count("claims")
                return "acquired", None
            state, payload, lease_until = row
            if state == "done":
                outcome = decode_outcome(payload)
                if outcome is not None:
                    conn.execute("COMMIT")
                    self._count("hits")
                    return "solved", outcome
                # stale entry (e.g. a failure from an older solver
                # revision): take the slot over and solve fresh
                reclaim = True
            else:
                if lease_until is not None and lease_until >= now:
                    conn.execute("COMMIT")
                    return "busy", None
                reclaim = True  # the claim holder is gone; lease expired
            if reclaim:
                conn.execute(
                    "UPDATE solves SET state='claimed', payload=NULL,"
                    " owner=?, lease_until=? WHERE key=?",
                    (self.owner, lease, key),
                )
                conn.execute("COMMIT")
                self._count("claims")
                if state == "claimed":
                    self._count("reclaims")
                return "acquired", None
        except BaseException:
            try:
                conn.execute("ROLLBACK")
            except sqlite3.Error:
                pass
            raise
        raise AssertionError("unreachable")

    def release(self, key: str) -> None:
        """Drop a claim this handle holds without recording a result."""
        self._conn().execute(
            "DELETE FROM solves WHERE key=? AND state='claimed' AND owner=?",
            (key, self.owner),
        )

    def wait_for(self, key: str, *, solve=None) -> tuple[SolveOutcome, str]:
        """Block until ``key`` resolves; returns ``(outcome, how)``.

        ``how`` is ``"hit"`` (already solved), ``"coalesced"`` (another
        process's solve landed while we waited), or ``"solved"`` (the
        previous holder's lease expired and *we* solved it via ``solve``).
        """
        waited = False
        while True:
            status, outcome = self.try_claim(key)
            if status == "solved":
                if waited:
                    self._count("coalesced")
                    return outcome, "coalesced"
                return outcome, "hit"
            if status == "acquired":
                if solve is None:
                    self.release(key)
                    raise RuntimeError(
                        f"claim on {key!r} expired and no solve fallback given"
                    )
                try:
                    outcome = solve()
                except BaseException:
                    self.release(key)
                    raise
                self.put(key, outcome)
                return outcome, "solved"
            if not waited:
                waited = True
                self._count("waits")
            time.sleep(self.poll_seconds)

    def solve_once(self, key: str, solve) -> SolveOutcome:
        """The full fleet protocol: claim, solve-or-wait, share the result."""
        status, outcome = self.try_claim(key)
        if status == "solved":
            return outcome
        if status == "acquired":
            try:
                outcome = solve()
            except BaseException:
                self.release(key)
                raise
            self.put(key, outcome)
            return outcome
        return self.wait_for(key, solve=solve)[0]

    # ------------------------------------------------------------------
    # report artifacts
    # ------------------------------------------------------------------

    def get_report(self, key: str) -> dict | None:
        row = self._conn().execute(
            "SELECT payload FROM reports WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            self._count("report_misses")
            return None
        try:
            payload = json.loads(row[0])
        except ValueError:
            self._count("report_misses")
            return None
        self._count("report_hits")
        return payload

    def put_report(self, key: str, payload: dict) -> None:
        self._conn().execute(
            "INSERT OR REPLACE INTO reports (key, payload, created)"
            " VALUES (?, ?, ?)",
            (key, json.dumps(payload), time.time()),
        )
        self._count("report_stores")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def entry_count(self) -> int:
        """Finished solves in the store (claims in flight excluded)."""
        (count,) = self._conn().execute(
            "SELECT COUNT(*) FROM solves WHERE state='done'"
        ).fetchone()
        return int(count)

    def claim_count(self) -> int:
        (count,) = self._conn().execute(
            "SELECT COUNT(*) FROM solves WHERE state='claimed'"
        ).fetchone()
        return int(count)

    def report_count(self) -> int:
        (count,) = self._conn().execute(
            "SELECT COUNT(*) FROM reports"
        ).fetchone()
        return int(count)


def _enable_wal(conn: sqlite3.Connection) -> None:
    """Switch ``conn``'s file to WAL mode, waiting out other writers.

    The busy handler does not cover the journal-mode switch: on a file not
    yet in WAL mode it fails at once with ``database is locked`` while
    another connection holds a write lock (two processes opening a fresh
    store together), so retry for the busy budget.
    """
    deadline = time.monotonic() + _BUSY_TIMEOUT_SECONDS
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(DEFAULT_POLL_SECONDS)
