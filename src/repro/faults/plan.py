"""Deterministic fault plans: named injection sites with seeded schedules.

A :class:`FaultPlan` maps *site* names (dotted strings such as
``"store.get"`` or ``"worker.job"``) to :class:`FaultSpec` entries that say
*when* the site fires (a fixed occurrence schedule, a probability, or both)
and *what happens* when it does (raise a typed exception, SIGKILL the current
process, or corrupt a file the call site designates).

Determinism is the whole point: every site draws from its own
``random.Random(f"{seed}:{site}")`` stream and keeps its own occurrence
counter, so whether a given occurrence fires depends only on the plan seed
and how many times *that site* has been reached in *this process* — never on
how calls to different sites interleave.  Chaos runs therefore replay
identically in CI.

Plans are plain JSON::

    {"seed": 42,
     "faults": [
        {"site": "worker.job", "action": "kill", "at": [2], "times": 1},
        {"site": "store.get", "error": "sqlite-busy", "p": 0.5},
        {"site": "bounds.engine.visit", "error": "runtime", "p": 1.0}
     ]}

and are activated through ``REPRO_FAULT_PLAN`` (inline JSON or a file path)
or ``--fault-plan`` — see :mod:`repro.faults`.
"""

from __future__ import annotations

import json
import random
import sqlite3
from dataclasses import dataclass
from pathlib import Path

from ..util.errors import SolverError

__all__ = [
    "FaultInjected",
    "FaultSpec",
    "FaultPlan",
    "ERROR_KINDS",
    "BUILTIN_PLANS",
    "builtin_plan",
]


class FaultInjected(RuntimeError):
    """Default exception raised by an injected ``raise`` action."""


#: error kind name -> exception factory. Sites that guard against a specific
#: failure class (sqlite busy, pipe EOF, a missing file) get the real
#: exception type so the production handler under test is the one that runs.
ERROR_KINDS: dict[str, type[BaseException]] = {
    "runtime": FaultInjected,
    "sqlite-busy": sqlite3.OperationalError,
    "eof": EOFError,
    "oserror": OSError,
    "missing-file": FileNotFoundError,
    "value": ValueError,
    "memory": MemoryError,
    "solver": SolverError,
}

ACTIONS = ("raise", "kill", "corrupt")


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: when ``site`` fires and what happens."""

    site: str
    action: str = "raise"  #: "raise" | "kill" | "corrupt"
    error: str = "runtime"  #: key into ERROR_KINDS (action == "raise")
    message: str = ""  #: appended to the raised exception text
    p: float = 0.0  #: per-occurrence fire probability (seeded stream)
    at: tuple[int, ...] = ()  #: 1-based occurrence indices that always fire
    times: int | None = None  #: cap on total fires at this site (None = no cap)

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"fault site {self.site!r}: unknown action {self.action!r}; "
                f"expected one of {ACTIONS}"
            )
        if self.action == "raise" and self.error not in ERROR_KINDS:
            raise ValueError(
                f"fault site {self.site!r}: unknown error kind {self.error!r}; "
                f"expected one of {sorted(ERROR_KINDS)}"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"fault site {self.site!r}: p={self.p} not in [0, 1]")
        if any(n < 1 for n in self.at):
            raise ValueError(
                f"fault site {self.site!r}: 'at' occurrences are 1-based "
                f"(got {list(self.at)})"
            )
        if self.times is not None and self.times < 1:
            raise ValueError(
                f"fault site {self.site!r}: times={self.times} must be >= 1"
            )
        if not self.site:
            raise ValueError("fault spec needs a non-empty site")

    def exception(self) -> BaseException:
        text = f"injected fault at {self.site}"
        if self.message:
            text = f"{text}: {self.message}"
        return ERROR_KINDS[self.error](text)

    @classmethod
    def from_dict(cls, raw: dict) -> "FaultSpec":
        known = {"site", "action", "error", "message", "p", "at", "times"}
        extra = set(raw) - known
        if extra:
            raise ValueError(f"fault spec has unknown keys {sorted(extra)}")
        return cls(
            site=str(raw.get("site", "")),
            action=str(raw.get("action", "raise")),
            error=str(raw.get("error", "runtime")),
            message=str(raw.get("message", "")),
            p=float(raw.get("p", 0.0)),
            at=tuple(int(n) for n in raw.get("at", ())),
            times=None if raw.get("times") is None else int(raw["times"]),
        )

    def as_dict(self) -> dict:
        out: dict = {"site": self.site, "action": self.action}
        if self.action == "raise":
            out["error"] = self.error
        if self.message:
            out["message"] = self.message
        if self.p:
            out["p"] = self.p
        if self.at:
            out["at"] = list(self.at)
        if self.times is not None:
            out["times"] = self.times
        return out


@dataclass
class _SiteState:
    """Per-process, per-site occurrence bookkeeping."""

    rng: random.Random
    occurrences: int = 0
    fired: int = 0
    disarmed: bool = False


class FaultPlan:
    """A seeded set of :class:`FaultSpec` rules, queried per call site.

    ``check(site)`` is the hot entry point: it advances the site's occurrence
    counter and returns the spec if this occurrence fires, else ``None``.
    """

    def __init__(self, seed: int, specs: list[FaultSpec]) -> None:
        self.seed = int(seed)
        self.specs: dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.site in self.specs:
                raise ValueError(f"duplicate fault site {spec.site!r}")
            self.specs[spec.site] = spec
        self._state: dict[str, _SiteState] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "FaultPlan":
        faults = raw.get("faults", [])
        if not isinstance(faults, list):
            raise ValueError('fault plan "faults" must be a list')
        return cls(
            seed=int(raw.get("seed", 0)),
            specs=[FaultSpec.from_dict(entry) for entry in faults],
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as err:
            raise ValueError(f"fault plan is not valid JSON: {err}") from err
        if not isinstance(raw, dict):
            raise ValueError("fault plan JSON must be an object")
        return cls.from_dict(raw)

    @classmethod
    def load(cls, source: str) -> "FaultPlan":
        """Load from inline JSON, a file path, or a built-in plan name."""
        source = source.strip()
        if source.startswith("{"):
            return cls.from_json(source)
        if source in BUILTIN_PLANS:
            return cls.from_dict(BUILTIN_PLANS[source])
        path = Path(source)
        if path.exists():
            return cls.from_json(path.read_text())
        raise ValueError(
            f"fault plan {source!r} is neither inline JSON, an existing file, "
            f"nor a built-in plan ({sorted(BUILTIN_PLANS)})"
        )

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "faults": [spec.as_dict() for spec in self.specs.values()],
        }

    # -- querying -----------------------------------------------------------

    def _site_state(self, site: str) -> _SiteState:
        state = self._state.get(site)
        if state is None:
            state = _SiteState(rng=random.Random(f"{self.seed}:{site}"))
            self._state[site] = state
        return state

    def check(self, site: str) -> FaultSpec | None:
        """Advance ``site``'s occurrence counter; return its spec if it fires."""
        spec = self.specs.get(site)
        if spec is None:
            return None
        state = self._site_state(site)
        state.occurrences += 1
        if state.disarmed:
            return None
        if spec.times is not None and state.fired >= spec.times:
            return None
        # The stream advances exactly once per occurrence whenever a
        # probability is configured, so `at` hits never shift later draws.
        drawn = spec.p > 0.0 and state.rng.random() < spec.p
        fire = drawn or state.occurrences in spec.at
        if not fire:
            return None
        state.fired += 1
        return spec

    def disarm(self, site: str) -> None:
        """Permanently silence ``site`` in this process (counters still run).

        Used for replacement workers: crash faults target the original fleet,
        and a respawned worker must not re-kill itself forever.
        """
        self._site_state(site).disarmed = True

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Per-site occurrence/fire counts (diagnostics; this process only)."""
        return {
            site: {"occurrences": st.occurrences, "fired": st.fired}
            for site, st in sorted(self._state.items())
            if st.occurrences
        }


#: Named plans used by `repro chaos` and the CI chaos-smoke job.
BUILTIN_PLANS: dict[str, dict] = {
    # Kill one worker mid-job (2nd job it picks up); the dispatcher must
    # restart it and requeue the job, and results must match fault-free.
    "worker-kill": {
        "seed": 1101,
        "faults": [{"site": "worker.job", "action": "kill", "at": [2], "times": 1}],
    },
    # Truncate the shared store db before the front-end opens it; boot must
    # quarantine + rebuild and the run must match fault-free.
    "store-corrupt": {
        "seed": 1102,
        "faults": [{"site": "store.open", "action": "corrupt", "at": [1]}],
    },
    # Every visit bound evaluation fails; certified max degrades to the
    # surviving engine and reports must carry the degraded flag.
    "engine-fail": {
        "seed": 1103,
        "faults": [
            {
                "site": "bounds.engine.visit",
                "error": "runtime",
                "p": 1.0,
                "message": "chaos engine-fail plan",
            }
        ],
    },
    # Intermittent sqlite busy on store reads/writes/claims; callers must
    # degrade to local solves with identical results.
    "store-busy": {
        "seed": 1104,
        "faults": [
            {"site": "store.get", "error": "sqlite-busy", "p": 0.5},
            {"site": "store.put", "error": "sqlite-busy", "p": 0.5},
            {"site": "store.claim", "error": "sqlite-busy", "p": 0.5},
        ],
    },
}


def builtin_plan(name: str) -> FaultPlan:
    try:
        raw = BUILTIN_PLANS[name]
    except KeyError:
        raise ValueError(
            f"unknown built-in fault plan {name!r}; expected one of "
            f"{sorted(BUILTIN_PLANS)}"
        ) from None
    return FaultPlan.from_dict(raw)
