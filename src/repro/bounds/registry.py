"""Registry of concrete-CDAG lower-bound engines.

Every engine consumes the same :class:`BoundProblem` -- a concrete CDAG,
a fast-memory size ``S``, and (for the symbolic engine) the evaluated KKT
bound -- and produces a :class:`BoundResult`.  Engines register themselves via
:func:`register_bound_engine`; resolve one with :func:`get_bound_engine`.

Two capability flags keep engines honest about their reach:

* ``requires`` -- ``"graph"`` engines need the materialized CDAG,
  ``"symbolic"`` engines need the closed-form bound expression (the KKT
  engine; it is skipped on raw graphs, e.g. in the differential test);
* ``max_vertices`` -- graph-size ceiling for the engine's *structural*
  term.  Above it the engine degrades to the recomputation-safe cold
  input/output floor instead of silently burning CPU and memory on a
  10^5-vertex graph; the degradation is recorded in the result notes.

Every engine's ``model`` names the game its value bounds.  The certified
max is only a bound when all its terms bound the same game, so every
registered engine certifies :data:`MODEL_PEBBLING`, the red-blue pebble
game with recomputation that the paper bounds.

Every evaluation increments ``bound_engine_evals_total{engine=...}`` on the
current :class:`~repro.obs.metrics.MetricsRegistry` (the job registry under
a service worker, the process default otherwise) and runs under a
``bounds.engine`` span, so per-engine counts flow into ``/metrics`` through
the existing worker-stats plumbing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from repro import faults
from repro.obs import current_registry
from repro.obs import span as obs_span

#: engine input requirements
REQUIRES_GRAPH = "graph"
REQUIRES_SYMBOLIC = "symbolic"

#: the cost model every engine's value is certified against: the red-blue
#: pebble game, recomputation allowed
MODEL_PEBBLING = "pebbling"


@dataclass(frozen=True)
class BoundProblem:
    """One concrete bound evaluation: a CDAG instance at fast-memory ``S``."""

    s: int
    graph: object = None  #: ``networkx.DiGraph`` (None: symbolic-only call)
    symbolic_bound: object = None  #: sympy expression of the KKT bound
    params: Mapping[str, int] = field(default_factory=dict)
    kernel: str | None = None


@dataclass(frozen=True)
class BoundResult:
    """One engine's verdict on one :class:`BoundProblem`."""

    engine: str
    value: float  #: certified lower bound (nan when the engine failed)
    model: str = MODEL_PEBBLING
    notes: tuple[str, ...] = ()
    seconds: float = 0.0
    error: str | None = None  #: human-readable failure message
    error_class: str | None = None  #: exception class name (typed attribution)

    @property
    def ok(self) -> bool:
        return self.error is None and self.value == self.value

    def as_dict(self) -> dict:
        out = {
            "engine": self.engine,
            "value": self.value,
            "model": self.model,
            "notes": list(self.notes),
            "seconds": self.seconds,
            "error": self.error,
        }
        if self.error_class is not None:
            out["error_class"] = self.error_class
        return out


class BoundEngine:
    """One lower-bound strategy on the concrete CDAG."""

    #: registry key; also the per-engine metrics label
    name: str = ""
    #: ``"graph"`` or ``"symbolic"`` (see module docstring)
    requires: str = REQUIRES_GRAPH
    #: structural-term ceiling; ``None`` means size-independent
    max_vertices: int | None = None
    #: cost model the value is certified against
    model: str = MODEL_PEBBLING

    def applicable(self, problem: BoundProblem) -> bool:
        """Can this engine say anything about ``problem`` at all?"""
        if self.requires == REQUIRES_SYMBOLIC:
            return problem.symbolic_bound is not None
        return problem.graph is not None

    def evaluate(self, problem: BoundProblem) -> BoundResult:
        """Run the engine under counters + a span; failures become results."""
        current_registry().inc("bound_engine_evals_total", engine=self.name)
        started = time.perf_counter()
        error = error_class = None
        with obs_span("bounds.engine", engine=self.name, s=int(problem.s)):
            try:
                faults.check_deadline("bounds")
                if faults.active():
                    faults.inject(f"bounds.engine.{self.name}")
                value, notes = self._value(problem)
            except faults.DeadlineExceeded:
                raise  # cancellation is the caller's, not an engine failure
            except Exception as err:  # noqa: BLE001 - one engine must not
                # take the combine layer (or a sweep row) down with it; the
                # typed (class, message) record keeps the failure attributable
                value, notes = float("nan"), ()
                error_class = type(err).__name__
                error = f"{error_class}: {err}"
                current_registry().inc(
                    "bound_engine_errors_total",
                    engine=self.name,
                    error=error_class,
                )
        return BoundResult(
            engine=self.name,
            value=value,
            model=self.model,
            notes=notes,
            seconds=time.perf_counter() - started,
            error=error,
            error_class=error_class,
        )

    def _value(self, problem: BoundProblem) -> tuple[float, tuple[str, ...]]:
        raise NotImplementedError


_REGISTRY: dict[str, type[BoundEngine]] = {}
_INSTANCES: dict[str, BoundEngine] = {}


def register_bound_engine(cls: type[BoundEngine]) -> type[BoundEngine]:
    """Class decorator: make ``cls`` resolvable by :func:`get_bound_engine`.

    Registration order is meaningful: the combine layer names the *first*
    engine attaining the certified max as the winner, so earlier-registered
    engines win ties (the KKT engine registers first).
    """
    if not cls.name:
        raise ValueError(f"bound engine {cls!r} has no name")
    _REGISTRY[cls.name] = cls
    _INSTANCES.pop(cls.name, None)
    return cls


def available_bound_engines() -> tuple[str, ...]:
    """Registered engine names, in registration (= tie-break) order."""
    _load_builtin()
    return tuple(_REGISTRY)


def get_bound_engine(name: str) -> BoundEngine:
    """Resolve an engine by name (instances are shared per process)."""
    _load_builtin()
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown bound engine {name!r}; available: "
            f"{', '.join(available_bound_engines())}"
        )
    if name not in _INSTANCES:
        _INSTANCES[name] = _REGISTRY[name]()
    return _INSTANCES[name]


def _load_builtin() -> None:
    """Import the built-in engines for their registration side effect."""
    from repro.bounds import kkt, visit  # noqa: F401
