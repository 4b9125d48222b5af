"""Pluggable solver backends for optimization problem (8).

Every backend consumes the same backend-neutral
:class:`~repro.opt.problem.ProblemIR` and produces a
:class:`~repro.opt.kkt.ChiSolution`, so the engine, the cache, and the
benchmarks can swap solving strategies without touching the pipeline:

* ``exact`` -- the numerically guided KKT solver (:mod:`repro.opt.kkt`),
  rehosted on ProblemIR: one scipy probe, then an exact reconstruction over
  :class:`fractions.Fraction` with exact verification and tile closed
  forms; the reference backend.
* ``numeric-first`` -- warm-started scipy probe plus the KKT linear algebra
  over :class:`fractions.Fraction`, verified numerically; tile closed forms
  are deferred.  Falls back to ``exact`` per problem whenever a fast-path
  check fails.
* ``cross-check`` -- runs both and raises unless they agree on the
  leading-order ``chi`` (hence on the leading-order intensity ``rho``).

Backends register themselves via :func:`register_backend`; resolve one with
:func:`get_backend`.  Cache entries are namespaced per backend **and**
per :data:`~repro.opt.kkt.SOLVER_REVISION` (:meth:`SolverBackend.cache_tag`)
so results computed by different strategies or solver generations never
alias.
"""

from __future__ import annotations

from typing import Sequence

from repro import faults
from repro.obs import current_registry
from repro.obs import span as obs_span
from repro.opt.kkt import CLOSED_FORM_NOTE, SOLVER_REVISION, ChiSolution
from repro.opt.problem import ProblemIR
from repro.util.errors import SolverError

DEFAULT_BACKEND = "exact"


class SolverBackend:
    """One solving strategy for problem (8)."""

    #: registry key; also part of the cache namespace
    name: str = ""
    #: solve-batch span counter -> note prefix; the span counts the solutions
    #: carrying a note with that prefix
    batch_notes: dict[str, str] = {"closed_form": CLOSED_FORM_NOTE}

    def cache_tag(self) -> str:
        """Cache-key namespace: backend identity + solver generation."""
        return f"{self.name}-r{SOLVER_REVISION}"

    def solve(
        self, problem: ProblemIR, *, allow_pinning: bool, allow_caps: bool
    ) -> ChiSolution:
        raise NotImplementedError

    def batch_order(self, problems: Sequence[ProblemIR]) -> Sequence[int]:
        """Positions of ``problems`` in the order :meth:`solve_batch` visits them."""
        return range(len(problems))

    def solve_batch(
        self,
        problems: Sequence[ProblemIR],
        *,
        allow_pinning: bool,
        allow_caps: bool,
    ) -> list[ChiSolution | SolverError]:
        """Solve a batch; failures are returned (not raised) per position.

        Problems are visited in :meth:`batch_order` (backends override it to
        exploit cross-problem structure: the numeric-first backend groups
        problems by exponent structure so scipy warm starts chain); results
        keep the input positions.  The deadline is checked and the
        ``solver.solve`` fault site fires before every problem.
        """
        results: list[ChiSolution | SolverError] = [None] * len(problems)  # type: ignore[list-item]
        registry = current_registry()
        rescues = registry.counter_total("solver_rescues_total")
        with obs_span(
            "solver.solve-batch", backend=self.name, problems=len(problems)
        ) as sp:
            for index in self.batch_order(problems):
                faults.check_deadline("solve")
                try:
                    faults.inject("solver.solve")
                    results[index] = self.solve(
                        problems[index],
                        allow_pinning=allow_pinning,
                        allow_caps=allow_caps,
                    )
                except SolverError as err:
                    results[index] = err
            solutions = [r for r in results if isinstance(r, ChiSolution)]
            sp.add("solved", len(solutions))
            sp.add("failed", len(results) - len(solutions))
            for counter, prefix in self.batch_notes.items():
                sp.add(
                    counter,
                    sum(any(n.startswith(prefix) for n in s.notes) for s in solutions),
                )
            sp.add(
                "rescues", registry.counter_total("solver_rescues_total") - rescues
            )
        return results


def count_closed_form(backend: str, solution: ChiSolution) -> ChiSolution:
    """Count ``solution`` in ``solver_closed_form_total`` if it is a closed form."""
    if CLOSED_FORM_NOTE in solution.notes:
        current_registry().inc("solver_closed_form_total", backend=backend)
    return solution


_REGISTRY: dict[str, type[SolverBackend]] = {}
_INSTANCES: dict[str, SolverBackend] = {}


def register_backend(cls: type[SolverBackend]) -> type[SolverBackend]:
    """Class decorator: make ``cls`` resolvable by :func:`get_backend`."""
    if not cls.name:
        raise ValueError(f"backend {cls!r} has no name")
    _REGISTRY[cls.name] = cls
    _INSTANCES.pop(cls.name, None)
    return cls


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def get_backend(name: str | None = None) -> SolverBackend:
    """Resolve a backend by name (instances are shared per process)."""
    key = name or DEFAULT_BACKEND
    if key not in _REGISTRY:
        raise SolverError(
            f"unknown solver backend {key!r}; available: "
            f"{', '.join(available_backends())}"
        )
    if key not in _INSTANCES:
        _INSTANCES[key] = _REGISTRY[key]()
    return _INSTANCES[key]


# Import for the registration side effect (after the registry exists).
from repro.opt.backends import crosscheck, exact, numeric_first  # noqa: E402,F401
