"""Staged analysis engine: ``build-sdg -> enumerate -> fuse -> solve -> combine``.

The engine runs the Theorem 1 pipeline as explicit, composable stages
(:data:`STAGES`).  Each stage runs inside one span of its own name and
appends a :class:`~repro.engine.diagnostics.StageRecord` (wall time +
counters) to the analysis's diagnostics; the engine keeps no metrics
registry -- span totals are the one stage clock operators read.  The hot
stage -- solving optimization problem (8) -- goes through a
canonicalize/dedup/memoize funnel:

* every fused problem arrives as a :class:`~repro.opt.problem.ProblemIR`
  (built once at fusion time) and is **canonicalized**
  (:mod:`repro.engine.signature`), so structurally identical subgraphs
  (renamed loop variables, reordered terms) collapse to one signature --
  both within a kernel and across the whole Table 2 suite;
* distinct signatures are resolved through the two-tier
  :class:`~repro.engine.cache.SolveCache` (in-process dict + optional
  sqlite :class:`~repro.engine.store.SharedSolveStore`), with negative
  entries for solver failures.  Entries are namespaced by the solver's
  :meth:`~repro.opt.backends.SolverBackend.cache_tag` (its name and
  :data:`~repro.opt.kkt.SOLVER_REVISION`), so solver generations never
  alias.  With a store, missing signatures are *claimed* first, so
  concurrent processes solve each one once;
* signatures missing from the cache go through the solver's
  :meth:`~repro.opt.backends.SolverBackend.solve_batch` (deadline checks,
  the ``solver.solve`` fault site and the batch span for every problem),
  in the analyzing process; results are merged back **in enumeration
  order**, so the produced :class:`~repro.sdg.bounds.ProgramBound` is
  bit-identical regardless of cache temperature or of which process
  solved a shared signature.  Independent kernels run in parallel one
  level up, in :mod:`repro.engine.batch`.

The solver always runs on the *canonical* problem (even cache-off), which is
what makes cold and warm runs reproducible down to expression identity.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import sympy as sp

from repro import faults
from repro.engine.cache import CacheStats, SolveCache
from repro.engine.diagnostics import EngineDiagnostics, StageRecord
from repro.engine.signature import (
    CanonicalProblem,
    canonicalize_ir,
    rename_solution,
    rename_text,
)
from repro.engine.store import SolveOutcome
from repro.ir.program import Program
from repro.obs import span as obs_span
from repro.opt.backends import get_backend
from repro.opt.problem import ProblemIR
from repro.opt.rho import intensity_from_chi, intensity_order
from repro.sdg.graph import SDG
from repro.sdg.merge import FusedStatement, fuse_statements
from repro.sdg.subgraphs import DEFAULT_MAX_SIZE, enumerate_subgraphs
from repro.soap.classify import OverlapPolicy
from repro.symbolic.asymptotics import leading_quotient_sum, leading_term
from repro.util.errors import SolverError

#: the pipeline's stages in order; each is one span and one StageRecord
STAGES = ("build-sdg", "enumerate", "fuse", "solve", "combine")


@dataclass(frozen=True)
class EngineOptions:
    """Per-analysis knobs (the per-kernel overrides of the Table 2 specs)."""

    policy: OverlapPolicy = "sum"
    max_subgraph_size: int = DEFAULT_MAX_SIZE
    allow_pinning: bool = False


def _solve_problems(
    problems: list[ProblemIR], allow_pinning: bool
) -> list[SolveOutcome]:
    """One outcome per problem, through the solver's batch loop."""
    results = get_backend().solve_batch(
        problems, allow_pinning=allow_pinning, allow_caps=allow_pinning
    )
    return [
        SolveOutcome(error=str(result))
        if isinstance(result, SolverError)
        else SolveOutcome(solution=result)
        for result in results
    ]


def classify_outcome(outcome: SolveOutcome) -> str:
    """Solver-health bucket of one outcome: how was the problem resolved?

    ``exact``    -- verified closed form;
    ``fitted``   -- rational fit of the numeric solution (``exact=False``);
    ``negative`` -- solver rejected the problem.
    """
    if outcome.ok:
        return "exact" if outcome.solution.exact else "fitted"
    return "negative"


class Engine:
    """Composable analysis pipeline with memoized problem solving.

    One engine holds one :class:`SolveCache`; analyzing many programs
    through the same engine shares solved problems between them
    (``analyze_many`` relies on this for the cross-kernel dedup of the
    Table 2 suite).  ``solver`` names the problem-(8) solver: ``"exact"`` is
    the only one, and any other name raises
    :class:`~repro.util.errors.SolverError`.
    """

    def __init__(
        self,
        cache: SolveCache | None = None,
        solver: str = "exact",
    ):
        get_backend(solver)  # a bad name is a configuration error
        self.cache = cache if cache is not None else SolveCache()
        # Solve-health counters (fresh solves only, not cache hits), keyed
        # solver name -> {exact, fitted, negative}.
        self._solver_stats: dict[str, dict[str, int]] = {}
        self._solver_stats_lock = threading.Lock()

    def solver_stats_snapshot(self) -> dict[str, dict[str, int]]:
        """Counters of every fresh solve this engine performed, by solver name."""
        with self._solver_stats_lock:
            return {name: dict(counts) for name, counts in self._solver_stats.items()}

    def _count_solves(self, outcomes: list[SolveOutcome]) -> None:
        if not outcomes:
            return
        with self._solver_stats_lock:
            counts = self._solver_stats.setdefault(
                get_backend().name, {"exact": 0, "fitted": 0, "negative": 0}
            )
            for outcome in outcomes:
                counts[classify_outcome(outcome)] += 1

    # ------------------------------------------------------------------
    # pipeline
    # ------------------------------------------------------------------

    def analyze(
        self,
        program: Program,
        *,
        policy: OverlapPolicy = "sum",
        max_subgraph_size: int = DEFAULT_MAX_SIZE,
        allow_pinning: bool = False,
    ):
        """Run the staged pipeline; returns a :class:`ProgramBound`."""
        with obs_span("engine.analyze", kernel=program.name):
            return self._analyze(
                program,
                policy=policy,
                max_subgraph_size=max_subgraph_size,
                allow_pinning=allow_pinning,
            )

    def _analyze(
        self,
        program: Program,
        *,
        policy: OverlapPolicy,
        max_subgraph_size: int,
        allow_pinning: bool,
    ):
        from repro.sdg.bounds import ProgramBound, SubgraphAnalysis

        options = EngineOptions(
            policy=policy,
            max_subgraph_size=max_subgraph_size,
            allow_pinning=allow_pinning,
        )
        stages: list[StageRecord] = []
        notes: list[str] = []
        stats_before = replace(self.cache.stats)
        solver_name = get_backend().name
        solver_before = self.solver_stats_snapshot().get(solver_name, {})

        with _stage("build-sdg", stages) as counts:
            sdg = SDG.from_program(program)
            sharing = sdg.sharing_graph()
            counts.extend((
                ("computed_arrays", len(sdg.computed)),
                ("input_arrays", len(sdg.inputs)),
                ("sharing_edges", sharing.number_of_edges()),
            ))

        with _stage("enumerate", stages) as counts:
            subsets = list(
                enumerate_subgraphs(sharing, max_size=options.max_subgraph_size)
            )
            counts.extend((
                ("subgraphs", len(subsets)),
                ("max_size", options.max_subgraph_size),
            ))

        with _stage("fuse", stages) as counts:
            fused_items: list[
                tuple[tuple[str, ...], FusedStatement | None, str | None]
            ] = []
            for subset in subsets:
                try:
                    fused = fuse_statements(program, subset, policy=options.policy)
                    fused_items.append((subset, fused, None))
                except SolverError as err:
                    fused_items.append((subset, None, str(err)))
            fuse_failures = sum(1 for _, fused, _ in fused_items if fused is None)
            counts.extend((
                ("fused", len(fused_items) - fuse_failures),
                ("failed", fuse_failures),
            ))

        with _stage("solve", stages) as counts:
            canonicals: list[CanonicalProblem | None] = []
            for _, fused, _ in fused_items:
                if fused is None:
                    canonicals.append(None)
                    continue
                canonicals.append(
                    canonicalize_ir(
                        fused.problem,
                        allow_pinning=options.allow_pinning,
                        allow_caps=options.allow_pinning,
                    )
                )
            outcomes = self._resolve_signatures(
                [c for c in canonicals if c is not None],
                allow_pinning=options.allow_pinning,
            )

            analyses: list[SubgraphAnalysis] = []
            skipped: list[tuple[str, ...]] = []
            solve_failures = 0
            for (subset, fused, fuse_error), canonical in zip(fused_items, canonicals):
                if fused is None:
                    skipped.append(subset)
                    notes.append(f"subgraph {subset}: {fuse_error}")
                    continue
                outcome = outcomes[canonical.signature]
                if not outcome.ok:
                    skipped.append(subset)
                    notes.append(
                        f"subgraph {subset}: "
                        f"{rename_text(outcome.error, canonical.inverse)}"
                    )
                    solve_failures += 1
                    continue
                solution = rename_solution(outcome.solution, canonical.inverse)
                try:
                    intensity = intensity_from_chi(solution)
                except SolverError as err:
                    skipped.append(subset)
                    notes.append(f"subgraph {subset}: {err}")
                    solve_failures += 1
                    continue
                analyses.append(SubgraphAnalysis(subset, fused, intensity))
            cache_delta = _stats_delta(stats_before, self.cache.stats)
            solver_delta = _solver_delta(
                solver_before, self.solver_stats_snapshot().get(solver_name, {})
            )
            counts.extend((
                ("problems", len(fused_items) - fuse_failures),
                ("distinct", len({c.signature for c in canonicals if c})),
                ("solved", len(analyses)),
                ("skipped", solve_failures),
                ("cache_hits", cache_delta.hits),
                ("cache_misses", cache_delta.misses),
                *sorted(
                    (f"solver_{bucket}", count)
                    for bucket, count in solver_delta.items()
                ),
            ))

        with _stage("combine", stages) as counts:
            per_array: dict[str, SubgraphAnalysis] = {}
            for analysis in analyses:
                for array in analysis.arrays:
                    current = per_array.get(array)
                    if current is None or intensity_order(analysis.rho, current.rho) > 0:
                        per_array[array] = analysis

            total = sp.Integer(0)
            quotients = []
            dropped = 0
            for array in program.computed_arrays():
                best = per_array.get(array)
                if best is None:
                    notes.append(
                        f"array {array}: no analyzable subgraph; contribution dropped"
                    )
                    dropped += 1
                    continue
                count = program.vertex_count(array)
                total += count / best.rho
                quotients.append((count, best.rho))
            # Theorem 1's sum on monomial rows; a rho that is no monomial
            # (a capped extent merged into a sum) needs the sympy leading term
            bound = leading_quotient_sum(quotients)
            fallbacks = int(bound is None)
            if bound is None:
                bound = leading_term(total)
            counts.extend((
                ("arrays", len(program.computed_arrays())),
                ("dropped", dropped),
                ("leading_term_fallbacks", fallbacks),
            ))

        diagnostics = EngineDiagnostics(stages=tuple(stages), cache=cache_delta)
        return ProgramBound(
            program=program,
            bound=bound,
            per_array_sum=total,
            per_array=per_array,
            subgraphs=tuple(analyses),
            skipped=tuple(skipped),
            notes=tuple(notes),
            diagnostics=diagnostics,
        )

    # ------------------------------------------------------------------
    # solve-stage funnel
    # ------------------------------------------------------------------

    def _resolve_signatures(
        self,
        canonicals: list[CanonicalProblem],
        *,
        allow_pinning: bool,
    ) -> dict[str, SolveOutcome]:
        """Outcome per signature: cache first, then fresh solves.

        Cache entries are keyed ``<signature>-exact-r<revision>``
        (:meth:`~repro.opt.backends.SolverBackend.cache_tag`): a signature
        solved by an older solver generation is re-solved, not replayed.
        """
        tag = get_backend().cache_tag()
        outcomes: dict[str, SolveOutcome] = {}
        pending: dict[str, CanonicalProblem] = {}
        for canonical in canonicals:
            signature = canonical.signature
            if signature in outcomes or signature in pending:
                continue
            cached = self.cache.get(f"{signature}-{tag}")
            if cached is not None:
                outcomes[signature] = cached
            else:
                pending[signature] = canonical

        # Fleet mode: a shared store turns "missing" into a three-way race.
        # Claim what we can (we solve those), adopt what another process
        # already finished, and park the rest -- they are being solved
        # elsewhere right now, and we block on the claim after our own batch.
        store = self.cache.store
        waiting: dict[str, CanonicalProblem] = {}
        if store is not None and pending:
            claimed: dict[str, CanonicalProblem] = {}
            for signature, canonical in pending.items():
                try:
                    status, shared = store.try_claim(f"{signature}-{tag}")
                except sqlite3.Error:
                    # Claiming is an optimization (fleet-wide solve-once);
                    # a sick store degrades to an unshared local solve.
                    store.count_error()
                    status, shared = "acquired", None
                if status == "solved":
                    self.cache.memorize(f"{signature}-{tag}", shared)
                    outcomes[signature] = shared
                elif status == "acquired":
                    claimed[signature] = canonical
                else:
                    waiting[signature] = canonical
            pending = claimed
            # Crash-fault site: dying *here*, with claims held, is the worst
            # case the lease protocol must absorb (see chaos + lease tests).
            faults.inject("engine.claimed")

        fresh: list[tuple[str, SolveOutcome]] = []
        try:
            if pending:
                fresh = list(zip(
                    pending,
                    _solve_problems(
                        [canonical.problem for canonical in pending.values()],
                        allow_pinning,
                    ),
                ))
        except BaseException:
            if store is not None:
                for signature in pending:  # don't wedge the fleet on our crash
                    store.release(f"{signature}-{tag}")
            raise
        for signature, outcome in fresh:
            self.cache.put(f"{signature}-{tag}", outcome)
            outcomes[signature] = outcome
        self._count_solves([outcome for _, outcome in fresh])

        if store is not None and waiting:
            # Block on the other processes' claims.  If a claim's lease
            # expires (its holder died), wait_for hands the claim to us and
            # we solve solo -- those count as fresh solves here.
            reclaimed: list[SolveOutcome] = []
            for signature, canonical in waiting.items():
                def _solo(canonical=canonical):
                    (outcome,) = _solve_problems([canonical.problem], allow_pinning)
                    return outcome

                outcome, how = store.wait_for(f"{signature}-{tag}", solve=_solo)
                if how == "solved":
                    reclaimed.append(outcome)
                self.cache.memorize(f"{signature}-{tag}", outcome)
                outcomes[signature] = outcome
            self._count_solves(reclaimed)
        return outcomes


@contextmanager
def _stage(name: str, stages: list[StageRecord]):
    """Run one pipeline stage inside its span; yields the stage's counts.

    The body appends ``(key, n)`` pairs to the yielded list; on success they
    become the span's counters and the stage's :class:`StageRecord`.  A
    stage that raises closes its span tagged ``error`` and records nothing.
    """
    faults.check_deadline(name)  # cooperative cancellation point
    with obs_span(name) as span:
        started = time.perf_counter()
        counts: list[tuple[str, int]] = []
        yield counts
        seconds = time.perf_counter() - started
        for key, value in counts:
            if isinstance(value, int) and not isinstance(value, bool):
                span.add(key, value)
        stages.append(StageRecord(name, seconds, tuple(counts)))


def _stats_delta(before: CacheStats, after: CacheStats) -> CacheStats:
    return CacheStats(
        memory_hits=after.memory_hits - before.memory_hits,
        disk_hits=after.disk_hits - before.disk_hits,
        misses=after.misses - before.misses,
        stores=after.stores - before.stores,
        evictions=after.evictions - before.evictions,
    )


def _solver_delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    return {
        bucket: after.get(bucket, 0) - before.get(bucket, 0)
        for bucket in after
        if after.get(bucket, 0) - before.get(bucket, 0)
    }


def program_fingerprint(
    program: Program,
    *,
    policy: OverlapPolicy = "sum",
    max_subgraph_size: int = DEFAULT_MAX_SIZE,
    allow_pinning: bool = False,
) -> str:
    """Canonical identity of an analysis request, before any solving.

    Runs the cheap pipeline prefix (build-sdg -> enumerate -> fuse ->
    canonicalize) and hashes the sorted multiset of canonical problem (8)
    signatures together with the analysis options and the solver's name.
    Two programs share a fingerprint exactly when the solve stage would
    process the same canonical problems -- renamed loop variables, reordered
    statements, and permuted variable roles all collapse, which is what lets
    the analysis service coalesce isomorphic in-flight requests onto one
    computation.

    Subgraphs that fail to fuse contribute a marker keyed by their array
    subset, so a program where fusion fails never aliases one where it
    succeeds.
    """
    sdg = SDG.from_program(program)
    sharing = sdg.sharing_graph()
    tokens: list[str] = []
    for subset in enumerate_subgraphs(sharing, max_size=max_subgraph_size):
        try:
            fused = fuse_statements(program, subset, policy=policy)
        except SolverError:
            tokens.append("fuse-failed:" + ",".join(sorted(subset)))
            continue
        canonical = canonicalize_ir(
            fused.problem,
            allow_pinning=allow_pinning,
            allow_caps=allow_pinning,
        )
        tokens.append(canonical.signature)
    payload = json.dumps(
        {
            "schema": 2,
            "policy": policy,
            "max_subgraph_size": int(max_subgraph_size),
            # fusion always unifies same-named loop variables; the entry
            # stays so fingerprints (and the reports stored under them)
            # keep their values
            "unify_same_names": True,
            "allow_pinning": bool(allow_pinning),
            "solver": get_backend().name,
            "signatures": sorted(tokens),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
