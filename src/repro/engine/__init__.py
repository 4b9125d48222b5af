"""Staged analysis engine.

Composable pipeline (``build-sdg -> enumerate -> fuse -> solve -> combine``)
with canonical fused-problem signatures, a two-tier memoization cache (an
in-process LRU over one sqlite solve store), and parallel batch execution.
See :mod:`repro.engine.core` for the pipeline,
:mod:`repro.engine.signature` for canonicalization,
:mod:`repro.engine.store` for the persistent store, and
:mod:`repro.engine.batch` for the Table 2 batch API.
"""

from repro.engine.batch import analyze_many
from repro.engine.cache import CacheStats, SolveCache
from repro.engine.core import Engine, EngineOptions, classify_outcome, program_fingerprint
from repro.engine.diagnostics import EngineDiagnostics, StageRecord
from repro.engine.signature import (
    CanonicalProblem,
    canonicalize_ir,
    rename_solution,
    rename_text,
)
from repro.engine.store import SolveOutcome

__all__ = [
    "Engine",
    "EngineOptions",
    "EngineDiagnostics",
    "StageRecord",
    "SolveCache",
    "SolveOutcome",
    "CacheStats",
    "CanonicalProblem",
    "canonicalize_ir",
    "classify_outcome",
    "rename_solution",
    "rename_text",
    "analyze_many",
    "program_fingerprint",
]
