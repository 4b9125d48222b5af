"""Structured per-stage diagnostics for the analysis engine.

The legacy driver folded everything it wanted to say into ad-hoc ``notes``
strings.  The engine instead emits one :class:`StageRecord` per pipeline
stage (name, wall time, item counters, human-readable notes) collected into
an :class:`EngineDiagnostics` that serializes cleanly for ``--json`` output
and the benchmark harness.  ``notes`` on :class:`ProgramBound` are still
populated for backwards compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.cache import CacheStats
from repro.opt.backends import get_backend


@dataclass(frozen=True)
class StageRecord:
    """One pipeline stage's outcome."""

    name: str  #: build-sdg | enumerate | fuse | solve | combine
    seconds: float
    counts: tuple[tuple[str, int], ...] = ()
    notes: tuple[str, ...] = ()

    def count(self, key: str) -> int:
        for name, value in self.counts:
            if name == key:
                return value
        return 0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "counts": dict(self.counts),
            "notes": list(self.notes),
        }


@dataclass
class EngineDiagnostics:
    """Every stage record plus the cache counters of one analysis."""

    stages: tuple[StageRecord, ...] = ()
    cache: CacheStats = field(default_factory=CacheStats)

    @property
    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    def stage(self, name: str) -> StageRecord | None:
        for record in self.stages:
            if record.name == name:
                return record
        return None

    def as_dict(self) -> dict:
        return {
            "stages": [stage.as_dict() for stage in self.stages],
            "cache": self.cache.as_dict(),
            "solver": get_backend().name,
            "total_seconds": self.total_seconds,
        }
