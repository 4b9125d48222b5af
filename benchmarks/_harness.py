"""Shared benchmark harness: timing, one-shot pytest runs, JSON reports.

Every ``bench_*.py`` script used to carry its own copy of the same three
fragments -- a ``benchmark.pedantic(..., rounds=1, iterations=1)`` call, a
``time.perf_counter()`` sandwich, and an argparse ``main`` that writes a
``BENCH_*.json`` payload.  This module is that boilerplate, once:

* :func:`run_once` -- time a callable exactly once under pytest-benchmark
  (the suite's benchmarks regenerate paper artifacts, so one verified run is
  the measurement; repetition would only re-measure sympy caches);
* :func:`timed` -- wall *and* CPU seconds of a callable (CPU time is what
  the bounds and tightness gates read: shared CI boxes make wall time noisy);
* :func:`make_parser` / :func:`finish` -- the standard script entry point:
  ``--subset``, ``-o/--output``, JSON writing, a one-line summary, and the
  exit code contract (0 iff the payload passed its acceptance predicate).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


def run_once(benchmark, fn: Callable, *args, **kwargs):
    """Run ``fn`` exactly once under the pytest-benchmark fixture."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@dataclass(frozen=True)
class Timed:
    """One measured call: its result plus wall and CPU seconds."""

    value: Any
    wall_seconds: float
    cpu_seconds: float


def timed(fn: Callable, *args, **kwargs) -> Timed:
    """Call ``fn`` once, measuring wall and process-CPU time."""
    wall = time.perf_counter()
    cpu = time.process_time()
    value = fn(*args, **kwargs)
    return Timed(value, time.perf_counter() - wall, time.process_time() - cpu)


def make_parser(description: str, default_output: str) -> argparse.ArgumentParser:
    """Standard bench-script CLI: ``--subset``, ``-o/--output``, ``--trace``."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--subset", action="store_true", help="fast subset only")
    parser.add_argument(
        "-o", "--output", type=Path, default=Path(default_output),
        help=f"report destination (default: {default_output})",
    )
    parser.add_argument(
        "--trace", type=Path, default=None, metavar="FILE",
        help="record a JSONL span trace of the benchmark run to FILE",
    )
    return parser


@contextmanager
def maybe_traced(args, name: str):
    """Activate a span tracer over the benchmark body when ``--trace`` is set."""
    path = getattr(args, "trace", None)
    if path is None:
        yield
        return
    from repro.obs import Tracer, span

    with Tracer(str(path)), span(name):
        yield
    print(f"trace written to {path}", file=sys.stderr)


def finish(payload: dict, output: Path, summary: str, *, failed: bool) -> int:
    """Write the JSON report, print the one-line summary, return exit code."""
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(summary)
    print(f"wrote {output}")
    return 1 if failed else 0
