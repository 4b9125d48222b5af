"""Per-layer ledger: timing wrappers around the calls into each layer.

The benchmark never edits ``src/``.  In a traced pass it replaces the
public functions of each layer -- wherever a module holds a reference to
them -- with wrappers that time the call and, where a count matters,
count the work.  A layer's ``self_s`` is its wrapped calls' wall time minus
the time of wrapped calls nested inside them, so the self times of all
layers add up to the time spent inside wrapped calls.  Records stay in
memory (one stack per thread) and are read out once, at the end of the
pass, with :meth:`Ledger.snapshot`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time


class Ledger:
    """In-memory span aggregates and counters of one traced pass."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        #: layer -> [calls, self seconds, total seconds]
        self._spans: dict[str, list] = {}
        self._counts: dict[str, float] = {}
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, layer: str, fn, after=None):
        """Wrap ``fn`` as one span of ``layer``.

        A generator function is drained inside the span (callers get a
        list), so the time of the lazy work lands on the layer that does
        it.  ``after(ledger, result, args, kwargs)`` records counts.
        """
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = ledger._stack()
            stack.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if inspect.isgenerator(result):
                    result = list(result)
            finally:
                elapsed = time.perf_counter() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with ledger._lock:
                    record = ledger._spans.setdefault(layer, [0, 0.0, 0.0])
                    record[0] += 1
                    record[1] += elapsed - children
                    record[2] += elapsed
            if after is not None:
                after(ledger, result, args, kwargs)
            return result

        return wrapper

    def counted(self, name: str, fn):
        """Wrap ``fn`` to count calls only (no span, so no self time moves)."""
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ledger.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr]
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, value)

    def _set_item(self, mapping: dict, key, value) -> None:
        original = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, original))
        mapping[key] = value

    def patch_method(self, cls, attr: str, layer: str, after=None) -> None:
        """Time ``cls.attr`` (plain, static or class method) as ``layer``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(self.timed(layer, raw.__func__, after))
        else:
            wrapped = self.timed(layer, raw, after)
        self._set(cls, attr, wrapped)

    def patch_function(
        self, fn, wrapper, prefixes: tuple[str, ...] = ("repro",)
    ) -> int:
        """Replace ``fn`` by ``wrapper`` in every loaded module whose name
        starts with one of ``prefixes``; returns how many references moved.

        Functions are looked up through module globals at call time, so this
        reaches callers that imported ``fn`` by name as well as callers that
        import it lazily from its home module.
        """
        moved = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(prefixes):
                continue
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if value is fn:
                    self._set(module, attr, wrapper)
                    moved += 1
        return moved

    def time_function(self, fn, layer: str, after=None, prefixes=("repro",)) -> int:
        return self.patch_function(fn, self.timed(layer, fn, after), prefixes)

    def uninstall(self) -> None:
        """Put every replaced reference back (newest first)."""
        while self._undo:
            self._undo.pop()()

    # -- reading ---------------------------------------------------------

    def snapshot(self) -> dict:
        """``{"spans": {layer: {calls, self_s, total_s}}, "counts": {...}}``."""
        with self._lock:
            return {
                "spans": {
                    layer: {"calls": calls, "self_s": self_s, "total_s": total_s}
                    for layer, (calls, self_s, total_s) in self._spans.items()
                },
                "counts": dict(self._counts),
            }


# ---------------------------------------------------------------------------
# layer maps: which public functions make up which layer
# ---------------------------------------------------------------------------


def _count_len(name: str):
    def after(ledger, result, args, kwargs):
        ledger.count(name, len(result))

    return after


def _count_hits(ledger, result, args, kwargs):
    if result is not None:
        ledger.count("engine.cache.hits")


def _count_vertices(ledger, result, args, kwargs):
    ledger.count("cdag.build.vertices", result.n_vertices)


def _count_accesses(ledger, result, args, kwargs):
    ledger.count("schedule.replay.accesses", result.n_accesses)


def _count_problems(ledger, result, args, kwargs):
    ledger.count("opt.solve.problems")


def _install_parse_layer(ledger: Ledger) -> None:
    import repro.frontend  # noqa: F401 - re-exports the parsers
    from repro.frontend.c_frontend.lower import parse_c
    from repro.frontend.python_frontend import parse_python

    ledger.time_function(parse_python, "frontend.parse")
    ledger.time_function(parse_c, "frontend.parse")


def install_analysis_layers(ledger: Ledger) -> None:
    """Kernel build, frontend, SDG, engine, solver and symbolic layers."""
    import dataclasses

    import sympy

    import repro.analysis
    import repro.engine.core
    import repro.opt.backends as backends
    from repro.engine.cache import SolveCache
    from repro.engine.signature import canonicalize_ir
    from repro.kernels import registry
    from repro.opt.rho import intensity_from_chi
    from repro.sdg.graph import SDG
    from repro.sdg.merge import fuse_statements
    from repro.sdg.subgraphs import enumerate_subgraphs
    from repro.symbolic.asymptotics import leading_term

    for name, spec in list(registry._REGISTRY.items()):
        built = dataclasses.replace(
            spec, build=ledger.timed("kernels.build", spec.build)
        )
        ledger._set_item(registry._REGISTRY, name, built)
    _install_parse_layer(ledger)
    ledger.patch_method(SDG, "from_program", "sdg.build")
    ledger.patch_method(SDG, "sharing_graph", "sdg.build")
    ledger.time_function(
        enumerate_subgraphs, "sdg.enumerate", _count_len("sdg.enumerate.subgraphs")
    )
    ledger.time_function(fuse_statements, "sdg.fuse")
    ledger.time_function(canonicalize_ir, "engine.canonicalize")
    ledger.patch_method(SolveCache, "get", "engine.cache.get", _count_hits)
    ledger.patch_method(SolveCache, "put", "engine.cache.put")
    solver_classes = {backends.SolverBackend} | {
        type(backends.get_backend(name)) for name in backends.available_backends()
    }
    for cls in solver_classes:
        if "solve" in cls.__dict__:
            ledger.patch_method(cls, "solve", "opt.solve", _count_problems)
        if "solve_batch" in cls.__dict__:
            ledger.patch_method(cls, "solve_batch", "opt.solve")
    ledger.time_function(intensity_from_chi, "opt.intensity")
    ledger.time_function(leading_term, "symbolic.leading_term")
    # Engine.analyze's own time, net of every layer above, is the combine
    # stage (per-array max, the simplify of the total, the I/O floor) plus
    # the stage bookkeeping around it.
    ledger.patch_method(repro.engine.core.Engine, "analyze", "engine.combine")
    # analyze_kernel's own time is the paper-verdict step (ratio, shape).
    ledger.time_function(repro.analysis.analyze_kernel, "analysis.verdict")
    simplify = sympy.simplify
    ledger.patch_function(
        simplify, ledger.counted("sympy.simplify.calls", simplify), ("repro", "sympy")
    )


def install_audit_layers(ledger: Ledger) -> None:
    """CDAG, bound-engine and schedule layers of the tightness audit."""
    import repro.cdag.build
    import repro.schedule.tightness as tightness
    from repro.bounds.registry import available_bound_engines, get_bound_engine
    from repro.schedule.derive import blocked_order, derive_schedule
    from repro.schedule.simulator import simulate_io
    from repro.schedule.stream import (
        AccessStream,
        single_statement_stream,
        stream_from_graph,
    )

    ledger.time_function(repro.cdag.build.build_cdag, "cdag.build", _count_vertices)
    for name in available_bound_engines():
        ledger.patch_method(type(get_bound_engine(name)), "_value", f"bounds.{name}")
    ledger.time_function(derive_schedule, "schedule.derive")
    ledger.time_function(blocked_order, "schedule.derive")
    ledger.time_function(stream_from_graph, "schedule.stream_build")
    ledger.time_function(single_statement_stream, "schedule.stream_build")
    ledger.patch_method(AccessStream, "next_use_arrays", "schedule.next_use")
    ledger.patch_method(AccessStream, "next_use_table", "schedule.next_use")
    ledger.time_function(simulate_io, "schedule.replay", _count_accesses)
    # audit_kernel's own time, net of the layers above: clamping, the
    # certified max over engines, row assembly.
    ledger.time_function(tightness.audit_kernel, "schedule.audit")


def install_service_front_layers(ledger: Ledger) -> None:
    """Front-end layers of the daemon (the event loop and its prep pool)."""
    import repro.service.core as core

    _install_parse_layer(ledger)
    ledger.patch_function(
        core.program_fingerprint,
        ledger.timed("service.fingerprint", core.program_fingerprint),
        ("repro.service",),
    )
