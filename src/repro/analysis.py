"""End-to-end analysis driver.

``analyze_program`` runs the full paper pipeline on an IR program:
Section 5 projections -> SDG construction -> subgraph enumeration and fusion
-> optimization problem (8) per subgraph -> Theorem 1.  ``analyze_kernel``
does the same for a registered Table 2 kernel; ``analyze_source`` parses
Python loop-nest source first (the paper's "derive lower bounds directly
from provided code").

All three delegate to the staged :class:`repro.engine.Engine`; pass an
explicit ``engine`` (or ``cache_dir``/``jobs``) to share the fused-problem
memoization cache across calls or to solve subgraphs in parallel.  The batch
API for whole kernel suites is :func:`repro.engine.analyze_many`; the
long-lived serving layer on top of these entry points (HTTP daemon, request
coalescing, priority queue) is :mod:`repro.service`.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from repro.engine import Engine, SolveCache
from repro.ir.program import Program
from repro.sdg.bounds import ProgramBound
from repro.sdg.subgraphs import DEFAULT_MAX_SIZE
from repro.soap.classify import OverlapPolicy
from repro.symbolic.asymptotics import leading_term, ratio_to
from repro.symbolic.printing import bound_str


@dataclass
class KernelResult:
    """Outcome of analyzing one registered kernel."""

    name: str
    bound: sp.Expr  #: our derived leading-order bound
    paper_bound: sp.Expr
    program_bound: ProgramBound
    ratio: sp.Expr  #: derived / paper (constant when shapes agree)
    shape_matches: bool

    @property
    def diagnostics(self):
        """Per-stage engine diagnostics of the underlying analysis."""
        return self.program_bound.diagnostics

    def __str__(self) -> str:  # pragma: no cover - convenience
        return (
            f"{self.name}: ours={bound_str(self.bound)} "
            f"paper={bound_str(self.paper_bound)} ratio={self.ratio}"
        )


def _engine(engine: Engine | None, cache_dir: str | None, jobs: int) -> Engine:
    if engine is not None:
        if cache_dir is not None or jobs != 1:
            raise ValueError(
                "pass either engine or cache_dir/jobs, not both "
                "(the engine already carries its cache and job count)"
            )
        return engine
    return Engine(cache=SolveCache(cache_dir), jobs=jobs)


def analyze_program(
    program: Program,
    *,
    policy: OverlapPolicy = "sum",
    max_subgraph_size: int = DEFAULT_MAX_SIZE,
    allow_pinning: bool = False,
    engine: Engine | None = None,
    cache_dir: str | None = None,
    jobs: int = 1,
) -> ProgramBound:
    """Derive the I/O lower bound of an IR program (Theorem 1)."""
    return _engine(engine, cache_dir, jobs).analyze(
        program,
        policy=policy,
        max_subgraph_size=max_subgraph_size,
        allow_pinning=allow_pinning,
    )


def analyze_kernel(
    name: str,
    *,
    engine: Engine | None = None,
    cache_dir: str | None = None,
    jobs: int = 1,
) -> KernelResult:
    """Analyze a registered Table 2 kernel and compare with the paper."""
    from repro.kernels import get_kernel

    spec = get_kernel(name)
    program = spec.build()
    result = analyze_program(
        program,
        policy=spec.policy,
        max_subgraph_size=spec.max_subgraph_size,
        allow_pinning=spec.allow_pinning,
        engine=engine,
        cache_dir=cache_dir,
        jobs=jobs,
    )
    # the engine's bound is already a leading term; the floor's max is not
    bound = result.bound
    if spec.use_floor:
        bound = result.combined
        bound = leading_term(bound) if bound.free_symbols else bound
    paper = spec.paper_bound_expr()
    try:
        ratio = ratio_to(bound, paper)
        shape = not ratio.free_symbols and ratio != 0  # same_leading_shape
    except Exception:
        ratio = sp.nan
        shape = False
    return KernelResult(
        name=name,
        bound=bound,
        paper_bound=paper,
        program_bound=result,
        ratio=ratio,
        shape_matches=shape,
    )


def analyze_source(
    source: str,
    *,
    name: str = "program",
    policy: OverlapPolicy = "sum",
    language: str = "python",
    max_subgraph_size: int = DEFAULT_MAX_SIZE,
    allow_pinning: bool = False,
    engine: Engine | None = None,
    cache_dir: str | None = None,
    jobs: int = 1,
) -> ProgramBound:
    """Parse loop-nest source code and derive its I/O lower bound."""
    if language == "python":
        from repro.frontend.python_frontend import parse_python

        program = parse_python(source, name=name)
    elif language == "c":
        from repro.frontend.c_frontend import parse_c

        program = parse_c(source, name=name)
    else:
        raise ValueError(f"unknown language {language!r}")
    return analyze_program(
        program,
        policy=policy,
        max_subgraph_size=max_subgraph_size,
        allow_pinning=allow_pinning,
        engine=engine,
        cache_dir=cache_dir,
        jobs=jobs,
    )
