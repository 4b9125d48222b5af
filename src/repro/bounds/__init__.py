"""Concrete-CDAG lower-bound engines and the certified max-of-bounds.

Independent lower-bound backends on the materialized
:class:`~repro.cdag.build.ConcreteCDAG`:

* ``kkt`` -- the existing symbolic (paper problem 8) bound, evaluated at
  concrete (params, S);
* ``visit`` -- Bilardi-style DAG-visit bound via the post-order boundary
  argument on Hong--Kung segments.

Both bound the red-blue pebble game with recomputation, the game of the
paper, so their maximum bounds it too.  Engines register through
:mod:`repro.bounds.registry`; :mod:`repro.bounds.combine` evaluates every
applicable engine at a (kernel, params, S) point and certifies their
maximum, which is what tightness gaps, ``repro bounds``, and
``POST /bounds`` report.
"""

from repro.bounds.combine import (
    CombinedBounds,
    KernelBounds,
    evaluate_bounds,
    kernel_bounds,
)
from repro.bounds.registry import (
    BoundEngine,
    BoundProblem,
    BoundResult,
    available_bound_engines,
    get_bound_engine,
    register_bound_engine,
)

# registration by import, in tie-break order: kkt wins ties
from repro.bounds import kkt, visit  # noqa: E402,F401

__all__ = [
    "BoundEngine",
    "BoundProblem",
    "BoundResult",
    "CombinedBounds",
    "KernelBounds",
    "available_bound_engines",
    "evaluate_bounds",
    "get_bound_engine",
    "kernel_bounds",
    "register_bound_engine",
]
