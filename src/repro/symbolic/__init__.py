"""Symbolic helpers: canonical symbols, asymptotics, printing.

The paper's derivations manipulate three symbol families:

* **program parameters** (``N``, ``M``, ``T`` ...): positive integers, assumed
  *large* when extracting leading-order bounds;
* **the fast-memory size** ``S`` and the partition parameter ``X``;
* **tile sizes** ``b_<var>`` = ``|D_t|``, the per-loop-variable subcomputation
  extents solved for in optimization problem (8).

This package wraps sympy with the small amount of structure the analyzer
needs: the symbol families, leading-order extraction and deterministic
pretty-printing of bounds.  Problem (8) itself is held as exponent rows
(:class:`repro.opt.problem.ProblemIR`), not as sympy.
"""

from repro.symbolic.symbols import (
    S_SYM,
    X_SYM,
    param,
    tile,
    tile_name,
    is_tile,
)
from repro.symbolic.asymptotics import leading_term, same_leading_shape, ratio_to
from repro.symbolic.printing import bound_str

__all__ = [
    "S_SYM",
    "X_SYM",
    "param",
    "tile",
    "tile_name",
    "is_tile",
    "leading_term",
    "same_leading_shape",
    "ratio_to",
    "bound_str",
]
