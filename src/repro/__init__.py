"""repro: automated I/O lower bounds for statically analyzable programs.

Reproduction of Kwasniewski et al., *"Pebbles, Graphs, and a Pinch of
Combinatorics: Towards Tight I/O Lower Bounds for Statically Analyzable
Programs"* (SPAA 2021).

Public API
----------

End-to-end:

>>> from repro import analyze_source
>>> result = analyze_source('''
... for i in range(N):
...     for j in range(N):
...         for k in range(N):
...             C[i, j] = C[i, j] + A[i, k] * B[k, j]
... ''')
>>> result.bound
2*N**3/sqrt(S)

Programmatic IR, the 38-kernel Table 2 suite, the red-blue pebble game and
CDAG validation substrate are exposed through the subpackages; see README.md
for the architecture map.
"""

from repro.analysis import KernelResult, analyze_kernel, analyze_program, analyze_source
from repro.engine import Engine, SolveCache, analyze_many
from repro.ir import (
    AffineIndex,
    Array,
    ArrayAccess,
    IterationDomain,
    Program,
    Statement,
)
from repro.sdg.bounds import ProgramBound
from repro.symbolic.symbols import S_SYM, X_SYM, param, tile

__version__ = "1.0.0"

__all__ = [
    "analyze_source",
    "analyze_program",
    "analyze_kernel",
    "analyze_many",
    "Engine",
    "SolveCache",
    "KernelResult",
    "ProgramBound",
    "AffineIndex",
    "Array",
    "ArrayAccess",
    "IterationDomain",
    "Program",
    "Statement",
    "S_SYM",
    "X_SYM",
    "param",
    "tile",
    "__version__",
]
