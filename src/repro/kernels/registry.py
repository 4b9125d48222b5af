"""Kernel registry: one :class:`KernelSpec` per Table 2 row."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import sympy as sp

from repro.ir.program import Program
from repro.symbolic.parsing import parse_bound


@dataclass(frozen=True)
class KernelSpec:
    """One evaluated application.

    ``paper_bound``       -- Table 2's leading-order I/O lower bound (the
                            bound this implementation derives is locked in
                            :mod:`repro.kernels.expected`);
    ``policy``            -- Section 5.1 overlap assumption ("sum" = the
                            paper's disjoint-access-sets projection);
    ``improvement``       -- the factor the paper reports over prior art;
    ``use_floor``         -- whether the paper's constant includes the cold
                            input/output footprint (bandwidth-bound kernels).
    """

    name: str
    category: str  # "polybench" | "nn" | "various"
    build: Callable[[], Program]
    paper_bound: object  # sympy expression (or str sympified on access)
    improvement: str = ""
    policy: str = "sum"
    use_floor: bool = False
    allow_pinning: bool = False
    max_subgraph_size: int = 10
    description: str = ""
    source: str | None = None  #: loop-nest source (Python DSL), when available

    def paper_bound_expr(self) -> sp.Expr:
        if isinstance(self.paper_bound, str):
            return parse_bound(self.paper_bound)
        return sp.sympify(self.paper_bound)


_REGISTRY: dict[str, KernelSpec] = {}


def register(spec: KernelSpec) -> KernelSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"kernel {spec.name!r} registered twice")
    _REGISTRY[spec.name] = spec
    return spec


def get_kernel(name: str) -> KernelSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def kernel_names(category: str | None = None) -> list[str]:
    return [
        name
        for name, spec in _REGISTRY.items()
        if category is None or spec.category == category
    ]


def all_kernels(category: str | None = None) -> list[KernelSpec]:
    return [get_kernel(name) for name in kernel_names(category)]
