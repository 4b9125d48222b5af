"""Whole-program IR container."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import sympy as sp

from repro.ir.array import Array
from repro.ir.statement import Statement
from repro.util import unique_in_order
from repro.util.errors import NotSoapError


@dataclass(frozen=True)
class Program:
    """A sequence of statements plus array declarations.

    Arrays referenced but not declared are synthesized with the rank observed
    at their first access.  ``element_count`` of a *computed* array defaults
    to the summed vertex counts of the statements writing it; inputs default
    to ``None`` (unknown footprint -- only computed arrays enter Theorem 1).
    """

    name: str
    statements: tuple[Statement, ...]
    arrays: tuple[Array, ...] = ()

    def __post_init__(self) -> None:
        declared = {a.name: a for a in self.arrays}
        synthesized: dict[str, Array] = {}
        for st in self.statements:
            for acc in (st.output, *st.inputs):
                if acc.array in declared:
                    if declared[acc.array].dim != acc.dim:
                        raise NotSoapError(
                            f"array {acc.array!r}: declared rank "
                            f"{declared[acc.array].dim} != accessed rank {acc.dim}"
                        )
                elif acc.array in synthesized:
                    if synthesized[acc.array].dim != acc.dim:
                        raise NotSoapError(
                            f"array {acc.array!r} accessed with ranks "
                            f"{synthesized[acc.array].dim} and {acc.dim}"
                        )
                else:
                    synthesized[acc.array] = Array(acc.array, acc.dim)
        object.__setattr__(
            self, "arrays", self.arrays + tuple(synthesized.values())
        )

    @staticmethod
    def make(name: str, statements: Iterable[Statement], arrays: Iterable[Array] = ()) -> "Program":
        return Program(name, tuple(statements), tuple(arrays))

    # -- lookups -------------------------------------------------------------
    def array(self, name: str) -> Array:
        for arr in self.arrays:
            if arr.name == name:
                return arr
        raise KeyError(name)

    def statements_writing(self, array: str) -> tuple[Statement, ...]:
        return tuple(st for st in self.statements if st.output.array == array)

    def computed_arrays(self) -> tuple[str, ...]:
        return unique_in_order(st.output.array for st in self.statements)

    def input_arrays(self) -> tuple[str, ...]:
        computed = set(self.computed_arrays())
        reads = []
        for st in self.statements:
            reads.extend(a for a in st.arrays_read() if a not in computed)
        return unique_in_order(reads)

    def vertex_count(self, array: str) -> sp.Expr:
        """``|A|`` of Theorem 1: CDAG vertices belonging to ``array``."""
        declared = self.array(array)
        if declared.element_count is not None:
            return declared.element_count
        writers = self.statements_writing(array)
        if not writers:
            raise KeyError(f"{array!r} is not computed and has no declared count")
        return sp.Add(*(st.vertex_count for st in writers))

    def parameters(self) -> tuple[sp.Symbol, ...]:
        symbols: set[sp.Symbol] = set()
        for st in self.statements:
            symbols |= st.domain.total.free_symbols
            for _, size in st.domain.extents:
                symbols |= size.free_symbols
        return tuple(sorted(symbols, key=lambda s: s.name))

    def __str__(self) -> str:
        body = "\n  ".join(str(st) for st in self.statements)
        return f"Program {self.name}:\n  {body}"
