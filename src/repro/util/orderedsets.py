"""Deterministic ordering helper.

Symbolic analysis must be reproducible run to run: subgraph enumeration
order, iteration-variable order and term order all influence the *printed*
form of bounds (never their value).  Python ``set`` iteration order is
nondeterministic across processes, so ordered containers are used throughout.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import TypeVar

T = TypeVar("T", bound=Hashable)


def unique_in_order(items: Iterable[T]) -> list[T]:
    """Return ``items`` with duplicates removed, preserving first occurrence."""
    seen: dict[T, None] = {}
    for item in items:
        seen.setdefault(item)
    return list(seen)
