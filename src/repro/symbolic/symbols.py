"""Canonical symbol factories.

Using a single factory per symbol family guarantees that two modules asking
for parameter ``"N"`` receive the *same* sympy symbol (same assumptions), so
expressions combine instead of silently treating ``N`` and ``N'`` as distinct.

Assumption choices matter:

* parameters and tile sizes are ``positive`` so that sympy can simplify
  ``sqrt(N**2) -> N`` and order-compare terms of a bound;
* everything is ``real`` to keep radicals on the principal branch.
"""

from __future__ import annotations

from functools import lru_cache

import sympy as sp

#: Fast-memory size (number of red pebbles) -- the paper's ``S``.
S_SYM: sp.Symbol = sp.Symbol("S", positive=True)

#: X-partition parameter -- the paper's ``X`` (`X > S`).
X_SYM: sp.Symbol = sp.Symbol("X", positive=True)

_TILE_PREFIX = "b_"


@lru_cache(maxsize=None)
def param(name: str) -> sp.Symbol:
    """Return the canonical *program parameter* symbol (``N``, ``M``, ...)."""
    if name in ("S", "X"):
        raise ValueError(f"{name!r} is reserved (use S_SYM / X_SYM)")
    return sp.Symbol(name, positive=True)


@lru_cache(maxsize=None)
def tile(var: str) -> sp.Symbol:
    """Return the tile-size symbol ``b_<var>`` = |D_var| for loop var ``var``."""
    return sp.Symbol(_TILE_PREFIX + var, positive=True)


def tile_name(symbol: sp.Symbol) -> str:
    """Inverse of :func:`tile`: the loop-variable name of a tile symbol."""
    name = symbol.name
    if not name.startswith(_TILE_PREFIX):
        raise ValueError(f"{symbol} is not a tile symbol")
    return name[len(_TILE_PREFIX):]


def is_tile(symbol: sp.Symbol) -> bool:
    """True if ``symbol`` was produced by :func:`tile`."""
    return isinstance(symbol, sp.Symbol) and symbol.name.startswith(_TILE_PREFIX)


# ---------------------------------------------------------------------------
# Version variables (Section 5.2)
#
# When a statement's output access misses some loop variables, each execution
# writes a new *version* of an element; the version index is modeled as one
# extra array dimension whose extent is the product of the missing variables'
# tiles.  The convention below encodes that tie in the variable name: fusion
# renames a version variable by its components, and the access-size builder
# reads them to give a version dimension the extent ``b_k`` (or a product for
# multiple missing variables), so no version tile ``b_{__v.k}`` is ever built.
# ---------------------------------------------------------------------------

_VERSION_PREFIX = "__v."


def version_var_name(missing: tuple[str, ...] | list[str]) -> str:
    """Canonical name of the version variable tied to ``missing`` loop vars."""
    if not missing:
        raise ValueError("version variable needs at least one loop variable")
    return _VERSION_PREFIX + ".".join(missing)


def is_version_var(name: str) -> bool:
    return name.startswith(_VERSION_PREFIX)


def version_components(name: str) -> tuple[str, ...]:
    """Loop variables whose product defines the version extent."""
    if not is_version_var(name):
        raise ValueError(f"{name!r} is not a version variable")
    return tuple(name[len(_VERSION_PREFIX):].split("."))
