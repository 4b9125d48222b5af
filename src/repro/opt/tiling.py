"""Optimal tile extraction (Section 4.5, last paragraph).

Substituting ``X0`` back into the tile closed forms ``|D_t|(X)`` yields the
loop tiling of the maximal subcomputation.  The paper notes these tilings are
derived after relaxing loop-carried dependencies and integrality, so they are
*guidelines*: when a legal schedule with these tile sizes exists, it is
provably I/O-optimal (the bound is attained at leading order).
"""

from __future__ import annotations

import math
from typing import Mapping

import sympy as sp

from repro.opt.rho import IntensityResult
from repro.symbolic.symbols import S_SYM, X_SYM


def tiles_at_x0(result: IntensityResult) -> dict[str, sp.Expr]:
    """Tile sizes of the maximal subcomputation at the optimal ``X0``.

    For bandwidth-bound kernels (``alpha == 1``, ``X0 = oo``) the tiles grow
    without bound; the symbolic forms in ``X`` are returned unchanged so the
    caller can still inspect the tile *shape* (ratios between tiles).
    Consumers that need numbers must use :func:`concrete_tiles_at_x0`, which
    makes the bandwidth-bound case explicit instead of leaking ``X``.

    Memoized on ``result`` (a schedule is derived once per fast-memory size
    from the same analysis); callers get their own copy.
    """
    if result._tiles_at_x0 is None:
        result._tiles_at_x0 = _substitute_x0(result)
    return dict(result._tiles_at_x0)


def _substitute_x0(result: IntensityResult) -> dict[str, sp.Expr]:
    solution = result.chi_solution
    if solution is None:
        return {}
    if result.x0 is sp.oo:
        return dict(solution.tiles)
    return {
        var: sp.simplify(sp.powsimp(expr.subs(X_SYM, result.x0), force=True))
        for var, expr in solution.tiles.items()
    }


def is_bandwidth_bound(result: IntensityResult) -> bool:
    """True when the optimum sits at ``X0 = oo`` (``alpha == 1``): the
    intensity is approached by unboundedly growing tiles, so no finite
    optimal tiling exists and a streaming schedule attains the bound."""
    return result.x0 is sp.oo


def concrete_tiles_at_x0(
    result: IntensityResult, params: Mapping[str, int], s: int
) -> dict[str, int] | None:
    """Integer tile sizes at ``X0`` for concrete ``params`` and ``S = s``.

    Returns ``None`` for bandwidth-bound results (``X0 = oo``) and for tiles
    that stay symbolic after substitution -- the schedule-derivation contract
    is "``None`` means stream, don't tile".  Values are floored and clamped
    to at least 1 (a tile is never empty).
    """
    if is_bandwidth_bound(result):
        return None
    subs = {sp.Symbol(k, positive=True): v for k, v in params.items()}
    subs[S_SYM] = s
    tiles: dict[str, int] = {}
    for var, expr in tiles_at_x0(result).items():
        value = sp.sympify(expr).subs(subs)
        if value.free_symbols:
            return None  # unsubstituted symbols (e.g. X) -- not concrete
        tiles[var] = max(1, int(math.floor(float(value))))
    return tiles
