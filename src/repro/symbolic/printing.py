"""Deterministic, human-readable rendering of symbolic bounds.

Bounds such as ``2*N**3/(3*sqrt(S))`` should print identically across runs
and read like the paper's Table 2.  sympy's default ``str`` is already
deterministic for a fixed expression; this module adds light normalization
(rationalize radicals, factor out numeric content) so structurally equal
bounds print equally.
"""

from __future__ import annotations

import sympy as sp


def bound_str(expr: sp.Expr) -> str:
    """Render a bound expression compactly and deterministically."""
    simplified = sp.radsimp(sp.nsimplify(sp.simplify(expr), rational=False))
    try:
        simplified = sp.factor_terms(simplified)
    except Exception:  # pragma: no cover - factor_terms is best effort
        pass
    return str(simplified)
