"""Test-only reference: the sympy derivation of intensities and their order.

``repro.opt.rho`` once derived every intensity with ``simplify``,
``nsimplify`` and ``leading_term``, ordered two intensities by the limit of
their simplified ratio, and the combine stage took ``leading_term`` of the
whole sum ``sum_A |A|/rho_A``.  Intensities are now read off ``chi``'s top
X-degree by the Section 4.5 closed form, ordered on rows and summed on rows.
The functions below are the sympy versions, kept verbatim (less their
memos) as oracles of the row path.
"""

from __future__ import annotations

import sympy as sp

from repro.symbolic.asymptotics import leading_term
from repro.symbolic.symbols import S_SYM, X_SYM
from repro.util.errors import SolverError
from tests.kkt_reference import degree_in_x, leading_in_x


def reference_intensity_of_chi(chi: sp.Expr) -> tuple:
    """``(chi, rho, rho_exact, x0, alpha, note)`` of one ``chi(X)``."""
    chi = sp.expand(chi)
    lead = leading_in_x(chi)
    alpha = degree_in_x(lead)
    note = None

    if alpha < 1:
        raise SolverError(
            f"chi(X) = {chi} grows sublinearly (alpha={alpha}); "
            "SOAP constraints always force alpha >= 1"
        )

    if alpha == 1:
        coeff = sp.simplify(lead / X_SYM)
        rho = sp.simplify(coeff)
        rho_exact = rho
        x0 = sp.oo
        note = "alpha == 1: intensity approached as X -> oo"
    else:
        x0 = sp.nsimplify(alpha / (alpha - 1)) * S_SYM
        rho_exact = sp.simplify(chi.subs(X_SYM, x0) / (x0 - S_SYM))
        rho = leading_term(rho_exact)
    return chi, sp.simplify(rho), rho_exact, x0, sp.Rational(alpha), note


_LARGE_PARAM = sp.Integer(10) ** 9


def compare_intensity(a: sp.Expr, b: sp.Expr) -> int:
    """Order two intensities for large ``S`` (and large parameters).

    Returns -1/0/+1 for a<b / a~b / a>b; ties in growth rate are broken by
    the constant factor.
    """
    ratio = sp.simplify(sp.Rational(1) * a / b)
    if ratio.free_symbols <= {S_SYM}:
        limit = sp.limit(ratio, S_SYM, sp.oo)
    else:
        subs = {sym: _LARGE_PARAM for sym in ratio.free_symbols if sym != S_SYM}
        limit = sp.limit(ratio.subs(subs), S_SYM, sp.oo)
    if limit == sp.oo:
        return 1
    if limit == 0:
        return -1
    value = sp.simplify(limit)
    if value == 1:
        return 0
    try:
        return 1 if float(value) > 1 else -1
    except TypeError as err:  # pragma: no cover - defensive
        raise SolverError(f"cannot order intensities {a} vs {b}") from err


def reference_bound(quotients) -> sp.Expr:
    """The combine stage's bound: ``leading_term`` of ``sum(count / rho)``."""
    total = sp.Integer(0)
    for count, rho in quotients:
        total += count / rho
    return leading_term(total) if total != 0 else total
