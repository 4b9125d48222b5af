"""Test-only reference: the sympy Lemma 3 / Corollary 1 access sizes.

``repro.soap.access_size`` once built every extent as a sympy expression,
expanded the two products through ``sp.expand`` and read the leading part
back with ``Posynomial.from_expr``.  It now multiplies integer exponent rows
and builds sympy only for the answer.  The functions below are the sympy
version, kept verbatim as an oracle: :func:`reference_access_size_leading`
takes the arguments of ``repro.soap.access_size._access_size_leading`` and
returns a posynomial (``tests/posynomial.py``), which
:func:`reference_terms` turns into that function's name-keyed terms.
"""

from __future__ import annotations

import sympy as sp

from repro.soap.classify import DimIndex, SimpleOverlapGroup
from repro.symbolic.symbols import is_version_var, tile, tile_name, version_components
from tests.posynomial import Posynomial


def reference_effective_dims(group: SimpleOverlapGroup) -> list[tuple[sp.Expr, int]]:
    """``(extent, offset_count)`` pairs with sympy extents."""
    per_var: dict[str, int] = {}
    order: list[str] = []
    constants: list[int] = []
    versions: list[tuple[str, int]] = []
    sumsets: list[tuple[tuple[str, ...], int]] = []
    for dim in group.dims:
        if dim.var is None:
            constants.append(dim.offsets)
        elif is_version_var(dim.var):
            versions.append((dim.var, dim.offsets))
        elif dim.free_vars:
            sumsets.append(((dim.var, *dim.free_vars), dim.offsets))
        else:
            if dim.var not in per_var:
                order.append(dim.var)
                per_var[dim.var] = dim.offsets
            else:
                per_var[dim.var] = max(per_var[dim.var], dim.offsets)
    dims: list[tuple[sp.Expr, int]] = [(tile(v), per_var[v]) for v in order]
    for variables, offsets in sumsets:
        extent = sp.Add(*(tile(v) for v in variables)) - (len(variables) - 1)
        dims.append((extent, offsets))
    for vname, offsets in versions:
        extent = sp.Integer(1)
        for component in version_components(vname):
            if component not in per_var:
                extent *= tile(component)
        dims.append((extent, offsets))
    dims.extend((sp.Integer(1), o) for o in constants)
    return dims


def reference_access_size(group: SimpleOverlapGroup) -> sp.Expr:
    prod_full = sp.Integer(1)
    prod_reduced = sp.Integer(1)
    for extent, offsets in reference_effective_dims(group):
        prod_full *= extent
        prod_reduced *= extent - sp.Integer(offsets)
    if group.includes_output:
        return sp.expand(prod_full - prod_reduced)
    return sp.expand(2 * prod_full - prod_reduced)


def reference_access_size_leading(
    dims: tuple[DimIndex, ...], includes_output: bool
) -> Posynomial:
    group = SimpleOverlapGroup(
        array="", dims=dims, components=(), includes_output=includes_output
    )
    expr = reference_access_size(group)
    variables = [tile(v) for v in group.variables]
    posy = Posynomial.from_expr(expr, variables)
    lead = posy.leading()
    if not lead.is_positive():
        full = sp.Integer(1)
        for extent, _ in reference_effective_dims(group):
            full *= extent
        return Posynomial.from_expr(full, variables)
    return lead


def reference_terms(posy: Posynomial) -> tuple:
    """``posy`` as ``(((name, exponent), ...), coefficient)`` terms."""
    return tuple(
        (tuple((tile_name(v), e) for v, e in t.powers), t.coeff) for t in posy.terms
    )
