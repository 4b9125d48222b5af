"""Access-set size lower bounds (Lemma 3 and Corollary 1).

For a rectangular subcomputation with per-variable tile sizes ``|D_i|`` the
number of distinct vertices of array ``A`` accessed through a simple-overlap
group is at least

* input-only group (Lemma 3):
  ``|A|  >=  2 * prod_i |D_i|  -  prod_i (|D_i| - |t̂_i|)``
* input/output group (Corollary 1; up to ``prod |D_i|`` vertices are computed
  inside the subcomputation and need no load):
  ``|A|  >=      prod_i |D_i|  -  prod_i (|D_i| - |t̂_i|)``

A single-component group has every ``|t̂_i| = 0`` and the Lemma 3 form
degenerates to ``prod_i |D_i|`` -- each accessed vertex counted once.

Every extent ``|D_i|`` is an integer polynomial in the tile sizes, so the
bound is computed on **exponent rows**: a polynomial is a dict from an
integer exponent tuple over the group's variables
(:attr:`~repro.soap.classify.SimpleOverlapGroup.variables`) to an integer
coefficient, and the two products above are polynomial multiplications of
such dicts.  The result leaves this module as :data:`Terms` -- ``(powers,
coefficient)`` pairs keyed by loop-variable name, which fusion hands to
:meth:`repro.opt.problem.ProblemIR.from_terms` -- and becomes sympy only
through :func:`access_size` and :func:`terms_expr`.

Three structural subtleties, all needed for soundness:

* **Repeated variables.**  After Section 5.2 versioning a component such as
  LU's ``A[i,k,k]`` indexes two dimensions with the same variable.  The image
  of the tile is then a *diagonal* embedding of size ``|D_i| * |D_k|`` --
  the product runs over **distinct** variables, never per dimension (a
  per-dimension product ``|D_i| * |D_k|^2`` would overestimate the dominator
  and inflate the bound).  Offsets of dimensions sharing a variable combine
  by ``max`` (a sound lower bound on the diagonal union stretch).
* **Constant dimensions** contribute extent 1.  With ``o`` distinct non-zero
  offsets the factor ``(1 - o)`` may go negative; the algebra still yields
  the correct ``(1 + o) * prod(rest)`` union for pure constant splits and
  remains a lower bound in mixed cases (property-tested against brute-force
  enumeration in ``tests/test_soap_access_size.py``).
* **Non-injective dimensions** (Section 5.3) carry ``free_vars``.  The paper
  keeps a single variable's extent (``|g[H]| >= max_i |D_i|``); this
  implementation refines it with the Minkowski sumset bound: for a linear
  index ``g = sum_i c_i * psi_i`` with non-zero integer coefficients over
  value sets ``D_i``, ``|g[H]| >= sum_i |D_i| - (m - 1)`` (iterated
  Cauchy-Davenport over the integers).  The refinement is sound -- scaling a
  set by a non-zero integer preserves its cardinality and
  ``|A + B| >= |A| + |B| - 1`` for finite integer sets -- and strictly
  tighter whenever more than one variable feeds the dimension (e.g. durbin's
  ``r[k-i-1]``, unit-stride convolution's ``r + w``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import sympy as sp

from repro.soap.classify import DimIndex, OverlapPolicy, SimpleOverlapGroup
from repro.symbolic.symbols import is_version_var, tile, version_components

#: an integer polynomial in the tile sizes: exponent row -> coefficient
Rows = dict[tuple[int, ...], int]
#: a term's non-zero exponents by loop-variable name, in name order
Powers = tuple[tuple[str, int], ...]
#: an integer polynomial over named tiles: ``(powers, coefficient)`` pairs
Terms = tuple[tuple[Powers, int], ...]


def effective_dims(group: SimpleOverlapGroup) -> list[tuple[Rows, int]]:
    """Collapse group dimensions to ``(extent, offset_count)`` pairs.

    One pair per *distinct* iteration variable (offsets merged by ``max``)
    plus one pair per constant dimension.  Each extent is a polynomial over
    ``group.variables``: a tile, a Minkowski sumset ``b_r + b_w - 1``, a
    product of version-component tiles, or 1.

    A *version* dimension (Section 5.2) has a composite extent: the product
    of the tiles of its tied loop variables -- but only of those **not
    already indexing a real dimension** of the group.  A diagonal access
    such as LU's ``A[i,k,version(k)]`` touches one version per ``k`` value,
    so its footprint is ``b_i * b_k``, not ``b_i * b_k^2``; counting the
    version extent again would overestimate the dominator and inflate the
    bound (unsound).  A version tile therefore never appears in an extent.
    """
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

    column = {v: k for k, v in enumerate(group.variables)}
    one = (0,) * len(column)

    def product(names: Iterable[str]) -> tuple[int, ...]:
        row = list(one)
        for name in names:
            row[column[name]] += 1
        return tuple(row)

    dims: list[tuple[Rows, int]] = [({product((v,)): 1}, per_var[v]) for v in order]
    for variables, offsets in sumsets:
        # Minkowski sumset refinement of Section 5.3 (module docstring).
        extent: Rows = {}
        for v in variables:
            extent = _plus(extent, {product((v,)): 1})
        dims.append((_plus(extent, {one: 1 - len(variables)}), offsets))
    for vname, offsets in versions:
        tied = (c for c in version_components(vname) if c not in per_var)
        dims.append(({product(tied): 1}, offsets))
    dims.extend(({one: 1}, o) for o in constants)
    return dims


def _plus(a: Rows, b: Rows, scale: int = 1) -> Rows:
    """``a + scale * b``, zero coefficients dropped."""
    total = dict(a)
    for row, coeff in b.items():
        total[row] = total.get(row, 0) + scale * coeff
    return {row: coeff for row, coeff in total.items() if coeff}


def _times(a: Rows, b: Rows) -> Rows:
    product: Rows = {}
    for row_a, coeff_a in a.items():
        for row_b, coeff_b in b.items():
            row = tuple(x + y for x, y in zip(row_a, row_b))
            product[row] = product.get(row, 0) + coeff_a * coeff_b
    return {row: coeff for row, coeff in product.items() if coeff}


def _size_rows(group: SimpleOverlapGroup) -> tuple[Rows, Rows]:
    """``(prod_i |D_i|, Lemma 3 / Corollary 1 size)`` as polynomials."""
    one = {(0,) * len(group.variables): 1}
    full, reduced = one, one
    for extent, offsets in effective_dims(group):
        full = _times(full, extent)
        reduced = _times(reduced, _plus(extent, one, -offsets))
    size = _plus({}, full, 1 if group.includes_output else 2)
    return full, _plus(size, reduced, -1)


def _terms(rows: Rows, variables: Sequence[str]) -> Terms:
    """``rows`` over ``variables`` as name-keyed terms."""
    by_name = sorted(range(len(variables)), key=variables.__getitem__)
    return tuple(
        (tuple((variables[k], row[k]) for k in by_name if row[k]), coeff)
        for row, coeff in rows.items()
    )


def terms_expr(terms: Terms) -> sp.Expr:
    """The sympy sum of ``terms`` in the tile symbols ``b_*``."""
    return sp.Add(
        *(
            coeff * sp.Mul(*(tile(name) ** exp for name, exp in powers))
            for powers, coeff in terms
        )
    )


def access_size(group: SimpleOverlapGroup) -> sp.Expr:
    """Exact Lemma 3 / Corollary 1 expression in the tile symbols ``b_*``.

    The sympy view of the rows :func:`access_size_leading` truncates.
    """
    _, size = _size_rows(group)
    return terms_expr(_terms(size, group.variables))


def access_size_leading(group: SimpleOverlapGroup) -> Terms:
    """Leading-order terms of :func:`access_size`.

    Only the top-total-degree monomials matter for the asymptotic solution of
    optimization problem (8); lower-order terms perturb ``chi(X)`` below
    leading order.  For an input/output stencil group the leading part is the
    *surface* ``sum_i |t̂_i| * prod_{k != i} |D_k|``.  A group whose size
    cancels to zero (an input/output group without offsets) contributes no
    term.

    Memoized on ``(group.dims, group.includes_output)``, the only fields it
    reads; the returned terms are immutable.
    """
    return _access_size_leading(group.dims, group.includes_output)


@lru_cache(maxsize=4096)
def _access_size_leading(dims: tuple[DimIndex, ...], includes_output: bool) -> Terms:
    group = SimpleOverlapGroup(
        array="", dims=dims, components=(), includes_output=includes_output
    )
    full, size = _size_rows(group)
    top = max((sum(row) for row in size), default=0)
    lead = {row: coeff for row, coeff in size.items() if sum(row) == top}
    if any(coeff < 0 for coeff in lead.values()):
        # Negative-coefficient leading terms can only arise from constant
        # dimensions with many offsets; fall back to the plain product bound
        # (always valid: at least one full tile is accessed).
        return _terms(full, group.variables)
    return _terms(lead, group.variables)


def group_constraint_terms(
    groups: Sequence[SimpleOverlapGroup],
    *,
    policy: OverlapPolicy = "sum",
) -> Terms:
    """Combine per-group access sizes into the dominator-size terms.

    Groups of *different* arrays always add (arrays are disjoint).  Groups of
    the *same* array combine according to ``policy``:

    * ``"sum"`` -- Section 5.1 disjoint-access-sets projection;
    * ``"max"`` -- among an array's *read* groups, keep only the largest
      leading size (sound without a disjointness argument); the input/output
      Corollary 1 group is not an alternative view of the same data and is
      always counted.  "Largest" is resolved by comparing leading total
      degree, then term count, then the string of the sympy sum -- the choice
      only matters when degrees tie, in which case either is a valid lower
      bound.

    Terms with equal powers merge (a merged term keeps its first position and
    one whose coefficient cancels is dropped).  Every term is over real loop
    tiles: version tiles never occur (:func:`effective_dims`).
    """
    if policy not in ("sum", "max"):
        raise ValueError(f"unknown overlap policy {policy!r}")
    per_array: dict[str, list[Terms]] = {}
    always: dict[str, list[Terms]] = {}
    order: list[str] = []
    for group in groups:
        if group.array not in per_array:
            order.append(group.array)
            per_array[group.array] = []
            always[group.array] = []
        target = always if group.includes_output else per_array
        target[group.array].append(access_size_leading(group))

    total: dict[Powers, int] = {}

    def add(part: Terms) -> None:
        for powers, coeff in part:
            total[powers] = total.get(powers, 0) + coeff
        for powers in [powers for powers, coeff in total.items() if not coeff]:
            del total[powers]

    for array in order:
        for part in always[array]:
            add(part)
        parts = per_array[array]
        if policy == "sum":
            for part in parts:
                add(part)
        elif parts:
            add(_largest(parts))
    return tuple(total.items())


def _largest(parts: Sequence[Terms]) -> Terms:
    def size(part: Terms) -> tuple[int, int]:
        degrees = [sum(exp for _, exp in powers) for powers, _ in part]
        return (max(degrees, default=0), len(part))

    top = max(map(size, parts))
    tied = [part for part in parts if size(part) == top]
    if len(tied) == 1:
        return tied[0]
    return max(tied, key=lambda part: str(terms_expr(part)))
