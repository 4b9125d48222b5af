"""Simple-overlap classification (paper Section 3, Definition items 5-7).

Given the set of access-function components through which a statement (or a
fused subgraph statement) references one array, this module:

1. partitions the components into **simple-overlap groups** -- maximal sets
   whose members share the *linear part* in every dimension, i.e. differ only
   by constant translation vectors ``t_k``;
2. for each group computes the per-dimension **access-offset set sizes**
   ``|t̂_i|`` (Definition 3): the number of distinct non-zero i-th translation
   coordinates, which is independent of the base component chosen;
3. records, per dimension, which iteration variable indexes it (``None`` for
   constant dimensions), validating the SOAP injectivity requirement that a
   dimension is indexed by a single variable with unit coefficient.

Accesses violating (3) -- multi-variable dimensions such as convolution's
``r + sigma*w`` -- are *not* errors here; they carry a ``free_vars`` marker
and are lowered by the Section 5.3 projection at bound-construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.ir.access import AccessComponent, AffineIndex, ArrayAccess
from repro.ir.statement import Statement
from repro.util.errors import NotSoapError


#: How to combine several simple-overlap groups reading the *same* array.
#:
#: ``"sum"``   -- Section 5.1 projection: assume the groups' access sets are
#:               disjoint, so the dominator contains all of them (the paper's
#:               mode for LU, syrk, correlation, ...).
#: ``"max"``   -- conservative mode: only the largest group provably belongs
#:               to the dominator (sound without any disjointness argument).
OverlapPolicy = str  # "sum" | "max"


@dataclass(frozen=True)
class DimIndex:
    """How one array dimension is indexed inside a simple-overlap group.

    ``var``       -- the indexing iteration variable, or ``None`` if the
                     dimension is constant (or projected away);
    ``offsets``   -- ``|t̂_i|``: count of distinct non-zero translation
                     coordinates in this dimension;
    ``free_vars`` -- extra variables appearing in a non-injective linear
                     index (Section 5.3); empty for SOAP-conformant dims.
    """

    var: str | None
    offsets: int
    free_vars: tuple[str, ...] = ()


@dataclass(frozen=True)
class SimpleOverlapGroup:
    """A maximal constant-translation family of components of one array."""

    array: str
    dims: tuple[DimIndex, ...]
    components: tuple[AccessComponent, ...]
    includes_output: bool = False

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def variables(self) -> tuple[str, ...]:
        """Loop variables whose tiles the access-set size depends on.

        Version variables (Section 5.2) are expanded to their tied loop
        variables -- the size bound is expressed in real tiles only.
        """
        from repro.symbolic.symbols import is_version_var, version_components

        seen: dict[str, None] = {}
        for d in self.dims:
            if d.var is not None:
                if is_version_var(d.var):
                    for component in version_components(d.var):
                        seen.setdefault(component)
                else:
                    seen.setdefault(d.var)
            for v in d.free_vars:
                seen.setdefault(v)
        return tuple(seen)

    def signature(self) -> tuple:
        """Linear-part signature shared by all components of the group."""
        return tuple(idx.linear_part for idx in self.components[0])


def _linear_signature(comp: AccessComponent) -> tuple:
    return tuple(idx.linear_part for idx in comp)


def _dim_index(indices: Sequence[AffineIndex]) -> DimIndex:
    """Summarize one dimension of a simple-overlap group.

    All ``indices`` share a linear part by construction; their offsets differ.
    ``|t̂|`` equals (#distinct offsets - 1): exactly one translation coordinate
    is zero whichever base component is chosen.
    """
    distinct_offsets = len({idx.offset for idx in indices})
    offsets = distinct_offsets - 1
    first = indices[0]
    if first.is_constant:
        return DimIndex(var=None, offsets=offsets)
    if first.is_single_var:
        return DimIndex(var=first.single_var, offsets=offsets)
    # Non-injective / strided dimension: remember every participating
    # variable; Section 5.3 decides which single variable bounds the extent.
    variables = first.variables()
    return DimIndex(var=variables[0], offsets=offsets, free_vars=variables[1:])


def classify_access(
    access: ArrayAccess,
    output_component: AccessComponent | None = None,
) -> list[SimpleOverlapGroup]:
    """Group an array's components into simple-overlap groups.

    ``output_component`` -- when the same array is also the statement output,
    its write component joins the group sharing its linear part (Corollary 1
    input/output simple overlap); that group is marked ``includes_output``.
    """
    components = list(access.components)
    out_sig = _linear_signature(output_component) if output_component is not None else None
    if output_component is not None and output_component not in components:
        components.append(output_component)

    by_signature: dict[tuple, list[AccessComponent]] = {}
    for comp in components:
        by_signature.setdefault(_linear_signature(comp), []).append(comp)

    groups: list[SimpleOverlapGroup] = []
    for sig, comps in by_signature.items():
        dims = tuple(
            _dim_index([comp[d] for comp in comps]) for d in range(len(comps[0]))
        )
        groups.append(
            SimpleOverlapGroup(
                array=access.array,
                dims=dims,
                components=tuple(comps),
                includes_output=(sig == out_sig),
            )
        )
    return groups


def classify_statement(statement: Statement) -> list[SimpleOverlapGroup]:
    """All simple-overlap groups of a statement's inputs.

    The output array's write component is merged into its reading access if
    the array is updated in place; a *pure* output (array never read) does not
    constrain the dominator and yields no group.
    """
    groups: list[SimpleOverlapGroup] = []
    out = statement.output
    for access in statement.inputs:
        out_comp = out.components[0] if access.array == out.array else None
        groups.extend(classify_access(access, out_comp))
    return groups


def check_soap(statement: Statement, *, allow_multi_group: bool = True) -> None:
    """Validate SOAP structure, raising :class:`NotSoapError` otherwise.

    With ``allow_multi_group=False`` the strict Section 3 definition is
    enforced: one simple-overlap group per array and injective (single
    variable per dimension, distinct variables across dimensions).
    """
    groups = classify_statement(statement)
    per_array: dict[str, int] = {}
    for g in groups:
        per_array[g.array] = per_array.get(g.array, 0) + 1
        vars_seen = [d.var for d in g.dims if d.var is not None]
        if len(vars_seen) != len(set(vars_seen)):
            raise NotSoapError(
                f"array {g.array!r}: repeated iteration variable across "
                f"dimensions (non-injective access function)"
            )
        if not allow_multi_group:
            for d in g.dims:
                if d.free_vars:
                    raise NotSoapError(
                        f"array {g.array!r}: non-injective dimension over "
                        f"variables {(d.var,) + d.free_vars}"
                    )
    if not allow_multi_group:
        offenders = [a for a, n in per_array.items() if n > 1]
        if offenders:
            raise NotSoapError(
                f"arrays {offenders} accessed through non-constant-offset "
                f"components; apply a Section 5 projection first"
            )
