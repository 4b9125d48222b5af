"""Subgraph-statement fusion (Definition 6 and Lemma 5).

Given a subgraph ``H`` of computed arrays, the statements writing them are
fused into one *subgraph SOAP statement* ``St_H``:

1. **Versioning.**  Each statement gets its Section 5.2 version dimension
   (forced: cross-statement consumers must be able to align against the
   producer's version structure).
2. **Iteration-space unification.**  A union-find over ``(statement, var)``
   pairs is seeded two ways: variables with the *same name* denote the same
   program loop (encoding convention for shared loop nests, e.g. the time
   loop of a stencil composition), and variables are matched *positionally*
   through every shared array (producer write vs consumer read, and
   read-read sharing of inputs -- the alignment that models data reuse).
   Classes are renamed to canonical variables; version variables are renamed
   by their components.
3. **Cross-statement version alignment.**  A consumer reading an in-``H``
   array at the producer's original (unversioned) rank gets its read
   components padded with the producer's version variable at offset 0; the
   producer writes at offset +1, so the fused group is a valid input/output
   simple overlap whose Corollary 1 term counts the tile *surface*.
4. **Dominator terms.**  Arrays outside ``H`` contribute Lemma 3 terms
   (components merged across statements, grouped by linear signature,
   combined per the overlap policy).  Arrays inside ``H`` contribute their
   Corollary 1 surface term through the write-signature group; reads through
   *other* signatures are kept as Lemma 3 terms under the ``"sum"`` policy
   (the Section 5.1 disjointness view, matching the paper's LU treatment).
5. **Objective.**  ``sum_{St in H} prod_{t in vars(St)} b_t`` -- each fused
   statement contributes its own product (statements need not share all
   loops); version variables are excluded.

Objective and dominator terms are integer exponent rows keyed by loop
variable; they become the solver's :class:`~repro.opt.problem.ProblemIR`
directly, with no sympy on the way.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from repro.ir.access import AccessComponent, AffineIndex, ArrayAccess
from repro.ir.program import Program
from repro.ir.statement import Statement
from repro.opt.problem import ProblemIR
from repro.soap.access_size import Powers, group_constraint_terms
from repro.soap.classify import OverlapPolicy, SimpleOverlapGroup, classify_access
from repro.soap.projections import version_output
from repro.symbolic.symbols import is_version_var, version_components, version_var_name
from repro.util import unique_in_order
from repro.util.errors import NotSoapError
from repro.util.unionfind import UnionFind


@dataclass
class FusedStatement:
    """The subgraph SOAP statement ``St_H`` in solver-ready form."""

    name: str
    arrays: tuple[str, ...]  #: the subgraph H
    statements: tuple[Statement, ...]  #: renamed (unified) statements
    variables: tuple[str, ...]  #: unified loop variables (no version vars)
    extents: dict[str, sp.Expr]
    problem: ProblemIR  #: problem (8), built once for all consumers
    groups: tuple[SimpleOverlapGroup, ...]
    input_arrays: tuple[str, ...]  #: In(St_H)
    notes: tuple[str, ...] = ()


def fuse_statements(
    program: Program,
    h_arrays: tuple[str, ...],
    *,
    policy: OverlapPolicy = "sum",
) -> FusedStatement:
    """Build ``St_H`` for subgraph ``h_arrays`` of ``program``."""
    h_set = set(h_arrays)
    notes: list[str] = []
    originals = [
        st for st in program.statements if st.output.array in h_set
    ]
    if not originals:
        raise NotSoapError(f"subgraph {h_arrays} contains no computed array")

    versioned = [version_output(st, force=True) for st in originals]

    renamed = _unify(versioned)
    renamed = _align_cross_reads(renamed, h_set, notes)

    # ---- unified variable set and extents ----------------------------------
    variables: list[str] = []
    extents: dict[str, sp.Expr] = {}
    for st in renamed:
        for var in st.iteration_vars:
            if is_version_var(var):
                continue
            if var not in extents:
                variables.append(var)
                extents[var] = st.domain.extent(var)

    # ---- objective: one product per statement, equal products merged -------
    objective: dict[Powers, int] = {}
    for st in renamed:
        powers = tuple(
            (v, 1) for v in sorted(set(st.iteration_vars)) if not is_version_var(v)
        )
        objective[powers] = objective.get(powers, 0) + 1

    # ---- dominator groups ----------------------------------------------------
    groups = _build_groups(renamed, h_set)
    constraint = group_constraint_terms(groups, policy=policy)

    input_arrays = unique_in_order(
        acc.array
        for st in renamed
        for acc in st.inputs
        if acc.array not in h_set
    )
    return FusedStatement(
        name="St_{" + ",".join(h_arrays) + "}",
        arrays=tuple(h_arrays),
        statements=tuple(renamed),
        variables=tuple(variables),
        extents=extents,
        problem=ProblemIR.from_terms(objective.items(), constraint, extents),
        groups=tuple(groups),
        input_arrays=tuple(input_arrays),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# unification
# ---------------------------------------------------------------------------


def _primary_component(st: Statement, array: str) -> AccessComponent | None:
    """Component used for positional alignment: the write, else first read."""
    if st.output.array == array:
        return st.output.components[0]
    access = st.input_access(array)
    if access is not None:
        return access.components[0]
    return None


def _unify(statements: list[Statement]) -> list[Statement]:
    uf: UnionFind[tuple[int, str]] = UnionFind()
    for idx, st in enumerate(statements):
        for var in st.iteration_vars:
            if not is_version_var(var):
                uf.add((idx, var))

    by_name: dict[str, tuple[int, str]] = {}
    for idx, st in enumerate(statements):
        for var in st.iteration_vars:
            if is_version_var(var):
                continue
            if var in by_name:
                uf.union(by_name[var], (idx, var))
            else:
                by_name[var] = (idx, var)

    for i in range(len(statements)):
        for j in range(i + 1, len(statements)):
            arrays_i = set(statements[i].arrays_read()) | set(statements[i].arrays_written())
            arrays_j = set(statements[j].arrays_read()) | set(statements[j].arrays_written())
            for array in sorted(arrays_i & arrays_j):
                comp_i = _primary_component(statements[i], array)
                comp_j = _primary_component(statements[j], array)
                if comp_i is None or comp_j is None:
                    continue
                for idx_i, idx_j in zip(comp_i, comp_j):
                    if (
                        idx_i.is_single_var
                        and idx_j.is_single_var
                        and not is_version_var(idx_i.single_var)
                        and not is_version_var(idx_j.single_var)
                    ):
                        uf.union((i, idx_i.single_var), (j, idx_j.single_var))

    # Canonical names: first member's variable name, de-duplicated.
    class_name: dict[tuple[int, str], str] = {}
    taken: set[str] = set()
    for members in uf.groups():
        base = members[0][1]
        name = base
        suffix = 2
        while name in taken:
            name = f"{base}_{suffix}"
            suffix += 1
        taken.add(name)
        for member in members:
            class_name[member] = name

    renamed: list[Statement] = []
    for idx, st in enumerate(statements):
        mapping: dict[str, str] = {}
        for var in st.iteration_vars:
            if is_version_var(var):
                mapping[var] = version_var_name(
                    [class_name.get((idx, c), c) for c in version_components(var)]
                )
            else:
                mapping[var] = class_name[(idx, var)]
        renamed.append(st.renamed(mapping))
    return renamed


# ---------------------------------------------------------------------------
# cross-statement version alignment
# ---------------------------------------------------------------------------


def _writer_version_pad(
    statements: list[Statement], array: str, consumer_index: int
) -> tuple[AffineIndex, ...] | None:
    """Extra read indices aligning a consumer with the producer's versions.

    For every version dimension the producer's write carries beyond the
    consumer's rank, the consumer reads the freshest available version at its
    own loop position.  When the consumer executes *after* the producer in
    program order (within the shared loop body), that is the version the
    producer just wrote -- same offset as the write; when it executes
    *before*, it is the previous iteration's version -- write offset minus
    one (the dataflow of software-pipelined stencil compositions such as
    jacobi's ping-pong sweeps).
    """
    for prod_index, st in enumerate(statements):
        if st.output.array == array:
            delta = 0 if consumer_index > prod_index else -1
            pads = []
            for idx in st.output.components[0]:
                if idx.is_single_var and is_version_var(idx.single_var):
                    pads.append(AffineIndex.var(idx.single_var, idx.offset + delta))
            return tuple(pads)
    return None


def _align_cross_reads(
    statements: list[Statement], h_set: set[str], notes: list[str]
) -> list[Statement]:
    ranks: dict[str, int] = {}
    for st in statements:
        ranks[st.output.array] = max(ranks.get(st.output.array, 0), st.output.dim)

    aligned: list[Statement] = []
    for consumer_index, st in enumerate(statements):
        new_inputs = []
        changed = False
        for acc in st.inputs:
            target = ranks.get(acc.array)
            if target is not None and acc.dim < target:
                pads = _writer_version_pad(statements, acc.array, consumer_index)
                if pads is None or len(pads) != target - acc.dim:
                    notes.append(
                        f"cannot align read of {acc.array!r} in {st.name!r}; "
                        f"kept at original rank"
                    )
                    new_inputs.append(acc)
                    continue
                acc = ArrayAccess(
                    acc.array, tuple(c + pads for c in acc.components)
                )
                changed = True
            new_inputs.append(acc)
        aligned.append(st.with_inputs(new_inputs) if changed else st)
    return aligned


# ---------------------------------------------------------------------------
# dominator groups
# ---------------------------------------------------------------------------


def _build_groups(
    statements: list[Statement], h_set: set[str]
) -> list[SimpleOverlapGroup]:
    """Classify the fused statement's accesses array by array."""
    # Merge read components per array across statements.
    reads: dict[str, ArrayAccess] = {}
    order: list[str] = []
    for st in statements:
        for acc in st.inputs:
            if acc.array in reads:
                try:
                    reads[acc.array] = reads[acc.array].merged_with(acc)
                except ValueError:
                    pass  # rank clash after failed alignment: keep first
            else:
                reads[acc.array] = acc
                order.append(acc.array)

    writes: dict[str, AccessComponent] = {}
    for st in statements:
        writes.setdefault(st.output.array, st.output.components[0])

    groups: list[SimpleOverlapGroup] = []
    for array in order:
        access = reads[array]
        if array in h_set:
            write_comp = writes.get(array)
            if write_comp is not None and len(write_comp) != access.dim:
                write_comp = None  # alignment failed; treat reads as inputs
            groups.extend(classify_access(access, write_comp))
        else:
            groups.extend(classify_access(access))
    # Arrays in H that are written but never read contribute no dominator
    # vertices (their tiles live entirely inside the subcomputation).
    return groups
