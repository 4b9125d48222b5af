"""Canonical signatures for fused optimization problems (8).

Across the Table 2 suite the same problem (8) is solved over and over: every
gemm-shaped contraction, every streaming copy, every ping-pong stencil pair
produces a fused statement whose objective/constraint rows differ only in
*loop-variable names*, column order and term order.  This module computes a **canonical
form** of the :class:`~repro.opt.problem.ProblemIR` so that
all such instances share one cache entry:

1. Loop variables are ranked by a name-free structural fingerprint (their
   exponent pattern across objective and constraint monomials, plus the
   extent expression when the variable is uncapped by the constraint),
   refined Weisfeiler-Lehman-style against the ranks of co-occurring
   variables until stable.
2. Variables are renamed ``c0, c1, ...`` in rank order (ties broken by
   original appearance order, which keeps the map deterministic).
3. Terms are re-sorted by their canonical exponent vectors.

The fingerprints come straight off the IR's ``Fraction`` exponent matrix
and interned coefficient keys -- no sympy traversal on this path; the IR
computed both once at fusion time.  Each problem's exponents are interned
once more here (one object per value and problem, never process-wide), so
sorting the fingerprints compares equal exponents by identity; the ranks
still come from the fingerprints' repr strings, which interning leaves
unchanged.

The **signature** is a SHA-256 over the canonical content (including the
solver flags, which change the feasible set).  Renaming is a bijection, so
the canonical problem is always isomorphic to the original: a signature
collision can only happen between genuinely isomorphic problems, making
cache hits safe by construction.  Imperfect tie-breaking merely costs a
cache miss, never a wrong bound.

Program *parameters* (``N``, ``M``, ...) are deliberately **not** renamed:
they carry meaning across kernels and appear in the reported bounds.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, replace
from fractions import Fraction

import sympy as sp

from repro.opt.kkt import ChiSolution
from repro.opt.problem import ProblemIR, TermIR


@dataclass(frozen=True)
class CanonicalProblem:
    """A fused problem (8) in canonical form, ready for the solver/cache."""

    signature: str  #: SHA-256 hex digest of the canonical content
    problem: ProblemIR  #: the canonical IR the solver consumes
    rename: dict[str, str]  #: original loop var -> canonical loop var
    inverse: dict[str, str]  #: canonical loop var -> original loop var


def canonicalize_ir(
    problem: ProblemIR,
    *,
    allow_pinning: bool = False,
    allow_caps: bool = False,
) -> CanonicalProblem:
    """Canonicalize a :class:`ProblemIR` and hash it."""
    variables = problem.variables
    interned: dict[Fraction, _Exponent] = {}
    objective = _incidence(problem, problem.objective, interned)
    constraint = _incidence(problem, problem.constraint, interned)
    extents = problem.extents_dict()
    # Only extents of constraint-uncapped objective variables influence the
    # solution (the solver substitutes them); restricting the signature to
    # those maximizes sharing between kernels with different loop bounds.
    relevant: dict[int, str] = {}
    for idx, name in enumerate(variables):
        if objective[idx] and not constraint[idx]:
            value = extents.get(name)
            relevant[idx] = sp.srepr(value) if value is not None else "-"

    ranks = _stable_ranks(objective, constraint, relevant)
    ordered = sorted(range(len(variables)), key=lambda idx: (ranks[idx], idx))
    rename = {variables[idx]: f"c{pos}" for pos, idx in enumerate(ordered)}
    inverse = {canonical: original for original, canonical in rename.items()}

    # Extents are attached with their *canonical* names after renaming --
    # attaching them before would rename them a second time whenever an
    # original loop variable happens to be called ``cN``.
    canonical_extents = tuple(
        sorted(
            (rename[variables[idx]], extents[variables[idx]])
            for idx, key in relevant.items()
            if key != "-"
        )
    )
    canonical_ir = replace(
        ProblemIR(
            variables=problem.variables,
            coeffs=problem.coeffs,
            coeff_keys=problem.coeff_keys,
            objective=problem.objective,
            constraint=problem.constraint,
            extents=(),
        ).renamed(rename).permuted(ordered),
        extents=canonical_extents,
    )

    payload = {
        "schema": 2,
        "objective": _rows_key(canonical_ir, canonical_ir.objective),
        "constraint": _rows_key(canonical_ir, canonical_ir.constraint),
        "extents": sorted(
            (rename[variables[idx]], key) for idx, key in relevant.items()
        ),
        "allow_pinning": bool(allow_pinning),
        "allow_caps": bool(allow_caps),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return CanonicalProblem(
        signature=digest,
        problem=canonical_ir,
        rename=rename,
        inverse=inverse,
    )


def rename_solution(solution: ChiSolution, inverse: dict[str, str]) -> ChiSolution:
    """Map a solution of the canonical problem back to original variable names.

    ``chi`` lives in ``X``/``S``/program parameters only, so the tile
    bookkeeping (``tiles`` keys, ``capped``, ``pinned``) and any variable
    names quoted in solver notes need renaming.
    """
    return ChiSolution(
        chi=solution.chi,
        tiles={inverse.get(k, k): v for k, v in solution.tiles.items()},
        capped=tuple(inverse.get(n, n) for n in solution.capped),
        pinned=tuple(inverse.get(n, n) for n in solution.pinned),
        exact=solution.exact,
        notes=tuple(rename_text(note, inverse) for note in solution.notes),
    )


_CANONICAL_TOKEN = re.compile(r"\b(b_)?(c\d+)\b")


def rename_text(text: str, inverse: dict[str, str]) -> str:
    """Replace canonical variable names quoted in solver messages.

    The solver only ever saw the canonical problem, so every ``cN`` (or tile
    ``b_cN``) token in its notes/errors refers to a canonical variable; user
    programs cannot contribute such names because canonicalization renames
    every loop variable.
    """

    def swap(match: re.Match) -> str:
        prefix, name = match.group(1) or "", match.group(2)
        original = inverse.get(name)
        return f"{prefix}{original}" if original is not None else match.group(0)

    return _CANONICAL_TOKEN.sub(swap, text)


# ---------------------------------------------------------------------------
# structural fingerprints
# ---------------------------------------------------------------------------


class _Exponent(Fraction):
    """An interned exponent: a :class:`~fractions.Fraction` that keeps its
    repr, computed once per distinct value and problem instead of once per
    occurrence and refinement round.  The repr is the plain ``Fraction``'s,
    so the fingerprints' repr strings -- and the ranks -- are unchanged."""

    __slots__ = ("_repr",)

    def __new__(cls, value: Fraction) -> _Exponent:
        self = super().__new__(cls, value.numerator, value.denominator)
        self._repr = repr(value)
        return self

    def __repr__(self) -> str:
        return self._repr


def _incidence(
    problem: ProblemIR,
    terms: tuple[TermIR, ...],
    interned: dict[Fraction, _Exponent],
) -> list[list[tuple]]:
    """Per column, ``(coefficient key, exponent, row)`` of every term using it.

    ``row`` holds the term's non-zero ``(column, exponent)`` pairs, read once
    per problem instead of once per column and refinement round.  Exponents
    go through ``interned``, one dict per problem: equal exponents become one
    :class:`_Exponent`, so the fingerprint sorts compare them by identity
    instead of by ``Fraction.__eq__``.
    """
    by_col: list[list[tuple]] = [[] for _ in problem.variables]
    for term in terms:
        row = tuple(
            (idx, interned.get(e) or interned.setdefault(e, _Exponent(e)))
            for idx, e in enumerate(term.exponents)
            if e
        )
        key = problem.coeff_keys[term.coeff]
        for idx, e in row:
            by_col[idx].append((key, e, row))
    return by_col


def _local_profile(entries: list[tuple], col: int) -> tuple:
    """Name-free view of how variable ``col`` participates in its terms."""
    return tuple(
        sorted(
            (key, exponent, tuple(sorted(e for idx, e in row if idx != col)))
            for key, exponent, row in entries
        )
    )


def _stable_ranks(
    objective: list[list[tuple]],
    constraint: list[list[tuple]],
    extent_keys: dict[int, str],
) -> list[int]:
    """Rank variables by structure, WL-refined to a fixpoint."""
    n = len(objective)
    fingerprints: list[object] = [
        (
            _local_profile(objective[col], col),
            _local_profile(constraint[col], col),
            extent_keys.get(col, "-"),
        )
        for col in range(n)
    ]
    ranks = _dense_ranks(fingerprints)
    for _ in range(n):
        refined: list[object] = [
            (
                ranks[col],
                _rank_context(objective[col], col, ranks),
                _rank_context(constraint[col], col, ranks),
            )
            for col in range(n)
        ]
        new_ranks = _dense_ranks(refined)
        if new_ranks == ranks:
            break
        ranks = new_ranks
    return ranks


def _rank_context(entries: list[tuple], col: int, ranks: list[int]) -> tuple:
    return tuple(
        sorted(
            (
                exponent,
                tuple(sorted((ranks[idx], e) for idx, e in row if idx != col)),
            )
            for _, exponent, row in entries
        )
    )


def _dense_ranks(fingerprints: list[object]) -> list[int]:
    keys = [repr(fp) for fp in fingerprints]
    index = {key: rank for rank, key in enumerate(sorted(set(keys)))}
    return [index[key] for key in keys]


def _rows_key(problem: ProblemIR, terms: tuple[TermIR, ...]) -> list:
    return [
        [
            problem.coeff_keys[term.coeff],
            [str(exponent) for exponent in term.exponents],
        ]
        for term in terms
    ]
