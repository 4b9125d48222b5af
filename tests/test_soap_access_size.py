"""Lemma 3 / Corollary 1 access-size bounds, property-tested against brute force
and against the sympy reference (``tests/access_size_reference.py``)."""

import importlib
import itertools

import pytest
import sympy as sp
from access_size_reference import (
    reference_access_size,
    reference_access_size_leading,
    reference_terms,
)
from hypothesis import example, given, settings, strategies as st

from repro.cdag.counting import access_set_size_bruteforce, hyperrectangle_union_size
from repro.ir.access import ArrayAccess
from repro.kernels.common import ref
from repro.soap.access_size import (
    access_size,
    access_size_leading,
    group_constraint_terms,
    terms_expr,
)
from repro.soap.classify import DimIndex, SimpleOverlapGroup, classify_access
from repro.symbolic.symbols import tile, version_var_name

# ``repro.soap`` re-exports a function named like this module
access_size_module = importlib.import_module("repro.soap.access_size")


def _eval(expr, sizes):
    return expr.subs({tile(v): s for v, s in sizes.items()})


class TestClosedForms:
    def test_single_component(self):
        (g,) = classify_access(ref("A", "i,k"))
        assert sp.simplify(access_size(g) - tile("i") * tile("k")) == 0

    def test_three_point_stencil(self):
        (g,) = classify_access(ref("A", "i-1,t", "i,t", "i+1,t"))
        bi, bt = tile("i"), tile("t")
        expected = 2 * bi * bt - (bi - 2) * bt
        assert sp.simplify(access_size(g) - sp.expand(expected)) == 0

    def test_inout_corollary(self):
        out = ref("A", "i,t+1").components[0]
        (g,) = classify_access(ref("A", "i-1,t", "i,t", "i+1,t"), out)
        bi, bt = tile("i"), tile("t")
        expected = bi * bt - (bi - 2) * (bt - 1)
        assert sp.simplify(access_size(g) - sp.expand(expected)) == 0

    def test_repeated_variable_counts_distinct_tiles_once(self):
        # LU diagonal-style access [i, k, version(k)] must cost b_i * b_k.
        from repro.ir.access import AffineIndex
        from repro.symbolic.symbols import version_var_name

        comp = (
            AffineIndex.var("i"),
            AffineIndex.var("k"),
            AffineIndex.var(version_var_name(["k"])),
        )
        (g,) = classify_access(ArrayAccess("A", (comp,)))
        assert sp.simplify(access_size(g) - tile("i") * tile("k")) == 0

    def test_constant_split_counts_components(self):
        (g,) = classify_access(ref("A", "0,j", "1,j", "2,j"))
        # three disjoint constant rows -> 3 * b_j
        assert sp.simplify(access_size(g) - 3 * tile("j")) == 0

    def test_minkowski_sumset_dimension(self):
        (g,) = classify_access(ref("Img", "r+w,c"))
        br, bw, bc = tile("r"), tile("w"), tile("c")
        assert sp.simplify(access_size(g) - sp.expand((br + bw - 1) * bc)) == 0

    def test_leading_of_stencil_is_surface(self):
        out = ref("A", "i,t+1").components[0]
        (g,) = classify_access(ref("A", "i-1,t", "i,t", "i+1,t"), out)
        lead = access_size_leading(g)
        bi, bt = tile("i"), tile("t")
        assert sp.simplify(terms_expr(lead) - (bi + 2 * bt)) == 0


class TestGroupCombination:
    def test_sum_policy_adds_groups(self):
        groups = classify_access(ref("A", "i,k", "k,j"))
        terms = group_constraint_terms(groups, policy="sum")
        bi, bj, bk = tile("i"), tile("j"), tile("k")
        assert sp.simplify(terms_expr(terms) - (bi * bk + bk * bj)) == 0

    def test_max_policy_keeps_largest(self):
        groups = classify_access(ref("A", "i,k", "k,j"))
        terms = group_constraint_terms(groups, policy="max")
        assert len(terms) == 1

    def test_max_policy_breaks_ties_by_the_printed_sum(self):
        # b_i*b_k and b_j*b_k tie on degree and term count: the larger string
        # of the two sympy sums wins
        groups = classify_access(ref("A", "i,k", "j,k"))
        winner = ((("j", 1), ("k", 1)), 1)
        assert group_constraint_terms(groups, policy="max") == (winner,)

    def test_unknown_policy_rejected(self):
        groups = classify_access(ref("A", "i,k", "k,j"))
        with pytest.raises(ValueError):
            group_constraint_terms(groups, policy="median")
        # rejected up front, also when no array has two read groups
        (single,) = classify_access(ref("A", "i,k"))
        with pytest.raises(ValueError):
            group_constraint_terms([single], policy="median")

    def test_different_arrays_always_add(self):
        groups = classify_access(ref("A", "i")) + classify_access(ref("B", "j"))
        terms = group_constraint_terms(groups, policy="max")
        assert len(terms) == 2


# ---------------------------------------------------------------------------
# property-based soundness: closed form <= exact union size
# ---------------------------------------------------------------------------

_offsets = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    min_size=1,
    max_size=4,
    unique=True,
)
_sizes = st.tuples(st.integers(1, 5), st.integers(1, 5))


@given(offsets=_offsets, sizes=_sizes)
@settings(max_examples=120, deadline=None)
def test_lemma3_sound_against_bruteforce_2d(offsets, sizes):
    """2*prod(b) - prod(b - t̂) never exceeds the true minimal union."""
    from repro.ir.access import AffineIndex

    components = tuple(
        (AffineIndex.make({"i": 1}, oi), AffineIndex.make({"j": 1}, oj))
        for oi, oj in offsets
    )
    (group,) = classify_access(ArrayAccess("A", components))
    bound = int(_eval(access_size(group), {"i": sizes[0], "j": sizes[1]}))
    exact = hyperrectangle_union_size(offsets, sizes)
    assert bound <= exact


@given(
    offsets=st.lists(st.integers(-4, 4), min_size=1, max_size=5, unique=True),
    size=st.integers(1, 8),
)
@settings(max_examples=120, deadline=None)
def test_lemma3_sound_1d(offsets, size):
    from repro.ir.access import AffineIndex

    components = tuple((AffineIndex.make({"i": 1}, o),) for o in offsets)
    (group,) = classify_access(ArrayAccess("A", components))
    bound = int(_eval(access_size(group), {"i": size}))
    exact = hyperrectangle_union_size([(o,) for o in offsets], (size,))
    assert bound <= exact


def test_lemma3_tight_for_antipodal_arrangement():
    """Figure 3: two antipodal copies attain the bound exactly."""
    for b1, b2, t1, t2 in itertools.product((2, 3, 5), (2, 4), (1, 2), (1, 3)):
        translations = [(0, 0), (t1, t2)]
        exact = hyperrectangle_union_size(translations, (b1, b2))
        formula = 2 * b1 * b2 - max(b1 - t1, 0) * max(b2 - t2, 0)
        assert formula == exact


@given(
    d_i=st.lists(st.integers(0, 12), min_size=1, max_size=5, unique=True),
    d_k=st.lists(st.integers(0, 12), min_size=1, max_size=5, unique=True),
)
@settings(max_examples=100, deadline=None)
def test_minkowski_sumset_sound_for_arbitrary_sets(d_i, d_k):
    """|{k - i - 1}| >= |D_i| + |D_k| - 1 over arbitrary value sets."""
    exact = access_set_size_bruteforce(
        [((-1, 1, -1),)],  # one 1-d component: [-i + k - 1]
        [sorted(d_i), sorted(d_k)],
    )
    assert exact >= len(d_i) + len(d_k) - 1


@given(
    values=st.lists(st.integers(0, 20), min_size=1, max_size=6, unique=True),
    offsets=st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True),
)
@settings(max_examples=100, deadline=None)
def test_lemma3_holds_for_noncontiguous_domains(values, offsets):
    """Lemma 3 is stated for arbitrary D_t subsets, not just intervals."""
    from repro.ir.access import AffineIndex

    components = tuple((AffineIndex.make({"i": 1}, o),) for o in offsets)
    (group,) = classify_access(ArrayAccess("A", components))
    bound = int(_eval(access_size(group), {"i": len(values)}))
    exact = access_set_size_bruteforce(
        [((1, o),) for o in offsets], [sorted(values)]
    )
    assert bound <= exact


# ---------------------------------------------------------------------------
# exponent rows against the sympy reference
# ---------------------------------------------------------------------------

_LOOP_VARS = ("i", "j", "k")


@st.composite
def _dim_tuples(draw):
    """Group dimensions of every kind the classifier produces: loop variables
    (repeats allowed), constant dimensions with up to three offsets,
    Minkowski sumsets, and version dimensions whose components may or may
    not index a loop dimension of the same group (``t`` never does)."""
    dims = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("loop", "constant", "sumset", "version")))
        offsets = draw(st.integers(0, 3))
        if kind == "loop":
            dims.append(DimIndex(draw(st.sampled_from(_LOOP_VARS)), offsets))
        elif kind == "constant":
            dims.append(DimIndex(None, offsets))
        elif kind == "sumset":
            names = draw(
                st.lists(
                    st.sampled_from(_LOOP_VARS + ("r", "w")),
                    min_size=2, max_size=3, unique=True,
                )
            )
            dims.append(DimIndex(names[0], offsets, tuple(names[1:])))
        else:
            components = draw(
                st.lists(
                    st.sampled_from(_LOOP_VARS + ("t",)),
                    min_size=1, max_size=2, unique=True,
                )
            )
            dims.append(DimIndex(version_var_name(components), offsets))
    return tuple(dims)


def _srepr_terms(terms):
    return {powers: sp.srepr(sp.sympify(coeff)) for powers, coeff in terms}


#: two constant dimensions whose ``(1 - o)`` factors multiply to more than 2:
#: the leading coefficient goes negative and the product bound is returned
_NEGATIVE_LEADING = (DimIndex("i", 0), DimIndex(None, 3), DimIndex(None, 3))


@given(dims=_dim_tuples(), includes_output=st.booleans())
@example(dims=_NEGATIVE_LEADING, includes_output=False)
@example(
    dims=(DimIndex("i", 1), DimIndex(None, 2), DimIndex(None, 3)), includes_output=True
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_rows_match_the_sympy_reference(dims, includes_output):
    """Same terms -- powers and coefficient srepr -- as the sympy build, and
    the same exact expression."""
    rows = access_size_module._access_size_leading.__wrapped__(dims, includes_output)
    reference = reference_terms(reference_access_size_leading(dims, includes_output))
    assert len(rows) == len(reference)
    assert _srepr_terms(rows) == _srepr_terms(reference)
    group = SimpleOverlapGroup("A", dims, (), includes_output)
    assert sp.srepr(access_size(group)) == sp.srepr(reference_access_size(group))


def test_negative_leading_falls_back_to_the_product():
    group = SimpleOverlapGroup("A", _NEGATIVE_LEADING, ())
    assert sp.expand(access_size(group)) == -2 * tile("i")
    assert terms_expr(access_size_leading(group)) == tile("i")


def test_zero_size_input_output_group_adds_no_term():
    """An input/output group without offsets reads only what it writes:
    Corollary 1 gives 0, and the group contributes no constraint term (not
    the product fallback)."""
    out = ref("A", "i,j").components[0]
    (group,) = classify_access(ref("A", "i,j"), out)
    assert group.includes_output
    assert access_size(group) == 0
    assert len(access_size_leading(group)) == 0
    assert len(reference_access_size_leading(group.dims, True)) == 0
    reads = classify_access(ref("B", "i,j"))
    assert terms_expr(group_constraint_terms([group, *reads])) == tile("i") * tile("j")
