"""The row path of Theorem 1 against the sympy derivation it replaced.

Intensities are read off ``chi``'s top X-degree by the Section 4.5 closed
form, ordered on rows and summed on rows (:mod:`repro.opt.rho`,
:func:`repro.symbolic.asymptotics.leading_quotient_sum`).  These properties
check each against the sympy derivation kept in ``tests/intensity_reference``
-- by ``srepr``, so a change of printed form fails as surely as a change of
value -- on derandomized draws: ``chi = C*X**alpha`` with ``C`` a rational
times radicals of 2, 3 and 5 times a parameter monomial, with ``C`` a sum
(a capped extent merged into one, as ``--allow-pinning`` builds) and with
several X-degrees; pairs of intensities with equal ``S`` exponents (equal
values written in different forms among them); and vertex-count polynomials
over one to three parameters divided by those intensities.
"""

import sympy as sp
from hypothesis import example, given, settings, strategies as st

from repro.opt.kkt import ChiSolution
from repro.opt.rho import _closed_form, intensity_from_chi, intensity_order
from repro.symbolic.asymptotics import leading_quotient_sum, monomial
from repro.symbolic.symbols import S_SYM, X_SYM, param
from tests.intensity_reference import (
    compare_intensity,
    reference_bound,
    reference_intensity_of_chi,
)

N, M, T = PARAMS = (param("N"), param("M"), param("T"))
ALPHAS = (
    sp.Integer(1),
    sp.Rational(4, 3),
    sp.Rational(3, 2),
    sp.Integer(2),
    sp.Integer(3),
)
_RADICAL_EXPONENTS = (0, 0, sp.Rational(1, 2), sp.Rational(1, 3), sp.Rational(2, 3))
_PARAM_EXPONENTS = (0, 0, 1, 2, sp.Rational(1, 2), -1)

rationals = st.builds(
    sp.Rational, st.integers(min_value=1, max_value=60), st.integers(1, 60)
)


@st.composite
def coefficients(draw):
    """A rational times radicals of 2, 3 and 5 times a parameter monomial."""
    coeff = draw(rationals)
    for base in (2, 3, 5):
        coeff *= sp.Integer(base) ** draw(st.sampled_from(_RADICAL_EXPONENTS))
    for symbol in PARAMS:
        coeff *= symbol ** draw(st.sampled_from(_PARAM_EXPONENTS))
    return coeff


@st.composite
def sum_coefficients(draw):
    """A coefficient that is no monomial: a capped extent merged into a sum,
    ``C*(P + q)``, or the sum of two coefficients."""
    if draw(st.booleans()):
        return draw(coefficients()) * (draw(st.sampled_from(PARAMS)) + draw(rationals))
    return draw(coefficients()) + draw(coefficients())


@st.composite
def chis(draw):
    """``C*X**alpha`` with ``C`` a monomial (half the draws) or a sum, or a
    ``chi`` with two X-degrees."""
    alpha = draw(st.sampled_from(ALPHAS))
    kind = draw(st.sampled_from(("monomial", "monomial", "sum", "degrees")))
    if kind == "monomial":
        return draw(coefficients()) * X_SYM**alpha
    if kind == "sum":
        return draw(sum_coefficients()) * X_SYM**alpha
    lower = draw(st.sampled_from([a for a in ALPHAS if a < alpha] or [sp.Integer(0)]))
    return draw(coefficients()) * X_SYM**alpha + draw(coefficients()) * X_SYM**lower


def _srepr(values) -> list:
    return [sp.srepr(v) if isinstance(v, sp.Basic) else v for v in values]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(chis())
@example((T + 1) * X_SYM**2 / 4)
@example(5 * X_SYM * (2 * N**2 + 1))
@example((1 + sp.sqrt(2)) * X_SYM ** sp.Rational(3, 2))
@example(sp.sqrt(3) * (T + 1) * X_SYM ** sp.Rational(3, 2) / 9)
def test_intensity_matches_the_sympy_derivation(chi):
    expected = reference_intensity_of_chi(chi)
    assert _srepr(_closed_form.__wrapped__(chi)) == _srepr(expected)
    result = intensity_from_chi(ChiSolution(chi=chi))
    fields = (result.chi, result.rho, result.rho_exact, result.x0, result.alpha)
    assert _srepr(fields) == _srepr(expected[:5])


@st.composite
def intensity_pairs(draw):
    """Two intensities with one ``S`` exponent: some equal in value but
    written with the cube roots grouped differently or a sum expanded, some
    with a coefficient that is no monomial."""
    exponent = draw(st.sampled_from((0, sp.Rational(1, 3), sp.Rational(1, 2), 1)))
    a = draw(coefficients())
    kind = draw(st.sampled_from(("other", "scaled", "regrouped", "merged", "expanded")))
    if kind == "other":
        b = draw(coefficients())
    elif kind == "merged":
        b = draw(sum_coefficients())
    elif kind == "expanded":
        a = a * (draw(st.sampled_from(PARAMS)) + draw(rationals))
        b = sp.expand(a)
    elif kind == "scaled":
        b = a * draw(st.sampled_from((1, sp.Rational(1, 2), 3, sp.sqrt(2))))
    else:
        x, y = draw(st.permutations((2, 3, 5)))[:2]
        third = sp.Rational(1, 3)
        a = a * sp.Integer(x) ** third * sp.Integer(y) ** (2 * third)
        b = a / (sp.Integer(x) ** third * sp.Integer(y) ** (2 * third))
        b = b * sp.Integer(x * y * y) ** third
    return a * S_SYM**exponent, b * S_SYM**exponent


@settings(max_examples=60, deadline=None, derandomize=True)
@given(intensity_pairs())
def test_order_matches_the_limit_of_the_ratio(pair):
    a, b = pair
    expected = compare_intensity(a, b)
    assert intensity_order(a, b) == expected
    assert intensity_order(b, a) == -expected


@st.composite
def counts(draw):
    """A polynomial over one to three parameters with rational coefficients."""
    symbols = draw(st.lists(st.sampled_from(PARAMS), min_size=1, max_size=3, unique=True))
    count = sp.Integer(0)
    for _ in range(draw(st.integers(1, 3))):
        term = draw(rationals) * draw(st.sampled_from((1, 1, -1)))
        for symbol in symbols:
            term *= symbol ** draw(st.integers(0, 3))
        count += term
    return count


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.tuples(counts(), chis()), min_size=1, max_size=3))
@example([(N**2 * T, (T + 1) * X_SYM**2 / 4)])
def test_row_sum_matches_the_leading_term_of_the_total(draws):
    quotients = [
        (count, intensity_from_chi(ChiSolution(chi=chi)).rho) for count, chi in draws
    ]
    expected = reference_bound(
        [(count, reference_intensity_of_chi(chi)[1]) for count, chi in draws]
    )
    bound = leading_quotient_sum(quotients)
    if bound is None:
        # only a rho that is no monomial leaves the sum to sympy, as in the
        # engine's combine stage
        assert any(monomial(rho) is None for _, rho in quotients)
        bound = reference_bound(quotients)
    assert sp.srepr(bound) == sp.srepr(expected)


def test_a_rho_that_is_no_monomial_leaves_the_sum_to_sympy():
    """``rho = T/2 + 1/2`` (a capped extent merged into a sum) has no row."""
    N, T = param("N"), param("T")
    rho = intensity_from_chi(ChiSolution(chi=(T + 1) * X_SYM / 2)).rho
    assert sp.srepr(rho) == sp.srepr(T / 2 + sp.Rational(1, 2))
    assert leading_quotient_sum([(N**2 * T + N**2, rho)]) is None
    assert reference_bound([(N**2 * T + N**2, rho)]) == 2 * N**2
