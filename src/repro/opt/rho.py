"""Computational intensity: ``rho = min_X chi(X)/(X-S)`` (Section 4.5).

Given the closed form ``chi(X)`` from :mod:`repro.opt.kkt`, the tightest
bound of inequality (1) uses ``X0 = argmin_{X>S} chi(X)/(X-S)``.  For a
leading-order monomial ``chi = C * X**alpha``:

* ``alpha > 1``:  stationarity ``alpha*(X-S) = X`` gives the interior
  optimum ``X0 = alpha/(alpha-1) * S`` and
  ``rho = C * alpha**alpha / (alpha-1)**(alpha-1) * S**(alpha-1)``;
* ``alpha = 1``:  ``chi/(X-S) = C*X/(X-S)`` decreases towards ``C`` as
  ``X -> oo``; the infimum ``rho = C`` is approached but not attained, and
  the derived bound ``Q >= |V| / C`` is exact at leading order (the paper's
  bandwidth-bound kernels: atax, mvt, gemver, ...);
* ``alpha < 1`` cannot occur for SOAP programs (some constraint term divides
  the objective monomial, forcing ``chi = Omega(X)``); it is rejected.

``chi`` is the sympy expression the solver builds for an accepted solution;
problem (8) itself stays exponent rows (:mod:`repro.opt.problem`), and this
module works on ``chi`` alone.

**Row form.**  The solver's ``chi`` is one power of ``X`` times a
coefficient: a KKT solution's objective terms share one class, the
bandwidth-bound closed form is ``(c/k)*X`` and the numeric fit is
``C*X**alpha``.  When the coefficient ``C`` is a monomial -- a rational
times rational powers of integers and of the parameters, such as fdtd2d's
``sqrt(3)/9`` (:func:`repro.symbolic.asymptotics.monomial_factors`) --
``rho`` is built by the formulas above with sympy's own arithmetic and no
``simplify``, and ``rho_exact`` is ``rho``.  Such a ``rho`` is a monomial
too, and the rest of Theorem 1 works on its factors:

* the per-array maximum orders intensities with :func:`intensity_order`:
  the exponent of ``S`` first, then the coefficient with every parameter at
  10**9, compared exactly for a tie (equal values written differently tie)
  and by its logarithm otherwise;
* the combine stage sums ``|A|/rho_A`` on monomials
  (:func:`repro.symbolic.asymptotics.leading_quotient_sum`).

**What stays on sympy.**  A ``chi`` whose top X-degree has a coefficient
that is no monomial -- a capped extent merged into a sum under
``--allow-pinning`` (``(T + 1)*X/2``), or a numeric fit that ``nsimplify``
turns into ``1 + sqrt(2)`` -- or a hand-built ``chi`` with several
X-degrees keeps the sympy derivation: ``simplify`` of the top coefficient
for ``alpha = 1``; ``rho_exact = simplify(chi(X0)/(X0 - S))`` and ``rho`` its
:func:`~repro.symbolic.asymptotics.leading_term` otherwise, which treats the
parameters as large (``(T + 1)*X**2/4`` gives ``rho = S*T``).  A ``rho``
that is still no monomial, such as ``T/2 + 1/2``, leaves the combine stage
to take ``leading_term`` of the whole sum, whose ``simplify`` cancels
``(N**2*T + N**2)/(T/2 + 1/2)`` to ``2*N**2``; split into monomials, the sum
would print ``2*N**2*T/(T + 1)``.  :func:`intensity_order` still orders such
a ``rho``: with every parameter at 10**9 its coefficient is one number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import sympy as sp

from repro.opt.kkt import ChiSolution
from repro.symbolic.asymptotics import leading_term, monomial_factors
from repro.symbolic.symbols import S_SYM, X_SYM
from repro.util.errors import SolverError


@dataclass
class IntensityResult:
    """Computational intensity of one (subgraph) statement."""

    rho: sp.Expr  #: leading order in S
    rho_exact: sp.Expr  #: chi(X0)/(X0-S) without leading-order truncation
    x0: sp.Expr  #: optimal partition parameter (sympy oo when alpha == 1)
    chi: sp.Expr  #: chi(X) used
    alpha: sp.Rational
    chi_solution: ChiSolution | None = None
    notes: tuple[str, ...] = ()
    #: memo of :func:`repro.opt.tiling.tiles_at_x0`
    _tiles_at_x0: dict | None = field(default=None, compare=False, repr=False)

    def rho_value(self, s_value: float) -> float:
        """Numeric intensity for a concrete fast-memory size."""
        return float(self.rho_exact.subs(S_SYM, s_value))


def intensity_from_chi(solution: ChiSolution) -> IntensityResult:
    """Minimize ``chi(X)/(X-S)`` over ``X > S``.

    The derivation reads only ``solution.chi`` and is memoized on it; every
    call still returns a fresh result carrying the caller's own solution
    and notes.
    """
    chi, rho, rho_exact, x0, alpha, note = _closed_form(solution.chi)
    notes = tuple(solution.notes) + ((note,) if note else ())
    return IntensityResult(
        rho=rho,
        rho_exact=rho_exact,
        x0=x0,
        chi=chi,
        alpha=alpha,
        chi_solution=solution,
        notes=notes,
    )


_ALPHA_ONE = "alpha == 1: intensity approached as X -> oo"


@lru_cache(maxsize=4096)
def _closed_form(chi: sp.Expr) -> tuple:
    """``(chi, rho, rho_exact, x0, alpha, note)`` of one ``chi(X)``.

    ``note`` is the ``alpha == 1`` remark, or ``None``.  A sublinear ``chi``
    raises on every call (``lru_cache`` does not keep exceptions).
    """
    chi = sp.expand(chi)
    coeff, x_part = chi.as_independent(X_SYM, as_Add=False)
    base, alpha = x_part.as_base_exp()
    if base != X_SYM or not alpha.is_Rational or monomial_factors(coeff) is None:
        return _derivation(chi)
    _check_growth(chi, alpha)
    if alpha == 1:
        return chi, coeff, coeff, sp.oo, alpha, _ALPHA_ONE
    # the numeric factor first: sympy's radical form depends on the order of
    # the products it is handed
    rho = coeff * (alpha**alpha / (alpha - 1) ** (alpha - 1)) * S_SYM ** (alpha - 1)
    return chi, rho, rho, alpha / (alpha - 1) * S_SYM, alpha, None


def _derivation(chi: sp.Expr) -> tuple:
    """:func:`_closed_form` of an expanded ``chi`` that is not one monomial
    times a power of ``X``, derived with sympy from its top X-degree."""
    by_degree: dict[sp.Expr, list[sp.Expr]] = {}
    for addend in sp.Add.make_args(chi):
        base, degree = addend.as_independent(X_SYM, as_Add=False)[1].as_base_exp()
        by_degree.setdefault(degree if base == X_SYM else sp.Integer(0), []).append(addend)
    alpha = max(by_degree)
    _check_growth(chi, alpha)
    if alpha == 1:
        rho = sp.simplify(sp.simplify(sp.Add(*by_degree[alpha]) / X_SYM))
        return chi, sp.simplify(rho), rho, sp.oo, alpha, _ALPHA_ONE
    x0 = alpha / (alpha - 1) * S_SYM
    rho_exact = sp.simplify(chi.subs(X_SYM, x0) / (x0 - S_SYM))
    return chi, sp.simplify(leading_term(rho_exact)), rho_exact, x0, alpha, None


def _check_growth(chi: sp.Expr, alpha: sp.Expr) -> None:
    if alpha < 1:
        raise SolverError(
            f"chi(X) = {chi} grows sublinearly (alpha={alpha}); "
            "SOAP constraints always force alpha >= 1"
        )


_LARGE_PARAM = sp.Integer(10) ** 9
#: ``_LARGE_PARAM`` as primes to their exponents
_LARGE_PRIMES = {prime: Fraction(m) for prime, m in sp.factorint(_LARGE_PARAM).items()}


def intensity_order(a: sp.Expr, b: sp.Expr) -> int:
    """Order two intensities for large ``S`` (and large parameters).

    Returns -1/0/+1 for a<b / a~b / a>b.  Used by Theorem 1 to select
    ``max_{H in S(A)} rho_H``: the larger exponent of ``S`` wins; for equal
    exponents the coefficients, every parameter at 10**9, are compared --
    equal values tie, however they are written.
    """
    s_a, value_a, log_a = _rank(a)
    s_b, value_b, log_b = _rank(b)
    if s_a != s_b:
        return 1 if s_a > s_b else -1
    if value_a == value_b:
        return 0
    return 1 if log_a > log_b else -1


@lru_cache(maxsize=4096)
def _rank(rho: sp.Expr) -> tuple[Fraction, object, float]:
    """``rho``'s exponent of ``S`` and its coefficient at large parameters.

    The coefficient is returned in canonical form and as a logarithm.  For a
    rational times rational powers of integers the canonical form is ``(q,
    ((p, f), ...))``: a rational ``q`` times primes ``p`` to exponents
    ``0 < f < 1``, equal exactly when the values are.  A monomial ``rho`` is
    ranked on its factors (:func:`~repro.symbolic.asymptotics.monomial_factors`):
    each parameter at 10**9 adds its exponent times 9 to the exponents of 2
    and 5.  Any other ``rho`` has its parameters replaced by 10**9 first; a
    coefficient that is then still no such number (a fitted ``chi`` may carry
    ``1 + sqrt(2)``) is its own sympy number.
    """
    split = monomial_factors(rho)
    if split is not None and all(number.is_positive for number in split[0]):
        numbers, powers = split
        s_exp = powers.pop(S_SYM, Fraction(0))
        degree = sum(powers.values(), Fraction(0))
        large = {prime: m * degree for prime, m in _LARGE_PRIMES.items()}
        return (s_exp, *_canonical(numbers, large))
    large = {sym: _LARGE_PARAM for sym in rho.free_symbols if sym != S_SYM}
    coeff, s_power = rho.xreplace(large).as_independent(S_SYM, as_Add=False)
    s_powers = s_power.as_powers_dict()
    if not set(s_powers) <= {S_SYM, sp.Integer(1)} or not coeff.is_positive:
        raise SolverError(f"cannot order intensity {rho}")
    s_exp = s_powers.get(S_SYM, sp.Integer(0))
    split = monomial_factors(coeff)
    if split is None:
        return Fraction(s_exp.p, s_exp.q), coeff, math.log(float(coeff))
    return (Fraction(s_exp.p, s_exp.q), *_canonical(split[0], {}))


def _canonical(
    numbers: list[sp.Expr], primes: dict[int, Fraction]
) -> tuple[object, float]:
    """``(canonical form, log)`` of the product of positive ``numbers`` and of
    ``primes`` to their exponents (see :func:`_rank`)."""
    rational = Fraction(1)
    primes = dict(primes)
    for number in numbers:
        if number.is_Rational:
            rational *= Fraction(number.p, number.q)
            continue
        base, exp = number.as_base_exp()
        for prime, multiplicity in sp.factorint(base).items():
            primes[prime] = primes.get(prime, 0) + multiplicity * Fraction(exp.p, exp.q)
    radicals = []
    for prime, exp in sorted(primes.items()):
        whole = math.floor(exp)
        rational *= Fraction(prime) ** whole
        if exp != whole:
            radicals.append((prime, exp - whole))
    log = math.log(rational.numerator) - math.log(rational.denominator)
    log += sum(float(exp) * math.log(prime) for prime, exp in radicals)
    return (rational, tuple(radicals)), log
