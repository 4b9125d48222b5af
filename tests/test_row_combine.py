"""The combine stage on rows: ``--allow-pinning`` reports, fallbacks and the
``simplify`` budget of a warm pass.

``tests/test_printed_analysis.py`` pins the printed analysis under default
options.  The loop nests here run under ``--allow-pinning``, where a capped
extent can merge into a sum and leave an intensity such as ``rho = T/2 +
1/2`` that is no monomial: the combine stage must take the sympy leading
term of the whole sum for it (and count that fallback), because splitting it
into rows would print ``2*N**2*T/(T + 1)`` instead of ``2*N**2``.  A merged
cap can also sit in the coefficient of a ``chi`` with ``alpha > 1`` (the
capped gemm below, ``chi = sqrt(3)*(T + 1)*X**(3/2)/9``): its intensity keeps
the sympy derivation, whose leading term ``rho = sqrt(S)*T/2`` is a monomial
again, so that combine stays on rows.  The reports are pinned as the
analysis printed them before the combine stage moved to rows.
"""

import importlib
import json
import sys

import pytest
import sympy as sp

import repro.engine.store as store
import repro.opt.rho as rho
import repro.symbolic.asymptotics as asymptotics
from repro.analysis import analyze_kernel, analyze_source
from repro.cli import main
from repro.engine import Engine
from repro.kernels import kernel_names
from repro.symbolic.symbols import S_SYM, param

# ``repro.soap`` re-exports a function named like this module
access_size = importlib.import_module("repro.soap.access_size")

#: (label, source, report without the volatile fields, srepr of the bound)
PROGRAMS = (
    (
        "row-sum",
        "for i in range(N):\n    for j in range(N):\n        s[i] += A[i, j]\n",
        {
            "bound": "N**2",
            "bound_full": "N**2",
            "combined": "N**2",
            "io_floor": "0",
            "language": "python",
            "per_array": {"s": {"rho": "1", "subgraph": ["s"]}},
            "program": "row-sum",
            "skipped": [],
        },
        "Pow(Symbol('N', positive=True), Integer(2))",
    ),
    (
        "two-matvec",
        "for i in range(M):\n"
        "    for j in range(N):\n"
        "        y[i] += A[i, j] * x[j]\n"
        "    for j in range(N):\n"
        "        z[i] += B[i, j] * x[j]\n",
        {
            "bound": "2*M*N",
            "bound_full": "2*M*N",
            "combined": "2*M*N",
            "io_floor": "0",
            "language": "python",
            "per_array": {
                "y": {"rho": "1", "subgraph": ["y"]},
                "z": {"rho": "1", "subgraph": ["y", "z"]},
            },
            "program": "two-matvec",
            "skipped": [],
        },
        "Mul(Integer(2), Symbol('M', positive=True), Symbol('N', positive=True))",
    ),
    (
        "two-stencils",
        "for t in range(T):\n"
        "    for i in range(1, N - 1):\n"
        "        A[i, t + 1] = (A[i - 1, t] + A[i, t] + A[i + 1, t]) / 3\n"
        "    for j in range(1, M - 1):\n"
        "        B[j, t + 1] = (B[j - 1, t] + B[j, t] + B[j + 1, t]) / 3\n",
        {
            "bound": "2*T*(M + N)/S",
            "bound_full": "2*T*(M + N - 4)/S",
            "combined": "2*T*(M + N)/S",
            "io_floor": "0",
            "language": "python",
            "per_array": {
                "A": {"rho": "S/2", "subgraph": ["A"]},
                "B": {"rho": "S/2", "subgraph": ["B"]},
            },
            "program": "two-stencils",
            "skipped": [],
        },
        "Mul(Integer(2), Pow(Symbol('S', positive=True), Integer(-1)), "
        "Symbol('T', positive=True), "
        "Add(Symbol('M', positive=True), Symbol('N', positive=True)))",
    ),
    (
        "merged-cap",
        "for i in range(N):\n"
        "    for j in range(N):\n"
        "        for t in range(T):\n"
        "            B[i, j] += A[i, j]\n"
        "        B[i, j] = A[i, j]\n",
        {
            "bound": "2*N**2",
            "bound_full": "2*N**2",
            "combined": "2*N**2",
            "io_floor": "0",
            "language": "python",
            "per_array": {"B": {"rho": "T/2 + 1/2", "subgraph": ["B"]}},
            "program": "merged-cap",
            "skipped": [],
        },
        "Mul(Integer(2), Pow(Symbol('N', positive=True), Integer(2)))",
    ),
    (
        "capped-gemm",
        "for i in range(N):\n"
        "    for j in range(N):\n"
        "        for k in range(N):\n"
        "            for t in range(T):\n"
        "                C[i, j] += A[i, k] * B[k, j]\n"
        "            C[i, j] = A[i, k] * B[k, j]\n",
        {
            "bound": "2*N**3/sqrt(S)",
            "bound_full": "2*N**3*(T + 1)/(sqrt(S)*T)",
            "combined": "2*N**3/sqrt(S)",
            "io_floor": "0",
            "language": "python",
            "per_array": {"C": {"rho": "sqrt(S)*T/2", "subgraph": ["C"]}},
            "program": "capped-gemm",
            "skipped": [],
        },
        "Mul(Integer(2), Pow(Symbol('N', positive=True), Integer(3)), "
        "Pow(Symbol('S', positive=True), Rational(-1, 2)))",
    ),
)

#: report fields that name the build or time the run, not the analysis
_VOLATILE = ("report", "generator", "version", "schema", "diagnostics")


def _fallbacks(program_bound) -> int:
    return program_bound.diagnostics.stage("combine").count("leading_term_fallbacks")


@pytest.mark.parametrize(
    "label, source, expected, bound", PROGRAMS, ids=[p[0] for p in PROGRAMS]
)
def test_allow_pinning_report_is_pinned(tmp_path, capsys, label, source, expected, bound):
    path = tmp_path / f"{label}.py"
    path.write_text(source)
    assert main(["analyze", str(path), "--allow-pinning", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    for key in _VOLATILE:
        report.pop(key)
    assert report == expected

    result = analyze_source(source, name=label, allow_pinning=True)
    assert sp.srepr(result.bound) == bound
    assert _fallbacks(result) == (label == "merged-cap")


def test_merged_cap_above_alpha_one_keeps_the_sympy_derivation():
    """``rho`` is the leading term of ``rho_exact``, which keeps the cap's sum."""
    source = PROGRAMS[-1][1]
    intensity = analyze_source(source, allow_pinning=True).per_array["C"].intensity
    S, T = S_SYM, param("T")
    assert intensity.alpha == sp.Rational(3, 2)
    assert sp.srepr(intensity.x0) == sp.srepr(3 * S)
    assert sp.srepr(intensity.rho) == sp.srepr(sp.sqrt(S) * T / 2)
    assert sp.srepr(intensity.rho_exact) == sp.srepr(sp.sqrt(S) * (T + 1) / 2)


def _clear_memos() -> None:
    """Forget every derivation memo on the analysis path, as a fresh process
    has none."""
    for memo in (
        rho._closed_form,
        rho._rank,
        asymptotics._leading_term,
        asymptotics._sum_rows,
        asymptotics._inverse_row,
        access_size._access_size_leading,
        store._parse_srepr,
    ):
        memo.cache_clear()


def _count_simplify_calls(monkeypatch) -> list:
    """Count ``sympy.simplify`` calls from every module that holds it, sympy's
    own included; returns the list the calls append to."""
    calls = []
    original = sp.simplify

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(("repro", "sympy")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    return calls


def test_warm_corpus_pass_stays_on_rows(monkeypatch):
    """Over the corpus no combine falls back to the sympy leading term, and a
    warm pass (every solve a cache hit, no memo filled) calls ``simplify`` at
    most 100 times: the ratio to the paper's bound, the I/O floor of the
    ``use_floor`` kernels and the two bounds with several leading terms."""
    engine = Engine()
    cold = [analyze_kernel(name, engine=engine) for name in kernel_names()]
    assert sum(_fallbacks(result.program_bound) for result in cold) == 0

    _clear_memos()
    misses = engine.cache.stats.misses
    calls = _count_simplify_calls(monkeypatch)
    warm = [analyze_kernel(name, engine=engine) for name in kernel_names()]
    assert engine.cache.stats.misses == misses
    assert sum(_fallbacks(result.program_bound) for result in warm) == 0
    assert [sp.srepr(r.bound) for r in warm] == [sp.srepr(r.bound) for r in cold]
    assert 0 < len(calls) <= 100, len(calls)
