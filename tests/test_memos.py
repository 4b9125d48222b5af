"""Expression-keyed memos on the analysis path return what an uncached call
returns.

The memoized derivations (intensity, intensity rank, leading term, the
monomial rows of vertex counts and of inverse intensities, access sizes, the
store's srepr parser) are pure functions of their keys.  The differential
test records every input a cold Table 2 pass feeds them and checks each
memoized answer against the uncached ``__wrapped__`` call: by srepr for
expressions, by value for rows and access-size terms.
"""

import importlib
import json
import sqlite3

import pytest
import sympy as sp

import repro.opt.rho as rho
import repro.symbolic.asymptotics as asymptotics
from repro.analysis import analyze_kernel
from repro.engine import Engine, SolveCache
from repro.engine.store import STORE_FILE, _parse_srepr, decode_outcome
from repro.kernels import kernel_names
from repro.opt.kkt import ChiSolution
from repro.opt.rho import intensity_from_chi
from repro.opt.tiling import tiles_at_x0
from repro.symbolic.symbols import X_SYM
from repro.util.errors import SolverError

# ``repro.soap`` re-exports a function named like this module
access_size = importlib.import_module("repro.soap.access_size")

#: (module, attribute) of each memo as its callers look it up
MEMOS = {
    "intensity": (rho, "_closed_form"),
    "compare": (rho, "_rank"),
    "leading_term": (asymptotics, "_leading_term"),
    "count_rows": (asymptotics, "_sum_rows"),
    "inverse_rows": (asymptotics, "_inverse_row"),
    "access_size": (access_size, "_access_size_leading"),
}


def _comparable(value):
    """A value whose ``==`` is srepr identity for sympy parts."""
    if isinstance(value, tuple):
        return tuple(_comparable(v) for v in value)
    if isinstance(value, sp.Basic):
        return sp.srepr(value)
    return value


@pytest.fixture(scope="module")
def cold_pass(tmp_path_factory):
    """Every distinct input one cold Table 2 pass feeds each memo, and the
    store the pass wrote."""
    seen = {name: {} for name in MEMOS}
    patch = pytest.MonkeyPatch()
    for name, (module, attr) in MEMOS.items():
        memo = getattr(module, attr)

        def record(*args, _memo=memo, _seen=seen[name]):
            _seen.setdefault(args, None)
            return _memo(*args)

        patch.setattr(module, attr, record)
    cache_dir = tmp_path_factory.mktemp("cold")
    try:
        engine = Engine(cache=SolveCache(str(cache_dir)), solver="exact")
        for kernel in kernel_names():
            analyze_kernel(kernel, engine=engine)
    finally:
        patch.undo()
    return {name: list(inputs) for name, inputs in seen.items()}, cache_dir


@pytest.mark.parametrize("name", sorted(MEMOS))
def test_memo_equals_uncached_call(cold_pass, name):
    inputs, _ = cold_pass
    module, attr = MEMOS[name]
    memo = getattr(module, attr)
    assert inputs[name], f"a cold pass never reached {attr}"
    for args in inputs[name]:
        assert _comparable(memo(*args)) == _comparable(memo.__wrapped__(*args)), args


def test_store_parse_equals_sympify(cold_pass):
    _, cache_dir = cold_pass
    with sqlite3.connect(cache_dir / STORE_FILE) as conn:
        payloads = [row[0] for row in conn.execute("SELECT payload FROM solves")]
    texts = set()
    for payload in payloads:
        decoded = json.loads(payload)
        if decoded["status"] == "ok":
            texts.add(decoded["chi"])
            texts.update(decoded["tiles"].values())
        assert decode_outcome(payload) is not None
    assert texts
    for text in texts:
        assert sp.srepr(_parse_srepr(text)) == sp.srepr(_parse_srepr.__wrapped__(text))


def test_sublinear_chi_raises_on_every_call():
    solution = ChiSolution(chi=X_SYM ** sp.Rational(1, 2))
    for _ in range(2):
        with pytest.raises(SolverError, match="sublinearly"):
            intensity_from_chi(solution)


class TestIntensityResultIsolation:
    """Equal chi shares the derivation, never the result object."""

    @pytest.mark.parametrize(
        "chi",
        [2 * X_SYM ** sp.Rational(3, 2), 3 * X_SYM],
        ids=["interior-x0", "bandwidth-bound"],
    )
    def test_each_result_keeps_its_own_solution(self, chi):
        a = ChiSolution(
            chi=chi, tiles={"i": X_SYM ** sp.Rational(1, 2)}, notes=("from a",)
        )
        b = ChiSolution(
            chi=chi, tiles={"j": 2 * X_SYM ** sp.Rational(1, 2)}, notes=("from b",)
        )
        ra, rb = intensity_from_chi(a), intensity_from_chi(b)
        assert ra is not rb
        assert ra.chi_solution is a and rb.chi_solution is b
        assert ra.notes[0] == "from a" and rb.notes[0] == "from b"
        assert ra.notes[1:] == rb.notes[1:]
        assert sp.srepr(ra.rho) == sp.srepr(rb.rho)

        assert set(tiles_at_x0(ra)) == {"i"}
        assert rb._tiles_at_x0 is None
        assert set(tiles_at_x0(rb)) == {"j"}
        assert set(tiles_at_x0(ra)) == {"i"}
