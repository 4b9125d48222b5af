"""End-to-end: source -> bound, cross-frontend consistency, validation."""

import pytest
import sympy as sp

from repro.analysis import analyze_kernel, analyze_program, analyze_source
from repro.kernels import get_kernel
from repro.pebbling.validate import validate_bound
from repro.symbolic.symbols import S_SYM

N = sp.Symbol("N", positive=True)
T = sp.Symbol("T", positive=True)


class TestAnalyzeSource:
    def test_gemm_python(self):
        result = analyze_source(
            "for i in range(N):\n"
            "    for j in range(N):\n"
            "        for k in range(N):\n"
            "            C[i, j] = C[i, j] + A[i, k] * B[k, j]\n"
        )
        assert sp.simplify(result.bound - 2 * N**3 / sp.sqrt(S_SYM)) == 0

    def test_lu_c(self):
        result = analyze_source(
            "for (int k = 0; k < N; k++)\n"
            "  for (int i = k + 1; i < N; i++)\n"
            "    for (int j = k + 1; j < N; j++)\n"
            "      A[i][j] = A[i][j] - A[i][k] * A[k][j];\n",
            language="c",
        )
        assert sp.simplify(result.bound - 2 * N**3 / (3 * sp.sqrt(S_SYM))) == 0

    def test_jacobi_pingpong_python(self):
        result = analyze_source(
            "for t in range(T):\n"
            "    for i in range(1, N - 1):\n"
            "        B[i] = (A[i - 1] + A[i] + A[i + 1]) / 3\n"
            "    for i in range(1, N - 1):\n"
            "        A[i] = (B[i - 1] + B[i] + B[i + 1]) / 3\n"
        )
        ratio = sp.simplify(result.bound / (N * T / S_SYM))
        assert ratio.is_number and float(ratio) > 0

    def test_source_matches_registered_kernel(self):
        """Frontend-parsed kernels agree with the hand-encoded IR."""
        for name in ("gemm", "floyd-warshall"):
            spec = get_kernel(name)
            from_source = analyze_source(spec.source, name=name)
            from_ir = analyze_kernel(name)
            assert sp.simplify(from_source.bound - from_ir.bound) == 0, name

    def test_unknown_language(self):
        with pytest.raises(ValueError):
            analyze_source("x", language="fortran")


class TestKernelResult:
    def test_ratio_and_shape_fields(self):
        result = analyze_kernel("gemm")
        assert result.ratio == 1
        assert result.shape_matches
        assert "gemm" in str(result)

    def test_program_bound_attached(self):
        result = analyze_kernel("atax")
        assert set(result.program_bound.per_array) == {"tmp", "y"}


class TestValidationSandwich:
    """lower bound <= optimal Q <= greedy upper bound on concrete instances."""

    @pytest.mark.parametrize(
        "name,params,s",
        [
            ("gemm", {"N": 2}, 4),
            ("gemm", {"N": 3}, 6),
            ("jacobi1d", {"N": 6, "T": 3}, 4),
            ("atax", {"M": 3, "N": 3}, 4),
            ("lu", {"N": 4}, 6),
            ("trisolv", {"N": 4}, 6),
        ],
    )
    def test_bound_sandwich(self, name, params, s):
        spec = get_kernel(name)
        report = validate_bound(spec.build(), params, s)
        assert report.sound, (
            f"{name}: lower {report.lower_bound} exceeds achievable "
            f"{report.optimal_cost or report.greedy_cost}"
        )

    def test_exact_optimum_when_small(self):
        report = validate_bound(
            get_kernel("gemm").build(), {"N": 2}, 4, exact_limit=16
        )
        assert report.optimal_cost is not None
        assert report.optimal_cost <= report.greedy_cost

    def test_gap_reported(self):
        report = validate_bound(get_kernel("gemm").build(), {"N": 3}, 8)
        assert report.gap >= 1.0


def test_ablation_overlap_policy():
    """Section 5.1 ablation: 'sum' (paper) vs conservative 'max' on LU.

    The disjointness assumption is what gives LU its sqrt(S)/2 intensity;
    the conservative mode must never *exceed* the paper-mode bound.
    """
    program = get_kernel("lu").build()
    paper_mode = analyze_program(program, policy="sum")
    conservative = analyze_program(program, policy="max")
    ratio = sp.simplify(conservative.bound / paper_mode.bound)
    assert float(ratio.subs({N: 1e9, S_SYM: 1e4})) <= 1.0 + 1e-9
