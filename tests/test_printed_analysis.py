"""The printed analysis, byte for byte.

Bound checks elsewhere compare expressions through ``sp.simplify(a - b) ==
0``, which a change in printed form passes.  This test hashes what the
analysis prints -- the ``srepr`` of every bound, ratio and per-array
intensity, and the ``analyze`` JSON report -- for every corpus kernel and
for the loop nests the frontend and CLI tests parse, so a rewrite of any
stage on the analysis path must keep each expression's form, not just its
value.  The digest holds whatever ``PYTHONHASHSEED`` is.
"""

import hashlib
import json

import sympy as sp

from repro.analysis import analyze_kernel, analyze_source
from repro.engine import Engine
from repro.kernels import kernel_names
from repro.reporting.serialize import program_bound_report

#: (label, language, source): the loop nests of the frontend and CLI tests,
#: plus a two-statement LU and a sumset-indexed convolution
SOURCES = (
    (
        "gemm-py",
        "python",
        "for i in range(N):\n"
        "    for j in range(N):\n"
        "        for k in range(N):\n"
        "            C[i, j] = C[i, j] + A[i, k] * B[k, j]\n",
    ),
    (
        "gemm-augmented-py",
        "python",
        "for i in range(N):\n"
        "    for j in range(N):\n"
        "        for k in range(N):\n"
        "            C[i, j] += A[i, k] * B[k, j]\n",
    ),
    (
        "row-sum-py",
        "python",
        "for i in range(N):\n    for j in range(N):\n        s[i] += A[i, j]\n",
    ),
    (
        "stencil-py",
        "python",
        "for t in range(1, T):\n"
        "    for i in range(t, N - t):\n"
        "        A[i, t + 1] = (A[i - 1, t] + A[i, t] + A[i + 1, t]) / 3\n",
    ),
    (
        "triangular-py",
        "python",
        "for k in range(N):\n    for i in range(k + 1, N):\n        L[i, k] = A[i, k]\n",
    ),
    (
        "shift-py",
        "python",
        "for t in range(1, T):\n"
        "    for i in range(t, N - t):\n"
        "        A[i, t + 1] = A[i, t]\n",
    ),
    (
        "axpy-py",
        "python",
        "for i in range(N):\n    y[i] = alpha * x[i] + beta\n",
    ),
    (
        "min-py",
        "python",
        "for i in range(N):\n    y[i] = min(x[i], z[i])\n",
    ),
    (
        "copy-pingpong-py",
        "python",
        "for t in range(T):\n"
        "    for i in range(N):\n"
        "        B[i] = A[i]\n"
        "    for i in range(N):\n"
        "        A[i] = B[i]\n",
    ),
    (
        "jacobi-pingpong-py",
        "python",
        "for t in range(T):\n"
        "    for i in range(1, N - 1):\n"
        "        B[i] = (A[i - 1] + A[i] + A[i + 1]) / 3\n"
        "    for i in range(1, N - 1):\n"
        "        A[i] = (B[i - 1] + B[i] + B[i + 1]) / 3\n",
    ),
    (
        "strided-py",
        "python",
        "for i in range(N):\n    for p in range(2):\n        y[i] = x[2 * i + p]\n",
    ),
    (
        "gemm-c",
        "c",
        "for (int i = 0; i < N; i++)\n"
        "  for (int j = 0; j < N; j++)\n"
        "    for (int k = 0; k < N; k++)\n"
        "      C[i][j] += A[i][k] * B[k][j];\n",
    ),
    (
        "lu-c",
        "c",
        "for (int k = 0; k < N; k++)\n"
        "  for (int i = k + 1; i < N; i++)\n"
        "    for (int j = k + 1; j < N; j++)\n"
        "      A[i][j] = A[i][j] - A[i][k] * A[k][j];\n",
    ),
    (
        "lu-two-statement-c",
        "c",
        "for (int k = 0; k < N; k++) {\n"
        "  for (int i = k + 1; i < N; i++) {\n"
        "    A[i][k] = A[i][k] / A[k][k];\n"
        "  }\n"
        "  for (int i = k + 1; i < N; i++) {\n"
        "    for (int j = k + 1; j < N; j++) {\n"
        "      A[i][j] = A[i][j] - A[i][k] * A[k][j];\n"
        "    }\n"
        "  }\n"
        "}\n",
    ),
    ("copy-c", "c", "for (int i = 0; i <= N; i++) A[i] = B[i];"),
    ("accumulate-c", "c", "for (int i = 0; i < N; i++) A[i] += B[i];"),
    ("sqrt-c", "c", "for (int i = 0; i < N; i++) A[i] = sqrt(B[i]);"),
    (
        "matrix-add-c",
        "c",
        "for (int i = 0; i < N; i++)\n"
        "  for (int j = 0; j < N; j++)\n"
        "    C[i][j] += A[i][j];\n",
    ),
    (
        "conv1d-c",
        "c",
        "for (int i = 0; i < N; i++)\n"
        "  for (int k = 0; k < K; k++)\n"
        "    y[i] += w[k] * x[i + k];\n",
    ),
)

#: sha256 of the printed lines below, computed before the warm path moved
#: to exponent rows
PRINTED_DIGEST = "ded0501e427155a06022c9d0cfe517d86a71c7eedd76dbe406c74760aa8d7d6e"

#: report fields that name the build or time the run, not the analysis
_VOLATILE = ("report", "generator", "version", "schema", "diagnostics")


def _program_lines(label: str, result) -> list[str]:
    lines = [
        f"{label} {field} {sp.srepr(getattr(result, field))}"
        for field in ("bound", "bound_full", "io_floor", "combined")
    ]
    for array, analysis in sorted(result.per_array.items()):
        lines.append(
            f"{label} {array} rho {sp.srepr(analysis.rho)} via {list(analysis.arrays)}"
        )
    return lines


def printed_lines() -> list[str]:
    """What the analysis prints for the corpus and :data:`SOURCES`, one shared
    engine (one cold pass)."""
    engine = Engine()
    lines = []
    for name in kernel_names():
        result = analyze_kernel(name, engine=engine)
        lines.append(
            f"{name} ours {sp.srepr(result.bound)} ratio {sp.srepr(result.ratio)} "
            f"shape {result.shape_matches}"
        )
        lines.extend(_program_lines(name, result.program_bound))
    for label, language, source in SOURCES:
        result = analyze_source(source, name=label, language=language, engine=engine)
        report = program_bound_report(result, name=label, language=language)
        for key in _VOLATILE:
            report.pop(key)
        lines.append(json.dumps(report, sort_keys=True))
        lines.extend(_program_lines(label, result))
    return lines


def test_printed_analysis_is_pinned():
    lines = printed_lines()
    assert len(lines) > 40 * 5
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == PRINTED_DIGEST
