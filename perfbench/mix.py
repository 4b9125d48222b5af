"""Seeded inputs of the ``service`` workload.

The request mix of a pass depends only on ``(seed, pass index)``.  The
seed changes the order and the renamings, never the multiset of work, so
runs with different seeds do the same amount of work.

``table2-*`` and ``tightness`` take no seeded input: they run the kernels
in the registry's Table 2 order, as ``repro table2`` and ``audit_corpus``
do.  Kernels of one family (gemm, 2mm, 3mm; atax, bicg, mvt; ...) share
solves, CDAGs and sympy's cache, and whichever meets the shared work first
pays for it, so a seeded order would make the latency percentiles move
with the seed by more than their bound.
"""

from __future__ import annotations

import random

#: kernels of the service's ``/kernel`` mix: a dozen whose cold analysis
#: is cheap, so first touches (solves written to the store) sit beside
#: many repeats (report-cache reads) and the analysis pipeline stays a
#: small share of the work; ``table2-cold`` covers the expensive kernels
SERVICE_KERNELS = (
    "gemm", "syrk", "bicg", "mvt", "atax", "trisolv", "trmm", "jacobi1d",
    "jacobi2d", "seidel2d", "gesummv", "lulesh",
)

#: kernels with small concrete CDAGs, for ``/bounds``
BOUNDS_KERNELS = ("gemm", "atax", "mvt", "bicg", "jacobi1d", "trisolv")
BOUNDS_S_VALUES = (8,)

#: requests per distinct item in one service pass
KERNEL_REPEATS = 12
BOUNDS_REPEATS = 6
ANALYZE_REPEATS = 8  #: the first is the template text, the rest renamings

#: loop-nest templates for ``/analyze``: (language, loop variables, text);
#: ``{name}`` fields are loop variables, renamed per request.  No two
#: templates share a program fingerprint: the daemon keys coalescing and its
#: report cache on the fingerprint alone, so fingerprint-equal programs with
#: different bounds (matmul and LU, say) would be served each other's answers
TEMPLATES: dict[str, tuple[str, tuple[str, ...], str]] = {
    "py-matmul": (
        "python",
        ("i", "j", "k"),
        "for {i} in range(N):\n"
        "    for {j} in range(N):\n"
        "        for {k} in range(N):\n"
        "            C[{i}, {j}] += A[{i}, {k}] * B[{k}, {j}]\n",
    ),
    "py-matvec": (
        "python",
        ("i", "j"),
        "for {i} in range(N):\n"
        "    for {j} in range(M):\n"
        "        y[{i}] += A[{i}, {j}] * x[{j}]\n",
    ),
    "py-stencil": (
        "python",
        ("t", "i"),
        "for {t} in range(1, T):\n"
        "    for {i} in range(1, N - 1):\n"
        "        A[{i}, {t} + 1] = (A[{i} - 1, {t}] + A[{i}, {t}] + A[{i} + 1, {t}]) / 3\n",
    ),
    "c-jacobi2d": (
        "c",
        ("t", "i", "j"),
        "for (int {t} = 0; {t} < T; {t}++)\n"
        "  for (int {i} = 1; {i} < N - 1; {i}++)\n"
        "    for (int {j} = 1; {j} < N - 1; {j}++)\n"
        "      A[{t} + 1][{i}][{j}] = A[{t}][{i} - 1][{j}] + A[{t}][{i} + 1][{j}]"
        " + A[{t}][{i}][{j} - 1] + A[{t}][{i}][{j} + 1];\n",
    ),
    "c-outer": (
        "c",
        ("i", "j"),
        "for (int {i} = 0; {i} < N; {i}++)\n"
        "  for (int {j} = 0; {j} < M; {j}++)\n"
        "    C[{i}][{j}] = u[{i}] * v[{j}];\n",
    ),
    "c-conv1d": (
        "c",
        ("i", "k"),
        "for (int {i} = 0; {i} < N; {i}++)\n"
        "  for (int {k} = 0; {k} < K; {k}++)\n"
        "    y[{i}] += w[{k}] * x[{i} + {k}];\n",
    ),
    "c-mttkrp": (
        "c",
        ("i", "j", "k", "r"),
        "for (int {i} = 0; {i} < I; {i}++)\n"
        "  for (int {j} = 0; {j} < J; {j}++)\n"
        "    for (int {k} = 0; {k} < K; {k}++)\n"
        "      for (int {r} = 0; {r} < R; {r}++)\n"
        "        Y[{i}][{r}] += X[{i}][{j}][{k}] * B[{j}][{r}] * C[{k}][{r}];\n",
    ),
}

#: names a renaming draws loop variables from (none is an array or size)
RENAME_POOL = (
    "i", "j", "k", "t", "p", "q", "r", "ii", "jj", "kk", "tt",
    "i1", "j1", "k1", "p1", "q1", "r1", "row", "col", "dep",
)


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{int(seed)}:{int(pass_index)}")


def template_source(template: str, names: tuple[str, ...] | None = None) -> str:
    """A template's text with ``names`` as its loop variables (default:
    the template's own)."""
    _, variables, text = TEMPLATES[template]
    return text.format(**dict(zip(variables, names or variables)))


def service_mix(seed: int, pass_index: int) -> list[dict]:
    """One service pass: every request, in the order the clients send them.

    Client ``c`` of ``n`` sends ``mix[c::n]``.  The first ``/analyze``
    request of each template carries its own text; every later one is a
    seeded renaming of its loop variables, so it shares the first one's
    fingerprint.
    """
    rng = _rng("service", seed, pass_index)
    items: list[tuple[str, str]] = []
    for name in SERVICE_KERNELS:
        items += [("kernel", name)] * KERNEL_REPEATS
    for name in BOUNDS_KERNELS:
        items += [("bounds", name)] * BOUNDS_REPEATS
    for template in sorted(TEMPLATES):
        items += [("analyze", template)] * ANALYZE_REPEATS
    rng.shuffle(items)
    seen: set[str] = set()
    mix = []
    for index, (kind, name) in enumerate(items):
        request = {"index": index, "kind": kind, "name": name}
        if kind == "analyze":
            language, variables, _ = TEMPLATES[name]
            names = None
            if name in seen:
                while names is None or names == variables:
                    names = tuple(rng.sample(RENAME_POOL, len(variables)))
            seen.add(name)
            request["language"] = language
            request["source"] = template_source(name, names)
            request["renamed"] = names is not None
        mix.append(request)
    return mix
