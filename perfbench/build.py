"""One-time build artifacts of a checkout, made before the first run.

``python3 perfbench/build.py OUT_DIR`` -- called by ``run.py`` with the
benchmark's environment (which points the native replay cache into
``OUT_DIR/native``).  It makes:

* the compiled replay core, so no run pays for the compiler;
* ``solves/`` -- the solve cache of one cold pass over the whole corpus,
  copied into a fresh cache dir by every warm set-up;
* ``reference.json`` -- the reference answers the runs are checked
  against: that cold pass's Table 2 verdicts, and the direct library call
  behind every distinct service request.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from perfbench import mix  # noqa: E402
from perfbench.passes import kernel_output  # noqa: E402


def build(out: Path) -> None:
    from repro.analysis import analyze_kernel, analyze_source
    from repro.bounds import kernel_bounds
    from repro.engine import Engine, SolveCache
    from repro.kernels import kernel_names
    from repro.reporting.serialize import (
        bounds_report,
        kernel_report,
        program_bound_report,
    )
    from repro.schedule._native import native_replay_lib

    if native_replay_lib() is None:
        print("warning: native replay core unavailable", file=sys.stderr)
    engine = Engine(cache=SolveCache(out / "solves"), solver="exact")
    table2, kernels = {}, {}
    for name in kernel_names():
        result = analyze_kernel(name, engine=engine)
        table2[name] = kernel_output(result)
        if name in mix.SERVICE_KERNELS:
            kernels[name] = kernel_report(result)
    bounds = {
        name: bounds_report(
            kernel_bounds(name, s_values=list(mix.BOUNDS_S_VALUES), engine=engine)
        )
        for name in mix.BOUNDS_KERNELS
    }
    analyze = {}
    for template, (language, _, _) in mix.TEMPLATES.items():
        result = analyze_source(
            mix.template_source(template), name=template, language=language,
            engine=engine,
        )
        analyze[template] = program_bound_report(
            result, name=template, language=language
        )
    reference = {
        "table2": table2,
        "kernel": kernels,
        "bounds": bounds,
        "analyze": analyze,
    }
    (out / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True))


if __name__ == "__main__":
    build(Path(sys.argv[1]))
