"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table2-cold --seed 1 --seconds 10 --trace 0

Workloads: ``table2-cold``, ``table2-warm``, ``tightness``, ``service``
(see ``perfbench/README.md``).  The first run in a checkout builds the
artifacts under ``.bench_build/`` (native replay core, the solve cache of
one cold pass, reference answers); later runs reuse them until a source
file changes.  Each pass runs in a fresh interpreter.  ``--seconds`` sets
the amount of work, a fixed number of passes per 10 seconds, so a faster
program shows a smaller ``wall_s``.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` every pass runs twice, untraced and then traced with the
per-layer wrappers, and the last line carries the per-layer metrics; the
run is correct only if both passes produced equal outputs.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from perfbench import report, stats  # noqa: E402

WORKLOADS = ("table2-cold", "table2-warm", "tightness", "service")

#: passes per 10 s of ``--seconds``: about 10 s of measured work on the
#: reference machine (2 CPUs), one whole suite for ``table2-cold``, for
#: ``table2-warm`` about 20 s, because the machine's speed drifts over tens
#: of seconds and its latency percentiles need that much work to average
#: the drift out, and for ``service`` enough passes that its tail
#: percentile lands among enough first-touch requests to be steady
PASSES_PER_10S = {
    "table2-cold": 1,
    "table2-warm": 4,
    "tightness": 1,
    "service": 4,
}

#: set-ups per untraced run: the passes' own, then set-up-only interpreters
#: (none extra for ``tightness``, whose set-up re-analyzes the corpus)
SETUPS_PER_RUN = {
    "table2-cold": 3,
    "table2-warm": 3,
    "tightness": 1,
    "service": 3,
}

#: every run ends within this many seconds, or fails
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 850.0

#: coverage of the root by the layer self times must be this close to 1
COVERAGE_TOLERANCE = 0.05

BUILD_DIR = ROOT / ".bench_build" / "perfbench"


def _env(artifacts: Path) -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env.update(
        # one BLAS/OpenMP thread: the 2 cores belong to the workload
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
        BLIS_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
        REPRO_NATIVE_CACHE=str(artifacts / "native"),
        TMPDIR=str(tmp),
        XDG_CACHE_HOME=str(tmp / "xdg"),
    )
    return env


def _source_stamp() -> str:
    """Digest of every file the artifacts depend on."""
    digest = hashlib.sha256()
    files = sorted(
        [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    )
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _spawn(argv: list[str], env: dict, log: Path, deadline: float) -> None:
    """Run a child in its own process group; kill the group on timeout and
    reap whatever the child left behind."""
    with log.open("w") as out:
        proc = subprocess.Popen(
            [sys.executable, *argv],
            env=env,
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            _kill_group(proc)
    if code != 0:
        tail = log.read_text(errors="replace")[-4000:]
        reason = "timed out" if code is None else f"exited {code}"
        raise RuntimeError(f"{' '.join(argv)} {reason}:\n{tail}")


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):  # orphans of the group are reaped by init
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def ensure_artifacts() -> Path:
    """The build artifacts of this source tree, built once per checkout."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    final = BUILD_DIR / f"artifacts-{_source_stamp()}"
    with (BUILD_DIR / "build.lock").open("w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (final / "reference.json").is_file():
            for stale in [*BUILD_DIR.glob("artifacts-*"), *BUILD_DIR.glob("staging-*")]:
                shutil.rmtree(stale, ignore_errors=True)
            staging = BUILD_DIR / f"staging-{os.getpid()}"
            staging.mkdir()
            _spawn(
                ["perfbench/build.py", str(staging)],
                _env(staging),
                BUILD_DIR / "build.log",
                time.monotonic() + BUILD_BUDGET_S,
            )
            staging.rename(final)
    return final


def run_pass(spec: dict, env: dict, deadline: float) -> dict:
    work = Path(spec["work_dir"])
    work.mkdir(parents=True, exist_ok=True)
    spec_path, out_path = work / "spec.json", work / "out.json"
    spec = dict(spec, spawned_at=time.time())
    spec_path.write_text(json.dumps(spec))
    try:
        _spawn(
            ["perfbench/passes.py", str(spec_path), str(out_path)],
            env,
            work / "pass.log",
            deadline,
        )
        return json.loads(out_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, artifacts: Path) -> dict:
    env = _env(artifacts)
    deadline = time.monotonic() + RUN_BUDGET_S
    passes = max(1, round(PASSES_PER_10S[args.workload] * args.seconds / 10.0))
    base = {
        "workload": args.workload,
        "seed": args.seed,
        "artifacts": str(artifacts),
    }
    runs_dir = BUILD_DIR / "runs" / str(os.getpid())

    def one(index: int, mode: str, trace: bool) -> dict:
        work = runs_dir / f"{index}-{mode}-{int(trace)}"
        spec = dict(base, pass_index=index, mode=mode, trace=trace, work_dir=str(work))
        return run_pass(spec, env, deadline)

    try:
        if not args.trace:
            records = [one(i, "pass", False) for i in range(passes)]
            records += [
                one(i, "setup", False)
                for i in range(passes, SETUPS_PER_RUN[args.workload])
            ]
            metrics, detail = stats.end_to_end(records)
            timed = [r for r in records if r["mode"] == "pass"]
            return _result(timed, metrics, detail, trace_ok=True)
        untraced, traced = [], []
        for i in range(passes):
            untraced.append(one(i, "pass", False))
            traced.append(one(i, "pass", True))
        metrics, detail = report.per_layer(args.workload, traced, untraced)
        inert = all(u["outputs"] == t["outputs"] for u, t in zip(untraced, traced))
        coverage = metrics["layers.coverage"]["value"]
        detail["inert"] = inert
        detail["coverage_ok"] = abs(coverage - 1.0) <= COVERAGE_TOLERANCE
        return _result(
            traced, metrics, detail, trace_ok=inert and detail["coverage_ok"]
        )
    finally:
        shutil.rmtree(runs_dir, ignore_errors=True)


def _result(timed: list[dict], metrics: dict, detail: dict, trace_ok: bool) -> dict:
    ops = [op for p in timed for op in p["ops"]]
    failures = [op["failure"] for op in ops if op["failure"] is not None]
    detail["failures"] = failures[:20]
    detail["info"] = [p["info"] for p in timed]
    return {
        "result": {
            "correct": trace_ok and not failures,
            "attempted": len(ops),
            "failed": len(failures),
            "metrics": metrics,
        },
        "detail": detail,
    }


def _print_summary(args, outcome: dict) -> None:
    result, detail = outcome["result"], outcome["detail"]
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cpus {os.cpu_count()}")
    for name, metric in result["metrics"].items():
        print(f"#   {name:34s} {metric['value']:.6g} {metric['unit']}")
    print("# detail " + json.dumps(detail, sort_keys=True, default=str))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its pass interpreters (see _spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no analyzer source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        outcome = measure(args, ensure_artifacts())
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    _print_summary(args, outcome)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
