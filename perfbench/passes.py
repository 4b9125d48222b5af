"""One pass of one workload, in a fresh interpreter.

``python3 perfbench/passes.py SPEC.json OUT.json`` -- written by
``run.py``, never by hand.  The spec names the workload, seed, pass index,
mode (``pass``: set up, then run the timed region; ``setup``: set up only),
whether to trace, a scratch directory and the build artifacts.  Set-up time
runs from the parent's spawn to the end of set-up, so it includes
interpreter start and imports.  The timed region and its CPU time are
measured here; outputs are checked after it.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from perfbench import checks, mix  # noqa: E402
from perfbench.ledger import (  # noqa: E402
    Ledger,
    install_analysis_layers,
    install_audit_layers,
    install_service_front_layers,
)

#: the fast-memory sizes of the tightness workload
AUDIT_S_VALUES = (8, 18)

#: the large IR-direct gemm stream: N**3 iteration points is above the
#: chunked-build threshold (2**22 points), about 12.7M accesses
STREAM_N = 162
STREAM_TILE = 32
STREAM_S = 1024

SERVICE_WORKERS = 2
SERVICE_CLIENTS = 2


def _fresh_solve_cache(spec: dict, warm: bool) -> Path:
    """An empty cache dir, or a copy of the artifacts' solved problems."""
    path = Path(spec["work_dir"]) / "solves"
    shutil.rmtree(path, ignore_errors=True)
    if warm:
        shutil.copytree(Path(spec["artifacts"]) / "solves", path)
    else:
        path.mkdir(parents=True)
    return path


def _engine(cache_dir: Path):
    from repro.engine import Engine, SolveCache

    return Engine(cache=SolveCache(cache_dir), solver="exact")


def _reference(spec: dict) -> dict:
    return json.loads((Path(spec["artifacts"]) / "reference.json").read_text())


def kernel_output(result) -> dict:
    """A kernel's Table 2 verdict as compared across runs."""
    from repro.symbolic.printing import bound_str

    return {
        "bound": bound_str(result.bound),
        "ratio": str(result.ratio),
        "shape": bool(result.shape_matches),
    }


# ---------------------------------------------------------------------------
# table2-cold / table2-warm
# ---------------------------------------------------------------------------


class Table2:
    """All registered kernels through one fresh engine, one op per kernel."""

    def __init__(self, warm: bool):
        self.warm = warm

    def setup(self, spec: dict) -> dict:
        import repro.analysis  # noqa: F401 - import cost is set-up
        from repro.kernels import kernel_names

        return {
            "engine": _engine(_fresh_solve_cache(spec, self.warm)),
            "order": kernel_names(),
        }

    def install(self, ledger: Ledger) -> None:
        install_analysis_layers(ledger)

    def run(self, state: dict) -> list[dict]:
        # looked up at call time, so a traced pass sees the wrapped function
        import repro.analysis as analysis

        engine = state["engine"]
        ops, results = [], {}
        for name in state["order"]:
            started = time.perf_counter()
            results[name] = analysis.analyze_kernel(name, engine=engine)
            ops.append({"key": name, "latency_s": time.perf_counter() - started})
        state["results"] = results
        return ops

    def check(self, state: dict, ops: list[dict], spec: dict) -> dict:
        import sympy as sp

        from repro.kernels.expected import EXPECTED_BOUNDS, SHAPE_MATCHES
        from repro.symbolic.parsing import parse_bound

        reference = _reference(spec)["table2"]
        outputs = {}
        for op in ops:
            name = op["key"]
            result = state["results"][name]
            outputs[name] = kernel_output(result)
            locked = parse_bound(EXPECTED_BOUNDS[name])
            op["failure"] = checks.kernel_failure(
                name,
                outputs[name],
                locked_equal=sp.simplify(result.bound - locked) == 0,
                locked_shape=SHAPE_MATCHES[name],
                reference=reference.get(name),
            )
        info = {
            "exact": sum(1 for out in outputs.values() if out["ratio"] == "1"),
            "shape_matches": sum(1 for out in outputs.values() if out["shape"]),
            "kernels": len(outputs),
        }
        return {"outputs": outputs, "info": info}


# ---------------------------------------------------------------------------
# tightness
# ---------------------------------------------------------------------------


class Tightness:
    """``audit_kernel`` over the corpus, then one large replayed stream."""

    def setup(self, spec: dict) -> dict:
        from repro.analysis import analyze_kernel
        from repro.bounds import evaluate_bounds
        from repro.kernels import get_kernel, kernel_names
        from repro.schedule._native import native_replay_lib
        import repro.schedule.tightness  # noqa: F401 - import cost is set-up

        native_replay_lib()  # load the prebuilt core
        engine = _engine(_fresh_solve_cache(spec, warm=True))
        names = kernel_names()
        results = {name: analyze_kernel(name, engine=engine) for name in names}
        certified = evaluate_bounds(
            s=STREAM_S,
            symbolic_bound=results["gemm"].bound,
            params={"N": STREAM_N},
            kernel="gemm",
            engines=("kkt",),
        ).certified
        return {
            "results": results,
            "gemm": get_kernel("gemm").build(),
            "certified": certified,
            "order": names,
        }

    def install(self, ledger: Ledger) -> None:
        install_analysis_layers(ledger)
        install_audit_layers(ledger)

    def run(self, state: dict) -> list[dict]:
        # looked up at call time, so a traced pass sees the wrapped functions
        from repro.schedule import simulator, stream, tightness

        # the large stream first, on a heap the audit has not touched, so its
        # peak memory does not depend on which CDAGs the kernel order left
        # in the cdag cache
        ops, replays = [], {}
        started = time.perf_counter()
        tiles = {v: STREAM_TILE for v in ("i", "j", "k")}
        big = stream.single_statement_stream(
            state["gemm"], {"N": STREAM_N}, tile_sizes=tiles
        )
        for policy in ("belady", "lru"):
            result = simulator.simulate_io(big, STREAM_S, policy=policy)
            replays[policy] = {
                "cost": result.cost,
                "loads": result.loads,
                "stores": result.stores,
                "accesses": big.n_accesses,
                "chunked": big.chunk_positions is not None,
            }
            ops.append(
                {
                    "key": f"gemm-stream@{policy}",
                    "latency_s": time.perf_counter() - started,
                }
            )
            started = time.perf_counter()
        del big
        results, rows = state["results"], []
        for name in state["order"]:
            started = time.perf_counter()
            kernel_rows = tightness.audit_kernel(
                name, result=results[name], s_values=AUDIT_S_VALUES
            )
            share = (time.perf_counter() - started) / max(1, len(kernel_rows))
            for row in kernel_rows:
                rows.append(row.as_dict())
                ops.append(
                    {"key": f"{name}@S={row.s_requested}", "latency_s": share}
                )
        state["rows"], state["replays"] = rows, replays
        return ops

    def check(self, state: dict, ops: list[dict], spec: dict) -> dict:
        by_key = {op["key"]: op for op in ops}
        violations, gaps, attained = [], [], 0
        for row in state["rows"]:
            failure, known = checks.audit_failure(row)
            by_key[f"{row['kernel']}@S={row['s_requested']}"]["failure"] = failure
            if known:
                violations.append(f"{row['kernel']}@S={row['s_requested']}")
            elif failure is None:
                gaps.append(row["gap"])
                attained += row["classification"] == "attained"
        for policy, replay in state["replays"].items():
            by_key[f"gemm-stream@{policy}"]["failure"] = checks.replay_failure(
                f"gemm N={STREAM_N} {policy}", replay["cost"], state["certified"]
            )
        info = {
            "points": len(state["rows"]),
            "known_violations": sorted(violations),
            "attained": attained,
            "geomean_gap": math.exp(sum(math.log(g) for g in gaps) / len(gaps))
            if gaps
            else None,
            "stream": {
                "n": STREAM_N,
                "accesses": state["replays"]["belady"]["accesses"],
                "chunked": state["replays"]["belady"]["chunked"],
                "certified": state["certified"],
                "belady_cost": state["replays"]["belady"]["cost"],
                "lru_cost": state["replays"]["lru"]["cost"],
            },
        }
        outputs = {"rows": state["rows"], "replays": state["replays"]}
        return {"outputs": outputs, "info": info}


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process, from /proc."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Service:
    """An in-process daemon with a forked worker fleet, driven over HTTP by
    closed-loop clients (each sends its next request when the last one
    answered)."""

    def setup(self, spec: dict) -> dict:
        from repro.service import ServiceConfig
        from repro.service.client import ServiceClient
        from repro.service.http import ServiceThread

        store = Path(spec["work_dir"]) / "store"
        shutil.rmtree(store, ignore_errors=True)
        store.mkdir(parents=True)
        daemon = ServiceThread(
            ServiceConfig(workers=SERVICE_WORKERS, cache_dir=str(store), solver="exact")
        ).start()
        state = {
            "daemon": daemon,
            "client": lambda: ServiceClient(
                port=daemon.port, timeout=120.0, retries=0
            ),
            "requests": mix.service_mix(spec["seed"], spec["pass_index"]),
        }
        with state["client"]() as client:
            state["metrics_before"] = client.metrics()
            state["pids"] = [w["pid"] for w in client.healthz().worker_processes]
        return state

    def install(self, ledger: Ledger) -> None:
        # after set-up: the fleet is already forked, so only the front end
        # (event loop and prep pool of this process) is wrapped
        install_service_front_layers(ledger)

    @staticmethod
    def _send(client, request: dict):
        kind, name = request["kind"], request["name"]
        if kind == "kernel":
            return client.kernel(name)
        if kind == "bounds":
            return client.bounds(name, s_values=list(mix.BOUNDS_S_VALUES))
        return client.analyze(
            request["source"],
            name=f"{name}-{request['index']}",
            language=request["language"],
        )

    def _client_loop(self, state: dict, requests: list[dict], out: list) -> None:
        from repro.service.client import ServiceError

        with state["client"]() as client:
            for request in requests:
                started = time.perf_counter()
                try:
                    record = self._send(client, request)
                except (ServiceError, OSError) as err:
                    latency = time.perf_counter() - started
                    out.append((request, latency, None, f"{type(err).__name__}: {err}"))
                    continue
                out.append((request, time.perf_counter() - started, record, None))

    def run(self, state: dict) -> list[dict]:
        pids = state["pids"]
        cpu_before = sum(_proc_cpu_s(pid) for pid in pids)
        outs = [[] for _ in range(SERVICE_CLIENTS)]
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(state, state["requests"][c::SERVICE_CLIENTS], outs[c]),
            )
            for c in range(SERVICE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        state["extra_cpu_s"] = sum(_proc_cpu_s(pid) for pid in pids) - cpu_before
        ops = []
        for request, latency, record, error in sorted(
            (item for out in outs for item in out), key=lambda item: item[0]["index"]
        ):
            ops.append(
                {
                    "key": f"{request['index']}:{request['kind']}:{request['name']}",
                    "latency_s": latency,
                    "request": request,
                    "ok": record is not None and record.ok,
                    "error": error if record is None else record.error,
                    "answer": record.result if record is not None else None,
                    "job": None
                    if record is None
                    else {
                        "id": record.id,
                        "attached": record.attached,
                        "queue_s": record.queue_seconds,
                        "run_s": record.run_seconds,
                        "total_s": record.total_seconds,
                    },
                }
            )
        return ops

    def check(self, state: dict, ops: list[dict], spec: dict) -> dict:
        with state["client"]() as client:
            metrics_after = client.metrics()
        reference = _reference(spec)
        outputs = {}
        for op in ops:
            request = op["request"]
            expected = reference[request["kind"]].get(request["name"])
            op["failure"] = checks.service_failure(
                op["ok"], op["error"], op["answer"], expected
            )
            outputs[str(request["index"])] = checks.normalize_answer(op.pop("answer"))
        info = {
            "requests": len(ops),
            "by_kind": {
                kind: sum(1 for op in ops if op["request"]["kind"] == kind)
                for kind in ("kernel", "bounds", "analyze")
            },
            "renamed": sum(1 for op in ops if op["request"].get("renamed")),
        }
        return {
            "outputs": outputs,
            "info": info,
            "metrics_before": state["metrics_before"],
            "metrics_after": metrics_after,
        }

    def teardown(self, state: dict) -> None:
        state["daemon"].stop()


WORKLOADS = {
    "table2-cold": lambda: Table2(warm=False),
    "table2-warm": lambda: Table2(warm=True),
    "tightness": Tightness,
    "service": Service,
}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    workload = WORKLOADS[spec["workload"]]()
    state = workload.setup(spec)
    record = {
        "mode": spec["mode"],
        "trace": spec["trace"],
        "setup_s": time.time() - spec["spawned_at"],
    }
    try:
        if spec["mode"] == "pass":
            ledger = None
            if spec["trace"]:
                ledger = Ledger()
                workload.install(ledger)
            cpu_started = time.process_time()
            started = time.perf_counter()
            ops = workload.run(state)
            record["wall_s"] = time.perf_counter() - started
            # plus the CPU of processes the workload forked (service workers)
            record["cpu_s"] = time.process_time() - cpu_started + state.get(
                "extra_cpu_s", 0.0
            )
            if ledger is not None:
                record["ledger"] = ledger.snapshot()
                ledger.uninstall()
            record.update(workload.check(state, ops, spec), ops=ops)
    finally:
        if hasattr(workload, "teardown"):
            workload.teardown(state)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(sys.argv[2]).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
