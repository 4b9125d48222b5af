"""BENCHMARK.json agrees with the code; the ledger's self-time accounting;
the entry point refuses to run without the analyzer's source."""

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from perfbench import report, stats
from perfbench.ledger import Ledger

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_metrics_the_code_prints():
    metrics, _ = stats.end_to_end(
        [{"mode": "pass", "ops": [{"latency_s": 1.0, "failure": None}],
          "wall_s": 1.0, "cpu_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0}]
    )
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [
        (name, metric["unit"]) for name, metric in metrics.items()
    ]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        report.PER_LAYER.items()
    )
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    from perfbench.run import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


FAKE_LAYERS = """
import time

def leaf():
    time.sleep(0.02)
    return 1

def middle():
    time.sleep(0.01)
    return leaf() + leaf()

def numbers():
    yield from range(3)
"""


def test_ledger_self_times_add_up_to_the_root():
    module = types.ModuleType("perfbench_fake_layer")
    exec(FAKE_LAYERS, module.__dict__)
    leaf, middle = module.leaf, module.middle
    sys.modules[module.__name__] = module
    ledger = Ledger()
    try:
        prefixes = (module.__name__,)
        assert ledger.time_function(leaf, "leaf", prefixes=prefixes) == 1
        ledger.time_function(middle, "middle", prefixes=prefixes)
        ledger.time_function(
            module.numbers, "gen",
            after=lambda led, result, a, k: led.count("items", len(result)),
            prefixes=prefixes,
        )
        assert module.middle() == 2
        assert module.numbers() == [0, 1, 2]
        snapshot = ledger.snapshot()
    finally:
        ledger.uninstall()
        del sys.modules[module.__name__]
    assert module.leaf is leaf and module.middle is middle
    spans = snapshot["spans"]
    assert spans["leaf"]["calls"] == 2 and spans["middle"]["calls"] == 1
    assert spans["middle"]["self_s"] == pytest.approx(0.01, abs=0.008)
    assert spans["middle"]["total_s"] == pytest.approx(
        spans["middle"]["self_s"] + spans["leaf"]["self_s"], rel=1e-9
    )
    assert snapshot["counts"] == {"items": 3}


def test_run_refuses_a_tree_without_the_analyzer(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "table2-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
    assert not (tmp_path / ".bench_build").exists()
