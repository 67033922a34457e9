"""BENCHMARK.json names exactly what the code produces — checked on a live run.

One short ``pairs-live`` run goes through the real path: the ``run.py``
command line, a ``serve`` subprocess, two connections, the oracle, then the
traced replay.  Only names and correctness are asserted, never timings.
"""

import json
import subprocess
import sys
from pathlib import Path

from ledger.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_workloads_the_code_defines():
    assert BENCHMARK["paths"] == ["ledger"]
    assert BENCHMARK["command"] == ["python3", "ledger/run.py"]
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == [w.name for w in WORKLOADS]
    assert all(0 < len(entry["why"]) <= 200 for entry in BENCHMARK["workloads"])
    assert "setup_s" in {entry["name"] for entry in BENCHMARK["end_to_end"]}
    assert all(0 < entry["bound"] <= 0.25 for entry in BENCHMARK["end_to_end"])


def test_live_run_produces_exactly_the_declared_metrics(tmp_path):
    out = tmp_path / "entry.json"
    finished = subprocess.run(
        [sys.executable, str(ROOT / "ledger" / "run.py"), "--workload", "pairs-live",
         "--seed", "11", "--seconds", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert finished.returncode == 0, finished.stderr[-2000:]
    result = json.loads(finished.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2 * (2 * 40 * 5)  # both runs: 5 s of pairs at 40/s

    declared = {
        entry["name"]: entry["unit"] for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    }
    produced = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert produced == declared

    layers = {name: m["value"] for name, m in result["metrics"].items()}
    assert layers["core.durability.calls_per_op"] == 0 == layers["core.tiering.calls_per_op"]
    assert layers["sqlparser.calls_per_op"] == 1
    entry = json.loads(out.read_text())
    assert {"git_sha", "python", "nproc", "seed"} <= set(entry)
    assert entry["workloads"]["pairs-live"]["end_to_end"]["calibration_ms"][0] > 0
