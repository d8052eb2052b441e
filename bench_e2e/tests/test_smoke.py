"""``--smoke`` end to end: every workload, both passes, real processes."""

import json
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

WORKLOADS = (
    "knn_direct",
    "tcp_solo",
    "tcp_colocated",
    "sim_cruise",
    "sim_rush",
    "snnn_network",
)


def test_smoke_set_runs_every_workload_and_writes_the_results():
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seed", "11"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    # About 15 s here; the bound only guards against smoke mode
    # quietly growing back to full sizes on a slower host.
    assert elapsed < 60.0
    result = json.loads((BENCH / "out" / "result.json").read_text())
    assert result["ok"] is True
    assert result["provenance"]["seed"] == 11
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [metric["name"] for metric in contract["end_to_end"]]
    layered = [metric["name"] for metric in contract["per_layer"]]
    for name in WORKLOADS:
        entry = result["sets"][0][name]
        assert entry["failed_ops_share"] == 0
        # (result.json is written with sorted keys)
        assert sorted(entry["metrics"]) == sorted(gated)
        assert sorted(result["traced"][name]["metrics"]) == sorted(layered)
        trace = BENCH / "out" / f"trace_{name}.jsonl"
        first = json.loads(trace.read_text().splitlines()[0])
        assert {"name", "start", "end", "span_id", "parent_id"} <= set(first)
        for metric in gated + layered:
            assert metric in done.stdout


def test_one_run_prints_the_contract_result_as_its_last_line():
    done = subprocess.run(
        [
            sys.executable,
            str(BENCH / "run.py"),
            "--smoke",
            "--workload",
            "knn_direct",
            "--seed",
            "12",
            "--seconds",
            "0.2",
            "--trace",
            "0",
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert all(entry["value"] != 0 for entry in result["metrics"].values())


def test_it_refuses_to_run_without_the_program(tmp_path):
    """In a directory that holds only the benchmark: non-zero, no result."""
    import shutil

    shutil.copytree(BENCH, tmp_path / "bench_e2e", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench_e2e/run.py", "--workload", "knn_direct", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
