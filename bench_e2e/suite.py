"""A *set*: rounds of every workload, each run a fresh child process.

Identical runs on this shared two-core host drift by about ten percent,
and one long-lived process slows down by itself (the page counter's
history grows without bound), so every run gets its own process and a
metric's value is the median of its per-round values, with min and max
printed beside it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy

from bench_e2e.procs import REPO_ROOT
from bench_e2e.stats import summarize

__all__ = ["OUT_DIR", "run_seconds", "run_sets"]

OUT_DIR = Path(__file__).resolve().parent / "out"

#: The contract allows one run 180 s.
_CHILD_TIMEOUT_S = 180.0

Run = Dict[str, Any]


def _contract() -> Dict[str, Any]:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def run_seconds() -> float:
    """``run_seconds`` of ``BENCHMARK.json``, the default ``--seconds``."""
    return float(_contract()["run_seconds"])


def _child(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Run:
    """One run in a fresh process; a crash becomes a failed run, not ours."""
    command = [
        sys.executable,
        str(Path(__file__).resolve().parent / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(int(trace)),
    ]
    if smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=_CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        return {"crashed": f"no result within {_CHILD_TIMEOUT_S:.0f} s", "stderr": str(exc.stderr or "")[-2000:]}
    lines = done.stdout.strip().splitlines()
    try:
        run: Run = json.loads(lines[-1])
        run["detail"] = json.loads(lines[-2].removeprefix("detail "))
    except (IndexError, ValueError):
        return {"crashed": f"exit code {done.returncode}, no result", "stderr": done.stderr[-2000:]}
    return run


def _provenance(seed: int, seconds: float, rounds: int) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_commit": commit,
        "seed": seed,
        "seconds": seconds,
        "rounds": rounds,
        "nproc": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "REPRO_OBS": os.environ.get("REPRO_OBS", "(unset)"),
    }


def _one_set(
    seed: int, seconds: float, rounds: int, only: Sequence[str], smoke: bool
) -> Dict[str, Any]:
    """``rounds`` rounds of the workloads in order; medians per metric."""
    runs: Dict[str, List[Run]] = {name: [] for name in only}
    for round_index in range(rounds):
        for name in only:
            print(f"  round {round_index + 1}/{rounds}: {name}", flush=True)
            runs[name].append(_child(name, seed, seconds, False, smoke))
    out: Dict[str, Any] = {}
    for name, workload_runs in runs.items():
        good = [run for run in workload_runs if "crashed" not in run]
        metrics: Dict[str, Any] = {}
        if good:
            for metric, first in good[0]["metrics"].items():
                values = [run["metrics"][metric]["value"] for run in good]
                metrics[metric] = {
                    "unit": first["unit"],
                    "rounds": values,
                    **summarize(values),
                }
        attempted = sum(run["attempted"] for run in good)
        failed = sum(run["failed"] for run in good)
        out[name] = {
            "metrics": metrics,
            "attempted": attempted,
            "failed": failed,
            "crashed_runs": [run for run in workload_runs if "crashed" in run],
            # A crashed run fails all of its ops.
            "failed_ops_share": sum(
                1.0 if "crashed" in run else run["failed"] / run["attempted"]
                for run in workload_runs
            )
            / len(workload_runs),
            "detail": [run["detail"] for run in good],
        }
    return out


def _print_set(result: Dict[str, Any]) -> None:
    for name, entry in result.items():
        print(f"\n{name}: failed_ops_share = {entry['failed_ops_share']:.6g} fraction "
              f"({entry['failed']} of {entry['attempted']} attempted)")
        for crashed in entry["crashed_runs"]:
            print(f"  CRASHED RUN: {crashed['crashed']}\n{crashed['stderr']}")
        samples = [d["latency_samples"] for d in entry["detail"]]
        for metric, m in entry["metrics"].items():
            note = f"  n={samples}/round" if metric.startswith("p") and metric.endswith("_ms") else ""
            print(
                f"  {metric:<20} {m['median']:>14.6g} {m['unit']:<9}"
                f"[{m['min']:.6g} .. {m['max']:.6g}]{note}"
            )
        for key in sorted(entry["detail"][0]) if entry["detail"] else ():
            if key in ("setups_s", "pinned"):
                continue
            values = [d[key] for d in entry["detail"]]
            print(f"  ({key:<18} {summarize(values)['median']:>14.6g}  printed, not gated)")


def _trace_pass(seed: int, seconds: float, only: Sequence[str], smoke: bool) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for name in only:
        print(f"  traced: {name}", flush=True)
        out[name] = _child(name, seed, seconds, True, smoke)
    return out


def _print_traces(traces: Dict[str, Any]) -> None:
    for name, run in traces.items():
        print(f"\n{name} per layer (traced, 0 = layer not exercised here):")
        if "crashed" in run:
            print(f"  CRASHED RUN: {run['crashed']}\n{run['stderr']}")
            continue
        for metric, m in run["metrics"].items():
            print(f"  {metric:<46} {m['value']:>14.6g} {m['unit']}")
        print(f"  trace file: {OUT_DIR / ('trace_' + name + '.jsonl')}")


def _agreement(first: Dict[str, Any], second: Dict[str, Any]) -> bool:
    """Print both sets' medians per (metric, workload); True when all agree."""
    bounds = {m["name"]: m for m in _contract()["end_to_end"]}
    agreed = True
    print("\nagreement of two sets (relative worsening of the second over the first):")
    for name in first:
        for metric, m in first[name]["metrics"].items():
            other = second[name]["metrics"].get(metric)
            if other is None:
                agreed = False
                print(f"  {name:<14} {metric:<20} missing in second set  FAIL")
                continue
            a, b = m["median"], other["median"]
            worse = (b - a) / a if bounds[metric]["better"] == "lower" else (a - b) / a
            ok = worse <= bounds[metric]["bound"]
            agreed = agreed and ok
            print(
                f"  {name:<14} {metric:<20} {a:>12.6g} {b:>12.6g} "
                f"{worse:>+8.2%} (bound {bounds[metric]['bound']:.0%})  "
                f"{'PASS' if ok else 'FAIL'}"
            )
    return agreed


def run_sets(
    seed: int,
    seconds: float,
    rounds: int,
    only: Sequence[str],
    trace: bool,
    sets: int,
    smoke: bool,
) -> int:
    """Run ``sets`` sets (two for ``--agree``), print, write ``result.json``."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    results = []
    for set_index in range(sets):
        print(f"set {set_index + 1}/{sets}: seed {seed}, {rounds} rounds, {seconds:g} s per run", flush=True)
        results.append(_one_set(seed, seconds, rounds, only, smoke))
    traces: Optional[Dict[str, Any]] = None
    if trace:
        traces = _trace_pass(seed, seconds, only, smoke)
    for set_index, result in enumerate(results):
        print(f"\n==== set {set_index + 1} ====")
        _print_set(result)
    if traces is not None:
        _print_traces(traces)
    ok = all(
        entry["failed_ops_share"] == 0 for result in results for entry in result.values()
    ) and all("crashed" not in run and run["correct"] for run in (traces or {}).values())
    if sets == 2:
        ok = _agreement(results[0], results[1]) and ok
    document = {
        "provenance": _provenance(seed, seconds, rounds),
        "pinned": all(
            d["pinned"] for result in results for e in result.values() for d in e["detail"]
        ),
        "sets": results,
        "traced": traces,
        "ok": ok,
    }
    path = OUT_DIR / "result.json"
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {path}; {'OK' if ok else 'NOT OK'}")
    return 0 if ok else 1
