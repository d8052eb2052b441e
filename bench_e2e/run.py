#!/usr/bin/env python3
"""The benchmark's one command.

Two ways in:

* ``python3 bench_e2e/run.py --workload W --seed N --seconds S --trace 0|1``
  is one run of one workload in this process (what the PR driver calls);
  the last line of standard output is the result object.
* ``python3 bench_e2e/run.py --seed 11`` is a *set*: rounds of all six
  workloads, each run a fresh child process of the first form, then one
  traced run per workload; prints every metric and writes
  ``bench_e2e/out/result.json``.  ``--agree`` runs two sets and compares.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"bench_e2e: the program's source is not at {ROOT / 'src' / 'repro'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench_e2e import suite  # noqa: E402
from bench_e2e.harness import SETUP_SAMPLES, measure  # noqa: E402
from bench_e2e.procs import pin_generator  # noqa: E402
from bench_e2e.tracing import measure_traced  # noqa: E402
from bench_e2e.workloads import WORKLOADS, make_workload  # noqa: E402


#: ``--smoke`` runs one twentieth of every size.
SMOKE_SCALE = 0.05


def run_once(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> None:
    """One run in this process; prints the detail line, then the result.

    Exits 0 even when an answer was wrong: the result line says so
    (``correct``), and whoever reads it decides.
    """
    pinned = pin_generator()
    instance = make_workload(workload, seed, SMOKE_SCALE if smoke else 1.0)
    if trace:
        measurement, metrics = measure_traced(instance, seconds, suite.OUT_DIR)
    else:
        measurement = measure(
            instance, seconds, setup_samples=1 if smoke else SETUP_SAMPLES
        )
        metrics = measurement.end_to_end()
    detail = measurement.detail()
    detail["pinned"] = pinned
    print("detail " + json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": measurement.failed == 0,
                "attempted": measurement.attempted,
                "failed": measurement.failed,
                "metrics": metrics,
            }
        )
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Parse the command line and dispatch to one run or a set."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--only", choices=sorted(WORKLOADS), action="append")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--agree", action="store_true")
    parser.add_argument(
        "--smoke", action="store_true", help="1/20 sizes, one round, a few seconds"
    )
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = 0.1 if args.smoke else suite.run_seconds()
    if args.workload is not None:
        run_once(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
        return 0
    return suite.run_sets(
        seed=args.seed,
        seconds=seconds,
        rounds=1 if args.smoke else args.rounds,
        only=args.only or list(WORKLOADS),
        trace=not args.no_trace,
        sets=2 if args.agree else 1,
        smoke=args.smoke,
    )


if __name__ == "__main__":
    sys.exit(main())
