"""Determinism self-check: same seed, same inputs, same exact counts.

Usage, from the repository root::

    python3 perfbench/selfcheck.py

For each workload the benchmark runs for :data:`SECONDS` seconds,
twice with seed :data:`SEED` and once with the next seed.  The two
same-seed runs must agree on the input digest and on every exact count
in the run record (``depth_sum``,
``optimal_fraction``, oracle queries and, from the traced ``exact-gap``
runs, SAT conflicts; cache hits, misses and disk hits on
``serve-cached``).  The other seed must give a different input digest,
and that untraced run must not have loaded the tracer.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-gap", "serve-small", "serve-cached")
SEED = 7
SECONDS = 2.0


def run_once(workload: str, seed: int, trace: int) -> Dict[str, Any]:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", str(trace),
    ]
    completed = subprocess.run(
        command, cwd=str(ROOT), capture_output=True, text=True, timeout=600,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{' '.join(command)} exited {completed.returncode}: "
            f"{completed.stderr[-2000:]}"
        )
    record_path = HERE / ".work" / f"record-{workload}-seed{seed}-trace{trace}.json"
    with open(record_path) as stream:
        return json.load(stream)


def check_workload(workload: str) -> List[str]:
    trace = 1 if workload == "exact-gap" else 0
    first = run_once(workload, SEED, trace)
    second = run_once(workload, SEED, trace)
    other = run_once(workload, SEED + 1, 0)
    failures = []
    if first["input_digest"] != second["input_digest"]:
        failures.append(f"{workload}: same seed gave different inputs")
    if first["exact"] != second["exact"]:
        failures.append(
            f"{workload}: exact counts differ: {first['exact']} vs {second['exact']}"
        )
    if other["input_digest"] == first["input_digest"]:
        failures.append(f"{workload}: seeds {SEED} and {SEED + 1} gave the same inputs")
    if other["tracer_loaded"]:
        failures.append(f"{workload}: an untraced run loaded the tracer")
    print(f"{workload}: digest {first['input_digest'][:16]} exact {first['exact']}")
    return failures


def main() -> int:
    failures: List[str] = []
    for workload in WORKLOADS:
        failures.extend(check_workload(workload))
    for failure in failures:
        print(f"FAILED: {failure}")
    print("determinism self-check:", "ok" if not failures else "FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
