#!/usr/bin/env python3
"""Self-checks of the benchmark itself, run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. Tampered reference: for every workload, each field of a copy of
   reference.json is altered in turn, and a run against that copy must
   report the job as failed (exit code 1, "correct": false, ok_ratio 0)
   instead of timing wrong output as a success.
2. Held-out seed: two traced gb-n4-d5 runs with seed 9001 must give
   identical work counts (every per-layer metric whose unit is "count"),
   and both must match the reference, which was recorded with another seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import jobs

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
HELD_OUT_SEED = 9001


def run(workload: str, seed: int, trace: int, reference: Path = None):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout + proc.stderr


def _tamper(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value[:-1] + ("0" if value[-1] != "0" else "1")
    if isinstance(value, dict):
        return {k: _tamper(v) for k, v in value.items()}
    return value


def check_tampered(workload: str) -> list:
    reference = json.loads((HERE / "reference.json").read_text())
    problems = []
    for field in reference[workload]:
        tampered = json.loads(json.dumps(reference))
        tampered[workload][field] = _tamper(tampered[workload][field])
        path = ROOT / ".perfbench" / f"tampered-{workload}-{field}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(tampered))
        code, result, text = run(workload, 1, 0, path)
        caught = (
            code == 1
            and result is not None
            and result["correct"] is False
            and result["failed"] == result["attempted"]
            and result["metrics"]["ok_ratio"]["value"] == 0
        )
        print(f"tampered {workload}.{field}: {'reported' if caught else 'NOT REPORTED'}")
        if not caught:
            problems.append(f"tampered {field} not reported:\n{text}")
    return problems


def check_counts(workload: str, seed: int) -> list:
    results = []
    for k in (1, 2):
        code, result, text = run(workload, seed, 1)
        if code != 0 or result is None or not result["correct"]:
            return [f"traced run {k} with seed {seed} failed:\n{text}"]
        results.append(result["metrics"])
        print(f"traced run {k} with seed {seed}: output matches the reference")
    counts = [
        {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"} for metrics in results
    ]
    differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
    print(f"{len(counts[0])} work counts compared, {len(differ)} differ")
    return [f"count {k}: {counts[0][k]} != {counts[1][k]}" for k in differ]


def main() -> int:
    problems = []
    for workload in jobs.WORKLOADS:
        problems += check_tampered(workload)
    problems += check_counts("gb-n4-d5", HELD_OUT_SEED)
    for problem in problems:
        print(problem)
    print("selfcheck:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
