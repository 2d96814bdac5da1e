"""Smoke test of the benchmark: every workload once at tiny sizes, untraced and traced.

Usage: python3 perfbench/smoke.py

For each workload and trace mode it checks that the run exits 0 with
``correct`` true, that the last line carries exactly the metrics
BENCHMARK.json names for that mode, each with its unit and a finite value,
and that the traced run's results digest equals the untraced run's, so
tracing leaves results bit-identical. A layer that a later library version
no longer has is reported as 0 and listed as absent; it does not fail here.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def run_once(workload: str, trace: int) -> tuple[dict, str, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    absent = next((json.loads(line[len("absent "):]) for line in lines if line.startswith("absent ")), [])
    return json.loads(lines[-1]), digest, absent


def problems_with(result: dict, expected: dict[str, str], positive: bool) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metrics differ: missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value) or (positive and value <= 0):
            problems.append(f"{name}: value {value!r}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = []
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.py's")
    for workload in WORKLOADS:
        before = len(failures)
        digests = {}
        for trace in (0, 1):
            result, digests[trace], absent = run_once(workload, trace)
            failures += [f"{workload} trace={trace}: {p}"
                         for p in problems_with(result, expected[trace], positive=trace == 0)]
            if absent:
                print(f"{workload}: absent layers {absent}")
        if digests[0] != digests[1]:
            failures.append(f"{workload}: traced and untraced results differ")
        print(f"{workload}: {'ok' if len(failures) == before else 'FAILED'}", flush=True)
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
