"""Smoke test of the benchmark harness at tiny size; finishes in seconds.

    python3 bench/smoke.py

Runs every workload at horizon 6 (100 paths for mc-long), untraced and
traced, and asserts that each run is correct and emits exactly the metrics
declared in BENCHMARK.json (and in run.py), each with its declared unit.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

BENCH = Path(__file__).resolve().parent


def declared() -> dict[int, dict[str, str]]:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    by_trace = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert by_trace[0] == run.END_TO_END, "BENCHMARK.json end_to_end differs from run.END_TO_END"
    assert by_trace[1] == run.PER_LAYER, "BENCHMARK.json per_layer differs from run.PER_LAYER"
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    return by_trace


def main() -> int:
    units = declared()
    for name in workloads.NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "3",
                   "--seconds", "0.5", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, proc.stdout
            assert result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == units[trace], f"{name} trace {trace}: metrics {got} != {units[trace]}"
            for metric, entry in result["metrics"].items():
                assert isinstance(entry["value"], (int, float)), (metric, entry)
            print(f"ok  {name:14s} trace {trace}  {len(got)} metrics, "
                  f"{result['attempted']} checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
