#!/usr/bin/env python3
"""Self-test of the perfbench benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json briefly, untraced and traced, and
checks that each run passes its correctness gate and reports every named
metric with its unit and a finite value. A second traced run of one seed
must repeat sim.instructions exactly. Exits 1 on the first failure.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[0].startswith(f"workload {workload} seed {seed}"):
        raise AssertionError(f"{workload}: seed not echoed")
    return json.loads(lines[-1])


def check(result, expected, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: correctness gate failed"
    assert result["attempted"] >= 1 and result["failed"] == 0, label
    metrics = result["metrics"]
    for spec in expected:
        m = metrics.get(spec["name"])
        assert m is not None, f"{label}: missing {spec['name']}"
        assert m["unit"] == spec["unit"], f"{label}: unit of {spec['name']}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(
            m["value"]), f"{label}: {spec['name']} not finite"
    assert len(metrics) == len(expected), f"{label}: unexpected metrics"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    instructions = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        check(run(workload, 1, 0), bench["end_to_end"], f"{workload} e2e")
        traced = run(workload, 1, 1)
        check(traced, bench["per_layer"], f"{workload} traced")
        instructions[workload] = traced["metrics"]["sim.instructions"]["value"]
        assert instructions[workload] > 0, f"{workload}: no instructions"
        print(f"ok {workload}")
    again = run("suite_estimate", 1, 1)["metrics"]["sim.instructions"]["value"]
    assert again == instructions["suite_estimate"], "sim.instructions moved"
    print("ok sim.instructions repeats")


if __name__ == "__main__":
    try:
        main()
    except (AssertionError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"FAIL: {e}", file=sys.stderr)
        sys.exit(1)
