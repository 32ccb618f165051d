#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

    python3 bhbench/selftest.py

For every workload in BENCHMARK.json:
  * an untraced run exits 0, reports correct, and emits every
    end-to-end metric with the unit BENCHMARK.json gives it;
  * a traced run does the same for every per-layer metric;
  * a run against a reference with one event dropped exits non-zero.
Exits 1 on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stderr


def check_metrics(workload, result, wanted):
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got:
            return f"{workload}: metric {m['name']} missing"
        if got[m["name"]]["unit"] != m["unit"]:
            return (f"{workload}: {m['name']} has unit "
                    f"{got[m['name']]['unit']}, BENCHMARK.json says {m['unit']}")
    extra = set(got) - {m["name"] for m in wanted}
    if extra:
        return f"{workload}: metrics not in BENCHMARK.json: {sorted(extra)}"
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, result, err = run(name, trace)
            if code != 0 or result is None or not result.get("correct"):
                failures.append(f"{name} trace={trace}: exit {code}\n{err[-2000:]}")
                continue
            if result["attempted"] < 1:
                failures.append(f"{name} trace={trace}: attempted < 1")
            problem = check_metrics(name, result, wanted)
            if problem:
                failures.append(f"trace={trace} {problem}")
        code, result, _ = run(name, 0, ["--corrupt-reference"])
        if code == 0:
            failures.append(f"{name}: a corrupted reference still exits 0")
        print(f"{name}: checked", flush=True)
    for f in failures:
        print("FAIL:", f)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
