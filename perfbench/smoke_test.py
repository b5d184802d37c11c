#!/usr/bin/env python3
"""Smoke test of the repo benchmark at a small table size.

Run from the root of a checkout:

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json untraced and traced for one second
on 100k lineitem rows and asserts that each run passes its own correctness
checks, that no submission failed, and that the result line carries
exactly the metrics BENCHMARK.json lists (end_to_end untraced, per_layer
traced), each with its unit and a finite value. Also checks that the
benchmark exits non-zero without a result line when the library sources
are missing.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
RUN = os.path.join("perfbench", "run.py")
ROWS = "100000"


def run(workload, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--rows", ROWS,
           "--out-dir", os.path.join(".bench_out", "smoke")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, (cmd, proc.returncode, proc.stderr[-2000:])
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]), proc.stdout


def check_result(result, expected, label, stdout):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, (label, stdout[-3000:])
    assert result["failed"] == 0, (label, result["failed"])
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    names = [m["name"] for m in expected]
    assert list(result["metrics"]) == names, (
        label, sorted(set(names) ^ set(result["metrics"])))
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (label, m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)), (label, m["name"])
        assert math.isfinite(got["value"]), (label, m["name"])


def check_missing_sources():
    # A directory holding only BENCHMARK.json and the benchmark itself must
    # fail without printing a result.
    tmp = tempfile.mkdtemp(prefix="perfbench-smoke-", dir=ROOT)
    try:
        shutil.copy("BENCHMARK.json", tmp)
        shutil.copytree("perfbench", os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "adhoc", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180, env=env)
        assert proc.returncode != 0, "benchmark without sources must fail"
        assert '"correct"' not in proc.stdout, "no result line without sources"
    finally:
        shutil.rmtree(tmp)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for name in [w["name"] for w in bench["workloads"]]:
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, stdout = run(name, trace)
            check_result(result, expected, "%s trace=%d" % (name, trace),
                         stdout)
            print("ok  %-10s trace=%d  attempted=%d" %
                  (name, trace, result["attempted"]))
    check_missing_sources()
    print("ok  missing library sources fail without a result")


if __name__ == "__main__":
    main()
