#!/usr/bin/env python3
"""Builds and runs the repo benchmark (perfbench).

Run from the root of a checkout:

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 20 --trace 0

The first run configures and builds the library and the benchmark binary into
.bench_build (or $CARGO_TARGET_DIR when set); later runs reuse the build.
All arguments are passed to the binary, whose last stdout line is the JSON
result. Exits non-zero, without a result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out):
    log = os.path.join(out, "build.log")
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log, "w") as f:
        for cmd in (
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            ["cmake", "--build", out, "--target", "aqp_perfbench", "-j", jobs],
        ):
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                f.flush()
                with open(log) as r:
                    sys.stderr.write(r.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                sys.exit(3)


def main():
    out = build_dir()
    build(out)
    binary = os.path.join(out, "aqp_perfbench")
    proc = subprocess.run([binary] + sys.argv[1:])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
