#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the fastt libraries and the perfbench
benchmark binary from source into .bench_build/perfbench (incremental after
the first run), then runs one benchmark run and relays its output. The last
line of stdout is the run's JSON result. Build output goes to stderr.

Exits non-zero without a result when the sources are missing, the build
fails, or the run fails. See perfbench/NOTES.md for the workloads and
metrics.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
JOBS = str(min(4, os.cpu_count() or 1))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / base / "perfbench").resolve()


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no fastt sources under %s/src; run from a full "
                 "checkout" % ROOT)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", JOBS],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench"


def main(argv):
    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: build failed (%s)" % e)
    proc = subprocess.run([str(binary)] + argv, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit("perfbench: run failed with exit code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: run printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
