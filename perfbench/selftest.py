#!/usr/bin/env python3
"""Self-test of the benchmark on a tiny configuration (lenet, 2 GPUs).

    python3 perfbench/selftest.py

Run from the repository root. For the run and arena request kinds it checks
that an untraced run prints every end-to-end metric of BENCHMARK.json and a
traced run every per-layer metric, each by name with its unit, with every
check passing and the determinism check comparing at least one pair. It
then feeds the checks a deliberately corrupted strategy (one op left
unplaced) and requires the run to count it as a failure while still
printing every metric. Exits 0 when all of this holds.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
WORKLOADS = ["selftest-run-lenet-2gpu", "selftest-arena-lenet-2gpu"]


def run(workload, trace, *extra):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", "3", "--seconds", "0.3",
               "--trace", str(trace)] + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(label, spec, lines, result, problems):
    for m in spec:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append("%s: metric %s missing" % (label, m["name"]))
        elif got["unit"] != m["unit"]:
            problems.append("%s: %s unit %s, want %s"
                            % (label, m["name"], got["unit"], m["unit"]))
        if not any(line.split()[:1] == [m["name"]] and m["unit"] in line
                   for line in lines):
            problems.append("%s: no report line for %s" % (label, m["name"]))
    extra = set(result["metrics"]) - {m["name"] for m in spec}
    if extra:
        problems.append("%s: unexpected metrics %s" % (label, sorted(extra)))


def comparisons(lines):
    """Same-input comparisons the run's determinism check made."""
    for line in lines:
        if line.startswith("determinism:"):
            return int(line.split()[1])
    return 0


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {0: bench["end_to_end"], 1: bench["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = "%s trace %d" % (workload, trace)
            lines, result = run(workload, trace)
            check_metrics(label, specs[trace], lines, result, problems)
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: clean run reported failures" % label)
            if comparisons(lines) < 1:
                problems.append("%s: determinism check compared nothing"
                                % label)
        label = "%s corrupted" % workload
        lines, result = run(workload, 0, "--corrupt-one")
        check_metrics(label, specs[0], lines, result, problems)
        if result["correct"] or result["failed"] < 1:
            problems.append("%s: unplaced op was not counted as a failure"
                            % label)
        if not any("check failed: verify:place.total" in line
                   for line in lines):
            problems.append("%s: verifier did not name place.total" % label)
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
