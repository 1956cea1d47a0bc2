#!/usr/bin/env python3
"""Self-tests of the benchmark, a few seconds in all:

  python3 perfbench/selftest.py

- the tiny version of every workload, timed (--trace 0) and traced
  (--trace 1), passes its output check with no failed lookups and reports
  every declared metric;
- a perturbed band makes the check fail and counts every lookup as failed;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Scratch files go under .bench_build/selftest/. Exit code 0 when all pass.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
WORKLOADS = ["paper_cycloid_2048", "churn_cycloid_ertf"]

failures = []


def expect(ok, what):
    print("%s  %s" % ("PASS" if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)] + list(extra)
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = bench(workload, trace, "--tiny")
            r = result(proc)
            label = "%s --trace %d" % (workload, trace)
            if r is None:
                expect(False, label + ": no result\n" + proc.stderr[-2000:])
                continue
            expect(proc.returncode == 0 and r["correct"] and r["failed"] == 0
                   and r["attempted"] > 0, label + ": correct, no failed lookups")
            names = [d["name"] for d in declared]
            expect(sorted(r["metrics"]) == sorted(names) and all(
                isinstance(r["metrics"][n]["value"], (int, float)) for n in names),
                label + ": every declared metric reported")

    os.makedirs(SCRATCH, exist_ok=True)
    with open(os.path.join(HERE, "bands.json")) as f:
        bands = json.load(f)
    band = bands["churn_cycloid_ertf"]["tiny"]["avg_path_length"]
    bands["churn_cycloid_ertf"]["tiny"]["avg_path_length"] = [band[1] + 1, band[1] + 2]
    perturbed = os.path.join(SCRATCH, "bands_perturbed.json")
    with open(perturbed, "w") as f:
        json.dump(bands, f)
    r = result(bench("churn_cycloid_ertf", 0, "--tiny", "--bands", perturbed))
    expect(r is not None and r["correct"] is False and r["attempted"] > 0
           and r["failed"] == r["attempted"],
           "perturbed band: check fails and every lookup counts as failed")

    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("paper_cycloid_2048", 0, cwd=bare)
    expect(proc.returncode != 0 and result(proc) is None,
           "bare directory: non-zero exit and no result")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
