#!/usr/bin/env python3
"""Repository benchmark: builds the driver, runs one workload, checks its
outputs and prints one JSON result line (README.md has the details).

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 times the workload end to end: several build-only set-ups, then
fresh-process runs until S seconds have passed; it reports medians of
wall_s, setup_s, lookups_per_s and peak_rss_mib. --trace 1 makes the traced
run instead: a plain run, a run with the wire meter attached, and the layer
driver; it reports the per-layer metrics and writes the spans to
.bench_build/traces/.

Self-test options: --tiny runs the seconds-long variant of the workload,
--bands FILE replaces perfbench/bands.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")

# Build-only repetitions per --trace 0 run; setup_s is their median.
SETUP_REPS = {"paper_cycloid_2048": 25, "churn_cycloid_ertf": 3}
# Timed runs per --trace 0 run, at least: wall_s is their median.
MIN_RUNS = 3

# Message types, indexed as wire::MsgType.
PROBE, FORWARD, ADAPT_GROW, BACKWARD_ADD, BACKWARD_DROP, JOIN, LEAVE = (
    0, 2, 4, 5, 6, 7, 8)


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def driver(mode, args, *extra):
    cmd = [DRIVER, mode, "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    cmd += [str(e) for e in extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(run, bands):
    """Model-output check of one run: every lookup settled, and each banded
    output inside its band. Returns the list of failures."""
    problems = []
    settled = run["completed"] + run["dropped"]
    # Averaged runs round completed and dropped separately.
    slack = 1 if run["seeds"] > 1 else 0
    if abs(settled - run["lookups_per_seed"]) > slack:
        problems.append("settled %d of %d lookups" % (settled, run["lookups_per_seed"]))
    for key, (lo, hi) in sorted(bands.items()):
        if not lo <= run[key] <= hi:
            problems.append("%s = %s outside [%s, %s]" % (key, run[key], lo, hi))
    return problems


class Ledger:
    """Counts lookups attempted and failed over the checked runs. A lookup
    fails when it did not complete; every lookup of a run whose check fails
    counts as failed."""

    def __init__(self, bands):
        self.bands = bands
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def add(self, label, run):
        problems = check(run, self.bands)
        total = run["lookups_total"]
        self.attempted += total
        if problems:
            self.correct = False
            self.failed += total
            for p in problems:
                log("CHECK FAILED (%s): %s" % (label, p))
        else:
            completed = round(run["completed"] * run["seeds"])
            self.failed += max(0, total - completed)
        log("%s: wall %.3f s, digest %s, %s" % (label, run["wall_s"], run["digest"], ", ".join(
            "%s %s" % (k, run[k]) for k in ("completed", "dropped", "avg_path_length",
                                            "p99_max_congestion", "adapt_sheds",
                                            "adapt_grows", "audit_violations"))))

    def require(self, ok, what):
        if not ok:
            self.correct = False
            log("CHECK FAILED: " + what)


def end_to_end(args, ledger):
    setup = driver("setup", args, "--reps", SETUP_REPS[args.workload])["setup_s"]
    runs = []
    start = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - start < args.seconds:
        run = driver("run", args)
        ledger.add("run %d" % len(runs), run)
        runs.append(run)
    ledger.require(len({r["digest"] for r in runs}) == 1,
                   "repeated runs of one seed gave different digests")
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(setup),
        "lookups_per_s": statistics.median(
            (r["completed"] + r["dropped"]) * r["seeds"] / r["wall_s"] for r in runs),
        "peak_rss_mib": statistics.median(r["peak_rss_kib"] / 1024.0 for r in runs),
    }


class Spans:
    """In-memory spans (name, start, end, parent) in seconds from the start
    of the traced run."""

    def __init__(self):
        self.origin = time.monotonic()
        self.spans = []

    def timed(self, name, parent, fn):
        idx = len(self.spans)
        self.spans.append({"name": name, "start": time.monotonic() - self.origin,
                           "end": None, "parent": parent})
        result = fn()
        self.spans[idx]["end"] = time.monotonic() - self.origin
        return idx, result

    def graft(self, parent, children):
        """Adds the layer driver's spans (microseconds from its own start)
        under `parent`, aligned to the parent's start."""
        base = self.spans[parent]["start"]
        offset = len(self.spans)
        for c in children:
            self.spans.append({
                "name": c["name"], "start": base + c["start_us"] / 1e6,
                "end": base + c["end_us"] / 1e6,
                "parent": parent if c["parent"] < 0 else offset + c["parent"]})

    def self_times(self):
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] >= 0:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def write(self, path, workload):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps(dict(s, id=i, workload=workload)) + "\n")


def traced(args, ledger):
    spans = Spans()
    root = len(spans.spans)
    spans.spans.append({"name": "traced_run", "start": 0.0, "end": None, "parent": -1})
    _, plain = spans.timed("run.plain", root, lambda: driver("run", args))
    ledger.add("plain run", plain)
    _, metered = spans.timed("run.metered", root, lambda: driver("run", args, "--meter"))
    ledger.add("metered run", metered)
    ledger.require(metered["digest"] == plain["digest"],
                   "metered run's outputs differ from the plain run's")

    seeds = plain["seeds"]
    msgs = metered["wire"]["msg_count"]
    probes = msgs[PROBE]
    # Little's law: lookups in flight = arrival rate x mean lookup time.
    pending = plain["lookup_rate"] * plain["lookup_time_mean"]
    heavy_ratio = plain["heavy_encounters"] / probes if probes else 0.0
    # Algorithm-3 sweeps per seed, and the share of nodes that shed or
    # decide to grow in one of them (every grow decision sends an AdaptGrow).
    sweeps = int(plain["sim_duration"] / plain["adapt_period"]) if plain["adaptive"] else 0
    node_sweeps = max(1, sweeps * plain["nodes"])
    shed_share = plain["adapt_sheds"] / node_sweeps
    grow_share = min(1.0 - shed_share, msgs[ADAPT_GROW] / node_sweeps)
    layers_idx, layers = spans.timed("layers.process", root, lambda: driver(
        "layers", args, "--pending", "%.3f" % pending,
        "--heavy-share", "%.6f" % min(1.0, heavy_ratio),
        "--shed-share", "%.6f" % shed_share, "--grow-share", "%.6f" % grow_share))
    spans.graft(layers_idx, layers["spans"])
    spans.spans[root]["end"] = time.monotonic() - spans.origin

    m = dict(layers["metrics"])
    fault_hit = plain["faults_recovered"] + plain["dropped_fault"]
    m.update({
        "overlay.route_steps": msgs[FORWARD] * seeds,
        "ert.forward.probes": probes * seeds,
        "ert.forward.probes_per_hop": probes / msgs[FORWARD] if msgs[FORWARD] else 0.0,
        "ert.forward.heavy_ratio": heavy_ratio,
        "ert.adapt.sweeps": sweeps * seeds,
        # Per seed: the seeds of an averaged run execute side by side.
        "ert.adapt.sweep_share": sweeps * m["ert.adapt.sweep_ms"] / 1e3 / plain["wall_s"],
        "ert.adapt.sheds": plain["adapt_sheds"] * seeds,
        "ert.adapt.grows": plain["adapt_grows"] * seeds,
        "ert.adapt.grow_yield": (plain["adapt_grows"] / msgs[ADAPT_GROW]
                                 if msgs[ADAPT_GROW] else 0.0),
        "ert.adapt.link_writes": (msgs[BACKWARD_ADD] + msgs[BACKWARD_DROP]) * seeds,
        "harness.churn.joins": msgs[JOIN] * seeds,
        "harness.churn.leaves": msgs[LEAVE] * seeds,
        "harness.faults.retries": plain["faults_retried"] * seeds,
        "harness.faults.recovered_ratio": (plain["faults_recovered"] / fault_hit
                                           if fault_hit else 0.0),
        "harness.audit.sweeps": plain["audit_sweeps"],
        "sim.pending_events": pending,
        "wire.control_bytes": metered["wire"]["control_bytes"] * seeds,
        "wire.query_bytes": metered["wire"]["query_bytes"] * seeds,
        "trace.overhead": metered["wall_s"] / plain["wall_s"] - 1.0,
    })
    if plain["audit_enabled"]:
        ledger.require(plain["audit_sweeps"] > 0 and plain["audit_violations"] == 0,
                       "audit not clean")

    path = os.path.join(TRACE_DIR, "%s-seed%d.spans.jsonl" % (args.workload, args.seed))
    spans.write(path, args.workload)
    log("self time per span (s), spans in %s:" % os.path.relpath(path, ROOT))
    for s, own in zip(spans.spans, spans.self_times()):
        log("  %-36s %9.4f" % (s["name"], own))
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUP_REPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--bands", default=os.path.join(HERE, "bands.json"))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed wants a non-negative integer")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(args.bands) as f:
            bands = json.load(f)[args.workload]["tiny" if args.tiny else "full"]
        build()
        ledger = Ledger(bands)
        if args.trace:
            values, declared = traced(args, ledger), spec["per_layer"]
        else:
            values, declared = end_to_end(args, ledger), spec["end_to_end"]
        missing = [d["name"] for d in declared if d["name"] not in values]
        if missing:
            raise BenchError("metrics not produced: " + ", ".join(missing))
    except (BenchError, OSError, KeyError, ValueError) as e:
        log("perfbench: " + str(e))
        return 1
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
               for d in declared}
    print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
