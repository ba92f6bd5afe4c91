#!/usr/bin/env python3
"""Build the Kondo benchmark from source and run one workload of it.

    python3 perfbench/run.py --workload debloat-ard --seed 1 --seconds 20 --trace 0

Run from the repository root. The Go benchmark (this directory, its own
module) is built into .bench_build/ with a build cache there too, then
run in a fresh process per workload so that its peak memory is its own.
The result is the last line of standard output.

    python3 perfbench/run.py --check

runs every workload twice on the default seed and once on another, and
fails unless the fixed seed reproduces the quality metrics and the
exact counts, and every run reports exactly the metrics BENCHMARK.json
lists.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")
TMP = os.path.join(BUILD, "tmp")
RUN_TIMEOUT = 170  # seconds; a run must end well within 180

WORKLOADS = ["debloat-ard", "debloat-audit", "recover-hot", "recover-miss"]

# Metrics a fixed seed must reproduce bit for bit.
REPRODUCIBLE_E2E = ["recall", "precision", "kept_bytes_ratio", "valuation_ok_ratio", "success_rate"]
REPRODUCIBLE_LAYER = [
    "fuzz.evals", "fuzz.dedup_skips", "trace.events", "debloat.misses", "debloat.kept_bytes",
    "carve.points", "carve.cells", "carve.merge_passes", "carve.merges", "carve.pair_tests",
    "carve.prune_hits", "carve.hulls", "carve.raster_point_tests", "carve.raster_runs",
]
REPRODUCIBLE_HOT = ["runtime.alloc_bytes_per_read", "runtime.allocs_per_read"]
# Heap counts of a pass are reproducible only up to a few runtime
# allocations whose timing depends on the scheduler (see heapPerRead in
# reads.go); identical runs differ by up to 96 bytes in 2 allocations.
# The slack is per pass of HOT_PASS_READS reads (tracedHotReads in
# workloads.go).
HOT_PASS_READS = 20000
HEAP_SLACK = {"runtime.alloc_bytes_per_read": 256, "runtime.allocs_per_read": 8}


def build():
    """Builds the benchmark binary; go build is incremental after the first run."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=TMP,
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    os.makedirs(TMP, exist_ok=True)
    return subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=env).returncode == 0


def run_workload(workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, stdout lines)."""
    work = os.path.join(BUILD, "work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [BIN, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--dir", work]
    if trace:
        cmd += ["--spans", os.path.join(BUILD, "spans-%s-%d.jsonl" % (workload, seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=dict(os.environ, TMPDIR=TMP))

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        sys.exit(128 + signum)

    old = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: %s timed out after %d s" % (workload, RUN_TIMEOUT), file=sys.stderr)
        return 1, []
    finally:
        for s, h in old.items():
            signal.signal(s, h)
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, out.splitlines()


def last_result(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def check():
    """Runs the determinism and metric-set checks; returns an exit code."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    seconds = 4
    failures = []
    for w in WORKLOADS:
        results = {}
        for trace in (0, 1):
            for seed, rep in ((1, 0), (1, 1), (2, 0)):
                code, lines = run_workload(w, seed, seconds, trace)
                res = last_result(lines)
                if code != 0 or res is None or not res["correct"]:
                    failures.append("%s seed %d trace %d: exit %d, result %r" % (w, seed, trace, code, res))
                    continue
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != want[trace]:
                    failures.append("%s trace %d: metrics %s differ from BENCHMARK.json" % (w, trace, sorted(set(got) ^ set(want[trace]))))
                results[(trace, seed, rep)] = res["metrics"]
        exact = [(0, REPRODUCIBLE_E2E), (1, REPRODUCIBLE_LAYER + (REPRODUCIBLE_HOT if w == "recover-hot" else []))]
        for trace, names in exact:
            a, b = results.get((trace, 1, 0)), results.get((trace, 1, 1))
            if a is None or b is None:
                continue
            for n in names:
                slack = 0
                if n in HEAP_SLACK:
                    slack = (HEAP_SLACK[n] + 1e-6) / HOT_PASS_READS
                if abs(a[n]["value"] - b[n]["value"]) > slack:
                    failures.append("%s: seed 1 gave %s = %r, then %r" % (w, n, a[n]["value"], b[n]["value"]))
        a, c = results.get((0, 1, 0)), results.get((0, 2, 0))
        if a is not None and c is not None:
            print("%s: seed 1 vs seed 2: %s" % (w, ", ".join(
                "%s %.6g/%.6g" % (n, a[n]["value"], c[n]["value"]) for n in REPRODUCIBLE_E2E)))
        print("%s: checked" % w, file=sys.stderr)
    for f in failures:
        print("run.py: check failed: " + f, file=sys.stderr)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true", help="run the determinism checks")
    args = ap.parse_args()
    if not args.check and args.workload is None:
        ap.error("--workload or --check is required")
    if not os.path.exists(os.path.join(ROOT, "go.mod")):
        print("run.py: no Kondo module at %s; run from a checkout of the repository" % ROOT, file=sys.stderr)
        return 2
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    if args.check:
        return check()
    code, lines = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
