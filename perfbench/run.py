#!/usr/bin/env python3
"""Runs the wf benchmark: builds wf_perfbench from the repository
sources, runs each phase (serve_poisson, retarget_adapt, index_churn) in its
own process, and prints one JSON result line.

    python3 perfbench/run.py --workload dram --seed 1 --seconds 36 --trace 0

With --trace 0 the result holds every end-to-end metric of BENCHMARK.json,
with --trace 1 every per-layer metric. The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the line
before it stamps the environment. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Share of --seconds each phase measures for.
PHASES = [("serve_poisson", 0.2), ("retarget_adapt", 0.45), ("index_churn", 0.35)]
PHASE_TIMEOUT_S = 150


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                    "--target", "wf_perfbench", "perfbench_selftest"],
                   check=True, stdout=sys.stderr)


def run_phase(binary, phase, args, seconds, work_dir):
    command = [binary, "--phase", phase, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace), "--work-dir", work_dir]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=PHASE_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("phase %s exited with code %d" % (phase, done.returncode), 1)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    for needed in ("CMakeLists.txt", "include/wf", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no wf source tree next to perfbench/ (missing %s)" % needed)
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                             "perfbench")
    try:
        build(build_dir)
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e, 1)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")], stdout=sys.stderr)
    correct = selftest.returncode == 0

    run_dir = os.path.join(build_dir, "runs", "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                                     args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    merged = {}
    attempted = 0
    failed = 0
    env = None
    for phase, share in PHASES:
        result = run_phase(os.path.join(build_dir, "wf_perfbench"), phase, args,
                           share * args.seconds, os.path.join(run_dir, phase))
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        env = result["env"]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        # Set-up time and memory are per phase; the end-to-end figures are
        # the sum of set-up times and the largest peak.
        merged["setup." + phase + "_s"] = metrics.pop("setup_s")
        merged["rss." + phase + "_mb"] = metrics.pop("peak_rss_mb")
        merged.update(metrics)
    merged["setup_s"] = sum(merged["setup.%s_s" % p] for p, _ in PHASES)
    merged["peak_rss_mb"] = max(merged["rss.%s_mb" % p] for p, _ in PHASES)
    overheads = [merged[k] for k in merged if k.startswith("obs.trace_overhead_pct.")]
    if overheads:
        merged["obs.trace_overhead_pct"] = sum(overheads) / len(overheads)

    out = {}
    for metric in wanted:
        value = merged.get(metric["name"])
        if value is None or not math.isfinite(value):
            fail("metric %s was not measured" % metric["name"], 1)
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed}))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": out}))


if __name__ == "__main__":
    main()
