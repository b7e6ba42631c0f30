#!/usr/bin/env python3
"""Runs one workload of the HovercRaft benchmark and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/hcbench from the repository's sources (CMake, Release) on
first use, runs the workload for S seconds of host time, prints every metric
with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (BENCHMARK.json lists both). Exits nonzero, without the JSON
line, if the build fails; exits nonzero after the JSON line if a correctness
or determinism check failed.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out_dir):
    """Configures and builds hcbench; returns its path or exits nonzero."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: simulator sources not found under {ROOT / 'src'}")
    out_dir.mkdir(parents=True, exist_ok=True)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = out_dir / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log_path = out_dir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode != 0:
                log.close()
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit(f"run.py: build failed (log: {log_path})")
    return out_dir / "hcbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = out_dir / "spans" / f"{args.workload}-seed{args.seed}.tsv"
        spans.parent.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S}s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"run.py: hcbench printed no result (exit {proc.returncode})")
    result = json.loads(lines[-1])

    metrics = result["per_layer" if args.trace == "1" else "end_to_end"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {args.trace}  "
          f"sub-run seeds {result['sub_seeds']}")
    print(f"reps {result['reps']} untraced, {result['traced_reps']} traced, "
          f"{result['wall_s']:.1f} s; sim_digest {result['sim_digest']}")
    print(f"requests in window: sent {result['sent']}, completed {result['completed']}, "
          f"nacked {result['nacked']}, lost {result['lost']}")
    walls, probes = result["wall_ns_per_req_reps"], result["probe_ns_reps"]
    if walls:
        print(f"unscaled wall ns/req median {statistics.median(walls):.0f}, "
              f"probe median {statistics.median(probes):.0f} ns, over {len(walls)} reps")
    shown = dict(result["end_to_end"])
    # Zero on most workloads, so not gated; sim_ok_frac and sim_slo_met_frac
    # are their complements.
    shown["failed_frac"] = {"value": result["failed_frac"], "unit": "fraction"}
    shown["slo_miss_frac"] = {"value": result["slo_miss_frac"], "unit": "fraction"}
    if args.trace == "1":
        print("end to end, from this run's untraced reps:")
    for name, m in shown.items():
        note = f"  (n={result['latency_samples']})" if name.startswith("sim_p") else ""
        print(f"  {name:36s} {m['value']:16.6g} {m['unit']}{note}")
    if args.trace == "1":
        print("per layer:")
        for name, m in metrics.items():
            print(f"  {name:36s} {m['value']:16.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
