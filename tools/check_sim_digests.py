#!/usr/bin/env python3
"""Checks the benchmark's simulated output against the committed digests.

    python3 tools/check_sim_digests.py [--update]

Builds perfbench/hcbench with perfbench/run.py's own build step, runs every
workload and seed listed in tools/sim_digests.json with a one-second budget
(one untraced rep of each of the workload's fixed sub-runs) and compares the
run's sim_digest with the table. Exits 1 if any digest differs or a run
fails its correctness checks. A change that means to move simulated output
reruns this with --update and says so in CHANGES.md.
"""

import argparse
import importlib.util
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TABLE = ROOT / "tools" / "sim_digests.json"
RUN_TIMEOUT_S = 300


def load_run_py():
    sys.dont_write_bytecode = True  # leave no cache files in perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(binary, workload, seed):
    """The run's sim_digest, or None if it failed."""
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])["sim_digest"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the table with this checkout's digests")
    args = parser.parse_args()

    table = json.loads(TABLE.read_text())
    run_py = load_run_py()
    binary = run_py.build(run_py.build_dir())
    failures = 0
    for workload, by_seed in table["digests"].items():
        for seed, want in by_seed.items():
            got = digest(binary, workload, int(seed))
            if got is None:
                print(f"FAILED  {workload} seed {seed}: the run failed")
                failures += 1
            elif got == want:
                print(f"ok      {workload} seed {seed}: {got}")
            elif args.update:
                print(f"updated {workload} seed {seed}: {want} -> {got}")
                by_seed[seed] = got
            else:
                print(f"DIFFERS {workload} seed {seed}: {got}, table has {want}")
                failures += 1
    if args.update and failures == 0:
        TABLE.write_text(json.dumps(table, indent=2) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
