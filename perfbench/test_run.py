"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Checks that BENCHMARK.json keeps to its naming rules, that a short run of
every workload passes its correctness checks and reports every end-to-end
metric with its unit, that a traced run reports every per-layer metric, that
the simulated digest repeats for a seed (traced or not), and that the
benchmark refuses to run without the simulator's sources. The short runs
build hcbench on first use.
"""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, seed=1, run_py=HERE / "run.py", env=None):
    """One short run; returns (process, result).

    With a one-second budget a run still makes one pass over the workload's
    sub-runs (two, one traced, per sub-run with --trace 1), so every check
    runs on the same simulated experiments as a full run.
    """
    proc = subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, env=env)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def digest_of(proc):
    return re.search(r"sim_digest ([0-9a-f]{16})", proc.stdout).group(1)


class SpecTest(unittest.TestCase):
    def test_names_and_units_follow_the_rules(self):
        s = spec()
        names = [w["name"] for w in s["workloads"]]
        names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in s["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
            self.assertGreater(m["bound"], 0)
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")


class ShortRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {w["name"]: run(w["name"], 0) for w in spec()["workloads"]}

    def test_every_workload_is_correct(self):
        for name, (proc, result) in self.runs.items():
            with self.subTest(workload=name):
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)

    def test_every_end_to_end_metric_has_unit_and_direction(self):
        e2e = {m["name"]: m for m in spec()["end_to_end"]}
        for name, (_, result) in self.runs.items():
            with self.subTest(workload=name):
                self.assertEqual(set(result["metrics"]), set(e2e))
                for metric, m in result["metrics"].items():
                    self.assertEqual(m["unit"], e2e[metric]["unit"])
                    self.assertIn(e2e[metric]["better"], ("higher", "lower"))
                    self.assertGreater(m["value"], 0, metric)

    def test_traced_run_reports_every_per_layer_metric_and_same_digest(self):
        proc, result = run("fig7-hc3-600k", 1)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        per_layer = {m["name"]: m for m in spec()["per_layer"]}
        self.assertEqual(set(result["metrics"]), set(per_layer))
        for metric, m in result["metrics"].items():
            self.assertEqual(m["unit"], per_layer[metric]["unit"])
        # The run compares each traced rep's digest with the untraced rep of
        # the same sub-run and fails on a difference.
        self.assertTrue(result["correct"])
        self.assertNotIn("determinism", proc.stdout)

    def test_same_seed_same_digest_other_seed_other_digest(self):
        again, _ = run("fig7-hc3-600k", 0)
        self.assertEqual(digest_of(again), digest_of(self.runs["fig7-hc3-600k"][0]))
        other, _ = run("fig7-hc3-600k", 0, seed=2)
        self.assertNotEqual(digest_of(other), digest_of(again))


class MissingSourcesTest(unittest.TestCase):
    def test_refuses_without_simulator_sources(self):
        alone = ROOT / ".bench_build" / "test-alone"
        shutil.rmtree(alone, ignore_errors=True)
        shutil.copytree(HERE, alone / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", alone)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        try:
            proc, result = run("fig7-hc3-600k", 0, run_py=alone / "perfbench" / "run.py", env=env)
        finally:
            shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
