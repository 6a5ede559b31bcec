#!/usr/bin/env python3
"""The benchmark's own tests: a reduced-size smoke run of every workload.

Run from the repository root:

    python3 perfbench/test_bench.py

Checks that BENCHMARK.json is well formed, that every metric it names is
printed with its unit (end-to-end metrics untraced, per-layer metrics
traced), that every known answer holds, that the traced run reproduces the
untraced run's per-row counts, and that the command fails without a result
when only the benchmark's own files are present.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, trace, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def rows(stdout):
    """Per-row lines without their timing fields."""
    out = []
    for line in stdout.splitlines():
        if line.startswith("row "):
            fields = [f for f in line.split()
                      if not f.startswith(("seconds=", "largest_share="))]
            out.append(" ".join(fields))
    return out


class BenchmarkJson(unittest.TestCase):
    def test_contract(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertIn(SPEC["run_seconds"], range(1, 61))
        names = []
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            names.append(w["name"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            names.append(m["name"])
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class SmokeRuns(unittest.TestCase):
    def check_result(self, proc, declared):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
        return result

    def test_every_workload(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                plain = run(w["name"], 0)
                result = self.check_result(plain, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])
                traced = run(w["name"], 1)
                self.check_result(traced, SPEC["per_layer"])
                # Both runs report the untraced passes' rows; the traced run
                # itself fails unless its traced passes reproduce them.
                self.assertTrue(rows(plain.stdout))
                self.assertEqual(rows(plain.stdout), rows(traced.stdout))

    def test_fails_without_checker_sources(self):
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("tmp*",
                                                          "__pycache__"))
            proc = run("fig7_rf", 0, cwd=tmp,
                       script=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
