#!/usr/bin/env python3
"""Tests of scripts/timeseries.py on real sampler output.

Usage: test_timeseries.py PREFIX [unittest args, e.g. a test name]

PREFIX is where the obs.record.* ctests wrote their files:
PREFIX{mcf,mcf_proposed,mcf_repeat}.jsonl, each from `tacsim-trace
record --benchmark mcf` (the second with --proposed) at 20000
instructions, 5000 warm-up and one sample per 2000 instructions.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "scripts", "timeseries.py")
PREFIX = ""

# Counters that only grow within the measured window.
MONOTONIC = re.compile(
    r"(.*\.(accesses|hits|misses)\..*|ptw\.reads\..*|core\.retired)$")


def run(*args):
    return subprocess.run([sys.executable, SCRIPT, *args],
                          capture_output=True, text=True)


def path(name):
    return f"{PREFIX}{name}.jsonl"


class TimeSeriesTest(unittest.TestCase):
    def test_summarize(self):
        r = run("summarize", path("mcf"))
        self.assertEqual(r.returncode, 0, r.stderr)
        lines = r.stdout.splitlines()
        self.assertEqual(lines[0], f"file       {path('mcf')}")
        self.assertEqual(lines[1], "label      mcf")
        self.assertEqual(lines[2], "interval   2000")
        for n, key in enumerate(("columns", "samples", "resets", "range"),
                                3):
            self.assertRegex(lines[n], rf"^{key} +\S")
        self.assertRegex(r.stdout, r"\nmetric +first +last +delta\n")

    def test_diff_repeat(self):
        r = run("diff", path("mcf"), path("mcf_repeat"))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("final samples identical", r.stdout)

    def test_diff_proposed(self):
        r = run("diff", path("mcf"), path("mcf_proposed"))
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn(f"only in {path('mcf')}: l2c.repl.drrip.psel",
                      r.stderr)
        self.assertIn(
            f"only in {path('mcf_proposed')}: l2c.repl.tdrrip.psel",
            r.stderr)

    def test_measured_window(self):
        # The window opens at the first sample after the reset marker.
        after_reset = None
        with open(path("mcf_proposed"), encoding="utf-8") as f:
            for line in f:
                rec = json.loads(line)
                if rec.get("event") == "reset":
                    after_reset = None
                elif "v" in rec and after_reset is None:
                    after_reset = rec
        self.assertIsNotNone(after_reset)
        r = run("summarize", path("mcf_proposed"), "--all")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn(f"resets     1\nrange      i={after_reset['i']}..",
                      r.stdout)
        rows = r.stdout.split("\nmetric ")[1].splitlines()[1:]
        checked = 0
        for row in rows:
            name, first, last, delta = row.split()
            if MONOTONIC.match(name):
                checked += 1
                self.assertGreaterEqual(float(delta), 0, row)
        self.assertGreater(checked, 0)

    def test_malformed_files(self):
        with open(path("mcf"), encoding="utf-8") as f:
            header = f.readline()
        with tempfile.TemporaryDirectory() as tmp:
            cases = {
                "no_header.jsonl": '{"i":1,"c":1,"v":[]}\n',
                "short_sample.jsonl": header + '{"i":1,"c":1,"v":[1,2]}\n',
            }
            for name, body in cases.items():
                bad = os.path.join(tmp, name)
                with open(bad, "w", encoding="utf-8") as f:
                    f.write(body)
                for args in (("summarize", bad), ("diff", bad, path("mcf"))):
                    r = run(*args)
                    self.assertEqual(r.returncode, 1, (args, r.stderr))
                    self.assertIn(f"timeseries: {bad}: ", r.stderr)

    def test_usage_errors(self):
        for args in ((), ("summarize",), ("diff", path("mcf")),
                     ("summarize", path("mcf"), "--filter"),
                     ("stats", path("mcf"))):
            r = run(*args)
            self.assertEqual(r.returncode, 2, (args, r.stderr))
            self.assertIn("usage:", r.stderr)


if __name__ == "__main__":
    PREFIX = sys.argv.pop(1)
    unittest.main()
