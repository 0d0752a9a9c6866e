"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks that every workload emits exactly the metrics BENCHMARK.json
names, traced and untraced, and that a wrong determinant or a wrong
family count is counted as failed instead of passing or stopping the run.
"""

from __future__ import annotations

import json
import sys
import unittest
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_package()

import tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def patched_everywhere(module, attr, make_wrong):
    """Replace a function in every quasi3 module that binds it."""
    owner, attr, original = tracer.resolve(module, attr)
    stack = ExitStack()
    for target, key in tracer.bindings(owner, original):
        stack.enter_context(mock.patch.object(target, key, make_wrong(original)))
    return stack


def off_by_one(original):
    return lambda *args, **kwargs: original(*args, **kwargs) + 1


class Smoke(unittest.TestCase):
    def test_every_metric_is_emitted(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    line, details = run.run(workload, 1, 0, trace, tiny=True)
                    self.assertTrue(line["correct"], details["failures"])
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    got = {k: v["unit"] for k, v in line["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertEqual(details["failed_frac"], 0)
                    self.assertEqual(details["unchecked_frac"], 0)

    def test_wrong_determinant_fails(self):
        for workload in ("basis", "identities"):
            with self.subTest(workload=workload):
                with patched_everywhere("quasi3.linsys", "det_exact", off_by_one):
                    line, details = run.run(workload, 1, 0, 0, tiny=True)
                self.assertFalse(line["correct"])
                self.assertGreater(details["failed_frac"], 0)

    def test_wrong_family_count_fails(self):
        with patched_everywhere("quasi3._pypaths", "family_count", off_by_one):
            line, details = run.run("identities", 1, 0, 0, tiny=True)
        self.assertFalse(line["correct"])
        self.assertGreater(details["failed_frac"], 0)


if __name__ == "__main__":
    unittest.main()
