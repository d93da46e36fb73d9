"""``BENCHMARK.json`` is the spec written out, within the contract's limits."""

import json
import re
import unittest
from pathlib import Path

import spec
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class BenchmarkJson(unittest.TestCase):
    def test_committed_document_equals_the_spec(self):
        committed = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(committed, spec.benchmark_json())

    def test_contract_limits(self):
        doc = spec.benchmark_json()
        self.assertTrue(2 <= len(doc["workloads"]) <= 8)
        self.assertTrue(1 <= len(doc["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(doc["per_layer"]) <= 128)
        self.assertTrue(1 <= doc["run_seconds"] <= 60)
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in doc[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in doc["end_to_end"] + doc["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        for metric in doc["end_to_end"]:
            self.assertTrue(0 < metric["bound"] <= 0.25)
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower",
                       "bound": max(m["bound"] for m in doc["end_to_end"])}, doc["end_to_end"])
        for workload in doc["workloads"]:
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])
        self.assertLess(len(json.dumps(doc)), 64 * 1024)

    def test_every_named_workload_is_implemented(self):
        self.assertEqual(set(spec.WORKLOAD_NAMES), set(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
