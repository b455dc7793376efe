"""Self-tests of the benchmark, kept apart from the package's test suite.

Run from the repository root (takes about two minutes):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_benchmark(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed(self):
        for section in ("workloads", "end_to_end", "per_layer"):
            for entry in BENCHMARK[section]:
                self.assertIsNotNone(NAME.fullmatch(entry["name"]), entry["name"])

    def test_workloads_match_the_command(self):
        sys.path.insert(0, str(ROOT / "src"))
        sys.path.insert(0, str(HERE))
        import workloads

        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(workloads.WORKLOADS))


class EveryMetricIsPrinted(unittest.TestCase):
    def test_each_workload_prints_every_metric_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            for workload in (w["name"] for w in BENCHMARK["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    result = run_benchmark(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    printed = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(printed, expected)


class DigestGate(unittest.TestCase):
    def test_corrupted_reference_digest_counts_as_failure(self):
        reference = json.loads((HERE / "reference.json").read_text())
        digests = reference["mc-sampling"]
        corrupted = {key: ("0" * 64 if i % 2 == 0 else digest) for i, (key, digest) in enumerate(sorted(digests.items()))}
        path = HERE / "out" / "corrupted-reference.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({**reference, "mc-sampling": corrupted}))
        result = run_benchmark("mc-sampling", 0, "--reference", str(path))
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
