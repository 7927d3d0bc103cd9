#!/usr/bin/env python3
"""Self-tests of the benchmark, on the tiny size of every workload.

    python3 perfbench/test_perfbench.py

Builds the binaries like a benchmark run does; everything else takes
seconds.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class PerfbenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bins = run.build()
        assert cls.bins is not None, "build failed"
        cls.work = run.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
        cls.work.mkdir(parents=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def workdir(self, name):
        path = self.work / name
        path.mkdir()
        return path

    def test_every_metric_is_printed_with_its_unit(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
                    )
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], proc.stderr[-2000:])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in spec[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)

    def test_generator_is_seeded_and_stays_within_the_error_budget(self):
        wl = run.Workload("emmy-60d-dirty", "tiny", 7, self.bins, self.workdir("gen"))
        _, first = wl.setup(0)
        _, again = wl.setup(1)
        for name in ("jobs.csv", "system.csv"):
            self.assertEqual((first / name).read_bytes(), (again / name).read_bytes(), name)
        other = run.Workload("emmy-60d-dirty", "tiny", 8, self.bins, self.workdir("gen-8"))
        _, other_dir = other.setup(0)
        self.assertNotEqual((first / "jobs.csv").read_bytes(), (other_dir / "jobs.csv").read_bytes())

        # Every torn row is quarantined, and the full size stays within the
        # CLI's default error budget of 1000 rows.
        times, _ = wl.run_pass(wl.work / "pass", first)
        self.assertEqual(times["ingest"]["rc"], 0)
        quality = json.loads((wl.work / "pass" / "ingested" / "quality.json").read_text())
        torn = run.SIZES["tiny"]["gen"]["torn"]
        self.assertEqual(quality["rows_quarantined"], torn + torn // 4)
        full_torn = run.SIZES["full"]["gen"]["torn"]
        self.assertLessEqual(full_torn + full_torn // 4, 1000)

    def test_altered_report_trips_the_correctness_check(self):
        wl = run.Workload("emmy-60d-serial", "tiny", 7, self.bins, self.workdir("alter"))
        self.assertIsNotNone(wl.pinned, "tiny digests must be pinned for the default seed")
        _, gen_dir = wl.setup(0)
        pass_dir = wl.work / "pass"
        times, outputs = wl.run_pass(pass_dir, gen_dir)
        self.assertTrue(all(t["rc"] == 0 for t in times.values()))
        self.assertEqual(run.check_pass(outputs, None, wl.pinned), [])

        report = pass_dir / "report.txt"
        text = report.read_text()
        i = max(k for k, c in enumerate(text) if c.isdigit())
        report.write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])
        altered = run.collect_outputs(pass_dir)
        against_pin = run.check_pass(altered, None, wl.pinned)
        self.assertTrue(any("report digest" in p for p in against_pin), against_pin)
        against_first = run.check_pass(altered, outputs, None)
        self.assertTrue(any("report differs" in p for p in against_first), against_first)


if __name__ == "__main__":
    unittest.main()
