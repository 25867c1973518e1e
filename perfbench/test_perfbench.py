"""Smoke-scale tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Runs run.py at smoke scale (2x2 sizing, 2x2 certified, 3x3 hunt at
capacity <= 4), each in seconds, and checks the contract it promises: every
metric named in BENCHMARK.json is printed with its unit, a wrong reference
counts as failed operations, the determinism guard catches a perturbed
counter, and the trace's spans nest with non-negative self times.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload, *extra, trace=0):
    out = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--scale", "smoke", *extra],
        cwd=run.ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


class PerfbenchSmoke(unittest.TestCase):
    def setUp(self):
        run.build_root().mkdir(parents=True, exist_ok=True)
        self.state = Path(tempfile.mkdtemp(dir=run.build_root()))

    def tearDown(self):
        shutil.rmtree(self.state)

    def test_every_metric_printed_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    res = bench(workload, "--state-dir", str(self.state),
                                trace=trace)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreater(res["attempted"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)

    def test_wrong_reference_counts_every_task_failed(self):
        res = bench("sizing_4x4", "--state-dir", str(self.state),
                    "--reference-offset", "1")
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], res["attempted"])

    def test_determinism_guard_catches_a_perturbed_counter(self):
        args = ("certified_3x3", "--state-dir", str(self.state))
        self.assertTrue(bench(*args)["correct"])
        self.assertTrue(bench(*args, trace=1)["correct"])
        (state_file,) = self.state.rglob("*.json")
        state = json.loads(state_file.read_text())
        state["exact"][0]["check_steps"] += 1
        state_file.write_text(json.dumps(state))
        res = bench(*args)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 0)

    def test_check_counters_reports_each_mismatch(self):
        f = self.state / "c.json"
        counters = [{"id": "d0", "conflicts": 5, "probes": "1s 2u"}]
        self.assertEqual(run.check_counters(f, counters), [])
        self.assertEqual(run.check_counters(f, counters), [])
        moved = [{"id": "d0", "conflicts": 6, "probes": "1s 2u"}]
        self.assertEqual(run.check_counters(f, moved),
                         ["d0.conflicts: 5 -> 6"])

    def test_spans_nest_and_self_times_are_non_negative(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                bench(workload, "--state-dir", str(self.state), trace=1)
                trace = (run.build_root() / "perfbench-traces" /
                         f"{workload}-smoke-seed1.trace.json")
                spans = run.load_spans(trace)
                self.assertGreater(len(spans), 0)
                for s in spans:
                    self.assertLessEqual(s["start"], s["end"])
                    if s["parent"] >= 0:
                        p = spans[s["parent"]]
                        self.assertLessEqual(p["start"], s["start"])
                        self.assertLessEqual(s["end"], p["end"])
                for self_s in run.self_times(spans):
                    self.assertGreaterEqual(self_s, -1e-6)


if __name__ == "__main__":
    unittest.main()
