"""Toy-size self-test of the benchmark harness (about half a minute).

Usage (from the repository root):  python3 perfbench/selftest.py

Runs every workload at the "toy" sizes of workloads.py and checks that
every metric BENCHMARK.json names is emitted with its unit, that a
corrupted output counts every row as failed, that count metrics repeat
exactly across two traced runs, and that the benchmark refuses to run
without the fibmod sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SEED = workloads.DEFAULT_SEED
SCRATCH = run.WORK + "-selftest"


def _units(entries) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in entries}


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.bench = json.load(fh)
        cls.golden = run._load_json("golden.json")["toy"]
        cls.plain = {w: run.run_benchmark(w, SEED, 1, False, "toy")["result"] for w in workloads.WORKLOADS}
        cls.traced = {
            w: [run.run_benchmark(w, SEED, 1, True, "toy")["result"] for _ in range(2)]
            for w in workloads.WORKLOADS
        }
        shutil.rmtree(SCRATCH, ignore_errors=True)
        os.makedirs(SCRATCH)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_workload_names_match(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(workloads.WORKLOADS))

    def test_end_to_end_metrics_and_units(self):
        want = _units(self.bench["end_to_end"])
        for name, res in self.plain.items():
            with self.subTest(workload=name):
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertEqual(res["attempted"] % self.golden[name]["rows"], 0)
                self.assertEqual({k: m["unit"] for k, m in res["metrics"].items()}, want)
                self.assertTrue(all(m["value"] > 0 for m in res["metrics"].values()))

    def test_per_layer_metrics_and_units(self):
        want = _units(self.bench["per_layer"])
        for name, runs in self.traced.items():
            for res in runs:
                with self.subTest(workload=name):
                    self.assertTrue(res["correct"])
                    self.assertEqual({k: m["unit"] for k, m in res["metrics"].items()}, want)

    def test_counts_repeat_across_traced_runs(self):
        for name, (first, second) in self.traced.items():
            counts = {k: m["value"] for k, m in first["metrics"].items() if m["unit"] in ("count", "bytes")}
            again = {k: second["metrics"][k]["value"] for k in counts}
            with self.subTest(workload=name):
                self.assertEqual(counts, again)
                self.assertGreater(counts["scanner.report_bytes"], 0)

    def test_layers_seen_where_expected(self):
        m = {w: {k: v["value"] for k, v in r[0]["metrics"].items()} for w, r in self.traced.items()}
        self.assertGreater(m["wide_scan"]["binomsums.kernel_calls"], 0)
        self.assertGreater(m["wide_scan"]["binomsums.tables_built"], 0)
        self.assertGreater(m["wide_scan"]["scanner.prime_worker_s"], 0)
        self.assertGreater(m["t2_all_m"]["checks.run_check_calls"], 0)
        self.assertGreater(m["t2_all_m"]["modarith.jacobi_calls"], 0)
        self.assertEqual(m["wss_all"]["binomsums.kernel_calls"], 0)
        self.assertGreater(m["wss_all"]["sequences.lucas_calls"], 0)
        self.assertGreater(m["wss_all"]["scanner.checkpoint_writes"], 0)

    def _toy_output(self, name: str, seed: int) -> str:
        path = os.path.join(SCRATCH, f"{name}-{seed}.out")
        spec = {"mode": "run", "workload": name, "size": workloads.SIZES["toy"][name], "seed": seed,
                "out": path, "ckpt": os.path.join(SCRATCH, "wss.ckpt"), "trace": False,
                "trace_dir": SCRATCH}
        self.assertEqual(run._launch(spec)["exit_code"], 0)
        return path

    def test_corrupted_output_fails_every_row(self):
        for name in workloads.WORKLOADS:
            path = self._toy_output(name, SEED)
            rows, failed, _ = run.verify(name, path, SEED, self.golden)
            self.assertEqual((rows, failed), (self.golden[name]["rows"], 0))
            with open(path, "r+b") as fh:
                fh.seek(-5, os.SEEK_END)
                fh.write(b"9")
            rows, failed, _ = run.verify(name, path, SEED, self.golden)
            with self.subTest(workload=name):
                self.assertEqual(failed / rows, 1)

    def test_other_seed_checked_by_status(self):
        path = self._toy_output("t2_all_m", 7)
        self.assertEqual(run.verify("t2_all_m", path, 7, self.golden)[1], 0)
        with open(path, encoding="ascii") as fh:
            text = fh.read()
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text.replace('"PASS"', '"FAIL"', 1))
        self.assertEqual(run.verify("t2_all_m", path, 7, self.golden)[1], 1)
        # The same bytes under another seed's header are a wrong report.
        self.assertEqual(run.verify("t2_all_m", path, 8, self.golden)[1], self.golden["t2_all_m"]["rows"])

    def test_refuses_without_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work*", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        cmd = [sys.executable, "perfbench/run.py", "--workload", "wss_all", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
