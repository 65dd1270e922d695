#!/usr/bin/env python3
"""Smoke test for perfbench: every workload at tiny sizes, in seconds.

Run from anywhere:

    python3 perfbench/test_smoke.py

Builds the benchmark through run.py (the first run compiles the library),
runs each workload from BENCHMARK.json in --smoke mode, untraced and
traced, and asserts that every workload emits exactly the declared
end-to-end (untraced) or per-layer (traced) metrics with their units,
and that no operation failed. Also checks that the benchmark refuses to
run outside a full checkout.
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

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "0.5",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class Smoke(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                p = run(w["name"], trace)
                assert p.returncode == 0, p.stderr[-2000:]
                cls.results[(w["name"], trace)] = (
                    json.loads(p.stdout.strip().splitlines()[-1]), p)

    def check_result(self, res):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)

    def test_end_to_end_metrics_on_every_workload(self):
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in SPEC["workloads"]:
            res, _ = self.results[(w["name"], 0)]
            self.check_result(res)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            self.assertEqual(got, units, w["name"])
            self.assertEqual(res["metrics"]["ok_frac"]["value"], 1)
            for k, v in res["metrics"].items():
                self.assertGreater(v["value"], 0, (w["name"], k))

    def test_per_layer_metrics_on_every_workload(self):
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for w in SPEC["workloads"]:
            res, _ = self.results[(w["name"], 1)]
            self.check_result(res)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            self.assertEqual(got, units, w["name"])

    def test_phases_and_referee_account_for_traced_realize_time(self):
        # Exact on batch workloads; serve-mixed reports means per re-run
        # request, with engine counters rounded down to whole nanoseconds.
        for w in SPEC["workloads"]:
            m = self.results[(w["name"], 1)][0]["metrics"]
            parts = sum(m[f"ncc.{k}_s"]["value"]
                        for k in ("body", "sort", "rng", "placement", "learn",
                                  "referee"))
            self.assertAlmostEqual(parts, m["realize_traced_s"]["value"],
                                   delta=1e-8)

    def test_details_line_holds_workload_specific_figures(self):
        expected = {
            "degree-powerlaw": {"realization.phase_loop_s",
                                "realization.explicit_s",
                                "realization.phases"},
            "threshold-tree": {"realization.connectivity_s",
                               "realization.tree_s", "ncc.worker_task_frac",
                               "approx_ratio"},
            "serve-mixed": {"serve_p50_ms", "serve_p99_ms", "max_rps_at_slo",
                            "serve.hit_frac", "serve.coalesced",
                            "serve.mean_batch", "serve.admission_waits",
                            "serve.cold_runs", "serve.cache_evictions",
                            "serve.hit_p50_ms", "serve.cold_p50_ms",
                            "approx_ratio", "bench.gen_lag_ms",
                            "realization.phases", "bench.replays"},
        }
        for w in SPEC["workloads"]:
            _, p = self.results[(w["name"], 1)]
            details = json.loads(p.stdout.strip().splitlines()[-2])["details"]
            self.assertEqual(set(details), expected[w["name"]], w["name"])

    def test_conditions_are_stamped(self):
        for (w, trace), (_, p) in self.results.items():
            cond = next(json.loads(line)["conditions"]
                        for line in p.stdout.splitlines()
                        if line.startswith('{"conditions"'))
            for key in ("nproc", "cpu", "date", "load_at_start", "threads",
                        "regimes"):
                self.assertIn(key, cond, w)
            for r in cond["regimes"]:
                self.assertEqual(r["phase_guard"],
                                 min(r["sqrt_2m"], 2 * r["max_degree"]))

    def test_slo_matches_benchmark_json(self):
        _, p = self.results[("serve-mixed", 0)]
        slo = re.search(r"SLO (p\d+ <= \d+ ms)", p.stderr).group(1)
        why = next(w["why"] for w in SPEC["workloads"]
                   if w["name"] == "serve-mixed")
        self.assertIn(slo, why)

    def test_refuses_to_run_without_sources(self):
        # Scratch space inside the build tree, so the test writes nothing
        # outside the checkout.
        build = os.path.join(ROOT,
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        with tempfile.TemporaryDirectory(dir=build) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = run("degree-powerlaw", 0, cwd=tmp,
                    script=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    unittest.main()
