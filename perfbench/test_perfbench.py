#!/usr/bin/env python3
"""Self-tests of the repo benchmark's checks and metric arithmetic.

    python3 perfbench/test_perfbench.py

They need no build: they drive run.py's pure functions with synthetic job
outputs and a synthetic span tree.
"""
import fnmatch
import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BANNER = b"[runtime] threads=%d\n"


def inv(binary, threads, body=b"table\n", rc=0, stderr=b""):
    return run.Invocation(binary, threads, rc, BANNER % threads + body, stderr, 0.01, 2048)


def round_of(binary, one_body=b"table\n", par_body=b"table\n", stderr=b""):
    return ({binary: inv(binary, 1, one_body, stderr=stderr)},
            {binary: inv(binary, run.P, par_body, stderr=stderr)})


class OutputChecks(unittest.TestCase):
    def test_banner_is_ignored(self):
        self.assertEqual(run.digest(BANNER % 1 + b"x\n"), run.digest(BANNER % 4 + b"x\n"))

    def test_clean_round_passes(self):
        one, par = round_of("fig15_hotspot")
        golden = {"fig15_hotspot": run.digest(b"table\n")}
        self.assertEqual(run.judge("paper_apps", one, par, golden, None), [])

    def test_tampered_output_counts_as_failed(self):
        golden = {"fig15_hotspot": run.digest(b"table\n")}
        one, par = round_of("fig15_hotspot", one_body=b"tab1e\n")
        problems = run.judge("paper_apps", one, par, golden, None)
        # The tampered pass misses the golden digest; the clean one now differs
        # from its other-thread-count twin. Both invocations fail.
        self.assertEqual(len(problems), 2)
        self.assertIn("golden", problems[0])
        self.assertIn("--threads=1 and --threads=P", problems[1])

    def test_tampered_output_fails_without_golden(self):
        one, par = round_of("table7_sphinx", par_body=b"other\n")
        self.assertEqual(len(run.judge("paper_apps", one, par, {}, None)), 2)

    def test_nonzero_exit_counts_as_failed(self):
        one, par = round_of("fig20_cp")
        par["fig20_cp"].rc = 1
        problems = run.judge("paper_apps", one, par, {}, None)
        self.assertEqual(len(problems), 1)
        self.assertIn("exit code 1", problems[0])

    def test_warm_job_that_evaluates_a_point_counts_as_failed(self):
        cold = {"fig14_power_quality": run.digest(b"table\n")}
        hit = b"[sweep] hits=45 misses=0 | points=45 hits=45 evaluated=0 failures=0\n"
        miss = b"[sweep] hits=44 misses=1 | points=45 hits=44 evaluated=1 failures=0\n"
        one, par = round_of("fig14_power_quality", stderr=hit)
        self.assertEqual(run.judge("sweep_warm", one, par, {}, cold), [])
        one, par = round_of("fig14_power_quality", stderr=miss)
        problems = run.judge("sweep_warm", one, par, {}, cold)
        self.assertEqual(len(problems), 2)
        self.assertIn("evaluated", problems[0])
        one, par = round_of("fig14_power_quality", stderr=b"")
        self.assertEqual(len(run.judge("sweep_warm", one, par, {}, cold)), 2)

    def test_warm_output_must_match_cold(self):
        cold = {"fig14_power_quality": run.digest(b"cold table\n")}
        one, par = round_of("fig14_power_quality", stderr=b"evaluated=0\n")
        problems = run.judge("sweep_warm", one, par, {}, cold)
        self.assertEqual(len(problems), 2)
        self.assertIn("cold", problems[0])

    def test_golden_skips_seeded_jobs_at_other_seeds(self):
        record = json.loads(run.GOLDEN.read_text())["toolchain"]
        at_default = run.golden_for("paper_apps", run.DEFAULT_SEED, record)
        at_seven = run.golden_for("paper_apps", 7, record)
        self.assertIn("table7_sphinx", at_default)
        self.assertNotIn("table7_sphinx", at_seven)
        self.assertIn("fig15_hotspot", at_seven)
        self.assertEqual(run.golden_for("sweep_warm", 7, record),
                         run.golden_for("sweep_cold", 7, record))
        other = dict(record, compiler="another compiler")
        self.assertEqual(run.golden_for("paper_apps", run.DEFAULT_SEED, other), {})

    def test_golden_covers_every_job(self):
        digests = json.loads(run.GOLDEN.read_text())["digests"]
        for workload in ("paper_apps", "units_gemm", "sweep_cold"):
            self.assertEqual(set(digests[workload]),
                             {j.split()[0] for j in run.WORKLOADS[workload]})


def span(i, name, start, end, parent=-1, **counts):
    return {"id": i, "name": name, "start_ns": start, "end_ns": end, "parent": parent,
            "run": "test", "counts": counts}


class SelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            span(0, "root", 0, 100),
            span(1, "a", 10, 40, 0),
            span(2, "b", 30, 60, 0),  # overlaps a: 10..60 is covered once
            span(3, "a.leaf", 15, 20, 1),
            span(4, "late", 90, 120, 0),  # runs past its parent's end
        ]
        self.assertEqual([round(t * 1e9) for t in run.self_times(spans)], [40, 25, 30, 5, 30])

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(run.self_times([span(0, "x", 5, 2005)]), [2e-6])


# Every span name perfbench_trace records, with the counts per_layer_metrics reads.
TRACE_SPANS = [
    ("apps.hotspot.input", {}), ("apps.hotspot.sim", {"ops": 1e8}),
    ("apps.hotspot.batched", {"ops": 1e8}), ("quality.mae", {}), ("quality.mse", {}),
    ("quality.wed", {}), ("power.analyze_gpu_run", {}), ("apps.srad.input", {}),
    ("apps.srad.sim", {"ops": 1e8}), ("apps.srad.batched", {"ops": 1e8}),
    ("quality.pratt_fom", {}), ("quality.ssim", {}), ("apps.cp.sim", {"ops": 1e7}),
    ("apps.cp.batched", {"ops": 1e7}), ("apps.ray.sim", {"ops": 1e7}),
    ("apps.art.sim", {"ops": 1e6}), ("apps.gromacs.sim", {"ops": 1e6}),
    ("apps.sphinx.sim", {"ops": 1e6}),
    *[(f"ihw.span.{k}", {"elements": 4e6}) for k in
      ("ifp_mul", "acfp_log_mul", "trunc_mul", "ifp_add", "rcp", "ifp_mac")],
    ("fault.mul_unguarded", {"elements": 4e6}), ("fault.mul_guarded", {"elements": 2e5}),
    ("error.char32.fig08", {"samples": 3.6e7}), ("error.char32.fig09", {"samples": 3.6e7}),
    ("error.char64.fig14", {"samples": 9.6e6}), ("qmc.sobol", {"points": 4e6}),
    *[(f"gemm.{k}", {"macs": 1.3e8}) for k in
      ("precise", "ifp", "ifp_par", "ifp_abft_detect", "ifp_abft_recover")],
    ("apps.mlp.run", {"ops": 7e6}),
    ("sweep.cold", {"points": 88, "misses": 88, "stores": 88, "bytes_written": 2e6}),
    ("sweep.warm", {"points": 88, "hits": 88, "misses": 0}),
    ("sweep.replay", {"replayed": 88}),
    ("sweep.resume", {"points": 88, "hits": 88, "misses": 0}),
]


def synthetic_trace():
    spans = [span(0, "trace", 0, 10 ** 12)]
    t = 0
    for name, counts in TRACE_SPANS:
        spans.append(span(len(spans), name, t + 1, t + 1000, 0, **counts))
        if name == "sweep.cold":  # evaluations nest inside the cold grid
            spans.append(span(len(spans), "sweep.eval", t + 10, t + 500, len(spans) - 1))
        t += 1000
    return {"run_id": "test", "spans": spans, "checks": []}


class DeclaredMetrics(unittest.TestCase):
    def test_end_to_end_metrics_are_the_declared_ones(self):
        out = run.Outcome(setup_s=[0.01], wall_s=[1.0], wall_par_s=[0.5], peak_rss_mb=[20.0])
        self.assertEqual(set(run.end_to_end_metrics(out)), set(run.declared("end_to_end")))

    def test_per_layer_metrics_are_the_declared_ones(self):
        jobs = {}
        for workload, job_list in run.WORKLOADS.items():
            out = run.Outcome()
            for job in job_list:
                out.job_s[job.split()[0]].append(1.0)
                out.job_par_s[job.split()[0]].append(0.5)
            jobs[workload] = out
        m = run.per_layer_metrics(jobs, synthetic_trace(), 10.0, 10.1, 1.5)
        declared = run.declared("per_layer")
        self.assertEqual(set(m), set(declared))
        self.assertLessEqual(len(declared), 128)
        self.assertAlmostEqual(m["sweep.store_ms_per_point"], 509e-9 / 88 * 1e3)
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.01)

    def test_metric_map_covers_every_per_layer_metric(self):
        entries = json.loads((run.HERE / "metric_map.json").read_text())["per_layer"]
        patterns = [p for e in entries for p in e["metrics"]]
        for name in run.declared("per_layer"):
            self.assertTrue(any(fnmatch.fnmatchcase(name, p) for p in patterns), name)

    def test_every_workload_is_declared(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
