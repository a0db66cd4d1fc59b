"""Tests of the benchmark itself:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import itertools
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402

PY = sys.executable


class ClosedForms(unittest.TestCase):
    def test_partition_counts(self):
        self.assertEqual(wl.partition_count(4, 2), 3)
        self.assertEqual(wl.partition_count(8, 2), 105)
        self.assertEqual(wl.partition_count(8, 4), 35)
        self.assertEqual(wl.partition_count(12, 4), 5775)

    def test_weighted_partition_count(self):
        self.assertEqual(wl.gamma_count(6, 2), 3)
        self.assertEqual(wl.weighted_partition_count(6, 2), 3240)

    def test_block_value_terms(self):
        self.assertEqual(wl.block_value_terms(8, 2), 8)
        self.assertEqual(wl.block_value_terms(8, 4), 360)
        self.assertEqual(wl.block_value_terms(12, 4), 1536)


class OutputCheck(unittest.TestCase):
    def setUp(self):
        self.env = run.child_env()

    def test_expected_stdout_passes(self):
        passed, seconds = run.run_op([PY, "-c", "print('x')"], "x\n", self.env)
        self.assertTrue(passed)
        self.assertGreater(seconds, 0)

    def test_wrong_stdout_fails(self):
        self.assertFalse(run.run_op([PY, "-c", "print('y')"], "x\n", self.env)[0])

    def test_nonzero_exit_fails(self):
        command = [PY, "-c", "import sys; print('x'); sys.exit(3)"]
        self.assertFalse(run.run_op(command, "x\n", self.env)[0])

    def test_timeout_fails(self):
        command = [PY, "-c", "import time; time.sleep(30)"]
        self.assertFalse(run.run_op(command, "", self.env, timeout=0.5)[0])

    def test_failed_ops_count_in_ok_ratio(self):
        wrong_output = wl.Workload("wrong", ("involution", "--n", "4", "--k", "2"),
                                   False, "verified\n")
        refused = wl.Workload("refused", ("verify", "--n", "3", "--k", "2", "--trials", "1"),
                              True, wl.WORKLOADS["sym-8-2"].expected)
        for workload in (wrong_output, refused):
            metrics, used, passed, _ = run.measure(workload, 1, 0.01, self.env,
                                                   run.SpeedScale())
            self.assertEqual((len(used), passed, metrics["ok_ratio"]), (1, 0, 0.0))


class Seeds(unittest.TestCase):
    def test_op_seeds_follow_the_benchmark_seed(self):
        first = list(itertools.islice(run.op_seeds(7), 5))
        self.assertEqual(first, list(itertools.islice(run.op_seeds(7), 5)))
        self.assertNotEqual(first, list(itertools.islice(run.op_seeds(8), 5)))

    def test_only_seeded_commands_get_a_seed(self):
        self.assertEqual(wl.op_argv(wl.WORKLOADS["sym-8-2"], 42)[-2:], ["--seed", "42"])
        self.assertNotIn("--seed", wl.op_argv(wl.WORKLOADS["wop-6-2"], 42))


class BenchmarkJson(unittest.TestCase):
    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in run.BENCHMARK["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


class TracedOp(unittest.TestCase):
    def test_involution_counts(self):
        report, seconds = run.traced_op(wl.WORKLOADS["wop-6-2"], 1, run.child_env())
        metrics = report["metrics"]
        self.assertEqual(
            [metrics[f"involution.{name}"] for name in ("elements", "repeated", "distinct")],
            [3240, 2520, 720])
        self.assertEqual(metrics["combinat.partitions"], 15)
        self.assertGreater(metrics["involution.pairing_s"], 0)
        self.assertGreater(metrics["cli.overhead_s"], 0)
        self.assertGreater(seconds, metrics["cli.overhead_s"])

    def test_symbolic_counts(self):
        report, _ = run.traced_op(wl.WORKLOADS["sym-8-2"], 1, run.child_env())
        metrics = report["metrics"]
        self.assertEqual(metrics["combinat.partitions"], 105)
        self.assertEqual(metrics["hpf.block_value_terms"], 8)
        self.assertEqual(metrics["hpf.result_terms"], 40320)
        self.assertEqual(metrics["poly.monomial_products"], 490560)
        self.assertGreater(metrics["poly.vandermonde_s"], 0)
        self.assertEqual(
            {s["name"] for s in report["spans"] if s["op"] == "op"},
            {"combinat.composition_tilings", "randgen.random_skew_spec",
             "hpf.skew_function_from_spec", "hpf.pf_definition", "hpf.pf_exterior",
             "hpf.pf_closed_form"})

    def test_points_counts(self):
        report, _ = run.traced_op(wl.WORKLOADS["pts-12-4"], 5, run.child_env())
        metrics = report["metrics"]
        self.assertEqual(metrics["combinat.partitions"], 5775)
        self.assertEqual(metrics["exterior.subsets"], 495)
        self.assertEqual(metrics["poly.monomial_products"], 0)
        self.assertEqual(metrics["poly.block_products_s"], 0)
        self.assertGreater(metrics["hpf.spec_eval_s"], 0)
        self.assertEqual(
            {s["name"] for s in report["spans"] if s["op"] == "op"},
            {"combinat.composition_tilings", "randgen.random_skew_spec",
             "hpf.theorem_coefficient", "randgen.random_point",
             "hpf.skew_function_from_spec_at", "hpf.pf_definition", "hpf.pf_exterior",
             "poly.vandermonde_at"})


if __name__ == "__main__":
    unittest.main()
