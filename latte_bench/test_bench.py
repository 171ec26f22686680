#!/usr/bin/env python3
"""Tests of the LATTE benchmark itself.

Run from the repository root:

    python3 latte_bench/test_bench.py

Builds the benchmark the way run.py does, then runs short (2 s) untraced
and traced runs and checks the printed metrics, the determinism of the
virtual-time numbers and digests, and the identities the per-layer
metrics must satisfy.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's build step)

SECONDS = "2"
WORKLOADS = ["squad_long", "mrpc_zipf_cached", "rte_adaptive_ramp"]


def load_benchmark_json():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


class Bench:
    binary = None
    _runs = {}

    @classmethod
    def run(cls, workload, seed, trace):
        """(detail, result) of one run; each distinct run happens once."""
        key = (workload, seed, trace)
        if key not in cls._runs:
            if cls.binary is None:
                target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
                cls.binary = run.build(
                    os.path.join(os.path.abspath(target), "latte_bench"))
            proc = subprocess.run(
                [cls.binary, "--workload", workload, "--seed", str(seed),
                 "--seconds", SECONDS, "--trace", str(trace)],
                capture_output=True, text=True, timeout=175)
            if proc.returncode != 0:
                raise AssertionError(
                    f"{key} exited {proc.returncode}:\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            cls._runs[key] = (json.loads(lines[-2])["detail"],
                              json.loads(lines[-1]))
        return cls._runs[key]


def metric(result, name):
    return result["metrics"][name]["value"]


class MetricNames(unittest.TestCase):
    def test_untraced_prints_every_end_to_end_metric(self):
        spec = load_benchmark_json()["end_to_end"]
        for workload in WORKLOADS:
            _, result = Bench.run(workload, 1, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(
                {k: v["unit"] for k, v in result["metrics"].items()},
                {m["name"]: m["unit"] for m in spec}, workload)
            for name in result["metrics"]:
                self.assertGreater(metric(result, name), 0, name)

    def test_traced_prints_every_per_layer_metric(self):
        spec = load_benchmark_json()["per_layer"]
        for workload in WORKLOADS:
            _, result = Bench.run(workload, 1, 1)
            self.assertTrue(result["correct"])
            self.assertEqual(
                {k: v["unit"] for k, v in result["metrics"].items()},
                {m["name"]: m["unit"] for m in spec}, workload)


class Determinism(unittest.TestCase):
    def test_same_seed_same_sim_metrics_and_outputs(self):
        for workload in WORKLOADS:
            first, _ = Bench.run(workload, 1, 0)
            Bench._runs.pop((workload, 1, 0))  # force a second process
            again, _ = Bench.run(workload, 1, 0)
            self.assertEqual(first["sim_bits"], again["sim_bits"], workload)
            self.assertEqual(first["output_digest"], again["output_digest"])
            self.assertEqual(first["trace_digest"], again["trace_digest"])

    def test_traced_and_untraced_agree(self):
        for workload in WORKLOADS:
            untraced, _ = Bench.run(workload, 1, 0)
            traced, _ = Bench.run(workload, 1, 1)
            for name, bits in traced["sim_bits"].items():
                self.assertEqual(bits, untraced["sim_bits"][name],
                                 f"{workload} {name}")
            self.assertEqual(traced["output_digest"],
                             untraced["output_digest"], workload)

    def test_different_seed_different_trace(self):
        for workload in WORKLOADS:
            one, _ = Bench.run(workload, 1, 0)
            two, _ = Bench.run(workload, 2, 0)
            self.assertNotEqual(one["trace_digest"], two["trace_digest"])


class LayerIdentities(unittest.TestCase):
    def test_layer_time_is_dense_ops_plus_attention(self):
        for workload in WORKLOADS:
            _, result = Bench.run(workload, 1, 1)
            layer = metric(result, "nn.layer_ms")
            parts = (metric(result, "nn.dense_ops_ms") +
                     metric(result, "core.attention_ms"))
            self.assertAlmostEqual(layer, parts, delta=1e-9 * layer)

    def test_idle_frac_in_unit_interval(self):
        for workload in WORKLOADS:
            _, result = Bench.run(workload, 1, 1)
            idle = metric(result, "runtime.idle_frac")
            self.assertGreaterEqual(idle, 0.0)
            self.assertLessEqual(idle, 1.0)

    def test_workloads_separate_their_layers(self):
        traced = {w: Bench.run(w, 1, 1)[1] for w in WORKLOADS}
        self.assertGreater(
            metric(traced["squad_long"], "core.attention_share"),
            metric(traced["mrpc_zipf_cached"], "core.attention_share"))
        for workload, result in traced.items():
            cached = workload == "mrpc_zipf_cached"
            adaptive = workload == "rte_adaptive_ramp"
            self.assertEqual(metric(result, "cache.hit_rate") > 0, cached)
            self.assertEqual(metric(result, "adapt.degraded_frac") > 0,
                             adaptive)

    def test_every_tier_serves_on_the_ramp(self):
        for seed in (1, 2):
            _, ramp = Bench.run("rte_adaptive_ramp", seed, 1)
            batches = [metric(ramp, f"adapt.tier_batches.{tier}")
                       for tier in range(3)]
            for tier, n in enumerate(batches):
                # A real share, not a pass through the tier.
                self.assertGreater(n, 0.05 * sum(batches), f"{seed} {tier}")
            self.assertGreater(metric(ramp, "adapt.escalation_rate"), 0)
            self.assertLess(metric(ramp, "adapt.escalation_rate"), 1)


class Arguments(unittest.TestCase):
    def test_unknown_workload_fails_without_result(self):
        Bench.run("squad_long", 1, 0)  # ensures the binary is built
        proc = subprocess.run(
            [Bench.binary, "--workload", "nope", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_prefix_too_short_for_a_batch_fails_without_result(self):
        Bench.run("squad_long", 1, 0)
        for trace in ("0", "1"):
            proc = subprocess.run(
                [Bench.binary, "--workload", "mrpc_zipf_cached", "--seed",
                 "1", "--seconds", "0.0001", "--trace", trace],
                capture_output=True, text=True, timeout=120)
            self.assertEqual(proc.returncode, 2, proc.stderr)
            self.assertIn("no formed batch fits", proc.stderr)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
