#!/usr/bin/env python3
"""Unit tests of perf_ab's labels and exit status, on synthetic per-seed
values (no perfbench runs). Run: python3 tools/test_perf_ab.py"""

import contextlib
import io
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_ab  # noqa: E402

with open(os.path.join(perf_ab.ROOT, "BENCHMARK.json")) as f:
    METRICS = json.load(f)["end_to_end"]
BY_NAME = {m["name"]: m for m in METRICS}
PKTS = BY_NAME["pkts_per_cpu_s"]
SETUP = BY_NAME["setup_s"]


def base_runs(pairs):
    """Per-seed values of every end-to-end metric, with a small spread."""
    return {seed: {m["name"]: 100.0 + seed for m in METRICS} for seed in range(1, pairs + 1)}


def scaled(runs, metric, factor):
    """`runs` with one metric multiplied by `factor` at every seed."""
    return {seed: dict(values, **{metric: values[metric] * factor})
            for seed, values in runs.items()}


def exit_status(base, change):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return perf_ab.verdict(METRICS, {"congested_alg": {"base": base, "change": change}})


class Labels(unittest.TestCase):
    def test_three_pair_aa_shape_is_unresolved_and_passes(self):
        # An A/A run of two builds of one tree: 1.024x, 3 of 3 pairs won,
        # medians apart by more than the base IQR.
        base = [1.50e6, 1.52e6, 1.51e6]
        change = [v * 1.024 for v in base]
        self.assertEqual(perf_ab.won(PKTS, base, change), 3)
        self.assertEqual(perf_ab.label(PKTS, base, change), "unresolved")
        runs = base_runs(3)
        self.assertEqual(exit_status(runs, scaled(runs, "pkts_per_cpu_s", 1.024)), 0)

    def test_ten_pairs_all_won_beyond_the_iqr_is_a_gain(self):
        base = [1.5e6 + 1000.0 * i for i in range(10)]
        self.assertEqual(perf_ab.label(PKTS, base, [v * 1.1 for v in base]), "gain")
        self.assertEqual(perf_ab.label(SETUP, base, [v * 0.9 for v in base]), "gain")

    def test_ten_pairs_all_lost_beyond_the_iqr_is_a_loss(self):
        base = [1.5e6 + 1000.0 * i for i in range(10)]
        self.assertEqual(perf_ab.label(PKTS, base, [v * 0.9 for v in base]), "loss")

    def test_gain_needs_nine_of_ten_pairs(self):
        base = [1.5e6 + 1000.0 * i for i in range(10)]
        change = [v * 1.1 for v in base]
        change[0] = change[1] = base[0]  # one tie, one loss: 8 of 10 won
        self.assertEqual(perf_ab.label(PKTS, base, change), "unchanged")
        change[1] = base[1] * 1.1  # 9 of 10 won
        self.assertEqual(perf_ab.label(PKTS, base, change), "gain")

    def test_gain_needs_medians_beyond_the_base_iqr(self):
        base = [1.5e6 + 10000.0 * i for i in range(10)]  # IQR 45000
        self.assertEqual(perf_ab.label(PKTS, base, [v + 1000.0 for v in base]), "unchanged")

    def test_identical_sides_are_unchanged(self):
        base = [1.5e6 + 1000.0 * i for i in range(10)]
        self.assertEqual(perf_ab.label(PKTS, base, list(base)), "unchanged")

    def test_base_iqr_wider_than_the_bound_is_unresolved(self):
        base = [1.0e6, 2.0e6] * 5
        self.assertEqual(perf_ab.label(PKTS, base, [v * 1.1 for v in base]), "unresolved")

    def test_worse_than_the_bound_is_a_regression_at_any_pair_count(self):
        for pairs in (3, 10):
            base = [1.5e6 + 1000.0 * i for i in range(pairs)]
            self.assertEqual(perf_ab.label(PKTS, base, [v * 0.7 for v in base]), "REGRESSION")
            self.assertEqual(perf_ab.label(SETUP, base, [v * 1.3 for v in base]), "REGRESSION")
            self.assertEqual(perf_ab.label(SETUP, base, [v * 0.7 for v in base]),
                             "unresolved" if pairs < 10 else "gain")

    def test_sim_metrics_are_identical_or_differ(self):
        cost = BY_NAME["sim_cost_per_pkt"]
        self.assertEqual(perf_ab.label(cost, [3.0, 4.0], [3.0, 4.0]), "identical")
        self.assertEqual(perf_ab.label(cost, [3.0, 4.0], [3.0, 4.0000001]), "DIFFERS")


class RatioInterval(unittest.TestCase):
    BASE = [1.5e6 + 1000.0 * i for i in range(10)]

    def test_a_over_a_interval_brackets_one(self):
        # The same ten values on both sides, paired in another order.
        change = [self.BASE[(i * 7) % 10] for i in range(10)]
        low, high = perf_ab.ratio_interval(self.BASE, change)
        self.assertAlmostEqual(low, 0.997676, places=6)
        self.assertAlmostEqual(high, 1.002330, places=6)

    def test_identical_sides_give_a_point_at_one(self):
        self.assertEqual(perf_ab.ratio_interval(self.BASE, list(self.BASE)), (1.0, 1.0))

    def test_a_uniform_shift_gives_a_point_at_the_shift(self):
        low, high = perf_ab.ratio_interval(self.BASE, [v * 1.1 for v in self.BASE])
        self.assertAlmostEqual(low, 1.1, places=12)
        self.assertAlmostEqual(high, 1.1, places=12)

    def test_a_noisy_shift_excludes_one(self):
        change = [v * (1.1 + 0.01 * ((i * 3) % 5 - 2)) for i, v in enumerate(self.BASE)]
        low, high = perf_ab.ratio_interval(self.BASE, change)
        self.assertAlmostEqual(low, 1.086440, places=6)
        self.assertAlmostEqual(high, 1.111107, places=6)

    def test_the_interval_repeats(self):
        change = [self.BASE[(i * 3) % 10] * 1.02 for i in range(10)]
        self.assertEqual(perf_ab.ratio_interval(self.BASE, change),
                         perf_ab.ratio_interval(self.BASE, change))

    def test_the_report_prints_the_interval_and_keeps_the_label(self):
        runs = base_runs(10)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = perf_ab.verdict(METRICS, {"congested_alg": {
                "base": runs, "change": scaled(runs, "pkts_per_cpu_s", 1.1)}})
        self.assertEqual(status, 0)
        row = next(line for line in out.getvalue().splitlines()
                   if line.strip().startswith("pkts_per_cpu_s"))
        self.assertIn("[1.100, 1.100]", row)
        self.assertTrue(row.endswith("gain"), row)


class ExitStatus(unittest.TestCase):
    def test_a_thirty_percent_throughput_drop_exits_1(self):
        runs = base_runs(3)
        self.assertEqual(exit_status(runs, scaled(runs, "pkts_per_cpu_s", 0.7)), 1)

    def test_any_sim_difference_exits_1(self):
        runs = base_runs(10)
        change = {seed: dict(values) for seed, values in runs.items()}
        change[4]["sim_p99_latency_steps"] += 1.0
        self.assertEqual(exit_status(runs, change), 1)

    def test_gain_and_loss_within_the_bound_exit_0(self):
        runs = base_runs(10)
        self.assertEqual(exit_status(runs, scaled(runs, "pkts_per_cpu_s", 1.2)), 0)
        self.assertEqual(exit_status(runs, scaled(runs, "pkts_per_cpu_s", 0.8)), 0)


class Defaults(unittest.TestCase):
    def test_default_pairs_can_resolve_a_label(self):
        # Fewer pairs than MIN_PAIRS read every timing metric `unresolved`.
        with open(os.path.join(perf_ab.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        args = perf_ab.build_parser(spec).parse_args(["HEAD"])
        self.assertEqual(args.pairs, perf_ab.MIN_PAIRS)


if __name__ == "__main__":
    unittest.main()
