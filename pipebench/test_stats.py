"""Tests of the benchmark's own statistics and metric names.

    python3 -m unittest discover -s pipebench -p 'test_*.py'
"""

import json
import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        self.assertEqual(stats.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(stats.percentile([10, 20], 25), 12.5)
        self.assertAlmostEqual(stats.percentile(range(101), 97), 97.0)
        self.assertAlmostEqual(stats.percentile([0, 10, 20, 30, 40], 90), 36.0)

    def test_ends_are_min_and_max(self):
        values = [5.0, -1.0, 7.5, 3.0]
        self.assertEqual(stats.percentile(values, 0), -1.0)
        self.assertEqual(stats.percentile(values, 100), 7.5)
        self.assertEqual(stats.percentile([42.0], 97), 42.0)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class TailSelectionTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.select_tail_percentile(385), 97.0)  # 12 beyond p97
        self.assertEqual(stats.select_tail_percentile(1001), 99.0)
        self.assertEqual(stats.select_tail_percentile(100), 90.0)
        self.assertEqual(stats.select_tail_percentile(20), 50.0)

    def test_selected_percentile_has_ten_beyond(self):
        for n in range(20, 3000, 7):
            p = stats.select_tail_percentile(n)
            ordered = list(range(n))
            beyond = sum(v > stats.percentile(ordered, p) for v in ordered)
            self.assertGreaterEqual(beyond, stats.MIN_BEYOND, (n, p))

    def test_refuses_without_ten_beyond(self):
        self.assertIsNone(stats.select_tail_percentile(19))
        self.assertIsNone(stats.select_tail_percentile(3))
        with self.assertRaises(ValueError):
            stats.tail_percentile(list(range(300)), 97)  # 9 beyond
        self.assertAlmostEqual(stats.tail_percentile(list(range(385)), 97), 372.48)

    def test_reported_p97_is_the_tail_percentile(self):
        self.assertAlmostEqual(run.p97(list(range(385))), 372.48)
        for n in (300, 1001):  # p97 lacks 10 beyond / p99 has them
            with self.assertRaises(ValueError):
                run.p97(list(range(n)))


class ExponentFitTest(unittest.TestCase):
    def test_recovers_exact_power_laws(self):
        for exponent in (0.5, 1.0, 2.0, 2.7):
            sizes = [1000, 2500, 5000]
            seconds = [3e-9 * n ** exponent for n in sizes]
            self.assertAlmostEqual(stats.fit_exponent(sizes, seconds), exponent, places=12)

    def test_least_squares_over_many_points(self):
        rng = random.Random(7)
        sizes = [rng.randint(5, 400) for _ in range(200)]
        self.assertAlmostEqual(
            stats.fit_exponent(sizes, [2e-5 * n ** 1.3 for n in sizes]), 1.3, places=12)

    def test_degenerate_inputs(self):
        with self.assertRaises(ValueError):
            stats.fit_exponent([10], [1.0])
        with self.assertRaises(ValueError):
            stats.fit_exponent([10, 10], [1.0, 2.0])


class PassReducerTest(unittest.TestCase):
    def test_best_of_passes_takes_each_items_minimum(self):
        self.assertEqual(stats.best_of_passes([[3, 1, 2], [1, 4, 2], [2, 2, 5]]), [1, 1, 2])
        self.assertEqual(stats.best_of_passes([[0.5, 0.25]]), [0.5, 0.25])

    def test_median_of_passes_takes_each_items_median(self):
        self.assertEqual(stats.median_of_passes([[3, 1, 2], [1, 4, 2], [2, 2, 5]]), [2, 2, 2])
        self.assertEqual(stats.median_of_passes([[1, 8], [3, 2]]), [2, 5])

    def test_rejects_ragged_or_empty_passes(self):
        for reducer in (stats.best_of_passes, stats.median_of_passes):
            with self.assertRaises(ValueError):
                reducer([[1, 2], [1]])
            with self.assertRaises(ValueError):
                reducer([])


class ReferenceSpeedTest(unittest.TestCase):
    def test_scales_each_time_by_its_own_gauge(self):
        self.assertEqual(stats.at_reference_speed([2.0, 3.0], [0.02, 0.03], 0.01), [1.0, 1.0])
        self.assertEqual(stats.at_reference_speed([1.5], [0.01], 0.01), [1.5])

    def test_steady_program_on_a_drifting_host_reads_steady(self):
        work_s = [0.004, 0.05, 0.3]
        for slowdown in (0.75, 1.0, 1.3):
            seconds = [w * slowdown for w in work_s]
            gauge = [0.02 * slowdown] * len(work_s)
            for got, want in zip(stats.at_reference_speed(seconds, gauge, 0.02), work_s):
                self.assertAlmostEqual(got, want)

    def test_rejects_missing_or_non_positive_gauges(self):
        with self.assertRaises(ValueError):
            stats.at_reference_speed([1.0, 2.0], [0.02], 0.02)
        with self.assertRaises(ValueError):
            stats.at_reference_speed([1.0], [0.0], 0.02)


def synthetic_raw(threads, trace, n_small=400):
    """A raw pipebench record shaped like the real one, with made-up numbers."""
    rng = random.Random(threads * 10 + trace)
    files = [{"name": f"f{i}", "rows": rng.randint(5, 300), "columns": 8, "tall": False}
             for i in range(n_small)] + [{"name": "t", "rows": 2500, "columns": 17, "tall": True}]

    def passes(count):
        return [{"file_seconds": [rng.uniform(1e-4, 1e-1) for _ in files],
                 "file_host_s": [rng.uniform(0.02, 0.03) for _ in files],
                 "wall_s": 3.0, "cpu_s": 3.0 * threads, "host_s": 0.025}
                for _ in range(count)]

    raw = {"workload": "x", "threads": threads, "files": files, "setup_s": [0.2, 0.1],
           "setup_host_s": [0.02, 0.03],
           "f1": 0.9, "attempted": 10, "failed": 0, "ok": 10, "failures": [],
           "peak_rss_mb": 50.0}
    if not trace:
        raw["passes"] = passes(3)
        return raw
    raw["sequential_passes"] = passes(2)
    raw["passes"] = passes(2)
    raw["layers"] = ["csv.map", "csv.sniff", "csv.parse", "numfmt.elect.load", "eval.load",
                     "numfmt.elect.detect", "numfmt.normalize"]
    raw["layers"] += [f"stage1.{axis}.{fn}" for axis in ("rows", "columns")
                      for fn in run.FUNCTIONS]
    raw["layers"] += ["core.merge", "stage2", "stage3.rows", "stage3.columns", "eval.score"]
    raw["replay"] = [[[rng.uniform(0, 1e-3) for _ in raw["layers"]] for _ in files]
                     for _ in range(2)]
    raw["counters"] = {name: 5 for name in run.COUNTERS}
    raw["counters"].update({"numfmt.elect.files": 2 * len(files),
                            "prune.accepted.candidates": 2})
    return raw


class MetricNamesTest(unittest.TestCase):
    def test_end_to_end_names_match_benchmark_json(self):
        declared = set(run.declared_metrics(trace=0))
        for threads in (1, 2):
            self.assertEqual(set(run.reduce_end_to_end(synthetic_raw(threads, 0))), declared)

    def test_per_layer_names_match_benchmark_json(self):
        declared = set(run.declared_metrics(trace=1))
        for threads in (1, 2):
            self.assertEqual(set(run.reduce_trace(synthetic_raw(threads, 1))), declared)

    def test_layer_sums(self):
        raw = synthetic_raw(1, 1)
        metrics = run.reduce_trace(raw)
        for axis in ("rows", "columns"):
            self.assertAlmostEqual(
                metrics[f"stage1.{axis}_s"],
                sum(metrics[f"stage1.{axis}.{fn}_s"] for fn in run.FUNCTIONS))
        self.assertAlmostEqual(metrics["numfmt.elect.files_per_file"], 2.0)
        self.assertAlmostEqual(metrics["stage1.accept_ratio"], 2 / 5)

    def test_benchmark_json_declares_setup_time(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in spec["end_to_end"])}])


if __name__ == "__main__":
    unittest.main()
