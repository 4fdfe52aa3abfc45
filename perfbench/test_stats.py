"""Self-tests for the benchmark's arithmetic (run: python3 perfbench/run.py
--self-test)."""

import statistics
import unittest

import run
import stats


class Quartiles(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 11.1, 9.9, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(stats.quartiles(values), (q1, q3))
        # Exclusive method: 1..8 gives 2.25 and 6.75.
        self.assertEqual(stats.quartiles([float(v) for v in range(1, 9)]),
                         (2.25, 6.75))

    def test_quartiles_of_one_value(self):
        self.assertEqual(stats.quartiles([5.0]), (5.0, 5.0))


class Tail(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.nearest_rank(values, 90), (90, 90))
        self.assertEqual(stats.nearest_rank(values, 99.9), (100, 100))
        self.assertEqual(stats.nearest_rank(values, 50), (50, 50))

    def test_highest_percentile_with_ten_beyond(self):
        # 100 samples: p99 leaves 1 beyond, p90 leaves 10 -> p90.
        self.assertEqual(stats.tail([float(v) for v in range(1, 101)]),
                         (90.0, 90.0))
        # 1000 samples: p99 leaves 10 beyond.
        self.assertEqual(stats.tail([float(v) for v in range(1, 1001)]),
                         (99.0, 990.0))
        # 99 samples: p90 is rank 90, 9 beyond -> no percentile qualifies.
        self.assertEqual(stats.tail([float(v) for v in range(1, 100)]),
                         (100.0, 99.0))

    def test_too_few_samples_gives_maximum(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (100.0, 3.0))
        self.assertEqual(stats.tail([float(v) for v in range(20)]),
                         (100.0, 19.0))

    def test_tail_ignores_sample_order(self):
        values = [float((v * 37) % 101) for v in range(101)]
        self.assertEqual(stats.tail(values), stats.tail(sorted(values)))


class Accounting(unittest.TestCase):
    """end_to_end() over a synthetic raw result of a fill workload."""

    RAW = {
        "ops": {"attempted": 8, "failed": 2, "correct": False, "errors": []},
        "s_qual": {"designA": 0.5, "designB": 0.7},
        "setup_s": [0.3, 0.1, 0.2],
        "peak_rss_bytes": 3 * 2**20,
        "phases": [{"traced": False, "elapsed_s": 9.0, "units": 6},
                   {"traced": True, "elapsed_s": 5.0, "units": 2}],
        "rounds": [
            {"traced": False, "wall_s": 3.0, "jobs_s": [1.0, 2.0]},
            {"traced": False, "wall_s": 5.0, "jobs_s": [2.0, 3.0]},
            {"traced": False, "jobs_s": []},  # a round whose fill threw
            {"traced": False, "wall_s": 4.0, "jobs_s": [1.5, 2.5]},
            {"traced": True, "wall_s": 9.0, "jobs_s": [4.0, 5.0]},
        ],
    }

    def test_metrics(self):
        m, details = run.end_to_end(self.RAW)
        self.assertEqual(m["success_ratio"], 0.75)
        self.assertEqual(m["setup_s"], 0.2)
        self.assertEqual(m["peak_rss_mib"], 3.0)
        self.assertAlmostEqual(m["s_qual"], 0.6)
        # Traced rounds and rounds without a time are left out.
        self.assertEqual(m["fill_s"], 4.0)
        self.assertEqual(m["job_p50_ms"], 2000.0)
        self.assertEqual(m["jobs_per_s"], 0.5)
        # Six jobs: no percentile has ten beyond it, so the maximum.
        self.assertEqual(m["job_tail_ms"], 3000.0)
        self.assertEqual(details["job_tail_percentile"], 100.0)
        self.assertEqual(details["job_samples"], 6)


class FailedRatio(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(stats.failed_ratio(40, 0), 0.0)
        self.assertEqual(stats.failed_ratio(40, 10), 0.25)

    def test_nothing_attempted_is_all_failed(self):
        self.assertEqual(stats.failed_ratio(0, 0), 1.0)


if __name__ == "__main__":
    unittest.main()
