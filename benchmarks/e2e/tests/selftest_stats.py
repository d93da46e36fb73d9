"""Median / tail-percentile rule on synthetic samples."""

import random
import unittest

import stats


class TailRule(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_thousand_samples_support_p99(self):
        samples = list(range(1, 1001))
        random.Random(0).shuffle(samples)
        percentile, value = stats.tail(samples)
        self.assertEqual(percentile, 99.0)
        self.assertEqual(value, 990)
        self.assertEqual(sum(s > value for s in samples), stats.TAIL_SAMPLES_BEYOND)

    def test_hundred_samples_support_p90(self):
        percentile, value = stats.tail([float(i) for i in range(100)])
        self.assertEqual((percentile, value), (90.0, 89.0))

    def test_small_samples_fall_back_to_the_median(self):
        for n in (1, 2, 9, 20):
            samples = [float(i) for i in range(n)]
            self.assertEqual(stats.tail(samples), (50.0, stats.median(samples)))

    def test_first_sample_size_with_a_real_tail(self):
        samples = [float(i) for i in range(21)]
        percentile, value = stats.tail(samples)
        self.assertAlmostEqual(percentile, 100.0 * 11 / 21)
        self.assertEqual(sum(s > value for s in samples), 10)

    def test_iqr_matches_statistics_quantiles(self):
        self.assertEqual(stats.iqr([1.0]), 0.0)
        self.assertAlmostEqual(stats.iqr([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]), 4.0)


if __name__ == "__main__":
    unittest.main()
