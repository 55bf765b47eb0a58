"""Unit tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import schedule as sch  # noqa: E402
from perfbench import stats  # noqa: E402
from perfbench.tracing import Recorder, self_times, totals  # noqa: E402


def _bounds(plan) -> list:
    """Every (lo, hi) a schedule sends, in order."""
    return [q for r in plan.requests for q in r.queries]


class ScheduleTests(unittest.TestCase):
    def test_same_seed_same_operations(self):
        for name, build in sch.BUILDERS.items():
            with self.subTest(workload=name):
                self.assertEqual(build(7), build(7))

    def test_different_seed_different_bounds(self):
        for name, build in sch.BUILDERS.items():
            if name == "sweep-scenarios":
                continue
            with self.subTest(workload=name):
                self.assertNotEqual(_bounds(build(7)), _bounds(build(8)))

    def test_sweep_seeds_follow_the_bench_seed(self):
        self.assertNotEqual(sch.sweep(7).trial_seeds, sch.sweep(8).trial_seeds)
        self.assertEqual(len(set(sch.sweep(7).trial_seeds)), 2)

    def test_schedule_ignores_global_random_state(self):
        random.seed(1)
        first = sch.query_wide(3)
        random.seed(2)
        self.assertEqual(first, sch.query_wide(3))

    def test_bounds_are_inside_the_domain(self):
        for plan, artifacts in ((sch.query_wide(5), sch.query_wide(5).artifacts),
                                (sch.query_deep(5), sch.query_deep(5).artifacts)):
            for req in plan.requests:
                n = artifacts[req.artifact]["n_bins"]
                for lo, hi in req.queries:
                    self.assertTrue(0 <= lo < hi <= n)

    def test_additive_triples_are_found(self):
        queries = ((2, 9), (2, 5), (5, 9), (1, 2))
        self.assertEqual(sch.additive_triples(queries), [(0, 1, 2)])
        self.assertEqual(sch.additive_triples(((1, 2),)), [])

    def test_deep_quota_is_exact_in_binary(self):
        plan = sch.query_deep(1)
        for _name, budget in plan.tenants:
            self.assertEqual(budget / sch.DEEP_EPSILON, plan.quota)
            spent = 0.0
            for _ in range(plan.quota):
                spent += sch.DEEP_EPSILON
            self.assertEqual(spent, budget)

    def test_specs_carry_no_seed_field(self):
        for plan in (sch.query_wide(4), sch.query_deep(4)):
            for s in plan.artifacts + plan.setup_publishes:
                self.assertNotIn("seed", s)

    def test_wide_mix_is_the_same_on_every_seed(self):
        def mix(plan):
            kinds = sorted(len(r.queries) for r in plan.requests)
            arts = sorted(r.artifact for r in plan.requests)
            return kinds, arts
        self.assertEqual(mix(sch.query_wide(1)), mix(sch.query_wide(2)))
        kinds, _ = mix(sch.query_wide(1))
        self.assertEqual(kinds.count(1), 350)  # 40% points + 30% ranges
        self.assertEqual(kinds.count(6), 150)  # 30% two-triple batches

    def test_quota_splits_exactly(self):
        self.assertEqual(sch._quota([0.4, 0.3, 0.3], 500), [200, 150, 150])
        self.assertEqual(sch._quota([1.0, 1.0, 1.0], 10), [4, 3, 3])
        self.assertEqual(sum(sch._quota([1.0 / (r + 1) for r in range(12)], 500)), 500)


class PercentileTests(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.percentile(list(range(99)), 90))
        self.assertEqual(stats.percentile(list(range(1, 101)), 90), 90)

    def test_median_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.percentile(list(range(19)), 50))
        self.assertEqual(stats.percentile(list(range(1, 21)), 50), 10)

    def test_order_does_not_matter(self):
        values = [random.Random(3).random() for _ in range(200)]
        self.assertEqual(stats.percentile(values, 90),
                         stats.percentile(sorted(values, reverse=True), 90))

    def test_median_over_rounds_ignores_a_minority_of_slow_rounds(self):
        base = [float(v) for v in range(1, 101)]
        rounds = [base] * 3 + [[1.3 * v for v in base]] * 2
        self.assertEqual(stats.median_over_rounds(rounds, 50), 50.0)
        self.assertEqual(stats.median_over_rounds(rounds, 90), 90.0)
        pooled = [v for r in rounds for v in r]
        self.assertGreater(stats.percentile(pooled, 50), 50.0)
        with self.assertRaises(ValueError):
            stats.median_over_rounds([base, base[:50]], 90)

    def test_spread_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)


class SelfTimeTests(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping)
        # and c [8, 12] (sticking out); a has a child [2, 3].
        spans = [
            (1, "root", 0.0, 10.0, None, None),
            (2, "a", 1.0, 4.0, 1, None),
            (3, "b", 3.0, 6.0, 1, None),
            (4, "c", 8.0, 12.0, 1, None),
            (5, "a.child", 2.0, 3.0, 2, None),
        ]
        st = self_times(spans)
        self.assertAlmostEqual(st[1], 10.0 - (5.0 + 2.0))  # [1,6] ∪ [8,10]
        self.assertAlmostEqual(st[2], 2.0)
        self.assertAlmostEqual(st[3], 3.0)
        self.assertAlmostEqual(st[5], 1.0)
        self.assertEqual(totals(spans, "a"), (1, 3.0))
        self.assertEqual(totals(spans, "root", st), (1, 3.0))

    def test_recorder_parents_follow_the_call_stack(self):
        rec = Recorder()

        def inner():
            return 7

        def outer():
            return rec.call("inner", inner, (), {})

        self.assertEqual(rec.call("outer", outer, (), {}, "rid-1"), 7)
        by_name = {s[1]: s for s in rec.spans}
        self.assertIsNone(by_name["outer"][4])
        self.assertEqual(by_name["inner"][4], by_name["outer"][0])
        self.assertEqual(by_name["outer"][5], "rid-1")
        st = self_times(rec.spans)
        outer_span = by_name["outer"]
        inner_span = by_name["inner"]
        self.assertAlmostEqual(
            st[outer_span[0]],
            (outer_span[3] - outer_span[2]) - (inner_span[3] - inner_span[2]))


class ClosedFormTests(unittest.TestCase):
    def test_laplace_range_mse(self):
        self.assertEqual(stats.laplace_range_mse(1, 1.0), 2.0)
        self.assertEqual(stats.laplace_range_mse(8, 0.5), 64.0)
        with self.assertRaises(ValueError):
            stats.laplace_range_mse(0, 1.0)

    def test_laplace_range_mse_matches_simulation(self):
        rng = random.Random(11)
        eps, length, trials = 0.5, 4, 40_000

        def lap():
            return rng.expovariate(eps) * (1 if rng.random() < 0.5 else -1)

        sq = [sum(lap() for _ in range(length)) ** 2 for _ in range(trials)]
        expected = stats.laplace_range_mse(length, eps)
        # Relative sd of the mean of squared sums of 4 Laplace draws is
        # below 2/sqrt(trials) = 1%; allow five of those.
        self.assertLess(abs(statistics.fmean(sq) / expected - 1.0), 0.05)

    def test_laplace_band_accepts_honest_and_rejects_misscaled(self):
        rng = random.Random(5)
        honest = [(rng.expovariate(1.0) ** 2) / 2 for _ in range(200)]
        self.assertTrue(stats.laplace_band_ok(statistics.fmean(honest), 200))
        # Noise scale two or three times too large or too small (MSE
        # factor 4 or 9 either way); no noise at all.
        for factor in (4.0, 0.25, 9.0, 1.0 / 9.0, 0.0):
            scaled = [factor * v for v in honest]
            self.assertFalse(stats.laplace_band_ok(statistics.fmean(scaled), 200),
                             f"factor {factor}")
        with self.assertRaises(ValueError):
            stats.laplace_band_ok(1.0, stats.LAPLACE_MIN_ANSWERS - 1)

    def test_band_narrows_with_the_answer_count(self):
        lo, hi = stats.laplace_band(128)
        self.assertAlmostEqual(lo, 1.0 - 4.0 * math.sqrt(5.0 / 128))
        self.assertAlmostEqual(hi, 1.0 + 8.0 * math.sqrt(5.0 / 128))
        self.assertLess(hi, 4.0)
        lo, hi = stats.laplace_band(512)
        self.assertGreater(lo, 0.25 * (1.0 + 4.0 * math.sqrt(5.0 / 512)))
        # Never narrower than +-0.2.
        self.assertEqual(stats.laplace_band(10 ** 6), (0.8, 1.2))
        self.assertTrue(stats.laplace_band_ok(hi, 512))
        self.assertFalse(stats.laplace_band_ok(math.nextafter(hi, 10), 512))

    def test_band_holds_honest_cells_and_catches_a_doubled_scale(self):
        # 2000 simulated cells of 128 unit queries each: every honest one
        # inside, nearly every one at twice the noise scale outside.
        rng = random.Random(17)
        honest_out = doubled_in = 0
        for _ in range(2000):
            mean = statistics.fmean(rng.expovariate(1.0) ** 2 / 2 for _ in range(128))
            honest_out += not stats.laplace_band_ok(mean, 128)
            doubled_in += stats.laplace_band_ok(4.0 * mean, 128)
        self.assertEqual(honest_out, 0)
        self.assertLess(doubled_in, 100)

    def test_disjoint_ranges(self):
        ranges = [(0, 10), (2, 3), (3, 4), (3, 4), (4, 9), (8, 12), (9, 10)]
        chosen = stats.disjoint_ranges(ranges)
        self.assertEqual(chosen, [(2, 3), (3, 4), (4, 9), (9, 10)])
        for (a, b), (c, d) in zip(chosen, chosen[1:]):
            self.assertLessEqual(b, c)
        self.assertEqual(stats.disjoint_ranges([]), [])

    def test_query_schedules_leave_enough_disjoint_dwork_ranges(self):
        # Every request of query-wide is answered; query-deep answers each
        # tenant's first ``quota`` queries.
        for seed in range(1, 41):
            wide, deep = sch.query_wide(seed), sch.query_deep(seed)
            ranges = {q for r in wide.requests for q in r.queries
                      if wide.artifacts[r.artifact]["publisher"] == "dwork"}
            self.assertGreaterEqual(len(stats.disjoint_ranges(ranges)),
                                    stats.LAPLACE_MIN_ANSWERS)
            answered = [r for r in deep.requests
                        if int(r.key.rsplit("-", 1)[1]) < deep.quota]
            ranges = {q for r in answered for q in r.queries}
            self.assertGreaterEqual(len(stats.disjoint_ranges(ranges)),
                                    stats.LAPLACE_MIN_ANSWERS)


if __name__ == "__main__":
    unittest.main()
