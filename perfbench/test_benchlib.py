"""Tests of the benchmark's own arithmetic and of its probe timer.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

from the repository root. ProbeTimerTest builds perfbench/ first if needed.
"""

import math
import os
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402


class SeedDrawTest(unittest.TestCase):
    def test_same_seed_same_knobs(self):
        self.assertEqual(benchlib.serve_knobs(7), benchlib.serve_knobs(7))
        self.assertEqual(benchlib.serve_spec(7), benchlib.serve_spec(7))

    def test_different_seed_different_knobs(self):
        self.assertNotEqual(benchlib.serve_knobs(1), benchlib.serve_knobs(2))

    def test_knobs_in_range(self):
        lo, hi = benchlib.KEYS_RANGE
        j = benchlib.JITTER
        for seed in range(200):
            groups = benchlib.serve_knobs(seed)
            self.assertEqual(len(groups), 8)
            for name, app, k in groups:
                self.assertIn(app, benchlib.SERVE_APPS)
                self.assertEqual(k["requests"], benchlib.SERVE_REQUESTS)
                load = name.split("-")[-2 if app == "kv-store" else -1]
                nominal = benchlib.SERVE_LOADS[load]
                self.assertLessEqual(abs(k["gap"] - nominal), j)
                self.assertLessEqual(abs(k["work"] - benchlib.SERVE_WORK), j)
                if app == "kv-store":
                    self.assertTrue(lo <= k["keys"] <= hi)
                    self.assertIn(k["puts"], benchlib.KV_MIXES.values())
                else:
                    self.assertNotIn("keys", k)

    def test_mixes_share_inputs(self):
        groups = {name: k for name, _, k in benchlib.serve_knobs(3)}
        for load in benchlib.SERVE_LOADS:
            read = dict(groups[f"kv-store-{load}-read"])
            write = dict(groups[f"kv-store-{load}-write"])
            self.assertNotEqual(read.pop("puts"), write.pop("puts"))
            self.assertEqual(read, write)

    def test_draws_cover_range(self):
        d = benchlib.Draws(11)
        seen = {d.between(-2, 2) for _ in range(500)}
        self.assertEqual(seen, {-2, -1, 0, 1, 2})


class TailRuleTest(unittest.TestCase):
    def test_nearest_rank(self):
        v = list(range(1, 101))
        self.assertEqual(benchlib.nearest_rank(v, 50), 50)
        self.assertEqual(benchlib.nearest_rank(v, 90), 90)
        self.assertEqual(benchlib.nearest_rank(v, 100), 100)
        self.assertEqual(benchlib.nearest_rank([3, 1, 2], 50), 2)
        self.assertEqual(benchlib.nearest_rank([3, 1, 2], 0), 1)

    def test_tail_leaves_ten_beyond_and_is_highest(self):
        for n in range(11, 600):
            p = benchlib.tail_percentile(n)
            rank = math.ceil(p * n / 100)
            self.assertGreaterEqual(n - rank, 10, n)
            if p < 100:
                self.assertLess(n - math.ceil((p + 1) * n / 100), 10, n)

    def test_known_counts(self):
        self.assertEqual(benchlib.tail_percentile(104), 90)
        self.assertEqual(benchlib.tail_percentile(208), 95)
        self.assertEqual(benchlib.tail_percentile(1000), 99)
        self.assertIsNone(benchlib.tail_percentile(10))

    def test_tail_reports_count(self):
        samples = [float(i) for i in range(1, 209)]
        p, n, value = benchlib.tail(samples)
        self.assertEqual((p, n), (95, 208))
        self.assertEqual(value, 198.0)
        self.assertEqual(sum(1 for s in samples if s > value), 10)
        self.assertEqual(benchlib.tail([4.0, 2.0]), (100, 2, 4.0))


class SpeedFactorTest(unittest.TestCase):
    def test_steady_host_gives_one_factor(self):
        r = 2 * benchlib.REFERENCE_S
        per_point, whole = benchlib.speed_factors([r] * 6, range(5))
        f = 0.5 ** benchlib.SPEED_EXPONENT
        self.assertEqual(per_point, [f] * 5)
        self.assertEqual(whole, f)

    def test_reference_speed_leaves_times_alone(self):
        per_point, whole = benchlib.speed_factors(
            [benchlib.REFERENCE_S] * 4, [2, 0, 1])
        self.assertEqual(per_point, [1.0] * 3)
        self.assertEqual(whole, 1.0)

    def test_factors_follow_the_run_order(self):
        refs = [benchlib.REFERENCE_S * (1 + j) for j in range(9)]
        order = [3, 7, 0, 5, 1, 6, 2, 4]
        in_order, _ = benchlib.speed_factors(refs, range(8))
        shuffled, _ = benchlib.speed_factors(refs, order)
        for j, i in enumerate(order):
            self.assertEqual(shuffled[i], in_order[j])
        self.assertGreater(in_order[0], in_order[-1])

    def test_window_is_the_samples_around_the_point(self):
        w = benchlib.SPEED_WINDOW
        refs = [float(j + 1) for j in range(12)]
        per_point, _ = benchlib.speed_factors(refs, range(11))
        for j, f in enumerate(per_point):
            around = refs[max(0, j - w): j + w + 2]
            self.assertIn(refs[j], around)
            self.assertIn(refs[j + 1], around)
            self.assertAlmostEqual(
                f, (benchlib.REFERENCE_S / statistics.median(around))
                ** benchlib.SPEED_EXPONENT)

    def test_one_slow_sample_does_not_move_the_factors(self):
        refs = [benchlib.REFERENCE_S] * 11
        refs[5] *= 10
        per_point, whole = benchlib.speed_factors(refs, range(10))
        self.assertEqual(per_point, [1.0] * 10)
        self.assertEqual(whole, 1.0)


def span(ts, dur):
    return {"ts": ts, "dur": dur}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_keeps_its_duration(self):
        self.assertEqual(benchlib.self_times([span(0, 5)]), [5])

    def test_children_subtracted(self):
        spans = [span(0, 10), span(1, 2), span(5, 4)]
        self.assertEqual(benchlib.self_times(spans), [4, 2, 4])

    def test_grandchildren_only_leave_their_parent(self):
        spans = [span(0, 10), span(1, 6), span(2, 3)]
        self.assertEqual(benchlib.self_times(spans), [4, 3, 3])

    def test_overlapping_children_counted_once(self):
        spans = [span(0, 10), span(1, 4), span(3, 4)]
        self.assertEqual(benchlib.self_times(spans)[0], 4)

    def test_order_independent_and_siblings_at_top(self):
        spans = [span(12, 3), span(1, 2), span(0, 10), span(10, 5)]
        self.assertEqual(benchlib.self_times(spans), [3, 2, 8, 2])

    def test_child_sharing_parent_start(self):
        spans = [span(0, 3), span(0, 10)]
        self.assertEqual(benchlib.self_times(spans), [3, 7])


def fake_aggregates(fig9_base=1.143, fig9_bmi=0.996, fig12=1.147):
    return {
        "fig9": "== x ==\napp,HCC,Base,B+M,B+I,B+M+I\n"
                f"AVERAGE,1.000,{fig9_base},1.067,1.064,{fig9_bmi}\n",
        "fig10": "app,config,linefill,writeback,inval,memory,total(norm)\n"
                 "AVERAGE,B+M+I,,,,,0.930\n",
        "fig11": "app,globalWB Addr,globalWB Addr+L,WB norm,globalINV Addr,"
                 "globalINV Addr+L,INV norm\n"
                 "ep,194,194,1.000,99,99,1.000\n"
                 "is,266334,266320,1.000,18716,18702,0.999\n"
                 "cg,11264,11264,1.000,29680,18992,0.640\n"
                 "jacobi,20032,9280,0.463,11904,1152,0.097\n",
        "fig12": f"app,HCC,Base,Addr,Addr+L\nAVERAGE,1.000,2.023,1.164,{fig12}\n",
        "energy": "app,HCC uJ,B+M+I uJ,ratio,cache\nAVERAGE,,,1.008,,\n",
        "storage": "Savings: 100.609 KiB (paper reports ~102 KiB)\n"
                   "Savings: 2.30469 KiB (paper reports ~102 KiB)\n",
    }


class PaperErrorTest(unittest.TestCase):
    def test_reads_every_headline(self):
        got = benchlib.measured_headlines(fake_aggregates())
        self.assertEqual(len(got), len(benchlib.PAPER_REFERENCE))
        self.assertEqual(got[("fig9", "B+M+I avg")], 0.996)
        self.assertEqual(got[("fig10", "B+M+I avg")], 0.930)
        self.assertEqual(got[("fig11", "Jacobi INV kept")], 0.097)
        self.assertEqual(got[("fig12", "Addr+L avg")], 1.147)
        self.assertEqual(got[("VII-A", "KiB saved")], 100.609)
        self.assertEqual(got[("VII-B", "energy B+M+I/HCC")], 1.008)

    def test_errors(self):
        rows, per_figure, mean = benchlib.paper_errors(
            fake_aggregates(fig9_base=1.2, fig9_bmi=1.02, fig12=1.05))
        self.assertEqual(per_figure["fig9"], 0)
        self.assertEqual(per_figure["fig12"], 0)
        self.assertAlmostEqual(per_figure["fig10"], 100 * 0.03 / 0.96)
        self.assertAlmostEqual(mean, sum(r[-1] for r in rows) / len(rows))

    def test_missing_row_raises(self):
        aggs = fake_aggregates()
        aggs["fig12"] = "app,HCC\n"
        with self.assertRaises(ValueError):
            benchlib.paper_errors(aggs)


class WorkerGuardTest(unittest.TestCase):
    def test_refuses_more_workers_than_cpus(self):
        benchlib.check_workers(1, 1)
        benchlib.check_workers(4, 4)
        with self.assertRaises(ValueError):
            benchlib.check_workers(5, 4)
        with self.assertRaises(ValueError):
            benchlib.check_workers(0, 4)


class ProbeTimerTest(unittest.TestCase):
    """Timing a probe leaves its simulated outcome unchanged."""

    def test_timed_and_untimed_probes_agree(self):
        import run  # builds the same tree the benchmark uses
        root = os.path.dirname(HERE)
        bdir = run.build(root)
        r = subprocess.run([os.path.join(bdir, "perfbench_probe_test")],
                           capture_output=True, text=True, timeout=300)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertNotIn("FAIL", r.stdout)


if __name__ == "__main__":
    unittest.main()
