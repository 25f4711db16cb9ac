"""Tests of the benchmark's own statistics, digest gate and name rules.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import statistics
import tempfile
import unittest
from pathlib import Path

import benchstats

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        self.assertTrue(benchstats.supported(1000, 0.99))
        self.assertEqual(benchstats.beyond(1000, 0.99), 10)
        self.assertFalse(benchstats.supported(999, 0.99))
        self.assertEqual(benchstats.percentile(list(range(1, 1001)), 0.99), 990)
        self.assertIsNone(benchstats.percentile(list(range(1, 1000)), 0.99))

    def test_nearest_rank_ignores_input_order(self):
        samples = list(range(2000, 0, -1))
        self.assertEqual(benchstats.percentile(samples, 0.5), 1000)
        self.assertEqual(benchstats.percentile(samples, 0.99), 1980)


class MedianAndQuartiles(unittest.TestCase):
    def test_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        q1, q2, q3 = benchstats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, benchstats.median(values))
        self.assertAlmostEqual(benchstats.iqr_share(values), (q3 - q1) / q2)

    def test_single_value(self):
        self.assertEqual(benchstats.quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(benchstats.iqr_share([2.5]), 0.0)


class DigestGate(unittest.TestCase):
    def references(self):
        refs = sorted((HERE / "ref").glob("*.digest"))
        self.assertTrue(refs, "no stored reference digests")
        return refs

    def test_stored_reference_matches_itself(self):
        for path in self.references():
            workload, seed, _ = path.name.split(".")
            status, _ = benchstats.check_digest(HERE / "ref", workload, int(seed), path.read_text())
            self.assertEqual(status, "match", path.name)

    def test_fires_on_perturbed_reference(self):
        for path in self.references():
            workload, seed, _ = path.name.split(".")
            text = path.read_text()
            # Change the last digit of the first number in the digest.
            first = next(i for i, c in enumerate(text) if c.isdigit() and text[i - 1] == "=")
            end = first
            while end < len(text) and (text[end].isdigit() or text[end] == "."):
                end += 1
            last = end - 1
            bumped = str((int(text[last]) + 1) % 10)
            perturbed = text[:last] + bumped + text[last + 1:]
            with tempfile.TemporaryDirectory() as tmp:
                (Path(tmp) / path.name).write_text(perturbed)
                status, detail = benchstats.check_digest(tmp, workload, int(seed), text)
            self.assertEqual(status, "mismatch", path.name)
            self.assertIn("expected", detail)

    def test_missing_line_is_a_mismatch(self):
        path = self.references()[0]
        workload, seed, _ = path.name.split(".")
        truncated = "".join(path.read_text().splitlines(keepends=True)[:-1])
        status, _ = benchstats.check_digest(HERE / "ref", workload, int(seed), truncated)
        self.assertEqual(status, "mismatch")

    def test_unpinned_seed_has_no_reference(self):
        status, _ = benchstats.check_digest(HERE / "ref", "paper_table1", 123456789, "x")
        self.assertEqual(status, "no-reference")


class MetricNames(unittest.TestCase):
    def test_benchmark_json_is_valid(self):
        self.assertEqual(benchstats.validate_benchmark(SPEC), [])

    def mutated(self, fn):
        spec = copy.deepcopy(SPEC)
        fn(spec)
        return benchstats.validate_benchmark(spec)

    def test_rejects_bad_names(self):
        for bad in ("_lead", "has space", "x" * 65, "", "a:b"):
            errors = self.mutated(lambda s, bad=bad: s["per_layer"][0].update(name=bad))
            self.assertTrue(errors, bad)

    def test_rejects_duplicates_across_sections(self):
        errors = self.mutated(lambda s: s["per_layer"][0].update(name="wall_s"))
        self.assertTrue(any("duplicate" in e for e in errors))

    def test_rejects_contract_violations(self):
        self.assertTrue(self.mutated(lambda s: s["end_to_end"][0].update(bound=0.3)))
        self.assertTrue(self.mutated(lambda s: s["end_to_end"][0].update(unit="m s")))
        self.assertTrue(self.mutated(lambda s: s["per_layer"][0].update(better="up")))
        self.assertTrue(self.mutated(lambda s: s.update(run_seconds=61)))
        self.assertTrue(self.mutated(lambda s: s.update(end_to_end=[
            m for m in s["end_to_end"] if m["name"] != "setup_s"])))
        self.assertTrue(self.mutated(lambda s: s.update(extra=1)))

    def test_result_metrics_must_match_declaration(self):
        metrics = {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        self.assertEqual(benchstats.validate_result_metrics(SPEC, metrics, trace=False), [])
        missing = dict(metrics)
        missing.pop("wall_s")
        self.assertTrue(benchstats.validate_result_metrics(SPEC, missing, trace=False))
        extra = dict(metrics, latency_ms={"value": 1.0, "unit": "ms"})
        self.assertTrue(benchstats.validate_result_metrics(SPEC, extra, trace=False))
        wrong_unit = dict(metrics, wall_s={"value": 1.0, "unit": "ms"})
        self.assertTrue(benchstats.validate_result_metrics(SPEC, wrong_unit, trace=False))
        not_number = dict(metrics, wall_s={"value": "fast", "unit": "s"})
        self.assertTrue(benchstats.validate_result_metrics(SPEC, not_number, trace=False))
        self.assertTrue(benchstats.validate_result_metrics(SPEC, metrics, trace=True))


if __name__ == "__main__":
    unittest.main()
