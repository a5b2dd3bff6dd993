#!/usr/bin/env python3
"""Tests for tools/bench_diff.py on hand-made BENCH_*.json fixtures.

Run directly (python3 tools/bench_diff_test.py) or through ctest
(BenchDiffTest). Stdlib only.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIFF = Path(__file__).resolve().parent / "bench_diff.py"
sys.path.insert(0, str(BENCH_DIFF.parent))
import bench_diff  # noqa: E402


def streaming(p50_s, derived=100):
    return {"bench": "streaming", "context": {"build_type": "Release"},
            "runs": [{"name": "eth_perp_120", "events": 120,
                      "p50_event_s": p50_s, "derived": derived}]}


def scaling(overhead_frac):
    return {"bench": "contract_scaling",
            "points": [{"events": 30, "window_s": 900, "sequential_s": 1.0,
                        "derived": 7}],
            "guard_overhead": {"events": 267, "window_s": 7200,
                               "overhead_frac": overhead_frac}}


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.dir = Path(self._dir.name)

    def tearDown(self):
        self._dir.cleanup()

    def write(self, name, tree):
        path = self.dir / name
        path.write_text(json.dumps(tree))
        return str(path)

    def diff(self, base, cands):
        paths = [self.write("base.json", base)]
        paths += [self.write(f"cand{i}.json", c) for i, c in enumerate(cands)]
        return subprocess.run(
            [sys.executable, str(BENCH_DIFF), *paths, "--threshold", "0.25"],
            capture_output=True, text=True).returncode

    def test_one_slow_outlier_of_three_passes(self):
        cands = [streaming(1.0), streaming(2.0), streaming(1.1)]
        self.assertEqual(self.diff(streaming(1.0), cands), 0)

    def test_two_slow_files_of_three_fail(self):
        cands = [streaming(1.0), streaming(2.0), streaming(1.9)]
        self.assertEqual(self.diff(streaming(1.0), cands), 1)

    def test_single_candidate_is_gated_directly(self):
        self.assertEqual(self.diff(streaming(1.0), [streaming(1.2)]), 0)
        self.assertEqual(self.diff(streaming(1.0), [streaming(1.3)]), 1)

    def test_candidates_that_did_different_work_fail(self):
        cands = [streaming(1.0), streaming(1.0, derived=101), streaming(1.0)]
        self.assertEqual(self.diff(streaming(1.0), cands), 1)

    def test_median_tree_takes_time_medians_and_first_of_the_rest(self):
        cands = [streaming(3.0), streaming(1.0), streaming(2.0)]
        errors = []
        merged = bench_diff.median_tree(cands, "", errors)
        self.assertEqual(errors, [])
        self.assertEqual(merged["runs"][0]["p50_event_s"], 2.0)
        self.assertEqual(merged["runs"][0]["derived"], 100)
        self.assertEqual(merged["context"], {"build_type": "Release"})

    def test_guard_overhead_gate(self):
        self.assertEqual(self.diff(scaling(0.01), [scaling(0.01)]), 0)
        self.assertEqual(self.diff(scaling(0.01), [scaling(0.03)]), 1)


if __name__ == "__main__":
    unittest.main()
