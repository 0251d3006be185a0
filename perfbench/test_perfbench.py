"""Self-test of the benchmark's checker and span arithmetic.

    python3 perfbench/test_perfbench.py

Needs only the files under perfbench/ (no collspec run).
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

PACKET = ("packet", "--base", "43")
TABLE1 = ("table1",)
SCAN = ("verify", "decompose", "--bases", "3,5,7,11,13,17,19,23,29,31,37,41,43")
DUMP_CSV = ("dump-collision", "--base", "251", "--format", "csv")


def golden(argv) -> bytes:
    data = run.read_golden(argv)
    assert data is not None, f"no golden for {argv}"
    return data


def problems(argv, data: bytes, code: int | None = None) -> list[str]:
    code = check.expected_exit(argv) if code is None else code
    return check.check_report(argv, code, data, golden(argv))[0]


class CheckerTest(unittest.TestCase):
    def test_accepts_every_golden(self):
        for workload in run.WORKLOADS:
            for argv in run.workload_ops(workload, run.DEFAULT_SEED):
                with self.subTest(argv=argv):
                    self.assertEqual(problems(argv, golden(argv)), [])

    def test_rejects_flipped_verdict(self):
        doc = json.loads(golden(PACKET))
        doc["verdicts"][0]["passed"] = False
        self.assertTrue(problems(PACKET, json.dumps(doc).encode()))

    def test_rejects_expected_red_turning_green(self):
        doc = json.loads(golden(TABLE1))
        doc["verdicts"][0]["passed"] = True
        self.assertEqual(doc["verdicts"][0]["check"], "table1[b=5]")
        self.assertTrue(problems(TABLE1, json.dumps(doc).encode(), code=0))

    def test_rejects_wrong_exit_code(self):
        self.assertTrue(problems(TABLE1, golden(TABLE1), code=0))

    def test_rejects_changed_numerator(self):
        lines = golden(DUMP_CSV).decode().splitlines(keepends=True)
        a, s, num, den = lines[1].rstrip("\n").split(",")
        lines[1] = f"{a},{s},{int(num) + 1},{den}\n"
        self.assertTrue(problems(DUMP_CSV, "".join(lines).encode()))

    def test_rejects_missing_csv_row(self):
        lines = golden(DUMP_CSV).decode().splitlines(keepends=True)
        del lines[5]
        found = problems(DUMP_CSV, "".join(lines).encode())
        self.assertTrue(any("expected phi" in p for p in found), found)

    def test_rejects_missing_json_row(self):
        doc = json.loads(golden(SCAN))
        del doc["verdicts"][4]["details"][7]
        found = problems(SCAN, json.dumps(doc).encode())
        self.assertTrue(any("rows = " in p for p in found), found)

    def test_rejects_malformed_report(self):
        doc = json.loads(golden(PACKET))
        del doc["verdicts"][0]["details"][0]["twist_count"]
        self.assertTrue(problems(PACKET, json.dumps(doc).encode()))
        self.assertTrue(problems(PACKET, b"[]"))

    def test_rejects_float_beyond_tolerance(self):
        doc = json.loads(golden(PACKET))
        row = doc["verdicts"][0]["details"][3]
        row["ratio"] += 1e-6
        self.assertTrue(problems(PACKET, json.dumps(doc).encode()))
        row["ratio"] -= 1e-6 - 1e-13  # within 1e-10 of the golden
        self.assertEqual(problems(PACKET, json.dumps(doc).encode()), [])

    def test_headroom(self):
        doc = {"verdicts": [
            {"check": "a", "passed": True, "worst_residual": 1e-15, "tolerance": 1e-10},
            {"check": "b", "passed": True, "worst_residual": 0, "tolerance": 1e-10},
            {"check": "table1[b=5]", "passed": False, "worst_residual": 0.06,
             "tolerance": 0.05},
            {"check": "table1-measured[b=61]", "passed": True, "worst_residual": 0.0,
             "tolerance": 0.05},
        ]}
        self.assertAlmostEqual(check.headroom(doc), 5.0)
        self.assertEqual(check.headroom({"verdicts": doc["verdicts"][1:2]}), 16.0)


class SpanTest(unittest.TestCase):
    def test_self_times_on_nested_trace(self):
        trace = [
            ("cli.main", 0.0, 10.0, -1),
            ("spectrum.f", 1.0, 4.0, 0),
            ("collision.g", 3.0, 6.0, 0),  # overlaps its sibling: counted once
            ("characters.h", 1.0, 2.0, 1),
            ("spectrum.f", 9.0, 12.0, 0),  # runs past its parent: clipped
        ]
        self.assertEqual(spans.self_times(trace), [4.0, 2.0, 3.0, 1.0, 3.0])
        agg = spans.aggregate(trace)
        self.assertEqual(agg["spectrum.f"], {"calls": 2, "incl_s": 6.0, "self_s": 5.0})
        self.assertEqual(agg["cli.main"]["self_s"], 4.0)

    def test_scaling_exponent(self):
        points = [(phi, 1e-6 * phi**1.5) for phi in (156, 1806, 9312)]
        self.assertAlmostEqual(run.scaling_exponent(points), 1.5)
        self.assertEqual(run.scaling_exponent(points[:1]), 0.0)


if __name__ == "__main__":
    unittest.main()
