"""Tests of the benchmark itself: the correctness gate rejects corrupted
outputs, every workload runs in smoke mode, and the benchmark refuses to
run without the package.

    python3 perfbench/test_gate.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from ordercomplete.oracle import brute_closure  # noqa: E402

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())
        self.addCleanup(shutil.rmtree, self.tmp)
        self.p = workloads.Pass(self.tmp, 0, "g")

    def poset(self, spec):
        data, poset, _ = self.p.poset(spec)
        return poset, self.p.write(data)

    def test_complete_gate_rejects_corrupted_cut_lists(self):
        poset, path = self.poset(workloads.standard(3, (0,)))
        code, out = run.run_inprocess(["complete", "--input", path])
        self.assertEqual(code, 0)
        gate.check_complete(poset, out)

        def corrupt(edit):
            data = json.loads(out)
            edit(data)
            with self.assertRaises(gate.GateError):
                gate.check_complete(poset, json.dumps(data))

        cuts = lambda d: d["completion"]["cuts"]  # noqa: E731
        corrupt(lambda d: cuts(d).pop(1))  # a cut is missing
        corrupt(lambda d: cuts(d).insert(0, cuts(d).pop(2)))  # order broken
        corrupt(lambda d: cuts(d).__setitem__(-1, cuts(d)[-1][:-1]))  # full carrier gone
        pair = next(m for m in (1 << i | 1 << j for i in range(6) for j in range(i)) if brute_closure(poset, m) != m)
        corrupt(lambda d: cuts(d).__setitem__(1, [x for i, x in enumerate(poset.labels) if pair >> i & 1]))
        corrupt(lambda d: d["completion"]["embedding"].__setitem__(poset.labels[0], 0))
        corrupt(lambda d: d["verification"].__setitem__("density", False))

    def test_export_gate_rejects_missing_and_false_covers(self):
        poset, path = self.poset(workloads.standard(3))
        code, out = run.run_inprocess(["export", "--input", path])
        self.assertEqual(code, 0)
        gate.check_export(poset, out)
        lines = out.splitlines()
        edges = [i for i, line in enumerate(lines) if "->" in line]
        with self.assertRaises(gate.GateError):
            gate.check_export(poset, "\n".join(lines[: edges[0]] + lines[edges[0] + 1 :]))
        bottom, top = 0, sum(1 for line in lines if "label=" in line) - 1
        with self.assertRaises(gate.GateError):
            gate.check_export(poset, "\n".join(lines[:-1] + [f"  c{bottom} -> c{top};", "}"]))

    def test_solve_gate_rejects_wrong_verdicts_and_solutions(self):
        domain, spec, mapping = workloads.family("gridfn", g=2, v=2, stencil="dilate")
        path, eq, codomain, _ = self.p.equation(domain, spec, mapping)
        for target in self.p.every_target(codomain):
            code, out = run.run_inprocess(["solve", "--input", path, "--target", self.p.write(target)])
            gate.check_solve(eq, target, None, code, out)
            report = json.loads(out)
            flipped = dict(report, solvable=not report["solvable"])
            with self.assertRaises(gate.GateError):
                gate.check_solve(eq, target, None, 1 - code, json.dumps(flipped))
            if report["solvable"] and len(report["solution"]) > 1:
                wrong = dict(report, solution=report["solution"][:-1])
                with self.assertRaises(gate.GateError):
                    gate.check_solve(eq, target, None, code, json.dumps(wrong))

    def test_wrong_exit_code_fails_the_op(self):
        op = workloads.Op("gen", ["gen"], (3,), lambda out, code: gate.check_silent(out))
        good = run.Result(op, 3, "", 0.0, 0.0)
        bad = run.Result(op, 0, "", 0.0, 0.0)
        self.assertEqual(run.gate_pass([good]), 0)
        self.assertEqual(run.gate_pass([good, bad]), 1)


class SmokeTest(unittest.TestCase):
    def bench(self, *args, cwd=ROOT):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", *args], capture_output=True, encoding="utf-8", cwd=cwd, timeout=600,
        )

    def test_every_workload_runs_and_reports_every_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for workload in workloads.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = self.bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                      "--trace", str(trace), "--smoke")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(list(result["metrics"]), [m["name"] for m in spec[kind]])

    def test_refuses_to_run_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = self.bench("--workload", "cli", "--seed", "1", "--seconds", "1", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
