"""Benchmark of the ordercomplete command line, end to end and per layer.

    python3 perfbench/run.py --workload capscale|corpus|cli --seed N \
        --seconds S --trace 0|1 [--smoke]

Run it from a checkout; it imports the package from ``src/``.  Each op
is one CLI command on one generated input file, run single-threaded in a
closed loop with one client: the next op starts when the previous one
has finished.  ``capscale`` and ``corpus`` call ``ordercomplete.cli.main``
in-process with stdout captured; ``cli`` starts one
``python -m ordercomplete`` process per op.  The run times whole passes
(see ``workloads.py``), at least one, while another pass of average
length still fits in ``--seconds``, and until ``MIN_OPS`` ops were timed.  Every op's output is checked after its pass,
outside the timed region; a failed check makes the run exit 1.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
Their times are calibrated against machine drift (see
``calibration.py``); the plain wall-clock readings are printed next to
them and kept in the result file under ``perfbench/out/``.
``--trace 1`` alternates untraced and traced in-process passes (also on
``cli``, whose argv lists then run in-process, warm) and reports the
per-layer metrics of ``tracing.py``, per pass, as medians over the traced
passes, in plain wall time; the spans go to ``perfbench/out/``.
``--smoke`` runs the workload at a tiny size, for a quick check.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_OPS = 100  # so that p90 has at least ten samples beyond it
SETUP_REPEATS = 5
PROBE_REPEATS = 5
COMMANDS = ("complete", "export", "solve", "check")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("capscale", "corpus", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one setup, no op minimum")
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_inprocess(argv: list[str]) -> tuple[int | None, str]:
    """One ``cli.main`` call; returns (exit code, stdout).  A crash is
    reported and returns exit code None, which no op expects."""
    from ordercomplete import cli

    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an op that crashes counts as failed, the run goes on
        print(f"crash: {' '.join(argv)}: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = None
    return code, out.getvalue()


def run_cold(argv: list[str]) -> tuple[int, str]:
    """One ``python -m ordercomplete`` process; waits for it to end."""
    proc = subprocess.run(
        [sys.executable, "-m", "ordercomplete", *argv],
        capture_output=True, encoding="utf-8", env=child_env(), cwd=ROOT, timeout=120,
    )
    return proc.returncode, proc.stdout


class Result(NamedTuple):
    op: object
    code: int | None
    out: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


def timed_pass(ops, runner, clock=None, tracer=None) -> tuple[list[Result], float]:
    """Run ops back to back, calibrating after each when a clock is given;
    returns the results and the pass's wall time."""
    results = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        begin = time.perf_counter()
        if tracer is None:
            code, out = runner(op.argv)
        else:
            code, out = tracer.op(i, lambda: runner(op.argv))
        results.append(Result(op, code, out, begin, time.perf_counter()))
        if clock is not None:
            clock.calibrate()
    if clock is not None:
        clock.calibrate()
    return results, time.perf_counter() - start


def summarize(passes) -> dict:
    """End-to-end timing metrics from passes of (command, seconds) pairs."""
    times = [dt for one in passes for _, dt in one]
    metrics = {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1000 * statistics.median(times),
        "op_p90_ms": 1000 * statistics.quantiles(times, n=10)[-1],
    }
    for command in COMMANDS:
        metrics[f"{command}_s"] = statistics.median(sum(dt for c, dt in one if c == command) for one in passes)
    return metrics


def warm_up(ops):
    """The first op of each command."""
    return list({op.command: op for op in reversed(ops)}.values())


def gate_pass(results) -> int:
    """Check every op of a pass; returns the number that failed."""
    failed = 0
    for r in results:
        try:
            if r.code not in r.op.exits:
                raise RuntimeError(f"exit code {r.code}, expected one of {r.op.exits}")
            r.op.check(r.out, r.code)
        except Exception as exc:  # any wrong output is a failed op, reported with its cause
            failed += 1
            print(f"FAILED {' '.join(r.op.argv)}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return failed


def probe_ms(code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=child_env(), cwd=ROOT, timeout=60)
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


def provenance(args) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, encoding="utf-8", cwd=ROOT, env=env, timeout=30,
        ).stdout.strip() or "unknown"
    except OSError:
        revision = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "git_revision": revision,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "src_lines": src_lines,
    }


class Run:
    def __init__(self, args):
        import workloads

        self.args = args
        self.workdir = OUT / f"work-{os.getpid()}"
        self.build_pass = workloads.build_pass
        self.attempted = 0
        self.failed = 0

    def ops(self, tag: str, small: bool | None = None):
        small = self.args.smoke if small is None else small
        return self.build_pass(self.args.workload, self.workdir / tag, self.args.seed, tag, small)

    def finish(self, tag: str, results) -> None:
        """Gate a pass's results and delete its input files."""
        self.attempted += len(results)
        self.failed += gate_pass(results)
        shutil.rmtree(self.workdir / tag, ignore_errors=True)

    def setup(self, runner, clock) -> tuple[float, float]:
        """Warm up on small inputs with other tags and write the first
        pass's files; repeated, returns the median wall and calibrated
        times of one set-up."""
        reps = []
        for r in range(1 if self.args.smoke else SETUP_REPEATS):
            start = time.perf_counter()
            warm, _ = timed_pass(warm_up(self.ops(f"w{r}", small=True)), runner)
            self.first = self.ops("p0")
            reps.append((start, time.perf_counter()))
            clock.calibrate()
            self.finish(f"w{r}", warm)
        clock.calibrate()
        return (statistics.median(end - start for start, end in reps),
                statistics.median((end - start) * clock.scale(start, end) for start, end in reps))

    def measure(self, runner, clock) -> tuple[dict, dict]:
        """End-to-end timing metrics over whole untraced passes, from wall
        times and from calibrated times."""
        walls, wall_passes, passes = [], [], []
        ops, index = self.first, 0
        while True:
            results, wall = timed_pass(ops, runner, clock)
            self.finish(f"p{index}", results)
            walls.append(wall)
            wall_passes.append([(r.op.command, r.seconds) for r in results])
            passes.append([(r.op.command, r.seconds * clock.scale(r.start, r.end)) for r in results])
            index += 1
            if self.used_up(walls) and (sum(map(len, passes)) >= MIN_OPS or self.args.smoke):
                break
            ops = self.ops(f"p{index}")
        return summarize(wall_passes), summarize(passes)

    def used_up(self, walls) -> bool:
        """Would one more pass of average length overrun ``--seconds``?"""
        elapsed = sum(walls)
        return elapsed + elapsed / len(walls) > self.args.seconds

    def trace(self, runner) -> dict:
        """Per-layer metrics from traced passes, each after an untraced one."""
        import tracing

        plain, traced, layers, spans = [], [], [], []
        ops, index = self.first, 0
        while True:
            results, wall = timed_pass(ops, runner)
            self.finish(f"p{index}", results)
            plain.append(wall)
            tracer = tracing.Tracer()
            ops = self.ops(f"t{index}")
            tracer.install()
            try:
                results, wall = timed_pass(ops, runner, tracer=tracer)
            finally:
                tracer.remove()
            self.finish(f"t{index}", results)
            traced.append(wall)
            layers.append(tracing.layer_metrics(tracer.spans))
            spans += [dict(span, traced_pass=index) for span in tracer.spans]
            index += 1
            if self.used_up([a + b for a, b in zip(plain, traced)]):
                break
            ops = self.ops(f"p{index}")
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{self.args.workload}-seed{self.args.seed}.jsonl", "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
        metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        metrics["trace.overhead_ratio"] = sum(traced) / sum(plain)
        floor = probe_ms("pass")
        metrics["cli.interpreter_ms"] = floor
        metrics["cli.import_ms"] = probe_ms("import ordercomplete.cli") - floor
        return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ordercomplete" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'ordercomplete'}; run from a repository checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import calibration

    clock = calibration.Clock()
    start = time.perf_counter()
    import ordercomplete.cli  # noqa: F401  (timed as part of set-up)

    import_end = time.perf_counter()
    clock.calibrate()
    run = Run(args)
    runner = run_cold if args.workload == "cli" and not args.trace else run_inprocess
    wall = {}
    try:
        setup_wall, setup_s = run.setup(runner, clock)
        if args.trace:
            values = run.trace(runner)
            wanted = spec["per_layer"]
        else:
            wall, values = run.measure(runner, clock)
            wall["setup_s"] = import_end - start + setup_wall
            values["setup_s"] = (import_end - start) * clock.scale(start, import_end) + setup_s
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            values["peak_rss_mib"] = resource.getrusage(who).ru_maxrss / 1024
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        note = f"  (wall {wall[name]:.6g})" if name in wall else ""
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}{note}")
    print(f"{'error_rate':40s} {run.failed / run.attempted:14.6g} ratio ({run.failed} of {run.attempted} ops failed)")
    record = {"provenance": provenance(args), "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics, "wall_metrics": wall, "calibration_s": clock.samples}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
