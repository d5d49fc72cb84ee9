"""One benchmark run of one workload: inputs, self-checks, the timed or traced loop, metrics.

Imported by run.py once ./src is on sys.path, since it imports phinull.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import THEOREM_DECIDERS, Tracer, replay
from yardstick import (
    IMPORT_YARDSTICK_CODE,
    NOMINAL_BLOCK_S,
    NOMINAL_IMPORT_S,
    Timeline,
    Yardstick,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 60
TAIL_BEYOND = 10
UNTRACED_SHARE = 1 / 3  # of a traced run's seconds, to measure the tracing overhead

# Set-up times are taken in the child, on the clock shared by all processes
# (CLOCK_MONOTONIC), from just before the parent starts it.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import phinull.cli
from phinull.io import load_instance
for path in sys.argv[3:]:
    load_instance(path)
print(time.monotonic() - float(sys.argv[2]))
"""
IMPORT_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
__import__(sys.argv[2])
print(time.perf_counter() - t0)
"""


def tail(values: list[float]) -> tuple[float, int]:
    """The highest order statistic with min(10, n // 4) calls beyond it, and that count.

    With at least 40 calls this is the highest percentile with ten calls
    beyond it; with fewer it keeps a quarter of the calls beyond, so it never
    falls below the median.
    """
    ordered = sorted(values)
    beyond = min(TAIL_BEYOND, len(ordered) // 4)
    return ordered[len(ordered) - 1 - beyond], beyond


def child(code: str, *args: str) -> float:
    """Run a fresh interpreter to completion; return the seconds it prints."""
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child interpreter exited {proc.returncode}: {proc.stderr.strip()}")
    return float(proc.stdout)


def children_normalised(runs: list) -> tuple[list[float], float]:
    """Call each child-running function in turn, with the import yardstick before, between
    and after them. Return each time x NOMINAL_IMPORT_S / median of the nearest
    yardsticks, and the median yardstick time."""
    def yardstick() -> float:
        return child(IMPORT_YARDSTICK_CODE, repr(time.monotonic()))

    yards = [yardstick()]
    times = []
    for run in runs:
        times.append(run())
        yards.append(yardstick())
    return [t * NOMINAL_IMPORT_S / statistics.median(yards[max(0, i - 1):i + 3])
            for i, t in enumerate(times)], statistics.median(yards)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "loadavg_start": os.getloadavg(),
    }


class Bench:
    """One run of one workload: inputs, self-checks, the loop, and the metrics."""

    def __init__(self, args, workdir: Path) -> None:
        self.args = args
        self.env = environment()
        self.yardstick = Yardstick()
        self.workload = workloads.build(args.workload, args.seed, workdir)
        self.checker = workloads.Checker()
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.notes: dict = {"draw": self.workload.draw}

    # -- calls ---------------------------------------------------------------

    def _call(self, i: int):
        return self.workload.calls[i % len(self.workload.calls)]

    def _judge(self, call, outcomes) -> None:
        self.attempted += 1
        problems = self.checker.check_call(call, outcomes)
        if problems:
            self.failed += 1
            self.problems += problems

    @staticmethod
    def _loop(seconds: float, body) -> None:
        """Call body(i) for i = 0, 1, ... until `seconds` have passed; whole calls only."""
        t0 = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - t0 < seconds:
            body(i)
            i += 1

    def _repeat_first_call(self) -> None:
        """The first call's argv again: every output must repeat byte for byte."""
        call = self._call(0)
        self.problems += self.checker.check_call(call, workloads.execute_call(call))

    def _timed_loop(self, seconds: float) -> tuple[Timeline, list[float], float]:
        """The plain loop. Returns the timeline, each call's nominal time, and the
        loop's nominal time (calls and output checks, without the yardstick blocks)."""
        timeline = Timeline(self.yardstick)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        loop0 = timeline.clock()

        def body(i):
            call = self._call(i)
            self._judge(call, timeline.time(lambda: workloads.execute_call(call)))

        self._loop(seconds, body)
        loop_raw = timeline.clock() - loop0
        self.metrics["proc.cpu_per_wall"] = (
            (time.process_time() - cpu0) / (time.perf_counter() - wall0))
        calls = timeline.normalised()
        self.metrics["machine.yardstick_s"] = timeline.block_time()
        self.metrics["raw.call_p50_s"] = statistics.median(timeline.raw)
        return timeline, calls, loop_raw * NOMINAL_BLOCK_S / timeline.block_time()

    # -- the timed run (--trace 0) ---------------------------------------------

    def timed(self) -> None:
        self.metrics["setup_s"] = self._setup_seconds()
        self.problems += workloads.tamper_self_check(self.workdir)
        timeline, calls, loop_s = self._timed_loop(self.args.seconds)
        self.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self._repeat_first_call()

        p50 = statistics.median(calls)
        p_tail, beyond = tail(calls)
        if p_tail < p50:
            raise RuntimeError(f"tail {p_tail} below median {p50}")
        self.metrics["call_p50_s"] = p50
        self.metrics["call_tail_s"] = p_tail
        self.metrics["calls_per_s"] = len(calls) / loop_s
        self.metrics["failed_share"] = self.failed / self.attempted
        self.notes["calls"] = len(calls)
        self.notes["calls_beyond_tail"] = beyond
        self.notes["call_s"] = calls
        self.notes["call_raw_s"] = timeline.raw

    def _setup_seconds(self) -> float:
        """Median, over fresh interpreters, of starting, importing phinull.cli and loading inputs."""
        def setup() -> float:
            return child(SETUP_CODE, str(SRC), repr(time.monotonic()), *self.workload.inputs)

        setup()  # writes the bytecode caches; not timed
        times, self.env["import_yardstick_s"] = children_normalised([setup] * SETUP_REPEATS)
        self.notes["setup_s"] = times
        return statistics.median(times)

    # -- the traced run (--trace 1) --------------------------------------------

    def traced(self) -> None:
        self._import_seconds()
        self.problems += workloads.tamper_self_check(self.workdir)
        untraced_s = self.args.seconds * UNTRACED_SHARE
        _, untraced, _ = self._timed_loop(untraced_s)

        timeline = Timeline(self.yardstick)
        tracer = Tracer(timeline.clock)
        per_call: list[dict] = []

        def body(i):
            call = self._call(i)
            counts = {"operators": 0, "errors": 0, "read_bytes": 0}
            tracer.call_id = i

            def traced_call():
                outcomes = []
                with tracer.span("call"):
                    for cmd in call:
                        with tracer.span("cli.run"):
                            outcomes.append(workloads.execute(cmd))
                        replay(tracer, cmd, counts)
                return outcomes

            self._judge(call, timeline.time(traced_call))
            counts["written_bytes"] = self.checker.written_bytes
            per_call.append(counts)

        self._loop(self.args.seconds - untraced_s, body)
        self._repeat_first_call()
        tracer.write(OUT / "traces" / f"{self.args.workload}-seed{self.args.seed}.jsonl")

        rows, cli_run = [], []
        for i, counts in enumerate(per_call):
            f = timeline.factor(i)
            d = tracer.durations(i)
            row = {name + "_s": d.get(name, 0.0) * f for name in LAYER_SPANS}
            row["cli.self_s"] = (d["cli.run"] - tracer.children_total(i, "replay")) * f
            row["submersion.theorem_self_s"] = row["submersion.theorem_s"] - sum(
                row[name + "_s"] for name in THEOREM_DECIDERS) if "submersion.theorem" in d else 0.0
            row["jacobi.operators"] = counts["operators"]
            row["jacobi.sample_error_share"] = (
                counts["errors"] / counts["operators"] if counts["operators"] else 0.0)
            row["io.read_kb"] = counts["read_bytes"] / 1024
            row["io.written_kb"] = counts["written_bytes"] / 1024
            rows.append(row)
            cli_run.append(d["cli.run"] * f)
        for key in rows[0]:
            self.metrics[key] = statistics.median(row[key] for row in rows)
        self.metrics["trace.overhead_share"] = (
            statistics.median(cli_run) / statistics.median(untraced) - 1.0)
        self.metrics["failed_share"] = self.failed / self.attempted
        self.notes["traced_calls"] = len(rows)
        self.notes["untraced_calls"] = len(untraced)

    def _import_seconds(self) -> None:
        """import phinull.cli, and scipy.linalg alone, each in fresh interpreters."""
        def importing(module: str):
            return lambda: child(IMPORT_CODE, str(SRC), module)

        importing("phinull.cli")()  # writes the bytecode caches; not timed
        times, self.env["import_yardstick_s"] = children_normalised(
            [importing("phinull.cli"), importing("scipy.linalg")] * IMPORT_REPEATS)
        self.metrics["import.phinull_s"] = statistics.median(times[0::2])
        self.metrics["import.scipy_linalg_s"] = statistics.median(times[1::2])

    def result(self) -> dict:
        self.env["loadavg_end"] = os.getloadavg()
        self.env["nominal_yardstick_s"] = NOMINAL_BLOCK_S
        self.env["nominal_import_yardstick_s"] = NOMINAL_IMPORT_S
        self.env["workload"] = self.args.workload
        self.env["seed"] = self.args.seed
        self.env["seconds"] = self.args.seconds
        return {"env": self.env, "metrics": self.metrics, "problems": self.problems,
                "notes": self.notes}


# Span names whose summed duration per call is reported as <name>_s.
LAYER_SPANS = (
    "io.parse", "io.save", "io.dump", "gff.validate", "gff.sample", "curvature.validate",
    "curvature.generate", "jacobi.osserman", "jacobi.osserman_timelike", "jacobi.null_osserman",
    "jacobi.phi_null", "jacobi.spectrum", "submersion.theorem", "submersion.base",
    "submersion.base_null", "submersion.remarks",
)


