#!/usr/bin/env python3
"""Benchmark of the phinull CLI: one workload per run, timed or traced.

    python3 perfbench/run.py --workload {theorem,checks,files} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports phinull from ./src and
writes only under ./.perfbench. One client (this process) calls
``phinull.cli.run(argv)`` in a closed loop for S seconds, checks every
output, and reports timings in nominal seconds (see yardstick.py). With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run; BENCHMARK.json names both sets. Every
metric is printed by name with its unit, and the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("theorem", "checks", "files"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "phinull" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/phinull not found; run from the root of a phinull checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import phinull

    if Path(phinull.__file__).resolve().parent != SRC / "phinull":
        print(f"perfbench: imported phinull from {phinull.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    from bench import OUT, Bench

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        bench = Bench(args, workdir)
        bench.traced() if args.trace else bench.timed()
        result = bench.result()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = OUT / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for problem in bench.problems:
        print(f"FAILED CHECK: {problem}")
    print(f"env {json.dumps(result['env'])}")
    print(f"run {args.workload} seed {args.seed}: {bench.attempted} calls, "
          f"{bench.failed} failed, draw {json.dumps(bench.workload.draw)}")
    if "calls" in bench.notes:
        print(f"call_tail_s has {bench.notes['calls_beyond_tail']} of "
              f"{bench.notes['calls']} calls beyond it")
    for key, value in bench.metrics.items():
        print(f"  {key:<30} {value:12.6g} {units.get(key, '')}")
    missing = [m["name"] for m in declared if m["name"] not in bench.metrics]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": bench.metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
