#!/usr/bin/env python3
"""Print every end-to-end and per-layer metric of every workload, by name with its unit.

    python3 perfbench/report.py [--seed N]

Runs perfbench/run.py once timed (--trace 0) and once traced (--trace 1) on
every workload of BENCHMARK.json, at its run_seconds, one run at a time, and
prints one table. Exits 1 if any run's
outputs were wrong.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    results: dict[tuple[str, int], dict] = {}
    for workload in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return proc.returncode
            results[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])

    width = max(len(m["name"]) for m in spec["end_to_end"] + spec["per_layer"])
    print(f"{'metric':<{width}}  {'unit':<6}" + "".join(f"{w:>14}" for w in names))
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        for m in spec[group]:
            cells = "".join(f"{results[w, trace]['metrics'][m['name']]['value']:>14.6g}"
                            for w in names)
            print(f"{m['name']:<{width}}  {m['unit']:<6}{cells}")
    for key in ("correct", "attempted", "failed"):
        cells = "".join(f"{str(results[w, 0][key]) + '/' + str(results[w, 1][key]):>14}"
                        for w in names)
        print(f"{key + ' (timed/traced)':<{width + 8}}{cells}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
