#!/usr/bin/env python3
"""Byte digest of the phinull CLI over a fixed matrix of 258 commands.

The commands run in-process through ``phinull.cli.run``:

- ``generate`` for the constant, phi_model and random families at (n, s) = (2, 2), (4, 3) and
  (5, 2), instance seed 7; then on each instance ``validate``, ``spectrum`` at e_1, e_2 and
  e_0 + e_2n, the four ``check`` condition/kind pairs, both ``remarks`` kinds and
  ``verify-theorem``, the last three groups at sampling seeds 0, 1 and 56, all with a JSON report;
- ``generate --family constant --n 2 --s 2 --param c=-2.5``, an instance that holds -0.0;
- the parser: ``--help``, each subcommand's ``--help`` and one refusal, ``remarks --kind bogus``
  (exit 2), so that a moved default or choice moves a command;
- one command for each remaining exit code: ``verify-theorem --tamper-sigma 5`` (4), and
  ``validate`` of a phi-corrupted instance (2) and of a file that is not JSON (3);
- the flags on the phi_model (2, 2) instance: timelike ``check --condition osserman
  --grouping-tol 1e-2`` (exit 1, the multiplicity pattern differs), and ``check --condition
  phi-null-osserman``, ``verify-theorem`` and ``remarks --kind sasaki_base`` with
  ``--samples 8 --tol 1e-6``, plus ``--grouping-tol 1e-3`` where the subcommand takes it;
- the phi_model (2, 2) instance in a frame that is not canonical, pushed through
  L = I + 0.3 N with N drawn from ``numpy.random.default_rng(1)`` (g -> L^T g L,
  phi -> L^-1 phi L, xi -> L^-1 xi, eta -> eta L, R with L on each slot), where g and phi hold
  no exact 0 or +-1: ``validate``, the four ``check`` pairs, both ``remarks`` kinds and
  ``verify-theorem``.

Each command is hashed over its argv, exit code (a ``SystemExit`` code for the parser's exits),
stdout and stderr (the work directory masked), and the bytes of the report or instance file it
wrote; help text is wrapped at ``COLUMNS=80`` on every machine. The digest is one SHA-256 over
those hashes in order. Usage, from the root of a checkout::

    python scripts/matrix_digest.py                 # digest of ./src
    python scripts/matrix_digest.py --against REV   # ./src against REV's src/, command by command

``--against`` unpacks REV's ``src/`` with ``git archive`` into a temporary directory (it makes no
worktree and only reads ``.git``). Each tree runs in a fresh interpreter. Reports print floats
to 17 significant digits, so their bytes can follow the BLAS build: a digest compares only with
one taken on the same machine, which is why two trees run side by side rather than against a
committed hash. Exit status: 0 when the trees agree, 1 when a command differs (each one is
named on a line of its own), 2 when REV cannot be unpacked or a run stops.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = "<work>"  # the work directory, in argv and in masked output
FAMILIES = ("constant", "phi_model", "random")
SHAPES = ((2, 2), (4, 3), (5, 2))
INSTANCE_SEED = 7
SAMPLING_SEEDS = (0, 1, 56)
CHECKS = (
    ("--condition", "osserman"),
    ("--condition", "osserman", "--causal-kind", "timelike"),
    ("--condition", "null-osserman"),
    ("--condition", "phi-null-osserman"),
)
REMARK_KINDS = ("sasaki_base", "lorentz_sasaki_base")
FLAGS = ("--samples", "8", "--tol", "1e-6")
SUBCOMMANDS = ("validate", "generate", "check", "verify-theorem", "remarks", "spectrum")


def _stop(message: str):
    sys.stderr.write(f"matrix_digest: {message}\n")
    raise SystemExit(2)


def matrix() -> tuple[list, int]:
    """The commands as (argv, the file it writes or None), and the index of the first one that
    reads a file ``_write_derived_inputs`` writes."""
    commands: list = []

    def reported(*argv: str) -> None:
        report = f"{WORK}/report-{len(commands)}.json"
        commands.append(([*argv, "--json", report], report))

    for family in FAMILIES:
        for n, s in SHAPES:
            inst = f"{WORK}/{family}-{n}-{s}.json"
            commands.append((["generate", "--family", family, "--n", str(n), "--s", str(s),
                              "--seed", str(INSTANCE_SEED), "--out", inst], inst))
            reported("validate", inst)
            dim = 2 * n + s
            for axes in ((1,), (2,), (0, 2 * n)):
                reported("spectrum", inst, "--vector", ",".join("1" if k in axes else "0" for k in range(dim)))
            for seed in map(str, SAMPLING_SEEDS):
                for check in CHECKS:
                    reported("check", inst, *check, "--seed", seed)
                for kind in REMARK_KINDS:
                    reported("remarks", inst, "--kind", kind, "--seed", seed)
                reported("verify-theorem", inst, "--seed", seed)
    negative = f"{WORK}/constant-c-2.5.json"
    commands.append((["generate", "--family", "constant", "--n", "2", "--s", "2",
                      "--param", "c=-2.5", "--out", negative], negative))
    phi_model = f"{WORK}/phi_model-2-2.json"
    for argv in (["--help"], *([command, "--help"] for command in SUBCOMMANDS),
                 ["remarks", phi_model, "--kind", "bogus"]):
        commands.append((argv, None))
    reported("verify-theorem", phi_model, "--tamper-sigma", "5")
    reported("check", phi_model, *CHECKS[1], "--grouping-tol", "1e-2")
    reported("check", phi_model, *CHECKS[3], *FLAGS, "--grouping-tol", "1e-3")
    reported("verify-theorem", phi_model, *FLAGS, "--grouping-tol", "1e-3")
    reported("remarks", phi_model, "--kind", REMARK_KINDS[0], *FLAGS)
    derived = len(commands)
    reported("validate", f"{WORK}/phi-corrupted.json")
    commands.append((["validate", f"{WORK}/not-json.json"], None))
    conjugated = f"{WORK}/phi_model-2-2-conjugated.json"
    reported("validate", conjugated)
    for check in CHECKS:
        reported("check", conjugated, *check)
    for kind in REMARK_KINDS:
        reported("remarks", conjugated, "--kind", kind)
    reported("verify-theorem", conjugated)
    return commands, derived


def _write_derived_inputs(work: Path) -> None:
    """From the phi_model (2, 2) instance: a copy with one entry of phi moved by 1e-6, and the
    instance pushed through L = I + 0.3 N (see the module docstring); and a file that is not JSON."""
    import numpy as np

    text = (work / "phi_model-2-2.json").read_text(encoding="utf-8")
    corrupted, data = json.loads(text), json.loads(text)
    corrupted["structure"]["phi"][1] += 1e-6
    (work / "phi-corrupted.json").write_text(json.dumps(corrupted), encoding="utf-8")
    (work / "not-json.json").write_text("{not json", encoding="utf-8")

    structure, m = data["structure"], data["structure"]["dim"]
    L = np.eye(m) + 0.3 * np.random.default_rng(1).standard_normal((m, m))
    Linv = np.linalg.inv(L)
    g = np.array(structure["metric"]).reshape(m, m)
    phi = np.array(structure["phi"]).reshape(m, m)
    R = np.array(data["curvature"]["components"]).reshape(m, m, m, m)
    structure["metric"] = (L.T @ g @ L).ravel().tolist()
    structure["phi"] = (Linv @ phi @ L).ravel().tolist()
    structure["xi"] = (Linv @ np.array(structure["xi"]).T).T.tolist()
    structure["eta"] = (np.array(structure["eta"]) @ L).tolist()
    data["curvature"]["components"] = np.einsum("ijkl,ia,jb,kc,ld->abcd", R, L, L, L, L).ravel().tolist()
    (work / "phi_model-2-2-conjugated.json").write_text(json.dumps(data), encoding="utf-8")


def _record(run, argv: list, writes: str | None, work: Path) -> dict:
    """Run one command; its argv, exit code and the SHA-256 of everything it put out."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run([arg.replace(WORK, str(work)) for arg in argv])
        except SystemExit as exc:  # the parser's --help and refusals
            code = exc.code
    written = Path(writes.replace(WORK, str(work))) if writes else None
    data = written.read_bytes() if written is not None and written.exists() else None
    head = [argv, code, out.getvalue().replace(str(work), WORK),
            err.getvalue().replace(str(work), WORK), data is not None]
    return {"argv": argv, "exit": code,
            "sha256": hashlib.sha256(json.dumps(head).encode() + (data or b"")).hexdigest()}


def _child(src: str) -> int:
    """Run the matrix on the phinull in ``src`` and print its records as JSON."""
    sys.path.insert(0, src)
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal's width
    import phinull.cli

    if Path(phinull.cli.__file__).resolve().parents[1] != Path(src).resolve():
        _stop(f"imported phinull from {phinull.cli.__file__}, not {src}")
    commands, derived = matrix()
    with tempfile.TemporaryDirectory(prefix="matrix-digest-") as tmp:
        work = Path(tmp)
        records = [_record(phinull.cli.run, argv, writes, work) for argv, writes in commands[:derived]]
        _write_derived_inputs(work)
        records += [_record(phinull.cli.run, argv, writes, work) for argv, writes in commands[derived:]]
    json.dump(records, sys.stdout)
    return 0


def run_tree(src: Path, label: str) -> list:
    """The records of the matrix on ``src``, run in a fresh interpreter, with a summary line."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, __file__, "--child", str(src)],
                          capture_output=True, text=True, check=False)
    seconds = time.perf_counter() - start
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        _stop(f"the run on {label} exited {proc.returncode}")
    records = json.loads(proc.stdout)
    counts = collections.Counter(r["exit"] for r in records)
    exits = ", ".join(f"{counts[code]} exit {code}" for code in sorted(counts))
    digest = hashlib.sha256("".join(r["sha256"] for r in records).encode()).hexdigest()
    print(f"{label}: {len(records)} commands ({exits}) in {seconds:.1f} s\n  sha256 {digest}")
    return records


def _unpack(rev: str, dest: Path) -> Path:
    """REV's src/ under ``dest``, by ``git archive``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=False)
    if archive.returncode:
        _stop(f"git archive {rev} failed: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    return dest / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="compare ./src with the src/ of this git revision")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child(args.child)
    if args.against is None:
        run_tree(ROOT / "src", "src")
        return 0
    with tempfile.TemporaryDirectory(prefix="matrix-digest-rev-") as tmp:
        base = run_tree(_unpack(args.against, Path(tmp)), f"{args.against}:src")
    mine = run_tree(ROOT / "src", "./src")
    differ = [(a, b) for a, b in zip(base, mine) if a != b]
    if len(base) == len(mine) and not differ:
        print(f"all {len(mine)} commands byte-identical")
        return 0
    print(f"{len(differ)} of {len(mine)} commands differ ({len(base)} against {len(mine)} run):")
    for a, b in differ:
        print(f"  phinull {' '.join(b['argv'])}: exit {a['exit']} -> {b['exit']}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
