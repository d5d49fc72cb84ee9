"""Command-line front end.

Subcommands: ``validate``, ``generate``, ``check``, ``verify-theorem``,
``remarks``, ``spectrum``. Human-readable text goes to stdout; ``--json``
emits the machine report instead (to stdout) or alongside (to a file, never
the input file).
Reports contain no timestamps or absolute paths, so identical commands with
identical seeds produce byte-identical JSON.

Exit codes: 0 success/pass, 1 condition failed, 2 validation error or an
allocation too large, 3 I/O or parse error, 4 internal-consistency sentinel
(engine bug or tampered shift coefficient -- never a property of the instance).

Each command imports the engine modules it runs where it runs them: ``check`` and
``spectrum`` load ``jacobi``, ``verify-theorem`` and ``remarks`` load ``submersion`` too,
and ``validate``, ``generate`` and the parser load neither.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from .curvature import validate_curvature
from .gff import validate_gff
from .io import (
    FAMILY_PARAMETERS,
    InstanceParseError,
    InstanceValidationError,
    dump_json,
    generate_instance,
    load_instance,
    save_instance,
)
from .linalg import CausalCharacter, GeometryError, causal_character
from .reports import DEFAULT_CONSTANCY_TOL, DEFAULT_GROUPING_TOL, DEFAULT_SAMPLES, RemarkKind

EXIT_PASS = 0
EXIT_CONDITION_FAIL = 1
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_SENTINEL = 4


def _tolerance(text: str) -> float:
    """A positive finite float: a NaN tolerance would pass every comparison it is meant to fail."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """A non-negative int, as numpy's generators take it: decimal digits only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                        help=f"sphere samples per decision (default {DEFAULT_SAMPLES})")
    parser.add_argument("--seed", type=_seed, default=0, help="sampling seed (default 0)")
    parser.add_argument("--tol", type=_tolerance, default=DEFAULT_CONSTANCY_TOL,
                        help="spectral constancy tolerance (default 1e-8)")


def _add_grouping_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grouping-tol", type=_tolerance, default=DEFAULT_GROUPING_TOL,
                        help="eigenvalue multiplicity grouping tolerance (default 1e-6)")


def _add_json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", nargs="?", const="-", default=None, metavar="PATH",
                        help="emit the JSON report (to stdout if no path is given)")


def _emit(report_dict: dict, text: str, json_target: str | None) -> None:
    """The report to stdout (``-``), or the text to stdout and the report to a file. The report
    is serialized before the file is opened, so a failed serialization leaves the file as it was."""
    if json_target == "-":
        sys.stdout.write(dump_json(report_dict))
        return
    if json_target is not None:
        report = dump_json(report_dict)
        with open(json_target, "w", encoding="utf-8") as fh:
            fh.write(report)
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _decision_text(report) -> str:
    """A decision's verdict, groups and failure; a two-path phi-null decision's verdict, then each
    path's."""
    if hasattr(report, "direct"):
        return "\n".join([f"phi-null-osserman: {'PASS' if report.passed else 'FAIL'}",
                          _decision_text(report.direct), _decision_text(report.quotient)])
    lines = [f"{report.condition}: {'PASS' if report.passed else 'FAIL'}"]
    for grp in report.groups:
        lines.append(
            f"  eigenvalue {grp['eigenvalue']:+.8g} x{grp['multiplicity']}"
            f"  (spread {grp['spread']:.2e})"
        )
    if report.failure:
        lines.append(f"  reason: {report.failure}")
    return "\n".join(lines)


def cmd_validate(args) -> int:
    inst = load_instance(args.path, validate=False)
    structure_report = validate_gff(inst.structure)
    curvature_report = validate_curvature(inst.curvature, inst.structure.g)
    payload = {
        "instance": inst.metadata.to_dict(),
        "structure": structure_report.to_dict(),
        "curvature": curvature_report.to_dict(),
        "passed": structure_report.passed and curvature_report.passed,
    }
    text = "\n".join([structure_report.summary(), curvature_report.summary()])
    _emit(payload, text, args.json)
    return EXIT_PASS if payload["passed"] else EXIT_VALIDATION


def cmd_generate(args) -> int:
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise ValueError(f"--param expects key=value, got '{item}'")
        key, value = item.split("=", 1)
        params[key.strip()] = float(value)
    inst = generate_instance(args.family, args.n, args.s, params, seed=args.seed)
    save_instance(args.out, inst)
    sys.stdout.write(f"wrote {args.out} ({inst.metadata.family}, dim {inst.structure.dim})\n")
    return EXIT_PASS


def cmd_check(args) -> int:
    from .jacobi import is_null_osserman_wrt, is_osserman_at, is_phi_null_osserman_wrt

    inst = load_instance(args.path)
    R, S = inst.curvature, inst.structure
    common = (args.samples, args.seed, args.tol, args.grouping_tol)
    if args.condition == "osserman":
        report = is_osserman_at(R, S.g, CausalCharacter(args.causal_kind), *common)
    elif args.condition == "null-osserman":
        report = is_null_osserman_wrt(R, S.g, S.timelike_frame_vector, *common)
    else:  # phi-null-osserman
        report = is_phi_null_osserman_wrt(R, S, *common)
    _emit(report.to_dict(), _decision_text(report), args.json)
    return EXIT_PASS if report.passed else EXIT_CONDITION_FAIL


def cmd_verify_theorem(args) -> int:
    from .submersion import IDENTITY_ATOL, FibrationKind, make_fibration, theorem_equivalence_report

    inst = load_instance(args.path)
    R, S = inst.curvature, inst.structure
    pi_fibration = None
    if args.tamper_sigma is not None:
        base = make_fibration(S, FibrationKind.PI_FULL)
        pi_fibration = dataclasses.replace(base, sigma=args.tamper_sigma)
    report = theorem_equivalence_report(
        R, S, args.samples, args.seed, args.tol, args.grouping_tol, pi_fibration=pi_fibration
    )
    payload = report.to_dict()
    labels = ("phi-null Osserman (direct)", "base Osserman (pi)", "base null Osserman (tau)")
    verdicts = {label: "PASS" if passed else "FAIL" for label, passed in zip(labels, report.verdicts.values())}
    lines = ["theorem equivalence report", *(f"  {label + ':':<28}{word}" for label, word in verdicts.items()),
             f"  eigenvector hypothesis:     {report.hypothesis_holds}"
             f" (residual {report.hypothesis_residual:.2e})",
             f"  shift-identity residual:    {report.sigma_identity_residual:.2e}"]
    if report.agreement_required:
        lines.append(f"  agreement ({report.agreement_scope}): "
                     f"{'holds' if report.agreement_holds else 'VIOLATED'}")
    else:
        lines.append("  agreement: not asserted (hypothesis false, s > 2); verdicts reported")
    if report.agreement_required and not report.agreement_holds and not report.hypothesis_holds:
        # s = 2 expectation for structure-compatible curvature; an arbitrary
        # algebraic tensor can break it (e.g. a trivially one-dimensional
        # transfer domain), so it is recorded rather than treated as a bug.
        lines.append("  note: s=2 agreement violated without the eigenvector hypothesis; "
                     "recorded, not a sentinel")
    # exit 4 names its cause: the sentinel, or verdicts that disagree under the eigenvector hypothesis
    if not report.internal_consistency_ok:
        lines.append(f"  internal consistency: FAILED (shift-identity residual "
                     f"{report.sigma_identity_residual:.2e}, not below {IDENTITY_ATOL:.0e})")
    violated = report.hypothesis_holds and not report.agreement_holds
    if violated:
        passed, failed = ([label for label, word in verdicts.items() if word == w] for w in ("PASS", "FAIL"))
        lines.append(f"  engine defect: verdicts disagree under the eigenvector hypothesis "
                     f"(PASS: {', '.join(passed)}; FAIL: {', '.join(failed)})")
    _emit(payload, "\n".join(lines), args.json)
    return EXIT_SENTINEL if violated or not report.internal_consistency_ok else EXIT_PASS


def cmd_remarks(args) -> int:
    from .submersion import remark_sectional_conditions

    inst = load_instance(args.path)
    report = remark_sectional_conditions(
        inst.curvature, inst.structure, RemarkKind(args.kind), args.samples, args.seed, args.tol
    )
    payload = report.to_dict()
    text = "\n".join([
        f"remark [{report.kind.value}] via {report.fibration_kind.value} fibration",
        f"  transfer identity: {'PASS' if report.identity_passed else 'FAIL'}"
        f" (max residual {report.identity_residual_max:.2e})",
        f"  necessary condition k(x, phi x) = {report.target:g}: "
        f"{'satisfied on all samples' if report.necessary_all else 'not satisfied (informational)'}",
    ])
    _emit(payload, text, args.json)
    return EXIT_PASS if report.identity_passed else EXIT_SENTINEL


def cmd_spectrum(args) -> int:
    from .jacobi import SpectrumError, jacobi, null_jacobi, spectrum

    inst = load_instance(args.path)
    R, S = inst.curvature, inst.structure
    vec = np.array([float(v) for v in args.vector.split(",")])
    if vec.shape != (S.dim,) or not np.isfinite(vec).all():
        raise ValueError(f"--vector must hold {S.dim} finite numbers, got {args.vector!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows is refused below, on one line
        if not sys.float_info.min <= (norm_sq := float(vec @ vec)) < np.inf:  # the zero vector too
            raise ValueError(f"--vector has |x|^2 = {norm_sq:.3e}, not a positive finite normal float")
        kind = causal_character(S.g, vec)
        op = (null_jacobi if kind is CausalCharacter.NULL else jacobi)(R, S.g, vec)
    operator = "null-jacobi (quotient)" if kind is CausalCharacter.NULL else f"jacobi ({kind.value} base)"
    if not np.isfinite(op.matrix).all():
        raise ValueError(f"the {operator} operator at --vector has a non-finite entry")
    try:
        data = spectrum(op, args.grouping_tol)
    except SpectrumError as exc:  # under --json -, stdout holds a JSON document or nothing
        (sys.stderr if args.json == "-" else sys.stdout).write(f"{operator}: {exc}\n")
        return EXIT_CONDITION_FAIL
    payload = {
        "operator": operator,
        "base": [float(v) for v in vec],
        "spectrum": data.to_dict(),
        "tolerances": {"grouping": args.grouping_tol},
    }
    pairs = ", ".join(
        f"{ev:+.10g} (x{mult})" for ev, mult in zip(data.eigenvalues, data.multiplicities)
    )
    _emit(payload, f"{operator}: {pairs}", args.json)
    return EXIT_PASS


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="phinull",
        description="Spectral checks for Osserman-type conditions on Lorentzian framed structures",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an instance file")
    p.add_argument("path")
    _add_json_flag(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("generate", help="write a canonical instance file")
    p.add_argument("--family", required=True, choices=list(FAMILY_PARAMETERS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="family parameter (c / a,b / scale); repeatable")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check", help="decide an Osserman-type condition")
    p.add_argument("path")
    p.add_argument("--condition", required=True,
                   choices=["osserman", "null-osserman", "phi-null-osserman"])
    p.add_argument("--causal-kind", default="spacelike", choices=["spacelike", "timelike"],
                   help="unit-vector kind for the plain Osserman check")
    _add_common_flags(p)
    _add_grouping_flag(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify-theorem", help="three-way equivalence report")
    p.add_argument("path")
    _add_common_flags(p)
    _add_grouping_flag(p)
    _add_json_flag(p)
    p.add_argument("--tamper-sigma", type=float, default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("remarks", help="sectional-curvature transfer identity and flags")
    p.add_argument("path")
    p.add_argument("--kind", required=True, choices=[k.value for k in RemarkKind])
    _add_common_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_remarks)

    p = sub.add_parser("spectrum", help="Jacobi spectrum at a given base vector")
    p.add_argument("path")
    p.add_argument("--vector", required=True, help="comma-separated coordinates")
    _add_grouping_flag(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_spectrum)
    return parser


def _refuse_json_over_input(args) -> None:
    """A ValueError if ``--json`` names the input file, which the report would replace."""
    target = getattr(args, "json", None)
    try:
        same = target not in (None, "-") and os.path.samefile(target, args.path)
    except OSError:  # a missing target or input cannot be the other one
        same = False
    if same:
        raise ValueError(f"--json {target} names the input file; the report would replace it")


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _refuse_json_over_input(args)
        return args.func(args)
    except InstanceParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_IO
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    except (InstanceValidationError, GeometryError, ValueError, MemoryError) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
