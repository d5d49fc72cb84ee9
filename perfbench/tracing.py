"""The traced run: each CLI call replayed as the public calls the CLI makes, under spans.

Spans are recorded from the benchmark's side of each layer boundary; the
program itself is not instrumented. A traced call holds, under one root span
``call``:

- ``cli.run``: the real CLI command, exactly as in the timed run;
- ``replay``: the same command once more as its public calls -- ``io.parse``
  (``load_instance(validate=False)``), ``gff.validate``, ``curvature.validate``,
  the engine entry point, ``curvature.generate``, ``io.save`` and ``io.dump``
  (``dump_json(report.to_dict())``), whichever the command makes;
- ``probe``: calls made inside the engine, run again on their own:
  ``gff.sample`` (``sample_phi_celestial``) and, for ``verify-theorem``, its
  three deciders as siblings of the theorem span.

Spans stay in memory and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from phinull.curvature import validate_curvature
from phinull.gff import sample_phi_celestial, validate_gff
from phinull.linalg import causal_character
from phinull.io import dump_json, generate_instance, load_instance, save_instance
from phinull.jacobi import (
    DEFAULT_GROUPING_TOL,
    CausalCharacter,
    SpectrumError,
    is_null_osserman_wrt,
    is_osserman_at,
    is_phi_null_osserman_wrt,
    jacobi,
    spectrum,
)
from phinull.submersion import (
    FibrationKind,
    RemarkKind,
    base_null_osserman_check,
    base_osserman_check,
    make_fibration,
    remark_sectional_conditions,
    theorem_equivalence_report,
)

from workloads import SAMPLES, SAMPLING_SEED, SPECTRUM_AXIS, Command

# The span each command's engine entry point is timed under.
ENGINE_SPANS = {
    "theorem": "submersion.theorem",
    "osserman": "jacobi.osserman",
    "osserman_timelike": "jacobi.osserman_timelike",
    "null_osserman": "jacobi.null_osserman",
    "phi_null": "jacobi.phi_null",
    "remarks": "submersion.remarks",
    "spectrum": "jacobi.spectrum",
}
THEOREM_DECIDERS = ("jacobi.phi_null", "submersion.base", "submersion.base_null")


class Tracer:
    """In-memory spans: [name, start, end, parent index, call id].

    `clock` excludes the yardstick blocks the timeline runs during a call.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.call_id = 0

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.call_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = self.clock()

    def durations(self, call_id: int) -> dict[str, float]:
        """Total duration per span name within one call."""
        out: dict[str, float] = {}
        for name, start, end, _, cid in self.spans:
            if cid == call_id:
                out[name] = out.get(name, 0.0) + (end - start)
        return out

    def children_total(self, call_id: int, parent_name: str) -> float:
        """Summed duration of the spans whose parent is named `parent_name`, in one call."""
        return sum(end - start for _, start, end, parent, cid in self.spans
                   if cid == call_id and parent is not None
                   and self.spans[parent][0] == parent_name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "call")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def replay(tracer: Tracer, cmd: Command, counts: dict) -> None:
    """Re-run `cmd` as the public calls the CLI makes, one span each.

    `counts` gains the operators whose spectrum was taken, the spectra that
    raised, and the instance bytes read.
    """
    seed = SAMPLING_SEED
    if cmd.kind == "generate":
        with tracer.span("replay"):
            with tracer.span("curvature.generate"):
                inst = generate_instance(cmd.family, cmd.n, cmd.s, seed=cmd.instance_seed)
            with tracer.span("io.save"):  # beside the CLI's file, which is the one checked
                save_instance(cmd.path + ".replay", inst)
        return

    with tracer.span("replay"):
        with tracer.span("io.parse"):
            inst = load_instance(cmd.path, validate=False)
        counts["read_bytes"] += os.path.getsize(cmd.path)
        S, R = inst.structure, inst.curvature
        with tracer.span("gff.validate"):
            structure_report = validate_gff(S)
        with tracer.span("curvature.validate"):
            curvature_report = validate_curvature(R, S.g)
        if cmd.kind == "validate":
            payload = {"instance": inst.metadata.to_dict(),
                       "structure": structure_report.to_dict(),
                       "curvature": curvature_report.to_dict(),
                       "passed": structure_report.passed and curvature_report.passed}
        else:
            with tracer.span(ENGINE_SPANS[cmd.kind]):
                payload = _engine(cmd, R, S, counts)
        if payload is None:  # the spectrum raised, so the CLI writes no report
            return
        with tracer.span("io.dump"):
            dump_json(payload if isinstance(payload, dict) else payload.to_dict())

    if cmd.kind in ("theorem", "phi_null", "remarks"):
        with tracer.span("probe"):
            with tracer.span("gff.sample"):
                sample_phi_celestial(S, SAMPLES, seed)
            if cmd.kind == "theorem":
                with tracer.span("jacobi.phi_null"):
                    is_phi_null_osserman_wrt(R, S, SAMPLES, seed)
                with tracer.span("submersion.base"):
                    base_osserman_check(R, S, make_fibration(S, FibrationKind.PI_FULL),
                                        SAMPLES, seed)
                with tracer.span("submersion.base_null"):
                    base_null_osserman_check(R, S, make_fibration(S, FibrationKind.TAU),
                                             SAMPLES, seed)


def _engine(cmd: Command, R, S, counts: dict):
    """The engine entry point `cmd` calls; returns its report (None if the spectrum raised)."""
    seed = SAMPLING_SEED
    if cmd.kind == "theorem":
        report = theorem_equivalence_report(R, S, SAMPLES, seed)
        decisions = [report.phi_null.quotient, report.phi_null.direct,
                     report.base, report.base_null]
    elif cmd.kind in ("osserman", "osserman_timelike"):
        kind = CausalCharacter.SPACELIKE if cmd.kind == "osserman" else CausalCharacter.TIMELIKE
        report = is_osserman_at(R, S.g, kind, SAMPLES, seed)
        decisions = [report]
    elif cmd.kind == "null_osserman":
        report = is_null_osserman_wrt(R, S.g, S.timelike_frame_vector, SAMPLES, seed)
        decisions = [report]
    elif cmd.kind == "phi_null":
        report = is_phi_null_osserman_wrt(R, S, SAMPLES, seed)
        decisions = [report.quotient, report.direct]
    elif cmd.kind == "remarks":
        return remark_sectional_conditions(R, S, RemarkKind.LORENTZ_SASAKI_BASE, SAMPLES, seed)
    else:  # spectrum at e_2, a spacelike base vector
        vec = np.zeros(cmd.dim)
        vec[SPECTRUM_AXIS] = 1.0
        causal_character(S.g, vec)
        counts["operators"] += 1
        try:
            data = spectrum(jacobi(R, S.g, vec))
        except SpectrumError:
            counts["errors"] += 1
            return None
        return {"operator": "jacobi (spacelike base)", "base": [float(v) for v in vec],
                "spectrum": data.to_dict(), "tolerances": {"grouping": DEFAULT_GROUPING_TOL}}
    for decision in decisions:
        counts["operators"] += len(decision.records)
        counts["errors"] += sum(rec.error is not None for rec in decision.records)
    return report
