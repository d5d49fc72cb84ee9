"""Report containers shared by the validators and condition deciders.

Validators never raise on a failed check; they return a ``ValidationReport``
whose entries carry the residual of each named invariant. Loaders and CLI
commands decide what to do with a failing report.

The deciders' defaults and the remark kinds live here too, so that the CLI's
parser reads them without loading ``jacobi`` or ``submersion``, which import
them from this module. So does ``Table``, the per-sample rows of every report,
which ``io.dump_json`` writes without loading the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

DEFAULT_SAMPLES = 64
DEFAULT_GROUPING_TOL = 1e-6
DEFAULT_CONSTANCY_TOL = 1e-8


class RemarkKind(Enum):
    SASAKI_BASE = "sasaki_base"
    LORENTZ_SASAKI_BASE = "lorentz_sasaki_base"


class Table:
    """``size`` rows of JSON objects, held as arrays: one block per row shape.

    Each block is (rows, template): ``rows`` an increasing int array of the block's row indices,
    and ``template`` a dict whose leaves are columns, arrays whose first axis runs over those rows
    (a float64 column holds a number or a list of numbers per row, any other one a JSON scalar),
    or constants that every row of the block shares (a tuple constant is a list). The blocks'
    rows partition ``range(size)``. ``tolist()`` is the list of row dicts, and ``io.dump_json``
    writes the table as that list, in one pass per table.

    A plain class: every command imports this module, and a frozen dataclass takes about 0.4 ms
    to create (CPython 3.11).
    """

    __slots__ = ("size", "blocks")

    def __init__(self, size: int, blocks: tuple) -> None:
        self.size, self.blocks = size, blocks

    def __repr__(self) -> str:
        return f"Table({self.size!r}, {self.blocks!r})"

    def __len__(self) -> int:
        return self.size

    def tolist(self) -> list[dict]:
        out: list = [None] * self.size
        for rows, template in self.blocks:
            for n, row in zip(rows.tolist(), _rows(template, len(rows))):
                out[n] = row
        return out


def _rows(template, count: int) -> list:
    """The ``count`` row values of a template (see ``Table``)."""
    if isinstance(template, np.ndarray):
        return template.tolist()
    if isinstance(template, dict) and template:
        columns = [_rows(value, count) for value in template.values()]
        return [dict(zip(template, values)) for values in zip(*columns)]
    return [list(template) if isinstance(template, tuple) else template for _ in range(count)]


@dataclass
class CheckResult:
    name: str
    residual: float
    threshold: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.residual < self.threshold

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "passed": self.passed,
            "residual": self.residual,
            "threshold": self.threshold,
        }
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class ValidationReport:
    subject: str
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, residual: float, threshold: float, detail: str = "") -> None:
        self.checks.append(CheckResult(name, float(residual), float(threshold), detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def worst(self) -> CheckResult:
        """The check furthest past its threshold; a non-finite residual ranks first."""
        return max(self.checks, key=lambda c: (not math.isfinite(c.residual), c.residual / c.threshold))

    def failing(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        lines = [f"{self.subject}: {status}"]
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            extra = f"  ({c.detail})" if c.detail else ""
            lines.append(f"  [{mark}] {c.name}: residual {c.residual:.3e} < {c.threshold:.1e}{extra}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }
