"""Report containers shared by the validators and condition deciders.

Validators never raise on a failed check; they return a ``ValidationReport``
whose entries carry the residual of each named invariant. Loaders and CLI
commands decide what to do with a failing report.

The deciders' defaults and the remark kinds live here too, so that the CLI's
parser reads them without loading ``jacobi`` or ``submersion``, which import
them from this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

DEFAULT_SAMPLES = 64
DEFAULT_GROUPING_TOL = 1e-6
DEFAULT_CONSTANCY_TOL = 1e-8


class RemarkKind(Enum):
    SASAKI_BASE = "sasaki_base"
    LORENTZ_SASAKI_BASE = "lorentz_sasaki_base"


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
