"""Outcome records for identity checks and their serialization."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import Rat


@dataclass
class IdentityReport:
    """Result of checking one identity against one sample.

    `passed` is the verdict of the single pass rule stated in `qhyper.verify`.
    """

    id: str
    mode: str
    seed: int
    trial: int
    passed: bool
    deviation: Rat = Fraction(0)
    notes: str = ""

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "mode": self.mode,
            "seed": self.seed,
            "trial": self.trial,
            "pass": self.passed,
            "deviation_num": str(self.deviation.numerator),
            "deviation_den": str(self.deviation.denominator),
            "notes": self.notes,
        }


TSV_FIELDS = ("id", "mode", "seed", "trial", "pass", "deviation_num", "deviation_den", "notes")


def sort_reports(reports: list[IdentityReport]) -> list[IdentityReport]:
    """Order-normalize so parallel execution cannot change the output."""
    return sorted(reports, key=lambda r: (r.id, r.trial))
