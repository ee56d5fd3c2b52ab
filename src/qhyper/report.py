"""Outcome records for identity checks and their serialization."""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass

from .scalars import Rat


@contextmanager
def _any_int_digits():
    """Lift the int-to-str digit limit inside the block and restore it after:
    exact values and deviations may have any number of digits.  Interpreters
    without the limit lack the hook and need nothing."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


@dataclass
class IdentityReport:
    """Result of checking one identity against one sample.

    `passed` is the verdict of the single pass rule stated in `qhyper.verify`.
    An errored row has no deviation: None, written `null` in JSON.
    """

    id: str
    mode: str
    seed: int
    trial: int
    passed: bool
    deviation: Rat | None = None
    notes: str = ""

    def to_json_dict(self) -> dict:
        num = den = None
        if self.deviation is not None:
            with _any_int_digits():
                num, den = str(self.deviation.numerator), str(self.deviation.denominator)
        return {
            "id": self.id,
            "mode": self.mode,
            "seed": self.seed,
            "trial": self.trial,
            "pass": self.passed,
            "deviation_num": num,
            "deviation_den": den,
            "notes": self.notes,
        }


TSV_FIELDS = ("id", "mode", "seed", "trial", "pass", "deviation_num", "deviation_den", "notes")


def sort_reports(reports: list[IdentityReport]) -> list[IdentityReport]:
    """Order-normalize so parallel execution cannot change the output."""
    return sorted(reports, key=lambda r: (r.id, r.trial))
