"""Certification rows shared by the verification suites and the CLI."""

from __future__ import annotations

import csv
from dataclasses import dataclass


@dataclass(frozen=True)
class CheckRow:
    """One certified inequality: measured value vs. its bound.

    gating=False marks theoretical-constant diagnostics (astronomically
    conservative worst-case bounds) that are reported but do not decide
    success at desk scale.
    """

    check: str
    bound: float
    actual: float
    passed: bool
    detail: str = ""
    gating: bool = True

    def csv_fields(self) -> tuple:
        # a float subclass (numpy's float64) would print its type name
        bound, actual = (float(x) if isinstance(x, float) else x
                         for x in (self.bound, self.actual))
        return (self.check, repr(bound), repr(actual),
                "pass" if self.passed else "FAIL", self.detail)


def write_rows(rows, out) -> None:
    """The check table as RFC 4180 CSV: the header, then one line per row;
    a check or detail holding a comma or a quote is quoted."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("check", "bound", "actual", "pass", "detail"))
    writer.writerows(r.csv_fields() for r in rows)


def failed_gating(rows) -> list:
    """The gating rows that failed; a run passes when there are none."""
    return [r for r in rows if r.gating and not r.passed]
