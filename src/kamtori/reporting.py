"""Certification rows shared by the verification suites and the CLI."""

from __future__ import annotations

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

    def as_csv(self) -> str:
        # a float subclass (numpy's float64) would print its type name
        bound, actual = (float(x) if isinstance(x, float) else x
                         for x in (self.bound, self.actual))
        return "%s,%r,%r,%s,%s" % (self.check, bound, actual,
                                   "pass" if self.passed else "FAIL",
                                   self.detail)


def failed_gating(rows) -> list:
    """The gating rows that failed; a run passes when there are none."""
    return [r for r in rows if r.gating and not r.passed]
