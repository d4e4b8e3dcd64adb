"""Verification reports: typed check records plus canonical documents.

A report is a flat list of named checks, each carrying the measured
residual, the threshold it was held to, and the verdict.  A check may be
waived: its failure is expected, stays visible, and does not pull the
overall verdict down.  Canonical bytes exclude wall time so that equal
mathematical content is byte-equal across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .serialize import VERIFICATION_FORMAT


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    anchor: str
    residual: float
    threshold: float
    passed: bool
    waived: bool = False
    detail: str = ""

    def status(self) -> str:
        if self.passed:
            return "PASS"
        return "XFAIL" if self.waived else "FAIL"


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    records: tuple[CheckRecord, ...]
    wall_time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))

    @property
    def passed(self) -> bool:
        return all(rec.passed or rec.waived for rec in self.records)

    def failing(self) -> tuple[CheckRecord, ...]:
        return tuple(r for r in self.records if not r.passed and not r.waived)


def report_to_doc(report: VerificationReport) -> dict:
    return {
        "format": VERIFICATION_FORMAT,
        "suite": report.suite,
        "checks": [
            {
                "id": rec.check_id,
                "anchor": rec.anchor,
                "residual": float(rec.residual),
                "threshold": float(rec.threshold),
                "passed": rec.passed,
                "waived": rec.waived,
                "detail": rec.detail,
            }
            for rec in report.records
        ],
        "overall": report.passed,
    }


def render_text(report: VerificationReport) -> str:
    width = max((len(r.check_id) for r in report.records), default=0)
    lines = []
    for rec in report.records:
        lines.append(
            f"{rec.status():5s} {rec.check_id:<{width}s} "
            f"residual {rec.residual:.3e} <= {rec.threshold:.1e}  {rec.anchor}"
        )
    verdict = "PASS" if report.passed else "FAIL"
    summary = (
        f"suite {report.suite}: {verdict} "
        f"({sum(r.passed for r in report.records)}/{len(report.records)} checks"
    )
    waived = sum(1 for r in report.records if r.waived and not r.passed)
    if waived:
        summary += f", {waived} waived"
    summary += f") in {report.wall_time:.2f}s"
    lines.append(summary)
    return "\n".join(lines)
