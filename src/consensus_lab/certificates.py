"""Machine-checkable bound records shared by every certificate producer.

A record captures one inequality ``lhs <= rhs * slack`` (identity checks use
``slack = 1`` with the tolerance on the right-hand side).  Reports export as
a JSON array and a CSV mirror with identical columns.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass

VALUE_SLACK = 1.0 + 1e-9
NORM_SLACK = 1.0 + 1e-6


@dataclass(frozen=True)
class CertificateRecord:
    check: str
    t: int
    k: int | None
    lhs: float
    rhs: float
    slack: float
    passed: bool

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict:
        return {"check": self.check, "t": self.t, "k": self.k,
                "lhs": self.lhs, "rhs": self.rhs, "slack": self.slack,
                "verdict": self.verdict}


def bounded(check: str, t: int, k: int | None, lhs: float, rhs: float,
            slack: float = VALUE_SLACK, floor: float = 0.0) -> CertificateRecord:
    """Record for ``lhs <= rhs * slack + floor``.

    ``floor`` is an absolute rounding allowance for quantities that sit at
    the float64 noise level (e.g. squared deviations after the iterates hit
    exact numerical consensus); it is zero unless the caller supplies one.
    """
    return CertificateRecord(check=check, t=t, k=k, lhs=float(lhs), rhs=float(rhs),
                             slack=float(slack), passed=bool(lhs <= rhs * slack + floor))


def summarize(records) -> dict:
    by_check: dict[str, dict] = {}
    for r in records:
        entry = by_check.setdefault(r.check, {"total": 0, "passed": 0})
        entry["total"] += 1
        entry["passed"] += int(r.passed)
    total = sum(e["total"] for e in by_check.values())
    passed = sum(e["passed"] for e in by_check.values())
    return {"total": total, "passed": passed, "failed": total - passed,
            "by_check": by_check}


def write_certificates_json(records, path) -> None:
    with open(path, "w") as fh:
        json.dump([r.to_json_dict() for r in records], fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_certificates_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["check", "t", "k", "lhs", "rhs", "slack", "verdict"])
        for r in records:
            w.writerow([r.check, r.t, "" if r.k is None else r.k,
                        repr(r.lhs), repr(r.rhs), repr(r.slack), r.verdict])


def read_certificates_json(path) -> list[CertificateRecord]:
    with open(path) as fh:
        raw = json.load(fh)
    return [CertificateRecord(check=d["check"], t=d["t"], k=d["k"], lhs=d["lhs"],
                              rhs=d["rhs"], slack=d["slack"],
                              passed=d["verdict"] == "pass") for d in raw]
