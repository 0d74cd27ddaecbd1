"""Machine-checkable bound records shared by every certificate producer.

A record captures one inequality ``lhs <= rhs * slack`` (identity checks use
``slack = 1`` with the tolerance on the right-hand side).  Every record a run
makes comes from :func:`bound_records`.  Reports export as a JSON array and a
CSV mirror with identical columns.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

VALUE_SLACK = 1.0 + 1e-9


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


def bound_records(check: str, lhs, rhs, t0: int = 0, k: int | None = None,
                  slack: float = VALUE_SLACK, floor: float = 0.0,
                  passed=None) -> list[CertificateRecord]:
    """Records for ``lhs[s] <= rhs[s] * slack + floor`` at ``t = t0 + s``.

    The test runs once over the whole series; ``rhs`` may be a scalar
    tolerance.  ``floor`` is an absolute rounding allowance for quantities
    that sit at the float64 noise level (e.g. squared deviations after the
    iterates hit exact numerical consensus); it is zero unless the caller
    supplies one.  A check whose verdict is not this one inequality passes
    its own ``passed`` array instead.
    """
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.broadcast_to(np.asarray(rhs, dtype=float), lhs.shape)
    if passed is None:
        passed = lhs <= rhs * slack + floor
    return [CertificateRecord(check, t, k, lo, hi, slack, ok)
            for t, lo, hi, ok in zip(range(t0, t0 + lhs.size), lhs.tolist(), rhs.tolist(),
                                     np.asarray(passed).tolist())]


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
