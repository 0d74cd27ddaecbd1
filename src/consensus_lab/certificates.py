"""Machine-checkable bound records shared by every certificate producer.

A record captures one inequality ``lhs <= rhs * slack + floor`` (identity
checks use ``slack = 1`` with the tolerance on the right-hand side), and its
verdict is that inequality evaluated on its own fields, so anyone holding the
record can re-derive it.  Every record a run makes comes from
:func:`bound_records`.  Reports export as a JSON array, one compact record per
line, and a CSV mirror with identical columns.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

VALUE_SLACK = 1.0 + 1e-9
_ENCODER = json.JSONEncoder(separators=(",", ":"))


@dataclass(frozen=True)
class CertificateRecord:
    check: str
    t: int
    k: int | None
    lhs: float
    rhs: float
    slack: float
    floor: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs * self.slack + self.floor

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict:
        return {"check": self.check, "t": self.t, "k": self.k, "lhs": self.lhs,
                "rhs": self.rhs, "slack": self.slack, "floor": self.floor,
                "verdict": self.verdict}


def bound_records(check: str, lhs, rhs, t0: int = 0, k: int | None = None,
                  slack: float = VALUE_SLACK, floor: float = 0.0) -> list[CertificateRecord]:
    """Records for ``lhs[s] <= rhs[s] * slack + floor`` at ``t = t0 + s``.

    ``rhs`` may be a scalar tolerance.  ``floor`` is an absolute rounding
    allowance for quantities that sit at the float64 noise level (e.g.
    squared deviations after the iterates hit exact numerical consensus); it
    is zero unless the caller supplies one.
    """
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.broadcast_to(np.asarray(rhs, dtype=float), lhs.shape)
    slack, floor = float(slack), float(floor)
    return [CertificateRecord(check, t, k, lo, hi, slack, floor)
            for t, lo, hi in zip(range(t0, t0 + lhs.size), lhs.tolist(), rhs.tolist())]


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
    """A JSON array with one compact record object per line."""
    with open(path, "w") as fh:
        fh.write("[\n" + ",\n".join(_ENCODER.encode(r.to_json_dict()) for r in records)
                 + "\n]\n")


def write_certificates_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["check", "t", "k", "lhs", "rhs", "slack", "floor", "verdict"])
        for r in records:
            w.writerow([r.check, r.t, "" if r.k is None else r.k, repr(r.lhs), repr(r.rhs),
                        repr(r.slack), repr(r.floor), r.verdict])
