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
import io
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
    """A JSON array with one compact record object per line.

    The bytes are those of ``_ENCODER`` on each record's ``to_json_dict``
    (records hold Python floats and ints, as :func:`bound_records` makes
    them), but each record is one ``%`` pass: a float is its ``repr``, except
    that ``nan``, ``inf`` and ``-inf`` become ``NaN``, ``Infinity`` and
    ``-Infinity``, and each distinct check is encoded once.
    """
    checks: dict[str, str] = {}
    with open(path, "w") as fh:
        fh.write("[\n")
        sep = ""
        for r in records:
            if r.check not in checks:
                checks[r.check] = _ENCODER.encode(r.check)
            values = '%r,"rhs":%r,"slack":%r,"floor":%r' % (r.lhs, r.rhs, r.slack, r.floor)
            if "n" in values:  # no finite repr holds an "n"
                values = values.replace("nan", "NaN").replace("inf", "Infinity")
            fh.write('%s{"check":%s,"t":%d,"k":%s,"lhs":%s,"verdict":"%s"}'
                     % (sep, checks[r.check], r.t, "null" if r.k is None else r.k, values,
                        r.verdict))
            sep = ",\n"
        fh.write("\n]\n")


def write_certificates_csv(records, path) -> None:
    """The CSV mirror of :func:`write_certificates_json`, each float cell its ``repr``.

    The bytes are those of ``csv.writer``, but each row is one ``%`` pass and
    each distinct check is quoted (where ``csv.writer`` would) once.
    """
    checks: dict[str, str] = {}
    with open(path, "w", newline="") as fh:
        fh.write("check,t,k,lhs,rhs,slack,floor,verdict\r\n")
        for r in records:
            if r.check not in checks:
                cell = io.StringIO()
                csv.writer(cell).writerow([r.check, ""])
                checks[r.check] = cell.getvalue()[:-3]  # without ",\r\n"
            fh.write("%s,%d,%s,%r,%r,%r,%r,%s\r\n"
                     % (checks[r.check], r.t, "" if r.k is None else r.k, r.lhs, r.rhs,
                        r.slack, r.floor, r.verdict))
