"""Machine-checkable certificates: one array block per check.

A record captures one inequality ``lhs <= rhs * slack + floor`` (identity
checks use ``slack = 1`` with the tolerance on the right-hand side), and its
verdict is that inequality evaluated on its own fields, so anyone holding the
record can re-derive it.  A run holds its records as :class:`CheckBlock`\\ s,
one per check and series: the ``lhs`` and ``rhs`` arrays over consecutive
steps from ``t0``, with one ``check``, ``k``, ``slack`` and ``floor``.  The
blocks sit in a :class:`Certificates` container in record order, where a
group of blocks of one length interleaves its records step by step.
Verdicts, summaries and the exports work on the blocks; a parsed stored file
is compared with :class:`CertificateRecord` views built on demand.
Reports export as a JSON array, one compact record per line, and a CSV
mirror with identical columns.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

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
        return {**self.__dict__, "verdict": self.verdict}


@dataclass(frozen=True, eq=False)
class CheckBlock:
    """Records ``lhs[s] <= rhs[s] * slack + floor`` at ``t = t0 + s``.

    ``rhs`` may be a scalar tolerance.  ``floor`` is an absolute rounding
    allowance for quantities that sit at the float64 noise level (e.g.
    squared deviations after the iterates hit exact numerical consensus); it
    is zero unless the caller supplies one.
    """

    check: str
    lhs: np.ndarray
    rhs: np.ndarray
    t0: int = 0
    k: int | None = None
    slack: float = VALUE_SLACK
    floor: float = 0.0

    def __post_init__(self):
        lhs = np.asarray(self.lhs, dtype=float).reshape(-1)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", np.broadcast_to(np.asarray(self.rhs, dtype=float),
                                                        lhs.shape))
        object.__setattr__(self, "slack", float(self.slack))
        object.__setattr__(self, "floor", float(self.floor))

    def __len__(self) -> int:
        return self.lhs.size

    @cached_property
    def passed(self) -> np.ndarray:
        """Each record's verdict: the scalar form's IEEE operations, so NaN fails."""
        with np.errstate(invalid="ignore", over="ignore"):  # as Python's floats are silent
            return self.lhs <= self.rhs * self.slack + self.floor

    @cached_property
    def reprs(self) -> tuple[list[str], list[str]]:
        """The ``repr`` of each ``lhs`` and ``rhs`` value, made once for both exports.

        Each distinct value is formatted once (:func:`_distinct_reprs`).
        """
        return _distinct_reprs(self.lhs).tolist(), _distinct_reprs(self.rhs).tolist()


class Certificates:
    """A run's check blocks in record order.

    Each argument is a :class:`CheckBlock` or a tuple of blocks of one length
    whose records interleave step by step: ``(a, b)`` gives ``a(t0)``,
    ``b(t0)``, ``a(t0 + 1)``, ...  ``len`` is the record count, and iterating
    yields :class:`CertificateRecord` views in record order.
    """

    def __init__(self, *groups):
        self.groups = tuple(g if isinstance(g, tuple) else (g,) for g in groups)
        for g in self.groups:
            if len({len(b) for b in g}) > 1:
                raise ValueError("interleaved blocks must have one length")

    @property
    def blocks(self) -> list[CheckBlock]:
        return [b for g in self.groups for b in g]

    def __len__(self) -> int:
        return sum(len(b) for b in self.blocks)

    def __iter__(self):
        for g in self.groups:
            values = [(b, b.lhs.tolist(), b.rhs.tolist()) for b in g]
            for s in range(len(g[0])):
                for b, lhs, rhs in values:
                    yield CertificateRecord(b.check, b.t0 + s, b.k, lhs[s], rhs[s], b.slack,
                                            b.floor)

    @property
    def passed(self) -> bool:
        return all(b.passed.all() for b in self.blocks)

    def matches(self, stored) -> bool:
        """Whether ``stored``, a parsed ``certificates.json``, holds these records.

        Field for field and in record order, by Python's ``==`` on each
        record's ``to_json_dict``.
        """
        return stored == [r.to_json_dict() for r in self]


def summarize(certs: Certificates) -> dict:
    """Record and pass counts in total and per check, checks in record order."""
    by_check: dict[str, dict] = {}
    for b in filter(len, certs.blocks):
        entry = by_check.setdefault(b.check, {"total": 0, "passed": 0})
        entry["total"] += len(b)
        entry["passed"] += int(np.count_nonzero(b.passed))
    total = sum(e["total"] for e in by_check.values())
    passed = sum(e["passed"] for e in by_check.values())
    return {"total": total, "passed": passed, "failed": total - passed,
            "by_check": by_check}


def _distinct_reprs(values: np.ndarray) -> np.ndarray:
    """The ``repr`` of each value, made once per distinct bit pattern.

    The ``int64`` view keeps ``-0.0`` apart from ``0.0`` (and each NaN
    payload apart, which all print as ``nan``).
    """
    patterns, inverse = np.unique(values.view(np.int64), return_inverse=True)
    table = np.array(list(map(repr, patterns.view(float).tolist())), dtype=object)
    return table[inverse].reshape(values.shape)


def _json_float(text: str) -> str:
    """A float's ``repr`` as the JSON encoder writes it."""
    return text.replace("nan", "NaN").replace("inf", "Infinity")


def _render_groups(certs: Certificates, head: str, sep: str, tail: str, row, cells):
    """The text of an export in parts: ``head``, each group as one ``%`` pass
    over its records' template, ``sep`` between groups, then ``tail``.

    ``row(block)`` is a block's record template with its constants filled in
    (``%`` escaped) and ``%d``, ``%s``, ``%s``, ``%s`` left for ``t``,
    ``lhs``, ``rhs`` and the verdict; ``cells(block)`` gives the ``lhs`` and
    ``rhs`` strings.
    """
    yield head
    first = True
    for g in certs.groups:
        n = len(g[0])
        if n == 0:
            continue
        columns = []
        for b in g:
            lhs, rhs = cells(b)
            verdicts = np.where(b.passed, "pass", "fail").tolist()
            columns += [range(b.t0, b.t0 + n), lhs, rhs, verdicts]
        template = sep.join([sep.join(map(row, g))] * n)
        yield ("" if first else sep) + template % tuple(chain.from_iterable(zip(*columns)))
        first = False
    yield tail


def certificates_json_text(certs: Certificates):
    """The text of ``certificates.json``, in parts that concatenate to it.

    A JSON array with one compact record object per line.  The bytes are
    those of ``_ENCODER`` on each record's ``to_json_dict``: a float is its
    ``repr``, except that ``nan``, ``inf`` and ``-inf`` become ``NaN``,
    ``Infinity`` and ``-Infinity``, and the text is ASCII.  Each block's
    check, ``k``, ``slack`` and ``floor`` are encoded once, and its values'
    shared ``reprs`` are rewritten only where a block holds a non-finite
    value.
    """
    def row(b: CheckBlock) -> str:
        const = (_ENCODER.encode(b.check), "null" if b.k is None else str(b.k),
                 _json_float(repr(b.slack)), _json_float(repr(b.floor)))
        return ('{"check":%s,"t":%%d,"k":%s,"lhs":%%s,"rhs":%%s,"slack":%s,"floor":%s,'
                '"verdict":"%%s"}' % tuple(c.replace("%", "%%") for c in const))

    def cells(b: CheckBlock):
        return [list(map(_json_float, strs)) if not np.isfinite(values).all() else strs
                for values, strs in zip((b.lhs, b.rhs), b.reprs)]

    return _render_groups(certs, "[\n", ",\n", "\n]\n", row, cells)


def write_certificates_json(certs: Certificates, path) -> None:
    """Write :func:`certificates_json_text` to ``path``."""
    with open(path, "w") as fh:
        fh.writelines(certificates_json_text(certs))


def same_json_bytes(certs: Certificates, path) -> bool:
    """Whether the file at ``path`` holds exactly :func:`certificates_json_text`.

    The file is read one part of the text at a time, so neither is held
    whole, and the compare stops at the first part that differs.
    """
    with open(path, "rb") as fh:
        return (all(fh.read(len(part)) == part
                    for part in map(str.encode, certificates_json_text(certs)))
                and not fh.read(1))


def write_certificates_csv(certs: Certificates, path) -> None:
    """The CSV mirror of :func:`write_certificates_json`, each float cell its ``repr``.

    The bytes are those of ``csv.writer``; each block's check is quoted
    (where ``csv.writer`` would) once.
    """
    def row(b: CheckBlock) -> str:
        cell = io.StringIO()
        csv.writer(cell).writerow([b.check, ""])
        const = (cell.getvalue()[:-3], "" if b.k is None else str(b.k), repr(b.slack),
                 repr(b.floor))
        return "%s,%%d,%s,%%s,%%s,%s,%s,%%s\r\n" % tuple(c.replace("%", "%%") for c in const)

    with open(path, "w", newline="") as fh:
        fh.writelines(_render_groups(certs, "check,t,k,lhs,rhs,slack,floor,verdict\r\n", "",
                                     "", row, lambda b: b.reprs))
