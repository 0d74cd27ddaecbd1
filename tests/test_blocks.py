"""Certificate blocks against their records, one at a time.

A run holds each check as one ``CheckBlock``.  Its verdicts are one array
expression and the summary counts them per block; each must give what the
scalar records give, ``lhs <= rhs * slack + floor`` per record, counted one by
one.  ``verify`` compares a parsed stored file with Python's ``==`` on the
records' dicts, whole records in order.  A command run makes no record object
at all, and annotating a run computes its spread in one call.
"""
import json
import struct
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from consensus_lab import cli, engine  # noqa: E402
from consensus_lab.certificates import (CertificateRecord, Certificates,  # noqa: E402
                                        CheckBlock, summarize)
from oracles import certificate_records  # noqa: E402

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"
EXAMPLES = settings(derandomize=True, database=None, max_examples=200, deadline=None)

# NaN, both infinities, both zeros, subnormals, and ordinary values of all sizes.
values = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324,
                                    2.2250738585072014e-308, 1.0]),
                   st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
checks = st.sampled_from(["a", "b", "c"])


@st.composite
def blocks(draw, n: int) -> CheckBlock:
    return CheckBlock(draw(checks), draw(st.lists(values, min_size=n, max_size=n)),
                      draw(st.lists(values, min_size=n, max_size=n)),
                      t0=draw(st.integers(0, 5)), k=draw(st.none() | st.integers(0, 5)),
                      slack=draw(values), floor=draw(values))


@st.composite
def certificates(draw) -> Certificates:
    groups = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 4))
        groups.append(tuple(draw(blocks(n)) for _ in range(draw(st.integers(1, 2)))))
    return Certificates(*groups)


def record_bits(r: CertificateRecord) -> tuple:
    """A record's fields with each float as its exact bytes, and the field types."""
    floats = (r.lhs, r.rhs, r.slack, r.floor)
    return (r.check, r.t, r.k, *(struct.pack("<d", v) for v in floats),
            type(r.t), *map(type, floats))


@EXAMPLES
@given(certs=certificates())
def test_iteration_equals_record_loop(certs):
    """NaN, infinities, -0.0, empty blocks and interleaved groups, bit for bit."""
    assert list(map(record_bits, certs)) == list(map(record_bits, certificate_records(certs)))


def test_iteration_edge_values_and_layout():
    special = [np.nan, np.inf, -np.inf, -0.0]
    certs = Certificates(
        CheckBlock("a", [], []),
        (CheckBlock("b", special, special[::-1], t0=2, k=1, slack=-0.0, floor=np.nan),
         CheckBlock("c", special[::-1], special, t0=2, slack=np.inf, floor=-np.inf)),
        CheckBlock("d", [-0.0], np.inf, k=0),
        (CheckBlock("e", [], []), CheckBlock("f", [], [])))
    records = list(certs)
    assert list(map(record_bits, records)) == \
        list(map(record_bits, certificate_records(certs)))
    assert [(r.check, r.t) for r in records] == \
        [(c, t) for t in range(2, 6) for c in "bc"] + [("d", 0)]


def summarize_records(records) -> dict:
    """The summary counted one record at a time."""
    by_check: dict[str, dict] = {}
    for r in records:
        entry = by_check.setdefault(r.check, {"total": 0, "passed": 0})
        entry["total"] += 1
        entry["passed"] += int(r.passed)
    total = sum(e["total"] for e in by_check.values())
    passed = sum(e["passed"] for e in by_check.values())
    return {"total": total, "passed": passed, "failed": total - passed, "by_check": by_check}


@EXAMPLES
@given(certs=certificates())
def test_block_verdicts_and_summary_equal_scalar_records(certs):
    records = list(certs)
    assert len(records) == len(certs)
    for block in certs.blocks:
        assert block.passed.tolist() == [r.passed for r in Certificates(block)]
    assert certs.passed == all(r.passed for r in records)
    assert summarize(certs) == summarize_records(records)
    # The stored-file compare is Python's == on the records' dicts.
    stored = json.loads(json.dumps([r.to_json_dict() for r in records]))
    assert certs.matches(stored) == (stored == [r.to_json_dict() for r in records])


def test_records_interleave_in_groups():
    pair = (CheckBlock("a", [1.0, 2.0], 0.0), CheckBlock("b", [3.0, 4.0], 0.0, t0=5))
    certs = Certificates(CheckBlock("c", [0.0], 1.0, k=2), pair)
    assert [(r.check, r.t, r.k, r.lhs) for r in certs] == [
        ("c", 0, 2, 0.0), ("a", 0, None, 1.0), ("b", 5, None, 3.0), ("a", 1, None, 2.0),
        ("b", 6, None, 4.0)]
    with pytest.raises(ValueError, match="one length"):
        Certificates((CheckBlock("a", [1.0], 0.0), CheckBlock("b", [1.0, 2.0], 0.0)))


def test_matches_needs_record_order():
    certs = Certificates((CheckBlock("a", [1.0, 2.0], 3.0), CheckBlock("b", [1.0, 2.0], 3.0)))
    stored = [r.to_json_dict() for r in certs]
    assert certs.matches(stored)
    stored[0], stored[1] = stored[1], stored[0]
    assert not certs.matches(stored)
    assert not certs.matches(stored[:1]) and not certs.matches({"a": 1})


@pytest.fixture
def counted(monkeypatch):
    """Counts of record constructions and of spread and annotate calls."""
    counts = {"records": 0, "spread": 0, "annotate": 0}
    init, spread, annotate = (CertificateRecord.__init__, engine.squared_spread,
                              engine.annotate)

    def counting_init(self, *args, **kwargs):
        counts["records"] += 1
        init(self, *args, **kwargs)

    def counting(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(CertificateRecord, "__init__", counting_init)
    monkeypatch.setattr(engine, "squared_spread", counting("spread", spread))
    monkeypatch.setattr(engine, "annotate", counting("annotate", annotate))
    return counts


def wedge_scenario(path: Path) -> Path:
    """Two halfspaces in a thin wedge: two sampled points underestimate ``r``,
    so the run fails at it."""
    import test_certificates
    config = test_certificates.wedge_config(samples=2, seed=2).to_json_dict()
    path.write_text(json.dumps(config))
    return path


@pytest.mark.parametrize("name", ["regular_tree_d3", "random_rooted_equal_neighbor",
                                  "constrained_halfspaces", "wedge"])
def test_commands_make_no_record_objects(tmp_path, counted, name):
    scenario = (wedge_scenario(tmp_path / "wedge.json") if name == "wedge"
                else SCENARIOS / f"{name}.json")
    out = tmp_path / "out"
    code = 3 if name == "wedge" else 0
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == code
    assert cli.main(["verify", "--report", str(out / "report.json"),
                     "--trajectory", str(out / "trajectory.csv"),
                     "--certificates", str(out / "certificates.json")]) == code
    assert counted == {"records": 0, "spread": 2, "annotate": 2}
