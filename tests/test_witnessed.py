"""Every verdict is witnessed by its record: ``lhs <= rhs * slack + floor``.

No check passes by an allowance the record does not show, and none passes by
an absolute tolerance alone: the decrement bound must fail when ``D(t)`` is
half its lower bound, however small the spread.
"""
import dataclasses
import functools
import json
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from consensus_lab import cli, engine  # noqa: E402
from consensus_lab.lyapunov import contraction_drop  # noqa: E402

from conftest import _unconstrained_config  # noqa: E402

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


@functools.cache
def quarter_run() -> engine.RunResult:
    return engine.run(_unconstrained_config(1, "quarter", m=0, horizon=40))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(exponent=st.floats(-30.0, 0.0), seed=st.integers(0, 2 ** 16))
def test_half_the_decrement_bound_fails_at_every_scale(exponent, seed):
    result = quarter_run()
    traj = result.trajectory
    drop = contraction_drop(result.adjoint.delta, result.compliance.beta,
                            result.compliance.p_star)
    rng = np.random.default_rng(seed)
    spread_sq = 10.0 ** exponent * rng.uniform(0.1, 1.0, traj.horizon + 1)
    injected = dataclasses.replace(traj, spread_sq=spread_sq,
                                   decrement=0.5 * drop * spread_sq[:-1])
    records = engine.evaluate_certificates(result.config, result.compliance, result.adjoint,
                                           injected, None)
    bound = [r for r in records if r.check == "decrement-bound"]
    assert len(bound) == traj.horizon
    assert not any(r.passed for r in bound)


@pytest.mark.parametrize("name", ["regular_tree_d3", "random_rooted_equal_neighbor",
                                  "constrained_halfspaces"])
def test_demo_records_rederive_their_verdicts(tmp_path, name):
    """After a JSON round trip each record's verdict follows from its own fields."""
    out = tmp_path / name
    assert cli.main(["simulate", "--scenario", str(SCENARIOS / f"{name}.json"),
                     "--out", str(out)]) == 0
    records = json.loads((out / "certificates.json").read_text())
    assert records
    for r in records:
        passed = r["lhs"] <= r["rhs"] * r["slack"] + r["floor"]
        assert r["verdict"] == ("pass" if passed else "fail"), r
