"""Whole-series certificate records against the step-by-step reference loop.

``engine.evaluate_certificates`` evaluates each check once over the run and
builds every record through ``certificates.bound_records``.  The records must
equal those of ``oracles.evaluate_certificates_per_step`` field for field,
with every float compared by its exact bits.
"""
import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from consensus_lab import engine
from consensus_lab.certificates import (CertificateRecord, bound_records,
                                        write_certificates_csv, write_certificates_json)
from consensus_lab.lyapunov import noise_floor
from consensus_lab.sets import DYKSTRA_TOL

from conftest import _constrained_config, _unconstrained_config
from oracles import adversarial_array, evaluate_certificates_per_step, v_noise_floor
from oracles import noise_floor as noise_floor_per_run

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


def record_key(r):
    return (r.check, r.t, r.k, r.lhs.hex(), r.rhs.hex(), r.slack.hex(), r.floor.hex(), r.passed)


def compare(result, traj, r_used) -> list:
    args = (result.config, result.compliance, result.adjoint, traj, r_used)
    got = engine.evaluate_certificates(*args)
    want = evaluate_certificates_per_step(*args)
    assert len(got) == len(want) > 0
    assert [record_key(r) for r in got] == [record_key(r) for r in want]
    for r in got:
        assert (type(r.t), type(r.lhs), type(r.rhs), type(r.slack), type(r.floor),
                type(r.passed)) == (int, float, float, float, float, bool)
    return got


def assert_same_records(config, r_used="report"):
    result = engine.run(config)
    if r_used == "report":
        r_used = result.report.get("r_used")
    compare(result, result.trajectory, r_used)
    return result


def polyhedron_config(horizon: int = 120) -> engine.RunConfig:
    """Four agents, one holding a triangle given as a polyhedron; sampled regularity."""
    triangle = {"type": "polyhedron", "halfspaces": [
        {"type": "halfspace", "a": [1.0, 0.0], "b": 1.5},
        {"type": "halfspace", "a": [0.0, 1.0], "b": 1.5},
        {"type": "halfspace", "a": [-1.0, -1.0], "b": 1.5},
    ]}
    return engine.RunConfig.from_json_dict({
        "m": 4, "n": 2, "horizon": horizon, "seed": 17, "mode": "constrained",
        "graph": {"kind": "random-rooted", "extra_edge_prob": 0.3},
        "weights": {"scheme": "equal-neighbor"},
        "initial": {"kind": "uniform-box", "low": -3.0, "high": 3.0},
        "constraints": [
            triangle,
            {"type": "box", "lower": [-1.0, -2.0], "upper": [2.0, 1.0]},
            {"type": "ball", "center": [0.2, 0.0], "radius": 1.2},
            {"type": "halfspace", "a": [0.6, -0.8], "b": 0.9},
        ],
        "regularity": {"method": "sampling", "samples": 200},
    })


class TestWholeSeriesRecords:
    @pytest.mark.parametrize("seed", [0, 1, 2], ids=["d2", "d3", "d4"])
    def test_quarter(self, seed):
        assert_same_records(_unconstrained_config(seed, "quarter", m=0, horizon=200))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equal_neighbor_random_rooted(self, n):
        for seed in (3, 4):
            assert_same_records(_unconstrained_config(seed, "equal-neighbor", m=9,
                                                      horizon=150, n=n))

    def test_several_rate_ks(self):
        config = dataclasses.replace(
            _unconstrained_config(5, "equal-neighbor", m=7, horizon=120, n=2),
            rate_ks=(0, 7, "half", 119, 120))
        result = assert_same_records(config)
        ks = {r.k for r in result.records if r.check == "vector-rate-contraction"}
        assert ks == {0, 7, 60, 119, 120}

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_constrained(self, seed):
        assert_same_records(_constrained_config(seed, horizon=200))

    def test_constrained_without_regularity_constant(self):
        assert_same_records(_constrained_config(5, horizon=80), r_used=None)

    def test_polyhedron_set(self):
        result = assert_same_records(polyhedron_config())
        assert result.report["r_used"] is not None

    @pytest.mark.parametrize("config", [
        _unconstrained_config(6, "equal-neighbor", m=8, horizon=100, n=2),
        _constrained_config(6, horizon=100),
    ], ids=["unconstrained", "constrained"])
    def test_failing_steps(self, config):
        """Perturbed series fail some checks; the verdicts must still agree."""
        result = engine.run(config)
        traj = result.trajectory
        rng = np.random.default_rng(6)

        def bump(series, low=0.99, high=1.01):
            return series * rng.uniform(low, high, size=series.shape)

        def reverse(series):
            return None if series is None else series[::-1].copy()

        perturbed = dataclasses.replace(
            traj, lyap=bump(traj.lyap), decrement=bump(traj.decrement, -0.5, 1.5),
            conservation=None if traj.conservation is None else bump(traj.conservation),
            v_values=reverse(traj.v_values), dist_sq=reverse(traj.dist_sq),
            feasibility=None if traj.feasibility is None else traj.feasibility + 1e-10)
        records = compare(result, perturbed, result.report.get("r_used"))
        verdicts = {r.passed for r in records}
        assert verdicts == {True, False}


def wedge_config(samples: int, seed: int, theta: float = 0.05) -> engine.RunConfig:
    """Two agents whose halfspaces meet in a wedge of angle ``theta``; sampled regularity.

    Averaged projections creep toward the apex, and a few samples
    underestimate the wedge's regularity constant (about ``1/sin(theta)``), so
    the sampled constant's tracked contraction fails and the search for ``r``
    has to climb.
    """
    return engine.RunConfig.from_json_dict({
        "m": 2, "n": 2, "horizon": 200, "seed": seed, "mode": "constrained",
        "graph": {"kind": "static", "graph": {"m": 2, "edges": [[1, 2], [2, 1]]}},
        "weights": {"scheme": "equal-neighbor"},
        "initial": {"kind": "explicit", "states": [[10.0, 0.0], [10.0, 10.0 * math.tan(theta)]]},
        "constraints": [{"type": "halfspace", "a": [0.0, 1.0], "b": 0.0},
                        {"type": "halfspace", "a": [math.tan(theta), -1.0], "b": 0.0}],
        "regularity": {"method": "sampling", "samples": samples},
    })


def per_step_keys(result, traj, r):
    return [record_key(x) for x in evaluate_certificates_per_step(
        result.config, result.compliance, result.adjoint, traj, r)]


class TestEscalation:
    def test_passes_after_some_rungs(self, monkeypatch):
        evaluate = engine.evaluate_certificates
        calls = []
        monkeypatch.setattr(engine, "evaluate_certificates",
                            lambda *args: calls.append(args) or evaluate(*args))
        result = engine.run(wedge_config(samples=2, seed=2))
        assert len(calls) == 1
        assert result.certificates_pass and result.report["regularity_escalated"]
        info, r = result.report["regularity"], result.report["r_used"]
        assert info["r_initial"] == info["r_hat"] and info["r_used"] == r
        rungs = [info["r_initial"]]
        while rungs[-1] < r:
            rungs.append(rungs[-1] * 1.5)
        assert len(rungs) >= 2 and rungs[-1].hex() == r.hex()
        assert [record_key(x) for x in result.records] == \
            per_step_keys(result, result.trajectory, r)
        below = evaluate_certificates_per_step(result.config, result.compliance,
                                               result.adjoint, result.trajectory, rungs[-2])
        assert not all(x.passed for x in below)

    def test_never_certifies_without_raising(self):
        """Feasible states swapped in at t = 401 break V's decrease for every ``r``.

        The search stops before the quotient turns vacuous and keeps the
        sampled constant's failing records, under sampled and interior
        regularity alike.
        """
        scenario = json.loads((SCENARIOS / "constrained_halfspaces.json").read_text())
        del scenario["out_dir"]
        config = engine.RunConfig.from_json_dict(scenario)
        traj = engine.run(config).trajectory
        states = traj.states.copy()
        states[401] = [[0.9, -1.5], [-1.5, 0.9], [2.0, -2.0], [-2.0, 2.0]]
        sampled = dataclasses.replace(config, regularity={"method": "sampling", "samples": 500})
        for cfg in (sampled, config):
            result = engine.replay_certificates(cfg, states, traj.w)
            assert not result.certificates_pass
            assert not result.report["regularity_escalated"]
            assert result.report["r_used"] == result.report["regularity"]["r_hat"]
            assert "tracked-contraction" in {x.check for x in result.records if not x.passed}
            assert [record_key(x) for x in result.records] == \
                per_step_keys(result, result.trajectory, result.report["r_used"])


class TestNoiseFloor:
    def test_one_formula_gives_both_floors(self):
        for config in (_unconstrained_config(1, "quarter", m=0, horizon=60),
                       _constrained_config(2, horizon=60)):
            result = engine.run(config)
            states = result.trajectory.states
            assert noise_floor(states).hex() == noise_floor_per_run(states).hex()
            if config.mode == "constrained":
                assert noise_floor(states, DYKSTRA_TOL, reach=2.0).hex() == \
                    v_noise_floor(result.trajectory).hex()


class TestBoundRecords:
    def test_slack_floor_and_steps(self):
        recs = bound_records("c", [1.0, 2.0, 3.0], 2.0, t0=4, k=1, slack=1.0, floor=0.5)
        assert [(r.check, r.t, r.k, r.lhs, r.rhs, r.slack, r.floor, r.passed)
                for r in recs] == [
            ("c", 4, 1, 1.0, 2.0, 1.0, 0.5, True), ("c", 5, 1, 2.0, 2.0, 1.0, 0.5, True),
            ("c", 6, 1, 3.0, 2.0, 1.0, 0.5, False)]


def json_encoder_certificates(records, path):
    """The compact encoder, one record per line: the reference for ``certificates.json``."""
    encoder = json.JSONEncoder(separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write("[\n" + ",\n".join(encoder.encode(r.to_json_dict()) for r in records)
                 + "\n]\n")


def csv_writer_certificates(records, path):
    """Row-by-row ``csv.writer`` export: the reference for ``certificates.csv``."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["check", "t", "k", "lhs", "rhs", "slack", "floor", "verdict"])
        for r in records:
            wr.writerow([r.check, r.t, "" if r.k is None else r.k, repr(r.lhs), repr(r.rhs),
                         repr(r.slack), repr(r.floor), r.verdict])


def assert_writers_match_oracles(records, tmp_path):
    for write, oracle, name in ((write_certificates_json, json_encoder_certificates, "json"),
                                (write_certificates_csv, csv_writer_certificates, "csv")):
        write(records, tmp_path / f"got.{name}")
        oracle(records, tmp_path / f"want.{name}")
        assert (tmp_path / f"got.{name}").read_bytes() == (tmp_path / f"want.{name}").read_bytes()


class TestWriters:
    def test_adversarial_values_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        values = adversarial_array(rng, (60, 4)).tolist()
        checks = ["conservation", "vector-rate-contraction", 'odd, "quoted"\r\nname', "é"]
        records = [CertificateRecord(checks[i % 4], i, None if i % 3 else i // 3, *v)
                   for i, v in enumerate(values)]
        assert_writers_match_oracles(records, tmp_path)
        stored = json.loads((tmp_path / "got.json").read_text())
        assert len(stored) == 60 and stored[0]["check"] == "conservation"

    def test_no_records(self, tmp_path):
        assert_writers_match_oracles([], tmp_path)

    def test_run_records(self, tmp_path):
        assert_writers_match_oracles(engine.run(polyhedron_config()).records, tmp_path)
