"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They cover the self-time arithmetic, the scenario generator's determinism,
the correctness gate, that a traced run puts every patched name back, and
that the printed metrics are exactly the ones ``BENCHMARK.json`` declares.
"""
from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import scenarios  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, str(run.SRC))

from consensus_lab import cli  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],    # overlaps a: together they cover 1..6
        ["c", 2.0, 3.0, 1],
        ["d", 8.0, 12.0, 0],   # only 8..10 lies inside root
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 2, 3 - 1, 3, 1, 4])


def test_layer_metrics_sum_self_times_and_count_builds_inside_the_adjoint():
    tracer = spans.Tracer()
    tracer.spans = [
        ["cli.simulate", 0.0, 10.0, -1],
        ["weights.compliance", 1.0, 5.0, 0],
        ["weights.build", 1.5, 2.0, 1],
        ["adjoint", 5.0, 8.0, 0],
        ["weights.build", 6.0, 7.0, 3],
        ["weights.build", 7.0, 7.5, 3],
    ]
    m = spans.layer_metrics(tracer)
    assert m["weights.build_calls"] == 3
    assert m["weights.build_s"] == pytest.approx(2.0)
    assert m["weights.compliance_self_s"] == pytest.approx(3.5)
    assert m["adjoint.self_s"] == pytest.approx(1.5)
    assert m["adjoint.beyond_horizon_builds"] == 2


@pytest.mark.parametrize("workload", sorted(scenarios.WORKLOADS))
def test_generator_is_a_pure_function_of_the_seed(tmp_path, workload):
    first = scenarios.generate(workload, 11, tmp_path / "a")
    again = scenarios.generate(workload, 11, tmp_path / "b")
    other = scenarios.generate(workload, 12, tmp_path / "c")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in again]
    assert [p.read_bytes() for p in first] != [p.read_bytes() for p in other]
    sizes = {(d["m"], d["n"], d["horizon"]) for d in map(json.loads, (p.read_text()
                                                                      for p in other))}
    assert len(sizes) == 1
    run_seeds = [json.loads(p.read_text())["seed"] for p in other]
    assert len(set(run_seeds)) == scenarios.POOL
    assert all(0 <= s < scenarios.RUN_SEEDS for s in run_seeds)


def _verdicts(n: int) -> list:
    return [["step-identity", t, None, "pass"] for t in range(n)]


def _fake_run(out: Path, seed: int, beta: float, verdicts: list) -> None:
    out.mkdir(parents=True, exist_ok=True)
    report = {"compliance": {"beta": beta, "p_star": 3}, "adjoint": {"delta": 0.1},
              "rate": {"q_step": 0.99}, "seed": seed}
    (out / "report.json").write_text(json.dumps(report))
    (out / "certificates.json").write_text(json.dumps(
        [{"check": c, "t": t, "k": k, "verdict": v} for c, t, k, v in verdicts]))


def test_gate_flags_changed_verdicts_scalars_and_repeats(tmp_path):
    reference = {"w": {"verdicts_sha256": run.verdict_digest(_verdicts(3)),
                       "scalars": {"7": [0.25, 3, 0.1, 0.99]}}}
    gate = run.Gate("w", reference)
    scenario = {"seed": 7}
    _fake_run(tmp_path / "ok", 7, 0.25, _verdicts(3))
    assert gate.check(scenario, tmp_path / "ok") == []
    _fake_run(tmp_path / "beta", 7, 0.25 * (1 + 1e-6), _verdicts(3))
    assert len(gate.check(scenario, tmp_path / "beta")) == 2   # scalars, and the repeat
    _fake_run(tmp_path / "list", 7, 0.25, _verdicts(3)[:2] + [["step-identity", 2, None,
                                                               "fail"]])
    assert len(gate.check(scenario, tmp_path / "list")) == 1
    _fake_run(tmp_path / "new", 8, 0.5, _verdicts(3))
    assert len(gate.check({"seed": 8}, tmp_path / "new")) == 1   # no reference scalars


def _simulate(scenario: Path, out: Path) -> bytes:
    shutil.rmtree(out, ignore_errors=True)
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out),
                     "--horizon", "20"]) == 0
    return (out / "report.json").read_bytes()


@pytest.mark.parametrize("workload", ["rooted-churn", "constrained-mix"])
def test_traced_run_restores_every_patched_name(tmp_path, workload):
    scenario = scenarios.generate(workload, 3, tmp_path / "scenarios")[0]
    targets = [(mod, attr) for mod, attr, *_ in spans.TARGETS + spans.COUNTED]
    modules = {mod: importlib.import_module(f"consensus_lab.{mod}") for mod, _ in targets}
    originals = {(mod, attr): getattr(modules[mod], attr) for mod, attr in targets}

    before = _simulate(scenario, tmp_path / "out")
    tracer = spans.Tracer().install()
    try:
        traced = tracer.root("cli.simulate", _simulate, scenario, tmp_path / "out")
    finally:
        tracer.restore()
    after = _simulate(scenario, tmp_path / "out")

    assert all(getattr(modules[mod], attr) is originals[(mod, attr)]
               for mod, attr in targets)
    assert before == traced == after
    metrics = spans.layer_metrics(tracer)
    assert metrics["engine.evaluate_calls"] >= 1
    touched_sets = metrics["sets.dykstra_calls"] > 0 and metrics["sets.regularity_samples"] > 0
    assert touched_sets == (workload == "constrained-mix")


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    cmd = BENCHMARK["command"] + ["--workload", "rooted-churn", "--seed", "0",
                                  "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                         timeout=300, check=True)
    result = _last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(scenarios.WORKLOADS)


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    cmd = BENCHMARK["command"] + ["--workload", "cubic-tree", "--seed", "0",
                                  "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
