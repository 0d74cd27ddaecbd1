"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 4 is split in
two: the construction/weights/empirical-rate clauses, and the root
eccentricity clause.  The latter asserts that the spanning-tree depth p* the
engine certifies with grows like log2 m = d, which is all the rate
1 - O(1/(m log2 m)) needs.  An earlier bound of ceil(d/2) on the root
eccentricity was dropped because no cubic graph can meet it: within distance
k of any node a degree-3 graph holds at most 1 + 3(2^k - 1) nodes (the Moore
bound), so every node of a cubic graph on 2^d nodes has eccentricity at least
k_min(d) = min{k : 1 + 3(2^k - 1) >= 2^d} = d - 1 > ceil(d/2) for d >= 4.
"""
import json
import math
import time

import numpy as np
import pytest

from consensus_lab import (Ball, GraphSequence, Halfspace, Intersection, MatrixSequence,
                           assemble_adjoint, backward_product_adjoint, bfs_spanning_tree,
                           cli, permutation_counterexample, regular_tree_graph,
                           regularity_interior, regularity_sampling, uniform_adjoint,
                           verify_compliance, window_averaged_product)
from consensus_lab import engine

from conftest import _constrained_config, _unconstrained_config
from oracles import (averaging_identity_residual, operator_norm_sq, pairwise_decrement_sum,
                     product_convergence_records)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")


def triple_sum_oracle(a, x, nu):
    m = len(x)
    total = 0.0
    for i in range(m):
        acc = 0.0
        for j in range(m):
            for l in range(m):
                acc += a[i, j] * a[i, l] * (x[j] - x[l]) ** 2
        total += nu[i] * acc
    return 0.5 * total


def test_01_exact_decrease_identity():
    """10^3 random instances, m in 2..12, residual <= 1e-10 * max(1, ||x||^2), < 5 s."""
    rng = np.random.default_rng(0xAC01)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 13))
        a = rng.random((m, m)) + 0.02
        a /= a.sum(axis=1, keepdims=True)
        x = rng.uniform(-6, 6, m)
        nu = rng.random(m)
        nu /= nu.sum()
        scale = max(1.0, float(x @ x))
        resid = abs(averaging_identity_residual(a, x, nu)) / scale
        oracle_gap = abs(pairwise_decrement_sum(a, x, nu) -
                         triple_sum_oracle(a, x, nu)) / scale
        worst = max(worst, resid, oracle_gap)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(1, "exact decrease identity", ok,
           f"worst residual {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_02_exact_step_and_conservation():
    """50 certified runs (m <= 20, horizon 500): exact step identity and conservation."""
    bad = 0
    for seed in range(50):
        m = 3 + seed % 18
        cfg = _unconstrained_config(seed=seed + 1000, scheme="equal-neighbor",
                                    m=m, horizon=500)
        res = engine.run(cfg)
        assert res.compliance.ok
        for rec in res.records:
            if rec.check in ("step-identity", "conservation") and not rec.passed:
                bad += 1
    report(2, "exact step identity and conservation", bad == 0, f"{bad} violations")
    assert bad == 0


def test_03_rate_bound_sweep():
    """100 mixed scenarios, k in {0, T/2}: zero contraction violations, < 2 min."""
    start = time.perf_counter()
    bad = 0
    total = 0
    for seed in range(100):
        scheme = "quarter" if seed % 5 == 0 else "equal-neighbor"
        n = 3 if seed % 7 == 0 else 1
        cfg = _unconstrained_config(seed=seed, scheme=scheme, m=3 + seed % 18,
                                    horizon=500, n=n)
        res = engine.run(cfg)
        assert res.compliance.ok
        for rec in res.records:
            if rec.check == "vector-rate-contraction":
                total += 1
                bad += not rec.passed
        # consensus limit: squared spread at the horizon under the full envelope
        q = res.report["rate"]["q_step"]
        traj = res.trajectory
        floor = traj.states.shape[1] * (np.finfo(float).eps *
                                        (1 + np.abs(traj.states).max())) ** 2
        assert traj.spread_sq[-1] <= q ** cfg.horizon * traj.spread_sq[0] + floor
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 120.0
    report(3, "geometric rate bound sweep", ok,
           f"{bad}/{total} violations, {elapsed:.1f}s")
    assert bad == 0
    assert elapsed < 120.0


def test_04_regular_tree_construction_and_empirical_rate():
    """d in 2..6: cubic graph, doubly stochastic quarter weights with beta 1/4,
    and the empirical squared error under (1 - 1/(4^3 m ceil(d/2)))^t for
    t <= 2000 over 20 random starts each."""
    violations = 0
    for d in range(2, 7):
        g = regular_tree_graph(d)
        m = 2 ** d
        assert g.m == m
        a = g.adjacency
        assert np.array_equal(a, a.T) and (a.sum(axis=1) == 3).all()
        seq = MatrixSequence.from_scheme(GraphSequence.static(g), "quarter")
        comp = verify_compliance(seq, 4)
        assert comp.level == "strong"
        assert comp.doubly_stochastic
        assert comp.beta == 0.25

        q = 1.0 - 1.0 / (64.0 * m * math.ceil(d / 2))
        rng = np.random.default_rng(0xAC04 + d)
        x = rng.uniform(-1, 1, size=(m, 20))
        mean0 = x.mean(axis=0)
        err0 = ((x - mean0) ** 2).sum(axis=0)
        a = seq.matrix_at(0)
        envelope = err0.copy()
        for _ in range(2000):
            x = a @ x
            envelope *= q
            err = ((x - mean0) ** 2).sum(axis=0)
            violations += int((err > envelope * (1 + 1e-9)).sum())
    report(4, "regular tree construction and empirical rate", violations == 0,
           f"{violations} envelope violations")
    assert violations == 0


def test_04_regular_tree_root_eccentricity_claim():
    """d in 2..6: root eccentricity <= log2 m = d, certified p* equal to it,
    and a radius that meets the Moore bound.

    The certified quotient 1 - 1/(4^3 m p*) is then at most
    1 - 1/(4^3 m log2 m).  No node of a cubic graph on 2^d nodes has
    eccentricity below k_min(d) = min{k : 1 + 3(2^k - 1) >= 2^d}, since a
    degree-3 ball of radius k holds at most 1 + 3(2^k - 1) nodes; the
    binary-tree root (node 1) reaches k_min(d), so the construction's radius
    is optimal among cubic graphs of its size.
    """
    rows = {}
    failing = []
    for d in range(2, 7):
        g = regular_tree_graph(d)
        m = 2 ** d
        k_min = next(k for k in range(m) if 1 + 3 * (2 ** k - 1) >= m)
        eccs = [bfs_spanning_tree(g, v).depth for v in range(m)]
        seq = MatrixSequence.from_scheme(GraphSequence.static(g), "quarter")
        p_star = verify_compliance(seq, 1).p_star
        rows[d] = (eccs[0], p_star, eccs[1], min(eccs), k_min)
        ok = (eccs[0] <= d and p_star == eccs[0]
              and 1.0 - 1.0 / (64 * m * p_star) <= 1.0 - 1.0 / (64 * m * d)
              and min(eccs) >= k_min and eccs[1] == k_min)
        if not ok:
            failing.append(d)
    report(4, "regular tree root eccentricity <= log2 m, radius = Moore bound",
           not failing, f"(ecc(0), p*, ecc(1), radius, k_min) by d: {rows}")
    assert not failing, f"clause fails for d in {failing}: {rows}"


def test_05_matrix_product_envelope_and_ergodic_limit():
    """Operator-norm envelope over 20 certified sequences (m <= 10, t-k <= 200),
    and || A(t:0) - 1 pi(0)' || <= 1e-6 by t = 1000 for the quarter scheme."""
    bad = 0
    for seed in range(20):
        m = 3 + seed % 8
        seq = MatrixSequence.from_scheme(
            GraphSequence.random_rooted(m, 0.2 + 0.05 * (seed % 5), seed=seed),
            "equal-neighbor")
        comp = verify_compliance(seq, 201)
        assert comp.ok
        adj = assemble_adjoint(seq, 201)
        recs = product_convergence_records(seq, adj, comp.beta, comp.p_star,
                                           k=0, t_max=200)
        bad += sum(not r.passed for r in recs)

    limits = {}
    for d in (2, 3):
        seq = MatrixSequence.from_scheme(GraphSequence.static(regular_tree_graph(d)),
                                         "quarter")
        adj = uniform_adjoint(seq, 1)
        m = 2 ** d
        rank_one = np.outer(np.ones(m), adj.vectors[0])
        prod = seq.matrix_at(0)
        for t in range(1, 1000):
            prod = seq.matrix_at(t) @ prod
        limits[d] = math.sqrt(operator_norm_sq(prod - rank_one))
    ok = bad == 0 and all(v <= 1e-6 for v in limits.values())
    report(5, "matrix product envelope and ergodic limit", ok,
           f"{bad} envelope violations, limits {limits}")
    assert bad == 0
    assert all(v <= 1e-6 for v in limits.values())


def test_06_adjoint_validity():
    """Residuals <= 1e-8; uniform for doubly stochastic; window-doubling
    agreement within 2 * spread_tol; permutation counterexample."""
    spread_tol = 1e-10
    for seed in range(8):
        seq = MatrixSequence.from_scheme(
            GraphSequence.random_rooted(4 + seed, 0.3, seed=seed), "equal-neighbor")
        aps = assemble_adjoint(seq, 60)
        assert aps.residuals.max() <= 1e-8
        assert 0.0 < aps.delta <= 1.0 / aps.m

    quarter = MatrixSequence.from_scheme(GraphSequence.static(regular_tree_graph(3)),
                                         "quarter")
    uni = uniform_adjoint(quarter, 30)
    assert (uni.vectors == 0.125).all()
    assembled = assemble_adjoint(quarter, 30)
    assert np.abs(assembled.vectors - 0.125).max() <= spread_tol

    seq = MatrixSequence.from_scheme(GraphSequence.random_rooted(6, 0.4, seed=77),
                                     "equal-neighbor")
    phi = backward_product_adjoint(seq, 0)
    for window in (8, 16, 32, 64, 128, 256, 512, 1024):
        vec, spread = window_averaged_product(seq, 0, window)
        if spread <= spread_tol:
            vec2, _ = window_averaged_product(seq, 0, 2 * window)
            assert np.abs(vec - vec2).max() <= 2 * spread_tol
            assert np.abs(phi - vec).max() <= 2 * spread_tol
            break
    else:
        pytest.fail("no window converged")

    _, first, second = permutation_counterexample(5, seed=6)
    assert first.residuals.max() == 0.0
    assert second.residuals.max() == 0.0
    assert np.abs(first.vectors[0] - second.vectors[0]).max() > 1e-6
    report(6, "adjoint validity", True)


def test_07_projection_properties():
    """10^3 random (set, x, y) triples per variant; Dykstra vs closed forms."""
    from test_sets import random_set, feasible_point

    rng = np.random.default_rng(0xAC07)
    variants = {"halfspace": 0, "hyperplane": 0, "box": 0, "ball": 0,
                "polyhedron": 0, "intersection": 0}
    checked = dict.fromkeys(variants, 0)
    while min(checked.values()) < 1000:
        n = int(rng.integers(1, 5))
        s = random_set(rng, n)
        name = type(s).__name__.lower()
        if isinstance(s, Intersection) and all(isinstance(h, Halfspace) for h in s.members):
            name = "polyhedron"
        if checked[name] >= 1000:
            continue
        checked[name] += 1
        x = rng.normal(size=n) * 3
        y = feasible_point(rng, s, n)
        from oracles import check_nonexpansive, check_variational_inequality
        assert check_nonexpansive(s, x, y).passed
        assert check_variational_inequality(s, x, y).passed

    from consensus_lab import Box
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        lo = rng.uniform(-2, 0, n)
        hi = lo + rng.uniform(0.5, 2.5, n)
        box = Box(lo, hi)
        halves = [Halfspace(e, float(hi[i])) for i, e in enumerate(np.eye(n))]
        halves += [Halfspace(-e, float(-lo[i])) for i, e in enumerate(np.eye(n))]
        halves += halves[: 1 + int(rng.integers(0, len(halves)))]  # redundancy
        poly = Intersection(tuple(halves))
        x = rng.normal(size=n) * 4
        worst = max(worst, float(np.abs(poly.project(x) - box.project(x)).max()))
    ok = worst <= 1e-8
    report(7, "projection properties", ok, f"dykstra gap {worst:.2e}")
    assert worst <= 1e-8


def test_08_constrained_runs():
    """30 interior-ball scenarios: per-step decrease and tracked contraction,
    distance envelope at all t, final distance <= 1e-6 at T = 500, < 3 min."""
    start = time.perf_counter()
    bad = 0
    max_final = 0.0
    for seed in range(30):
        res = engine.run(_constrained_config(seed=seed + 2000, horizon=500))
        assert res.compliance.ok
        assert res.report["regularity"]["method"] == "interior-formula"
        for rec in res.records:
            if rec.check in ("constrained-decrease", "tracked-contraction",
                             "distance-envelope"):
                bad += not rec.passed
        final = math.sqrt(res.trajectory.dist_sq[-1].max())
        max_final = max(max_final, final)
        # agreement: the spread also falls below 1e-6 by the horizon
        assert math.sqrt(res.trajectory.spread_sq[-1]) <= 1e-6
    elapsed = time.perf_counter() - start
    ok = bad == 0 and max_final <= 1e-6 and elapsed < 180.0
    report(8, "constrained consensus certificates", ok,
           f"{bad} violations, final dist {max_final:.2e}, {elapsed:.1f}s")
    assert bad == 0
    assert max_final <= 1e-6
    assert elapsed < 180.0


def test_09_regularity_geometry():
    """Sampling reaches [1.40, sqrt(2)] on the orthogonal pair; formula cases exact."""
    pair = [Halfspace(np.array([1.0, 0.0]), 0.0), Halfspace(np.array([0.0, 1.0]), 0.0)]
    region = Ball(np.zeros(2), 2.0)
    est1 = regularity_sampling(pair, region, 10000, seed=0)
    est2 = regularity_sampling(pair, region, 10000, seed=0)
    in_range = 1.40 <= est1.r_hat <= math.sqrt(2) + 1e-12
    stable = est1.r_hat == est2.r_hat

    f1 = regularity_interior([Ball(np.zeros(2), 1.5)], 1.0, np.zeros(2),
                             Ball(np.zeros(2), 2.0)).r_hat == 2.0
    f2 = regularity_interior([Ball(np.array([1.0, 0.0]), 2.0)], 0.5,
                             np.array([1.0, 0.0]), Ball(np.zeros(2), 1.0)).r_hat == 4.0
    f3 = regularity_interior([Ball(np.zeros(2), 1.0)], 0.9, np.zeros(2),
                             Ball(np.zeros(2), 1e-15)).r_hat == 1.0
    ok = in_range and stable and f1 and f2 and f3
    report(9, "regularity geometry", ok, f"r_hat {est1.r_hat:.5f}")
    assert in_range and stable and f1 and f2 and f3


def test_10_reproducibility_round_trip(tmp_path):
    """Identical seeds give byte-identical artifacts; verify replays exit 0."""
    scenarios = {
        "quarter": {
            "m": 8, "n": 1, "horizon": 150, "seed": 7, "mode": "unconstrained",
            "graph": {"kind": "static", "regular_tree_d": 3},
            "weights": {"scheme": "quarter"},
            "initial": {"kind": "uniform-box", "low": -1, "high": 1},
        },
        "constrained": {
            "m": 3, "n": 2, "horizon": 250, "seed": 5, "mode": "constrained",
            "graph": {"kind": "random-rooted", "extra_edge_prob": 0.5},
            "weights": {"scheme": "equal-neighbor"},
            "initial": {"kind": "uniform-box", "low": -2, "high": 2},
            "constraints": [
                {"type": "halfspace", "a": [1.0, 0.0], "b": 1.0},
                {"type": "box", "lower": [-2.0, -2.0], "upper": [2.0, 2.0]},
                {"type": "ball", "center": [0.0, 0.0], "radius": 2.5},
            ],
            "regularity": {"method": "interior", "theta": 0.5, "x_bar": [0.0, 0.0]},
        },
    }
    artifact_names = ("report.json", "trajectory.csv", "certificates.json",
                      "certificates.csv", "plot_data.csv", "adjoint.csv", "adjoint.json")
    ok = True
    for label, scenario in scenarios.items():
        spath = tmp_path / f"{label}.json"
        spath.write_text(json.dumps(scenario))
        outs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{label}-{attempt}"
            assert cli.main(["simulate", "--scenario", str(spath),
                             "--out", str(out)]) == 0
            outs.append(out)
        for name in artifact_names:
            ok &= (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        code = cli.main(["verify", "--report", str(outs[0] / "report.json"),
                         "--trajectory", str(outs[0] / "trajectory.csv"),
                         "--certificates", str(outs[0] / "certificates.json")])
        ok &= code == 0
    report(10, "reproducibility and verify round trip", ok)
    assert ok
