import csv
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from consensus_lab import (Ball, Box, DimensionMismatch, Halfspace, NotCompliant,
                           regular_tree_graph, step_constrained, step_unconstrained, track_uv,
                           v_function)
from consensus_lab import engine
from oracles import (adversarial_array, constrained_fields_per_point,
                     mean_square_identity_residual)


class TestSteps:
    def test_identity_keeps_states(self):
        x = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(step_unconstrained(x, np.eye(3)), x)

    def test_complete_averaging_one_step(self):
        x = np.array([[0.0], [4.0], [8.0]])
        out = step_unconstrained(x, np.full((3, 3), 1 / 3))
        np.testing.assert_allclose(out, np.full((3, 1), 4.0))

    def test_hand_case(self):
        a = np.array([[0.5, 0.5], [0.25, 0.75]])
        out = step_unconstrained(np.array([[0.0], [4.0]]), a)
        np.testing.assert_array_equal(out, [[2.0], [3.0]])

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatch):
            step_unconstrained(np.zeros((3, 1)), np.eye(2))

    def test_constrained_free_sets_reduce_to_unconstrained(self):
        free = Box(np.array([-np.inf]), np.array([np.inf]))
        x = np.array([[1.0], [-2.0]])
        a = np.array([[0.5, 0.5], [0.25, 0.75]])
        w, x_next = step_constrained(x, a, [free, free])
        np.testing.assert_array_equal(w, step_unconstrained(x, a))
        np.testing.assert_array_equal(x_next, w)

    def test_constrained_hand_case(self):
        sets = [Halfspace(np.array([-1.0]), 0.0),  # x >= 0
                Halfspace(np.array([1.0]), 0.0)]   # x <= 0
        a = np.full((2, 2), 0.5)
        w, x_next = step_constrained(np.array([[-2.0], [2.0]]), a, sets)
        np.testing.assert_array_equal(w, np.zeros((2, 1)))
        np.testing.assert_array_equal(x_next, np.zeros((2, 1)))

    def test_common_feasible_point_is_fixed(self):
        sets = [Ball(np.zeros(2), 1.0), Box(-np.ones(2), np.ones(2))]
        x = np.tile(np.array([0.3, -0.2]), (2, 1))
        _, x_next = step_constrained(x, np.full((2, 2), 0.5), sets)
        np.testing.assert_allclose(x_next, x, atol=1e-15)


class TestVFunction:
    def test_zero_at_common_point(self):
        states = np.tile(np.array([1.0, 2.0]), (3, 1))
        assert v_function(states, np.full(3, 1 / 3), np.array([1.0, 2.0])) == 0.0

    def test_symmetric_pair(self):
        states = np.array([[1.0], [-1.0]])
        assert v_function(states, np.array([0.5, 0.5]), np.array([0.0])) == 1.0

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m, n = int(rng.integers(2, 8)), int(rng.integers(1, 4))
            states = rng.normal(size=(m, n))
            pi = rng.random(m)
            pi /= pi.sum()
            y = rng.normal(size=n)
            direct = sum(pi[i] * np.linalg.norm(states[i] - y) ** 2 for i in range(m))
            assert v_function(states, pi, y) == pytest.approx(direct, rel=1e-12)

    def test_whole_run_matches_each_step_bitwise(self):
        """One call over ``(T, m, n)`` gives each step's 1-D ``pi[t] @ sq[t]`` bits."""
        rng = np.random.default_rng(1)
        for _ in range(100):
            steps, m, n = (int(k) for k in rng.integers(1, 9, size=3))
            states = rng.normal(size=(steps, m, n)) * 10.0 ** int(rng.integers(-3, 4))
            pi = rng.random((steps, m))
            pi /= pi.sum(axis=1, keepdims=True)
            ys = rng.normal(size=(steps, n))
            for y, y_at in ((ys[0], lambda t: ys[0]), (ys, lambda t: ys[t])):
                want = np.array([pi[t] @ ((states[t] - y_at(t)) ** 2).sum(axis=-1)
                                 for t in range(steps)])
                got = v_function(states, pi, y)
                assert got.shape == (steps,) and got.tobytes() == want.tobytes()

    def test_any_non_stochastic_row_rejected(self):
        pi = np.full((3, 2), 0.5)
        pi[2] = [0.5, 0.6]
        with pytest.raises(ValueError):
            v_function(np.zeros((3, 2, 1)), pi, np.zeros(1))


class TestMeanSquareIdentity:
    def test_constant_vector(self):
        assert mean_square_identity_residual(np.full(4, 3.0), np.full(4, 0.25), 1.0) == \
            pytest.approx(0.0, abs=1e-14)

    def test_hand_case(self):
        v = np.array([0.0, 2.0])
        phi = np.array([0.5, 0.5])
        assert mean_square_identity_residual(v, phi, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_random_cases(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            m = int(rng.integers(2, 13))
            v = rng.uniform(-6, 6, m)
            phi = rng.random(m)
            phi /= phi.sum()
            s = float(rng.uniform(-5, 5))
            scale = max(1.0, float(np.max(v * v)), s * s)
            assert abs(mean_square_identity_residual(v, phi, s)) <= 1e-10 * scale


class TestTrackUV:
    def test_common_point(self):
        x = np.tile(np.array([0.2, 0.1]), (3, 1))
        box = Box(-np.ones(2), np.ones(2))
        u, v = track_uv(x, np.full(3, 1 / 3), box)
        np.testing.assert_allclose(u, [0.2, 0.1], atol=1e-15)
        np.testing.assert_allclose(v, u, atol=1e-15)

    def test_hand_case(self):
        states = np.array([[-2.0], [4.0]])
        box = Box(np.array([0.0]), np.array([1.0]))
        u, v = track_uv(states, np.array([0.5, 0.5]), box)
        assert u == pytest.approx(1.0)
        assert v == pytest.approx(1.0)

    def test_interior_mean_fixed(self):
        states = np.array([[0.1, 0.0], [0.3, 0.0]])
        ball = Ball(np.zeros(2), 5.0)
        u, v = track_uv(states, np.array([0.5, 0.5]), ball)
        np.testing.assert_array_equal(u, v)


class TestBatchedConstrainedSeries:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_annotate_matches_point_by_point(self, constrained_config, seed):
        config = constrained_config(seed, horizon=80)
        mseq, _, adjoint, sets, intersection = engine._prepare(config)
        states, w = engine.simulate(config, mseq, sets)
        traj = engine.annotate(config, mseq, adjoint, states, w, sets, intersection)
        reference = constrained_fields_per_point(states, adjoint.vectors, sets, intersection)
        for name, expected in reference.items():
            got = getattr(traj, name)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), name


class TestRunConfigValidation:
    BASE = {"m": 6, "n": 1, "horizon": 40, "seed": 3, "mode": "unconstrained",
            "graph": {"kind": "random-rooted", "extra_edge_prob": 0.2},
            "weights": {"scheme": "equal-neighbor"}, "initial": {"kind": "uniform-box"}}

    @pytest.mark.parametrize("ks", [[-1], [41], [1000000], [True], [2.0], ["full"]])
    def test_rate_ks_rejected(self, ks):
        with pytest.raises(engine.ConfigError):
            engine.RunConfig.from_json_dict(dict(self.BASE, rate_ks=ks))

    def test_zero_dimension_rejected(self):
        with pytest.raises(engine.ConfigError):
            engine.RunConfig.from_json_dict(dict(self.BASE, n=0))

    def test_rate_ks_bounds_accepted(self):
        cfg = engine.RunConfig.from_json_dict(dict(self.BASE, rate_ks=[0, "half", 40]))
        res = engine.run(cfg)
        assert {r.k for r in res.records if r.check == "vector-rate-contraction"} == {0, 20, 40}


class TestRunUnconstrained:
    def test_quarter_run_report(self):
        cfg = engine.RunConfig.from_json_dict({
            "m": 8, "n": 1, "horizon": 100, "seed": 7, "mode": "unconstrained",
            "graph": {"kind": "static", "regular_tree_d": 3},
            "weights": {"scheme": "quarter"},
            "initial": {"kind": "uniform-box", "low": -1, "high": 1},
        })
        res = engine.run(cfg)
        assert res.certificates_pass
        assert res.report["rate"]["q_step"] == 1 - 1 / 1024
        assert res.report["rate"]["doubly_stochastic_baseline_step"] == 1 - 1 / 512
        assert res.report["adjoint"]["method"] == "uniform"
        assert res.report["compliance"]["level"] == "strong"

    def test_not_compliant_raises(self):
        g = regular_tree_graph(2)
        cfg = engine.RunConfig.from_json_dict({
            "m": 4, "n": 1, "horizon": 10, "seed": 0, "mode": "unconstrained",
            "graph": {"kind": "static", "graph": g.to_json_dict()},
            "weights": {"scheme": "custom",
                        "matrices": [{"m": 4, "rows": np.eye(4).tolist()}]},
            "initial": {"kind": "uniform-box"},
        })
        with pytest.raises(NotCompliant):
            engine.run(cfg)

    def test_unconstrained_invariants_hold(self):
        cfg = engine.RunConfig.from_json_dict({
            "m": 9, "n": 2, "horizon": 150, "seed": 4, "mode": "unconstrained",
            "graph": {"kind": "random-rooted", "extra_edge_prob": 0.25},
            "weights": {"scheme": "equal-neighbor"},
            "initial": {"kind": "uniform-box", "low": -3, "high": 3},
        })
        res = engine.run(cfg)
        assert res.certificates_pass
        traj = res.trajectory
        # next state is the exact weighted average of the previous one
        gseq = engine.build_graph_sequence(cfg)
        mseq = engine.build_matrix_sequence(cfg, gseq)
        for t in (0, 25, 149):
            np.testing.assert_array_equal(traj.states[t + 1],
                                          mseq.matrix_at(t) @ traj.states[t])
        # comparison value never increases
        assert (np.diff(traj.lyap) <= 1e-12).all()

    def test_seed_reproducibility(self):
        cfg_dict = {
            "m": 6, "n": 1, "horizon": 50, "seed": 11, "mode": "unconstrained",
            "graph": {"kind": "random-rooted", "extra_edge_prob": 0.3},
            "weights": {"scheme": "equal-neighbor"},
            "initial": {"kind": "uniform-box", "low": -1, "high": 1},
        }
        res1 = engine.run(engine.RunConfig.from_json_dict(cfg_dict))
        res2 = engine.run(engine.RunConfig.from_json_dict(cfg_dict))
        np.testing.assert_array_equal(res1.trajectory.states, res2.trajectory.states)
        assert res1.report == res2.report


class TestRunConstrained:
    def base_config(self, mode="constrained"):
        free = {"type": "box", "lower": [None], "upper": [None]}
        return {
            "m": 5, "n": 1, "horizon": 80, "seed": 13, "mode": mode,
            "graph": {"kind": "random-rooted", "extra_edge_prob": 0.3},
            "weights": {"scheme": "equal-neighbor"},
            "initial": {"kind": "uniform-box", "low": -2, "high": 2},
            "constraints": [free] * 5 if mode == "constrained" else [],
            "regularity": {"method": "fixed", "r": 1.0} if mode == "constrained" else None,
        }

    def test_free_sets_reduce_to_unconstrained_bitwise(self):
        res_u = engine.run(engine.RunConfig.from_json_dict(self.base_config("unconstrained")))
        res_c = engine.run(engine.RunConfig.from_json_dict(self.base_config("constrained")))
        np.testing.assert_array_equal(res_u.trajectory.states, res_c.trajectory.states)

    def test_constrained_run_certificates(self, constrained_config):
        res = engine.run(constrained_config(seed=100, horizon=300))
        assert res.certificates_pass
        assert not res.report["regularity_escalated"]
        traj = res.trajectory
        assert traj.feasibility[1:].max() <= 1e-10
        # V(t, y) never increases for the fixed test point
        assert (np.diff(traj.lyap) <= 1e-12).all()
        assert res.report["consensus"]["final_max_dist_sq"] <= 1e-12

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_explicit_non_finite_start_rejected(self, bad):
        cfg_dict = self.base_config("unconstrained")
        cfg_dict["initial"] = {"kind": "explicit", "states": [[bad]] + [[1.0]] * 4}
        with pytest.raises(engine.ConfigError):
            engine.run(engine.RunConfig.from_json_dict(cfg_dict))

    def test_explicit_infeasible_start_rejected(self):
        cfg_dict = self.base_config("constrained")
        cfg_dict["constraints"] = [{"type": "ball", "center": [0.0], "radius": 1.0}] * 5
        cfg_dict["initial"] = {"kind": "explicit", "states": [[5.0]] * 5}
        with pytest.raises(engine.ConfigError):
            engine.run(engine.RunConfig.from_json_dict(cfg_dict))

    def test_w_intermediates_recorded(self, constrained_config):
        res = engine.run(constrained_config(seed=42, horizon=60))
        traj = res.trajectory
        gseq = engine.build_graph_sequence(res.config)
        mseq = engine.build_matrix_sequence(res.config, gseq)
        np.testing.assert_array_equal(traj.w[1], mseq.matrix_at(0) @ traj.states[0])

    def test_huge_r_flags_vacuous_bound(self):
        cfg_dict = self.base_config("constrained")
        cfg_dict["regularity"] = {"method": "fixed", "r": 1e5}
        res = engine.run(engine.RunConfig.from_json_dict(cfg_dict))
        assert res.report["tracked_contraction_vacuous"]
        assert res.report["tracked_contraction_step"] >= 1.0 - 1e-12
        # a factor that close to one certifies nothing, so records pass trivially
        assert all(r.passed for r in res.records if r.check == "tracked-contraction")

    def test_absurd_r_rounds_to_one_and_raises(self):
        from consensus_lab import VacuousBound
        cfg_dict = self.base_config("constrained")
        cfg_dict["regularity"] = {"method": "fixed", "r": 1e12}
        with pytest.raises(VacuousBound):
            engine.run(engine.RunConfig.from_json_dict(cfg_dict))

    def test_sane_r_not_vacuous(self, constrained_config):
        res = engine.run(constrained_config(seed=7, horizon=50))
        assert not res.report["tracked_contraction_vacuous"]


class TestTheoremFiveUnconstrainedReduction:
    def test_v_decrease_matches_variance_drop_up_to_spread_bound(self):
        # with free sets and y = the conserved mean, the V-decrease chain is
        # exactly the unconstrained variance decrease
        cfg = engine.RunConfig.from_json_dict({
            "m": 4, "n": 1, "horizon": 60, "seed": 3, "mode": "constrained",
            "graph": {"kind": "random-rooted", "extra_edge_prob": 0.5},
            "weights": {"scheme": "equal-neighbor"},
            "initial": {"kind": "uniform-box", "low": -1, "high": 1},
            "constraints": [{"type": "box", "lower": [None], "upper": [None]}] * 4,
            "regularity": {"method": "fixed", "r": 1.0},
        })
        res = engine.run(cfg)
        traj = res.trajectory
        pi = res.adjoint.vectors
        c = pi[0] @ traj.states[0]
        for t in range(traj.horizon):
            v_t = v_function(traj.states[t], pi[t], c)
            v_next = v_function(traj.states[t + 1], pi[t + 1], c)
            assert v_next <= v_t - traj.decrement[t] + 1e-10 * max(1.0, v_t)


def pairwise_block(x):
    diff = x[:, None, :] - x[None, :, :]
    return (diff * diff).sum(axis=-1)


class TestAnnotateAgainstPairwiseOracle:
    @pytest.mark.parametrize("m,graph,scheme,horizon", [
        (32, {"kind": "static", "regular_tree_d": 5}, "quarter", 1000),
        (40, {"kind": "random-rooted", "extra_edge_prob": 0.1}, "equal-neighbor", 300),
    ])
    def test_decrement_and_spread_every_step(self, m, graph, scheme, horizon):
        cfg = engine.RunConfig.from_json_dict({
            "m": m, "n": 2, "horizon": horizon, "seed": 31, "mode": "unconstrained",
            "graph": graph, "weights": {"scheme": scheme},
            "initial": {"kind": "uniform-box", "low": -5.0, "high": 5.0},
        })
        res = engine.run(cfg)
        traj, pi = res.trajectory, res.adjoint.vectors
        mseq = engine.build_matrix_sequence(cfg, engine.build_graph_sequence(cfg))
        assert traj.spread_sq[horizon] < 1e-25  # the run reaches floating-point consensus
        for t in range(horizon + 1):
            delta_sq = pairwise_block(traj.states[t])
            assert traj.spread_sq[t] == delta_sq.max()
            if t < horizon:
                a = mseq.matrix_at(t)
                want = 0.5 * float(pi[t + 1] @ ((a @ delta_sq) * a).sum(axis=1))
                assert abs(traj.decrement[t] - want) <= 1e-12 * want, t


def csv_writer_trajectory(result, path):
    """Row-by-row ``csv.writer`` export, the byte-level reference for the streamed writer."""
    traj = result.trajectory
    m, n = traj.states.shape[1], traj.states.shape[2]
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "agent", "coord", "x", "w"])
        for t in range(traj.horizon + 1):
            for agent in range(m):
                for coord in range(n):
                    wcell = (repr(float(traj.w[t, agent, coord]))
                             if traj.w is not None and t > 0 else "")
                    wr.writerow([t, agent, coord, repr(float(traj.states[t, agent, coord])),
                                 wcell])


def csv_writer_plot_data(result, path):
    """Row-by-row ``csv.writer`` export, the byte-level reference for ``plot_data.csv``."""
    traj = result.trajectory
    h = traj.horizon
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "spread_sq", "lyap", "decrement", "V_vt", "max_dist_sq"])
        for t in range(h + 1):
            wr.writerow([t, repr(float(traj.spread_sq[t])), repr(float(traj.lyap[t])),
                         repr(float(traj.decrement[t])) if t < h else "",
                         "" if traj.v_values is None else repr(float(traj.v_values[t])),
                         "" if traj.dist_sq is None else repr(float(np.max(traj.dist_sq[t])))])


def adversarial_result(seed, m, n, horizon, constrained):
    """A run result whose every stored float comes from ``ADVERSARIAL_FLOATS``."""
    rng = np.random.default_rng(seed)
    draw = lambda *shape: adversarial_array(rng, shape)  # noqa: E731
    traj = engine.Trajectory(
        states=draw(horizon + 1, m, n), w=draw(horizon + 1, m, n) if constrained else None,
        spread_sq=draw(horizon + 1), lyap=draw(horizon + 1), decrement=draw(horizon),
        conservation=None, feasibility=None, u_points=None, v_points=None,
        v_values=draw(horizon + 1) if constrained else None,
        dist_sq=draw(horizon + 1, m) if constrained else None, y_point=None)
    return SimpleNamespace(trajectory=traj)


class TestTrajectoryCsv:
    def _assert_same_bytes(self, result, tmp_path):
        """The trajectory and ``plot_data.csv`` both equal their oracles' bytes."""
        engine.write_plot_data_csv(result, tmp_path / "plot.csv")
        csv_writer_plot_data(result, tmp_path / "plot_oracle.csv")
        assert (tmp_path / "plot.csv").read_bytes() == (tmp_path / "plot_oracle.csv").read_bytes()
        engine.write_trajectory_csv(result, tmp_path / "streamed.csv")
        csv_writer_trajectory(result, tmp_path / "oracle.csv")
        got = (tmp_path / "streamed.csv").read_bytes()
        assert got == (tmp_path / "oracle.csv").read_bytes()
        return got

    def test_unconstrained_bytes(self, tmp_path, unconstrained_config):
        res = engine.run(unconstrained_config(seed=5, scheme="equal-neighbor", m=7,
                                              horizon=60, n=3))
        got = self._assert_same_bytes(res, tmp_path)
        assert got.count(b"\r\n") == 1 + 61 * 7 * 3

    def test_constrained_bytes(self, tmp_path, constrained_config):
        res = engine.run(constrained_config(seed=42, horizon=60))
        assert res.trajectory.w is not None and res.trajectory.dist_sq is not None
        self._assert_same_bytes(res, tmp_path)

    @pytest.mark.parametrize("constrained", [False, True])
    @pytest.mark.parametrize("m, n", [(1, 1), (3, 2), (12, 1)])
    def test_adversarial_values_bytes(self, tmp_path, constrained, m, n):
        res = adversarial_result(m * 10 + n, m, n, 7, constrained)
        got = self._assert_same_bytes(res, tmp_path)
        assert got.count(b"\r\n") == 1 + 8 * m * n

    @pytest.mark.parametrize("constrained", [False, True])
    def test_write_memory_is_bounded(self, tmp_path, constrained):
        """The writer holds a few steps' text at a time, not the file."""
        rng = np.random.default_rng(8)
        states = rng.normal(size=(301, 256, 2))
        w = states + rng.normal(size=states.shape) if constrained else None
        res = SimpleNamespace(trajectory=SimpleNamespace(states=states, w=w, horizon=300))
        path = tmp_path / "t.csv"
        tracemalloc.start()
        try:
            engine.write_trajectory_csv(res, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 4 << 20
        assert peak < 256 << 10

    @staticmethod
    def _assert_bits_equal(got, want):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_unconstrained_round_trip_bits(self, tmp_path, unconstrained_config):
        res = engine.run(unconstrained_config(seed=5, scheme="equal-neighbor", m=7,
                                              horizon=60, n=3))
        engine.write_trajectory_csv(res, tmp_path / "t.csv")
        states, w = engine.read_trajectory_states(tmp_path / "t.csv", 7, 3, 60)
        self._assert_bits_equal(states, res.trajectory.states)
        assert w is None

    def test_constrained_round_trip_bits(self, tmp_path, constrained_config):
        config = constrained_config(seed=42, horizon=60)
        res = engine.run(config)
        engine.write_trajectory_csv(res, tmp_path / "t.csv")
        states, w = engine.read_trajectory_states(tmp_path / "t.csv", config.m, config.n, 60)
        self._assert_bits_equal(states, res.trajectory.states)
        assert np.isnan(w[0]).all()     # the writer leaves w blank at t = 0
        self._assert_bits_equal(w[1:], res.trajectory.w[1:])

    @pytest.mark.parametrize("with_w", [False, True])
    def test_parse_memory_is_bounded(self, tmp_path, unconstrained_config, with_w):
        """The file is read in chunks: the peak is the output plus at most 1 MiB."""
        res = engine.run(unconstrained_config(seed=3, scheme="equal-neighbor", m=64,
                                              horizon=1100, n=2))
        path = tmp_path / "t.csv"
        engine.write_trajectory_csv(res, path)
        if with_w:  # fill w with x from t = 1 on, as a constrained run would
            lines = path.read_text().splitlines()
            for j in range(1 + 64 * 2, len(lines)):
                cells = lines[j].split(",")
                cells[4] = cells[3]
                lines[j] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")
        assert path.stat().st_size > 4 << 20
        tracemalloc.start()
        try:
            states, w = engine.read_trajectory_states(path, 64, 2, 1100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (w is not None) == with_w
        assert peak < states.nbytes + (0 if w is None else w.nbytes) + (1 << 20)
