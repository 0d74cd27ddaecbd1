import csv
import math
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from consensus_lab import (Ball, Box, MatrixSequence, NotCompliant, regular_tree_graph,
                           set_from_json_dict, v_function)
from consensus_lab import engine
from consensus_lab.lyapunov import weighted_means
from oracles import (ADVERSARIAL_FLOATS, adversarial_array, constrained_fields_per_point,
                     mean_square_identity_residual)


def one_step(x, a, specs=None):
    """``(w(1), x(1))`` of ``engine.simulate`` over one step from the explicit states ``x``.

    ``w(1) = a x`` is the average that a constrained step projects.  ``specs``
    are the agents' set specs; without them the step is unconstrained and
    ``w`` is ``None``.
    """
    x = np.asarray(x, dtype=float)
    config = engine.RunConfig(
        m=x.shape[0], n=x.shape[1], horizon=1, seed=0,
        mode="unconstrained" if specs is None else "constrained",
        graph={"kind": "static", "graph": {"m": x.shape[0], "edges": []}}, weights={},
        initial={"kind": "explicit", "states": x.tolist()}, constraints=specs or ())
    sets = None if specs is None else tuple(map(set_from_json_dict, specs))
    states = engine.simulate(config, MatrixSequence.custom([a]), sets)
    return None if sets is None else np.asarray(a) @ x, states[1]


class TestSteps:
    def test_identity_keeps_states(self):
        x = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(one_step(x, np.eye(3))[1], x)

    def test_complete_averaging_one_step(self):
        x = np.array([[0.0], [4.0], [8.0]])
        _, out = one_step(x, np.full((3, 3), 1 / 3))
        np.testing.assert_allclose(out, np.full((3, 1), 4.0))

    def test_hand_case(self):
        a = np.array([[0.5, 0.5], [0.25, 0.75]])
        _, out = one_step(np.array([[0.0], [4.0]]), a)
        np.testing.assert_array_equal(out, [[2.0], [3.0]])

    def test_dimension_guard(self):
        # RunConfig fixes m, so a matrix of another size is refused before any step.
        config = engine.RunConfig.from_json_dict({
            "m": 3, "n": 1, "horizon": 5, "seed": 0, "mode": "unconstrained",
            "graph": {"kind": "static", "graph": {"m": 3, "edges": [[1, 2], [2, 3], [3, 1]]}},
            "weights": {"scheme": "custom", "matrices": [{"rows": np.eye(2).tolist()}]},
            "initial": {"kind": "uniform-box"}})
        with pytest.raises(ValueError, match="custom matrices are 2x2, but the graph has m=3"):
            engine.run(config)

    def test_constrained_free_sets_reduce_to_unconstrained(self):
        free = {"type": "box", "lower": [None], "upper": [None]}
        x = np.array([[1.0], [-2.0]])
        a = np.array([[0.5, 0.5], [0.25, 0.75]])
        w, x_next = one_step(x, a, [free, free])
        np.testing.assert_array_equal(w, one_step(x, a)[1])
        np.testing.assert_array_equal(x_next, w)

    def test_constrained_hand_case(self):
        specs = [{"type": "halfspace", "a": [-1.0], "b": 0.0},  # x >= 0
                 {"type": "halfspace", "a": [1.0], "b": 0.0}]   # x <= 0
        a = np.full((2, 2), 0.5)
        w, x_next = one_step(np.array([[2.0], [-2.0]]), a, specs)
        np.testing.assert_array_equal(w, np.zeros((2, 1)))
        np.testing.assert_array_equal(x_next, np.zeros((2, 1)))

    def test_common_feasible_point_is_fixed(self):
        specs = [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
                 {"type": "box", "lower": [-1.0, -1.0], "upper": [1.0, 1.0]}]
        x = np.tile(np.array([0.3, -0.2]), (2, 1))
        _, x_next = one_step(x, np.full((2, 2), 0.5), specs)
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
    """``annotate`` tracks ``u``, each step's weighted mean, and ``v``, its projection onto X."""

    def test_common_point(self):
        x = np.tile(np.array([0.2, 0.1]), (3, 1))
        box = Box(-np.ones(2), np.ones(2))
        u = weighted_means(np.full(3, 1 / 3), x)
        v = box.project(u)
        np.testing.assert_allclose(u, [0.2, 0.1], atol=1e-15)
        np.testing.assert_allclose(v, u, atol=1e-15)

    def test_hand_case(self):
        states = np.array([[-2.0], [4.0]])
        box = Box(np.array([0.0]), np.array([1.0]))
        u = weighted_means(np.array([0.5, 0.5]), states)
        v = box.project(u)
        assert u == pytest.approx(1.0)
        assert v == pytest.approx(1.0)

    def test_interior_mean_fixed(self):
        states = np.array([[0.1, 0.0], [0.3, 0.0]])
        ball = Ball(np.zeros(2), 5.0)
        u = weighted_means(np.array([0.5, 0.5]), states)
        v = ball.project(u)
        np.testing.assert_array_equal(u, v)


class TestBatchedConstrainedSeries:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_annotate_matches_point_by_point(self, constrained_config, seed):
        config = constrained_config(seed, horizon=80)
        mseq, _, adjoint, sets, intersection = engine._prepare(config)
        states = engine.simulate(config, mseq, sets)
        traj = engine.annotate(config, mseq, adjoint, states, sets, intersection)
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
        """rate_ks is no config key, whatever its value."""
        with pytest.raises(engine.ConfigError, match=r"unknown config keys \['rate_ks'\]"):
            engine.RunConfig.from_json_dict(dict(self.BASE, rate_ks=ks))

    def test_zero_dimension_rejected(self):
        with pytest.raises(engine.ConfigError):
            engine.RunConfig.from_json_dict(dict(self.BASE, n=0))

    def test_rate_ks_bounds_refused(self):
        """In-range bounds are refused as well; every run checks the envelope from
        k = 0 and horizon // 2."""
        with pytest.raises(engine.ConfigError, match=r"unknown config keys \['rate_ks'\]"):
            engine.RunConfig.from_json_dict(dict(self.BASE, rate_ks=[0, "half", 40]))
        res = engine.run(engine.RunConfig.from_json_dict(self.BASE))
        assert {r.k for r in res.records if r.check == "vector-rate-contraction"} == {0, 20}


class TestRunUnconstrained:
    def test_quarter_run_report(self):
        cfg = engine.RunConfig.from_json_dict({
            "m": 8, "n": 1, "horizon": 100, "seed": 7, "mode": "unconstrained",
            "graph": {"kind": "static", "regular_tree_d": 3},
            "weights": {"scheme": "quarter"},
            "initial": {"kind": "uniform-box", "low": -1, "high": 1},
        })
        res = engine.run(cfg)
        assert res.certificates.passed
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
        assert res.certificates.passed
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
        assert res.certificates.passed
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
        """Each ``w(t+1)`` has the bits of ``A(t) x(t)``, the product the step projected."""
        res = engine.run(constrained_config(seed=42, horizon=60))
        traj = res.trajectory
        gseq = engine.build_graph_sequence(res.config)
        mseq = engine.build_matrix_sequence(res.config, gseq)
        assert traj.w.shape == traj.states.shape and not traj.w[0].any()
        for t in range(traj.horizon):
            want = mseq.matrix_at(t) @ traj.states[t]
            assert traj.w[t + 1].tobytes() == want.tobytes(), t

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
    """Row-by-row ``csv.writer`` export, the byte-level reference for the block writer.

    One row per step, ``t`` and then each state's big-endian binary64 pattern
    in hex, agent-major under the header ``t,x_0_0,x_0_1,...``.
    """
    states = result.trajectory.states
    m, n = states.shape[1], states.shape[2]
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t"] + [f"x_{agent}_{coord}" for agent in range(m) for coord in range(n)])
        for t in range(len(states)):
            wr.writerow([t] + [struct.pack(">d", states[t, agent, coord]).hex()
                               for agent in range(m) for coord in range(n)])


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
        conservation=None, feasibility=None,
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
        assert got.count(b"\r\n") == 1 + 61 and got.count(b",") == (1 + 61) * 7 * 3

    def test_constrained_bytes(self, tmp_path, constrained_config):
        res = engine.run(constrained_config(seed=42, horizon=60))
        assert res.trajectory.w is not None and res.trajectory.dist_sq is not None
        self._assert_same_bytes(res, tmp_path)

    @pytest.mark.parametrize("constrained", [False, True])
    @pytest.mark.parametrize("m, n", [(1, 1), (3, 2), (12, 1)])
    def test_adversarial_values_bytes(self, tmp_path, constrained, m, n):
        res = adversarial_result(m * 10 + n, m, n, 7, constrained)
        got = self._assert_same_bytes(res, tmp_path)
        assert got.count(b"\r\n") == 1 + 8 and got.count(b",") == (1 + 8) * m * n

    @pytest.mark.parametrize("constrained", [False, True])
    @pytest.mark.parametrize("last", [0.0, -0.0, np.nan, None])
    def test_repeated_values_format_once(self, tmp_path, constrained, last):
        """``plot_data.csv`` of a run whose last step is at consensus.

        Every other value is adversarial, signed zeros included, and the
        bytes must equal the oracle's; a last step of distinct values too.
        """
        res = adversarial_result(17, 5, 2, 30, constrained)
        states = res.trajectory.states
        if last is None:
            states[-1] = np.arange(10.0).reshape(5, 2)
        else:
            states[-1] = last
        engine.write_plot_data_csv(res, tmp_path / "plot.csv")
        csv_writer_plot_data(res, tmp_path / "plot_oracle.csv")
        assert (tmp_path / "plot.csv").read_bytes() == (tmp_path / "plot_oracle.csv").read_bytes()

    @pytest.mark.parametrize("m", [10, 100])
    @pytest.mark.parametrize("horizon", [9, 10, 99, 100])
    def test_adversarial_round_trip_bits(self, tmp_path, m, horizon):
        """Every non-NaN adversarial float, the extreme normals among them,
        survives the file bit for bit; the shapes put the last ``t`` and
        ``agent`` on each side of a change in their digit count."""
        finite = [v for v in ADVERSARIAL_FLOATS if not math.isnan(v)]
        values = np.array(finite + [np.finfo(float).max, np.finfo(float).tiny])
        values = np.concatenate([values, -values])
        states = np.random.default_rng(m + horizon).choice(values, size=(horizon + 1, m, 2))
        res = SimpleNamespace(trajectory=SimpleNamespace(states=states))
        engine.write_trajectory_csv(res, tmp_path / "t.csv")
        csv_writer_trajectory(res, tmp_path / "oracle.csv")
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        self._assert_bits_equal(engine.read_trajectory_states(tmp_path / "t.csv", m, 2, horizon),
                                states)

    @pytest.mark.parametrize("digit, byte", [
        (2, b"E"), (1, b"F"), (13, b"A"), (13, b" "), (13, b"\x10"), (13, b"g"), (13, b"G"),
        (13, b"/"), (13, b":"), (13, b"`"), (13, b"\xb0"),
    ])
    def test_one_byte_that_is_no_lowercase_hex_digit_is_refused(self, tmp_path, digit, byte):
        """One byte of one bits cell ``3fe6000000000000`` is replaced.  ``E``
        and ``F`` (for ``e`` and ``f``), a space and ``0x10`` (for ``0``)
        decode to the digit they replace, so only the re-encoded block's bytes
        tell them apart; the rest are an uppercase letter, the neighbours of
        the digit ranges and a byte above ``0x7f``."""
        res = SimpleNamespace(trajectory=SimpleNamespace(states=np.full((3, 2, 2), 0.6875)))
        path = tmp_path / "t.csv"
        engine.write_trajectory_csv(res, path)
        data = path.read_bytes()
        at = data.index(b"\r\n1,") + len(b"\r\n1,") + 17 * 2 + digit   # step 1, agent 1, coord 0
        assert data[at - digit:at - digit + 16] == b"3fe6000000000000"
        path.write_bytes(data[:at] + byte + data[at + 1:])
        with pytest.raises(engine.ConfigError, match="steps 0..2"):
            engine.read_trajectory_states(path, 2, 2, 2)

    def test_twelve_coordinates_round_trip(self, tmp_path):
        """From ``n = 11`` the header's labels ``x_a_c`` change width inside every
        agent's cells; the bytes and bits still round-trip."""
        states = np.random.default_rng(12).normal(size=(12, 12, 12))
        states[3, 4, 11] = -0.0
        res = SimpleNamespace(trajectory=SimpleNamespace(states=states))
        engine.write_trajectory_csv(res, tmp_path / "t.csv")
        csv_writer_trajectory(res, tmp_path / "oracle.csv")
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        self._assert_bits_equal(engine.read_trajectory_states(tmp_path / "t.csv", 12, 12, 11),
                                states)

    @pytest.mark.parametrize("constrained", [False, True])
    def test_write_memory_is_bounded(self, tmp_path, constrained):
        """The writer holds a few steps' text at a time, not the file."""
        rng = np.random.default_rng(8)
        states = rng.normal(size=(501, 256, 2))
        w = states + rng.normal(size=states.shape) if constrained else None
        res = SimpleNamespace(trajectory=SimpleNamespace(states=states, w=w, horizon=500))
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
        states = engine.read_trajectory_states(tmp_path / "t.csv", 7, 3, 60)
        self._assert_bits_equal(states, res.trajectory.states)

    def test_constrained_round_trip_bits(self, tmp_path, constrained_config):
        config = constrained_config(seed=42, horizon=60)
        res = engine.run(config)
        engine.write_trajectory_csv(res, tmp_path / "t.csv")
        states = engine.read_trajectory_states(tmp_path / "t.csv", config.m, config.n, 60)
        self._assert_bits_equal(states, res.trajectory.states)
        replayed = engine.replay_certificates(config, states).trajectory
        self._assert_bits_equal(replayed.w, res.trajectory.w)

    @pytest.mark.parametrize("lf_ends", [False, True])
    def test_parse_memory_is_bounded(self, tmp_path, unconstrained_config, lf_ends):
        """The file is read in chunks: the peak is the output plus at most 1 MiB.

        With ``lf_ends`` every line, the header's too, ends in ``\\n`` alone, as
        a text editor may save them, so a chunk holds more of the shorter lines.
        """
        res = engine.run(unconstrained_config(seed=3, scheme="equal-neighbor", m=64,
                                              horizon=2000, n=2))
        path = tmp_path / "t.csv"
        engine.write_trajectory_csv(res, path)
        assert path.stat().st_size > 4 << 20
        if lf_ends:
            path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
        tracemalloc.start()
        try:
            states = engine.read_trajectory_states(path, 64, 2, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self._assert_bits_equal(states, res.trajectory.states)
        assert peak < states.nbytes + (1 << 20)
