import csv
import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from consensus_lab import (GraphSequence, MatrixSequence, NotDoublyStochastic,
                           NotErgodicWithinWindow, assemble_adjoint,
                           backward_product_adjoint, permutation_counterexample,
                           random_rooted_graph, regular_tree_graph, stationary_adjoint,
                           uniform_adjoint,
                           window_averaged_product)
from consensus_lab.adjoint import (AbsoluteProbabilitySequence, adjoint_residuals,
                                   write_adjoint_csv, write_adjoint_sidecar)
from oracles import adversarial_array, read_adjoint


def quarter_sequence(d=3):
    return MatrixSequence.from_scheme(GraphSequence.static(regular_tree_graph(d)), "quarter")


def left_eigenvector_oracle(a, iters=20000):
    """Power iteration on the transpose, normalized to a stochastic vector."""
    v = np.full(a.shape[0], 1.0 / a.shape[0])
    for _ in range(iters):
        v = a.T @ v
        v /= v.sum()
    return v


class TestUniformAdjoint:
    def test_quarter_sequence_uniform(self):
        aps = uniform_adjoint(quarter_sequence(3), 10)
        assert aps.delta == 0.125
        np.testing.assert_array_equal(aps.vectors, np.full((11, 8), 0.125))
        assert aps.residuals.max() <= 1e-12

    def test_m4_values(self):
        aps = uniform_adjoint(quarter_sequence(2), 4)
        np.testing.assert_array_equal(aps.vectors[0], np.full(4, 0.25))

    def test_guard_on_row_stochastic_only(self):
        seq = MatrixSequence.custom([np.array([[1.0, 0.0], [0.5, 0.5]])])
        with pytest.raises(NotDoublyStochastic):
            uniform_adjoint(seq, 3)


class TestBackwardProduct:
    def test_constant_reducible_chain(self):
        seq = MatrixSequence.custom([np.array([[1.0, 0.0], [0.5, 0.5]])])
        phi = backward_product_adjoint(seq, 0)
        np.testing.assert_allclose(phi, [1.0, 0.0], atol=1e-10)

    def test_identity_not_ergodic(self):
        seq = MatrixSequence.custom([np.eye(3)])
        with pytest.raises(NotErgodicWithinWindow, match="after window 16384"):
            backward_product_adjoint(seq, 0)

    def test_constant_doubly_stochastic_uniform(self):
        a = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
        phi = backward_product_adjoint(MatrixSequence.custom([a]), 0)
        np.testing.assert_allclose(phi, np.full(3, 1 / 3), atol=1e-12)

    def test_matches_power_iteration_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.random((4, 4)) + 0.2
        a /= a.sum(axis=1, keepdims=True)
        phi = backward_product_adjoint(MatrixSequence.custom([a]), 0)
        np.testing.assert_allclose(phi, left_eigenvector_oracle(a), atol=1e-9)

    def test_window_doubling_uniqueness(self):
        seq = MatrixSequence.from_scheme(GraphSequence.random_rooted(6, 0.5, seed=3),
                                         "equal-neighbor")
        spread_tol = 1e-10
        phi = backward_product_adjoint(seq, 0)
        for window in (64, 128, 256, 512):
            vec, spread = window_averaged_product(seq, 0, window)
            if spread <= spread_tol:
                vec2, _ = window_averaged_product(seq, 0, 2 * window)
                assert np.abs(vec - vec2).max() <= 2 * spread_tol
                assert np.abs(phi - vec).max() <= 2 * spread_tol
                break
        else:
            pytest.fail("no window converged")


class TestAssembleAdjoint:
    def test_doubly_stochastic_agrees_with_uniform(self):
        seq = quarter_sequence(3)
        aps = assemble_adjoint(seq, 12)
        uni = uniform_adjoint(seq, 12)
        assert np.abs(aps.vectors - uni.vectors).max() <= 1e-10

    def test_constant_chain_matches_stationary(self):
        rng = np.random.default_rng(4)
        a = rng.random((3, 3)) + 0.3
        a /= a.sum(axis=1, keepdims=True)
        seq = MatrixSequence.custom([a])
        aps = assemble_adjoint(seq, 8)
        oracle = left_eigenvector_oracle(a)
        assert np.abs(aps.vectors - oracle).max() <= 1e-9
        stat = stationary_adjoint(seq, 8)
        assert np.abs(stat.vectors - oracle).max() <= 1e-9

    def test_residuals_and_delta_on_random_sequences(self):
        for seed in range(5):
            seq = MatrixSequence.from_scheme(
                GraphSequence.random_rooted(5 + seed, 0.4, seed=seed), "equal-neighbor")
            aps = assemble_adjoint(seq, 30)
            assert aps.residuals.max() <= 1e-8
            assert 0 < aps.delta <= 1.0 / aps.m

    def test_anchored_agrees_with_per_step(self):
        seq = MatrixSequence.from_scheme(GraphSequence.random_rooted(5, 0.4, seed=9),
                                         "equal-neighbor")
        fast = assemble_adjoint(seq, 10)
        slow = np.stack([backward_product_adjoint(seq, t) for t in range(11)])
        assert np.abs(fast.vectors - slow).max() <= 2e-10

    @pytest.mark.parametrize("kind", ["random-rooted", "periodic", "static"])
    def test_fused_residuals_bit_equal_to_second_pass(self, kind):
        """The stored zeros are what recomputing each ``A(t)' pi(t+1)`` gives."""
        if kind == "random-rooted":
            gseq = GraphSequence.random_rooted(96, 0.1, seed=11)
        elif kind == "periodic":
            rng = np.random.default_rng(11)
            gseq = GraphSequence.periodic([random_rooted_graph(12, 0.2, rng) for _ in range(3)])
        else:
            gseq = GraphSequence.static(random_rooted_graph(12, 0.2, seed=11))
        seq = MatrixSequence.from_scheme(gseq, "equal-neighbor")
        aps = assemble_adjoint(seq, 40)
        assert aps.residuals.tobytes() == adjoint_residuals(aps.vectors, seq).tobytes()
        assert aps.residuals.tobytes() == np.zeros(40).tobytes()

    def test_delta_at_most_uniform(self):
        seq = quarter_sequence(2)
        assert assemble_adjoint(seq, 5).delta <= 0.25 + 1e-15


class TestConstantAdjointResiduals:
    """Uniform and stationary sequences form one residual per distinct step and
    repeat it; each repeat must carry the bits a pass over every step gives."""

    @pytest.mark.parametrize("kind,horizon,period", [
        ("period-3", 10, 3), ("random-rooted", 25, 25), ("stationary", 8, 1)])
    def test_bit_equal_to_every_step(self, kind, horizon, period):
        rng = np.random.default_rng(5)
        if kind == "period-3":  # convex combinations of permutations: doubly stochastic
            eye = np.eye(6)
            seq = MatrixSequence.custom([sum(c * eye[rng.permutation(6)] for c in w)
                                         for w in rng.dirichlet(np.ones(4), size=3)])
        elif kind == "random-rooted":  # complete draws, symmetric laplacian weights
            seq = MatrixSequence.from_scheme(GraphSequence.random_rooted(9, 1.0, seed=3),
                                             "laplacian", gamma=20.0)
        else:
            a = rng.random((4, 4)) + 0.3
            seq = MatrixSequence.custom([a / a.sum(axis=1, keepdims=True)])
        assert len(seq.distinct_steps(horizon)) == period
        build = stationary_adjoint if kind == "stationary" else uniform_adjoint
        aps = build(seq, horizon)
        assert aps.residuals.tobytes() == adjoint_residuals(aps.vectors, seq).tobytes()
        assert aps.residuals.any()  # rounding residuals, so the bits say something


class TestConservation:
    def test_weighted_mean_constant_along_runs(self):
        rng = np.random.default_rng(21)
        for seed in range(5):
            seq = MatrixSequence.from_scheme(
                GraphSequence.random_rooted(6, 0.3, seed=seed), "equal-neighbor")
            aps = assemble_adjoint(seq, 40)
            x = rng.uniform(-3, 3, size=6)
            c0 = aps.vectors[0] @ x
            for t in range(40):
                x = seq.matrix_at(t) @ x
                assert abs(aps.vectors[t + 1] @ x - c0) <= 1e-10 * (1 + np.linalg.norm(x))


class TestPermutationCounterexample:
    def test_two_valid_distinct_sequences(self):
        seq, first, second = permutation_counterexample(4, seed=8)
        assert first.residuals.max() == 0.0
        assert second.residuals.max() == 0.0
        assert np.abs(first.vectors[0] - second.vectors[0]).max() > 1e-6
        assert np.abs(first.vectors - second.vectors).max() > 1e-6

    def test_swap_matrices_m2(self):
        seq, first, second = permutation_counterexample(2, seed=0)
        # every pi(t) is a permutation of pi(0); residuals exactly zero
        for aps in (first, second):
            assert aps.residuals.max() == 0.0
            for t in range(aps.horizon + 1):
                assert sorted(aps.vectors[t]) == pytest.approx(sorted(aps.vectors[0]), abs=0)

    def test_identity_sequence_keeps_seed_vector(self):
        seq = MatrixSequence.custom([np.eye(3)])
        u = np.array([0.2, 0.3, 0.5])
        vectors = np.tile(u, (6, 1))
        from consensus_lab.adjoint import AbsoluteProbabilitySequence, adjoint_residuals
        aps = AbsoluteProbabilitySequence(vectors=vectors,
                                          residuals=adjoint_residuals(vectors, seq),
                                          method="user-supplied")
        assert aps.residuals.max() == 0.0


def test_residual_count_must_be_the_horizon():
    """Three vectors span two steps, so one residual is refused, as are three."""
    for residuals in ([0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]]):
        with pytest.raises(ValueError, match="3 vectors need 2 residuals"):
            AbsoluteProbabilitySequence(vectors=[[0.5, 0.5]] * 3, residuals=residuals,
                                        method="user-supplied")
    aps = AbsoluteProbabilitySequence(vectors=[[0.5, 0.5]] * 3, residuals=[0.0, 0.0],
                                      method="user-supplied")
    assert aps.horizon == 2 and aps.residuals.shape == (2,)


class TestRejectsNonFinite:
    """NaN compares false with everything, so only an explicit check rejects it."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_vectors(self, bad):
        with pytest.raises(ValueError, match="finite"):
            AbsoluteProbabilitySequence(vectors=[[bad, bad], [0.5, 0.5]], residuals=[0.0],
                                        method="user-supplied")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_residuals(self, bad):
        from consensus_lab import AdjointResidualTooLarge
        with pytest.raises(AdjointResidualTooLarge, match="finite"):
            AbsoluteProbabilitySequence(vectors=[[0.5, 0.5], [0.5, 0.5]], residuals=[bad],
                                        method="user-supplied")


def csv_writer_adjoint(aps, path):
    """Row-by-row ``csv.writer`` export, the byte-level reference for the block writer:
    step 0, then each step whose vector's bytes differ from the previous step's, each
    entry the 16 hex digits of its big-endian binary64 bits."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "i", "pi_bits"])
        for t in range(aps.horizon + 1):
            if t == 0 or aps.vectors[t].tobytes() != aps.vectors[t - 1].tobytes():
                for i in range(aps.m):
                    wr.writerow([t, i, struct.pack(">d", aps.vectors[t, i]).hex()])


def write_and_compare(aps, tmp_path) -> bytes:
    write_adjoint_csv(aps, tmp_path / "block.csv")
    csv_writer_adjoint(aps, tmp_path / "oracle.csv")
    got = (tmp_path / "block.csv").read_bytes()
    assert got == (tmp_path / "oracle.csv").read_bytes()
    return got


class TestAdjointCsv:
    @pytest.mark.parametrize("method", ["uniform", "assembled"])
    def test_bytes_equal_csv_writer(self, tmp_path, method):
        if method == "uniform":
            aps = uniform_adjoint(quarter_sequence(3), 40)
            steps = 1
        else:
            rng = np.random.default_rng(4)
            mats = [a / a.sum(axis=1, keepdims=True) for a in rng.random((5, 6, 6))]
            aps = assemble_adjoint(MatrixSequence.custom(mats), 40)
            steps = 41
        got = write_and_compare(aps, tmp_path)
        assert got.count(b"\r\n") == 1 + steps * aps.m

    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_adversarial_values_bytes(self, tmp_path, m):
        # The writer formats whatever it holds, so a stand-in with the same
        # fields carries values no validated sequence could; steps 2 and 3
        # repeat step 1, and step 5 step 4, so those three are not written.
        rng = np.random.default_rng(m)
        vectors = adversarial_array(rng, (9, m))
        vectors[2] = vectors[3] = vectors[1]
        vectors[5] = vectors[4]
        aps = SimpleNamespace(vectors=vectors, residuals=adversarial_array(rng, 8), m=m,
                              horizon=8)
        got = write_and_compare(aps, tmp_path)
        written = [t for t in range(9)
                   if t == 0 or vectors[t].tobytes() != vectors[t - 1].tobytes()]
        assert not {2, 3, 5} & set(written)
        assert got.count(b"\r\n") == 1 + len(written) * m
        assert [int(line.split(b",")[0]) for line in got.split(b"\r\n")[1:-1:m]] == written
        # Subnormals, infinities, NaNs and signed zeros all decode back bit for bit.
        (tmp_path / "adjoint.json").write_text(json.dumps({"residual_l1": [0.0] * 8}))
        decoded, _ = read_adjoint(tmp_path / "block.csv", tmp_path / "adjoint.json")
        assert decoded.tobytes() == vectors.tobytes()

    def test_repeating_vectors_keep_signed_zeros(self, tmp_path):
        # Repeats, changes, repeats; the last two steps differ from the first
        # only in the sign of a zero, which array_equal would not see.
        u, v, signed = [0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.5, 0.5, -0.0]
        vectors = np.array([u, u, v, v, v, u, signed, signed])
        aps = AbsoluteProbabilitySequence(vectors=vectors, residuals=np.zeros(7),
                                          method="user-supplied")
        got = write_and_compare(aps, tmp_path)
        half, quarter = b"3fe0000000000000", b"3fd0000000000000"
        assert got.split(b"\r\n")[1::3] == [b"0,0," + half, b"2,0," + quarter, b"5,0," + half,
                                             b"6,0," + half, b""]
        assert got.count(b",8000000000000000\r\n") == 1
        assert got.count(b",0000000000000000\r\n") == 2

    def test_uniform_at_scale_writes_one_step(self, tmp_path):
        aps = uniform_adjoint(quarter_sequence(8), 300)
        assert aps.m == 256
        got = write_and_compare(aps, tmp_path)
        assert got.count(b"\r\n") == 1 + 256


class TestAdjointFilesRoundTrip:
    """``adjoint.csv`` and ``adjoint.json`` give back every ``pi(t)`` and every
    residual bit for bit, each vector carried forward to the next written step."""

    @pytest.mark.parametrize("kind", ["uniform", "stationary", "backward-product",
                                      "period-six"])
    def test_reader_returns_the_sequence(self, tmp_path, kind, period_six_sequence):
        if kind == "uniform":
            aps = uniform_adjoint(quarter_sequence(4), 60)
        elif kind == "stationary":
            a = np.random.default_rng(5).random((4, 4)) + 0.3
            aps = stationary_adjoint(MatrixSequence.custom([a / a.sum(axis=1, keepdims=True)]),
                                     30)
        elif kind == "backward-product":
            aps = assemble_adjoint(MatrixSequence.from_scheme(
                GraphSequence.random_rooted(9, 0.3, seed=2), "equal-neighbor"), 50)
        else:
            aps = assemble_adjoint(period_six_sequence(), 25)
        write_adjoint_csv(aps, tmp_path / "adjoint.csv")
        write_adjoint_sidecar(aps, tmp_path / "adjoint.json")
        vectors, residuals = read_adjoint(tmp_path / "adjoint.csv", tmp_path / "adjoint.json")
        assert vectors.tobytes() == aps.vectors.tobytes()
        assert residuals.tobytes() == aps.residuals.tobytes()
        with open(tmp_path / "adjoint.json") as fh:
            sidecar = json.load(fh)
        assert sidecar["delta"] == aps.delta and sidecar["method"] == aps.method

    def test_reader_refuses_decimal_layout(self, tmp_path):
        """The earlier ``t,i,pi`` layout, one decimal ``repr`` per entry, is not read."""
        aps = uniform_adjoint(quarter_sequence(3), 12)
        write_adjoint_sidecar(aps, tmp_path / "adjoint.json")
        (tmp_path / "adjoint.csv").write_text(
            "t,i,pi\r\n" + "".join(f"0,{i},0.125\r\n" for i in range(8)), newline="")
        with pytest.raises(ValueError, match="header"):
            read_adjoint(tmp_path / "adjoint.csv", tmp_path / "adjoint.json")

    def test_sidecar_bytes_are_json_dump(self, tmp_path):
        aps = uniform_adjoint(quarter_sequence(3), 12)
        write_adjoint_sidecar(aps, tmp_path / "adjoint.json")
        want = json.dumps({"delta": aps.delta, "method": "uniform",
                           "residual_l1": [float(r) for r in aps.residuals]},
                          indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "adjoint.json").read_text() == want
