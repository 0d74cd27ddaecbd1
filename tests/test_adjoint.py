import csv
from types import SimpleNamespace

import numpy as np
import pytest

from consensus_lab import (GraphSequence, MatrixSequence, NotDoublyStochastic,
                           NotErgodicWithinWindow, assemble_adjoint,
                           backward_product_adjoint, permutation_counterexample,
                           regular_tree_graph, stationary_adjoint, uniform_adjoint,
                           window_averaged_product)
from consensus_lab.adjoint import AbsoluteProbabilitySequence, write_adjoint_csv
from oracles import adversarial_array


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
        with pytest.raises(NotErgodicWithinWindow):
            backward_product_adjoint(seq, 0, max_window=256)

    def test_window_below_first_doubling_rejected(self):
        seq = MatrixSequence.custom([np.full((3, 3), 1 / 3)])
        for max_window in (0, 4, 7):
            with pytest.raises(ValueError, match="max_window"):
                backward_product_adjoint(seq, 0, max_window=max_window)
        np.testing.assert_allclose(backward_product_adjoint(seq, 0, max_window=8),
                                   np.full(3, 1 / 3), atol=1e-15)

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
        phi = backward_product_adjoint(seq, 0, spread_tol=spread_tol)
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

    def test_delta_at_most_uniform(self):
        seq = quarter_sequence(2)
        assert assemble_adjoint(seq, 5).delta <= 0.25 + 1e-15


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


def csv_writer_adjoint(aps, path):
    """Row-by-row ``csv.writer`` export, the byte-level reference for the block writer."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "i", "pi", "residual_l1"])
        for t in range(aps.horizon + 1):
            resid = repr(float(aps.residuals[t])) if t < aps.horizon else ""
            for i in range(aps.m):
                wr.writerow([t, i, repr(float(aps.vectors[t, i])), resid])


class TestAdjointCsv:
    @pytest.mark.parametrize("method", ["uniform", "assembled"])
    def test_bytes_equal_csv_writer(self, tmp_path, method):
        if method == "uniform":
            aps = uniform_adjoint(quarter_sequence(3), 40)
        else:
            rng = np.random.default_rng(4)
            mats = [a / a.sum(axis=1, keepdims=True) for a in rng.random((5, 6, 6))]
            aps = assemble_adjoint(MatrixSequence.custom(mats), 40)
        write_adjoint_csv(aps, tmp_path / "block.csv")
        csv_writer_adjoint(aps, tmp_path / "oracle.csv")
        got = (tmp_path / "block.csv").read_bytes()
        assert got == (tmp_path / "oracle.csv").read_bytes()
        assert got.count(b"\r\n") == 1 + 41 * aps.m

    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_adversarial_values_bytes(self, tmp_path, m):
        # The writer formats whatever it holds, so a stand-in with the same
        # fields carries values no validated sequence could; steps 2 and 3
        # repeat step 1, and step 5 step 4, to take the reuse path.
        rng = np.random.default_rng(m)
        vectors = adversarial_array(rng, (9, m))
        vectors[2] = vectors[3] = vectors[1]
        vectors[5] = vectors[4]
        aps = SimpleNamespace(vectors=vectors, residuals=adversarial_array(rng, 8), m=m,
                              horizon=8)
        write_adjoint_csv(aps, tmp_path / "block.csv")
        csv_writer_adjoint(aps, tmp_path / "oracle.csv")
        got = (tmp_path / "block.csv").read_bytes()
        assert got == (tmp_path / "oracle.csv").read_bytes()
        assert got.count(b"\r\n") == 1 + 9 * m

    def test_repeating_vectors_keep_signed_zeros(self, tmp_path):
        # Repeats, changes, repeats; the last two steps differ from the first
        # only in the sign of a zero, which array_equal would not see.
        u, v, signed = [0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.5, 0.5, -0.0]
        vectors = np.array([u, u, v, v, v, u, signed, signed])
        aps = AbsoluteProbabilitySequence(vectors=vectors, residuals=np.zeros(7),
                                          method="user-supplied")
        write_adjoint_csv(aps, tmp_path / "block.csv")
        csv_writer_adjoint(aps, tmp_path / "oracle.csv")
        got = (tmp_path / "block.csv").read_bytes()
        assert got == (tmp_path / "oracle.csv").read_bytes()
        assert got.count(b",-0.0,") == 2
        assert got.count(b",0.0,") == 3

