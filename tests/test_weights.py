from collections import Counter

import numpy as np
import pytest

from consensus_lab import (AsymmetricGraph, DiGraph, GammaTooSmall, GraphSequence,
                           MatrixSequence, NotThreeRegular, RowStochasticMatrix,
                           equal_neighbor_weights, laplacian_weights,
                           lazy_metropolis_weights, random_rooted_graph,
                           regular_quarter_weights, regular_tree_graph, roots,
                           verify_compliance, weights)
from oracles import tree_edges, verify_compliance_per_step


def two_cycle():
    return DiGraph(2, frozenset({(0, 1), (1, 0)}))


def triangle():
    return DiGraph(3, frozenset({(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)}))


def is_doubly_stochastic(mat: RowStochasticMatrix) -> bool:
    """Column sums within 1e-12 of one, the test ``verify_compliance`` applies."""
    return bool(np.abs(mat.entries.sum(axis=0) - 1.0).max() <= 1e-12)


class TestRowStochasticMatrix:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RowStochasticMatrix(np.array([[1.5, -0.5], [0.5, 0.5]]))

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError):
            RowStochasticMatrix(np.array([[0.6, 0.6], [0.5, 0.5]]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            RowStochasticMatrix(np.array([[0.5, bad], [0.5, 0.5]]))

    def test_entries_read_only(self):
        mat = RowStochasticMatrix(np.eye(2))
        with pytest.raises(ValueError):
            mat.entries[0, 0] = 0.5


class TestEqualNeighbor:
    def test_single_node(self):
        assert equal_neighbor_weights(DiGraph(1, frozenset())).entries == np.array([[1.0]])

    def test_two_cycle(self):
        np.testing.assert_allclose(equal_neighbor_weights(two_cycle()).entries,
                                   np.full((2, 2), 0.5))

    def test_path(self):
        g = DiGraph(3, frozenset({(0, 1), (1, 2)}))
        expected = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        np.testing.assert_array_equal(equal_neighbor_weights(g).entries, expected)


class TestLaplacian:
    def test_two_cycle_gamma3(self):
        np.testing.assert_allclose(laplacian_weights(two_cycle(), 3.0).entries,
                                   np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]]))

    def test_empty_graph_identity(self):
        np.testing.assert_array_equal(laplacian_weights(DiGraph(3, frozenset()), 5.0).entries,
                                      np.eye(3))

    def test_triangle_gamma4(self):
        a = laplacian_weights(triangle(), 4.0).entries
        assert np.allclose(np.diag(a), 0.5)
        for j, i in triangle().edges:
            assert a[i, j] == 0.25

    def test_gamma_guard(self):
        with pytest.raises(GammaTooSmall):
            laplacian_weights(two_cycle(), 2.0)

    def test_asymmetric_guard(self):
        with pytest.raises(AsymmetricGraph):
            laplacian_weights(DiGraph(2, frozenset({(0, 1)})), 5.0)


class TestQuarterWeights:
    def test_rows_have_four_quarters(self):
        a = regular_quarter_weights(regular_tree_graph(3)).entries
        assert all(sorted(row[row > 0]) == [0.25] * 4 for row in a)

    def test_doubly_stochastic(self):
        mat = regular_quarter_weights(regular_tree_graph(4))
        assert is_doubly_stochastic(mat)

    def test_d2_is_quarter_ones(self):
        np.testing.assert_array_equal(regular_quarter_weights(regular_tree_graph(2)).entries,
                                      np.full((4, 4), 0.25))

    def test_guard(self):
        with pytest.raises(NotThreeRegular):
            regular_quarter_weights(two_cycle())


class TestLazyMetropolis:
    def test_doubly_stochastic_and_lazy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_rooted_graph(int(rng.integers(2, 10)), 0.5, rng)
            sym = DiGraph(g.m, frozenset(set(g.edges) | {(i, j) for j, i in g.edges}))
            mat = lazy_metropolis_weights(sym)
            assert is_doubly_stochastic(mat)
            assert np.diag(mat.entries).min() >= 0.5


class TestBuilderInvariants:
    def test_random_graphs_up_to_m50(self):
        rng = np.random.default_rng(31337)
        for _ in range(1000):
            m = int(rng.integers(2, 51))
            g = random_rooted_graph(m, rng.uniform(0, 0.2), rng)
            a = equal_neighbor_weights(g).entries
            assert (a >= 0).all()
            assert np.abs(a.sum(axis=1) - 1).max() <= 1e-12
            # positive entries exactly on edges plus diagonal
            for i in range(m):
                support = {j for j in range(m) if a[i, j] > 0}
                assert support == {j for j, r in g.edges if r == i} | {i}


class TestVerifyCompliance:
    def test_quarter_scheme_is_strong(self):
        seq = MatrixSequence.from_scheme(GraphSequence.static(regular_tree_graph(3)),
                                         "quarter")
        rep = verify_compliance(seq, 5)
        assert rep.level == "strong"
        assert rep.beta == 0.25
        assert rep.doubly_stochastic
        assert rep.p_star == 2

    def test_identity_on_rooted_graph_is_neither(self):
        g = DiGraph(3, frozenset({(0, 1), (1, 2)}))
        seq = MatrixSequence.custom([np.eye(3)], GraphSequence.static(g))
        rep = verify_compliance(seq, 3)
        assert rep.level == "neither"
        assert "tree edge" in rep.violation
        assert not rep.ok

    def test_equal_neighbor_beta_on_strongly_connected(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            m = int(rng.integers(2, 12))
            g = random_rooted_graph(m, 0.9, rng)
            if len(roots(g)) != m:
                continue
            seq = MatrixSequence.from_scheme(GraphSequence.static(g), "equal-neighbor")
            rep = verify_compliance(seq, 1)
            assert rep.level == "strong"
            max_indeg = max(sum(r == i for _, r in g.edges) for i in range(m))
            assert rep.beta == pytest.approx(1.0 / (1.0 + max_indeg), rel=1e-12)
            # exact agreement with a direct scan of diagonal and tree entries
            a = seq.matrix_at(0)
            tree = rep.trees[0]
            scanned = list(np.diag(a)) + [a[i, j] for j, i in tree_edges(tree)]
            assert rep.beta == min(scanned)

    def test_strong_also_certifies_tree_level_data(self):
        # strong compliance must still come with trees and a tree-based beta
        seq = MatrixSequence.from_scheme(GraphSequence.random_rooted(8, 0.8, seed=2),
                                         "equal-neighbor")
        rep = verify_compliance(seq, 10)
        assert rep.ok
        assert len(rep.trees) == 10
        betas = []
        for t, tree in enumerate(rep.trees):
            a = seq.matrix_at(t)
            betas.extend(a[i, j] for j, i in tree_edges(tree))
            betas.extend(np.diag(a))
        assert rep.beta == pytest.approx(min(betas), abs=0)

    def test_rooted_level_without_strong_connectivity(self):
        g = DiGraph(3, frozenset({(0, 1), (1, 2)}))  # rooted, not strongly connected
        seq = MatrixSequence.from_scheme(GraphSequence.static(g), "equal-neighbor")
        rep = verify_compliance(seq, 2)
        assert rep.level == "rooted"
        assert rep.beta == 0.5


class TestComplianceNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_neither(self, bad):
        class Seq:
            # bypasses RowStochasticMatrix, which rejects the entry on construction
            def distinct_steps(self, horizon):
                return range(horizon)

            def matrix_at(self, t):
                return np.array([[0.5, bad], [0.5, 0.5]])

            def graph_at(self, t):
                return two_cycle()

        report = verify_compliance(Seq(), 5)
        assert report.level == "neither"
        assert "row-stochastic" in report.violation


def assert_matches_per_step(seq, horizon):
    """``verify_compliance`` agrees with the per-step oracle; returns its report."""
    got = verify_compliance(seq, horizon)
    want = verify_compliance_per_step(seq, horizon)
    assert (got.level, got.beta.hex(), got.p_star, got.doubly_stochastic, got.violation) == \
        (want.level, want.beta.hex(), want.p_star, want.doubly_stochastic, want.violation)
    for t, tree in enumerate(want.trees):
        assert got.trees[t % len(got.trees)] == tree
    return got


@pytest.fixture
def tree_searches(monkeypatch):
    """Counts of the ``roots`` and ``bfs_spanning_tree`` calls ``verify_compliance`` makes."""
    calls = Counter()
    for name in ("roots", "bfs_spanning_tree"):
        def counted(*args, _name=name, _original=getattr(weights, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(weights, name, counted)
    return calls


class TestCompliancePerDistinctStep:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_static_cubic(self, d):
        seq = MatrixSequence.from_scheme(GraphSequence.static(regular_tree_graph(d)),
                                         "quarter")
        assert seq.distinct_steps(40) == range(1)
        assert len(assert_matches_per_step(seq, 40).trees) == 1

    def test_periodic_three_graphs(self):
        rng = np.random.default_rng(17)
        gseq = GraphSequence.periodic([random_rooted_graph(7, 0.2, rng) for _ in range(3)])
        seq = MatrixSequence.from_scheme(gseq, "equal-neighbor")
        assert seq.distinct_steps(2) == range(2)
        assert seq.distinct_steps(25) == range(3)
        assert len(assert_matches_per_step(seq, 25).trees) == 3

    def test_random_rooted(self):
        seq = MatrixSequence.from_scheme(GraphSequence.random_rooted(8, 0.3, seed=4),
                                         "equal-neighbor")
        assert seq.distinct_steps(10) == range(10)
        assert len(assert_matches_per_step(seq, 10).trees) == 10

    @pytest.mark.parametrize("fail_at_3", [False, True])
    def test_custom_matrices_on_periodic_graphs(self, period_six_sequence, fail_at_3):
        seq = period_six_sequence(fail_at_3)
        assert seq.distinct_steps(4) == range(4)
        assert seq.distinct_steps(20) == range(6)
        report = assert_matches_per_step(seq, 20)
        if fail_at_3:
            assert report.violation == "t=3: zero weight on tree edge (2,1)"
            assert len(report.trees) == 3
        else:
            assert report.level == "rooted"
            assert len(report.trees) == 6

    def test_non_rooted_graph_at_period_position_2(self):
        mats = [np.full((3, 3), 1 / 3), np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5],
                                                  [0.5, 0.0, 0.5]]), np.eye(3)]
        seq = MatrixSequence.custom(mats)
        assert seq.distinct_steps(9) == range(3)
        report = assert_matches_per_step(seq, 9)
        assert report.violation == "t=2: graph is not rooted"

    def test_one_tree_search_per_distinct_step(self, tree_searches):
        seq = MatrixSequence.from_scheme(GraphSequence.static(regular_tree_graph(11)),
                                         "quarter")
        assert verify_compliance(seq, 300).level == "strong"
        assert tree_searches == {"roots": 1, "bfs_spanning_tree": 1}

    def test_random_rooted_searches_every_step(self, tree_searches):
        seq = MatrixSequence.from_scheme(GraphSequence.random_rooted(8, 0.3, seed=4),
                                         "equal-neighbor")
        assert verify_compliance(seq, 10).ok
        assert tree_searches == {"roots": 10, "bfs_spanning_tree": 10}
