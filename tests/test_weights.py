import gc
import json
import tracemalloc
from collections import Counter, deque

import numpy as np
import pytest

from consensus_lab import (AsymmetricGraph, DiGraph, GammaTooSmall, GraphSequence,
                           MatrixSequence, NotThreeRegular, bfs_spanning_tree,
                           equal_neighbor_weights, laplacian_weights, lazy_metropolis_weights,
                           random_rooted_graph, regular_quarter_weights, regular_tree_graph,
                           roots, verify_compliance, weights)
from consensus_lab import cli, engine
from consensus_lab.graphs import _rooted_trees
from consensus_lab.lyapunov import decrement_series
from oracles import (dense_stack, edges, equal_neighbor_dense, laplacian_dense,
                     lazy_metropolis_dense, pairwise_decrement_sum, quarter_dense,
                     rooted_trees_per_graph, tree_edges, verify_compliance_per_step)


def two_cycle():
    return DiGraph(2, frozenset({(0, 1), (1, 0)}))


def triangle():
    return DiGraph(3, frozenset({(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)}))


def built(builder, g, *args) -> np.ndarray:
    """The dense matrix a stacked builder gives for the one graph ``g``."""
    return dense_stack(builder(g.adjacency[None], *args), g.m)[0]


def is_doubly_stochastic(a: np.ndarray) -> bool:
    """Column sums within 1e-12 of one, the test ``verify_compliance`` applies."""
    return bool(np.abs(a.sum(axis=0) - 1.0).max() <= 1e-12)


class TestRowStochasticMatrix:
    """``MatrixSequence.custom`` takes finite nonnegative row-stochastic matrices only."""

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MatrixSequence.custom([np.array([[1.5, -0.5], [0.5, 0.5]])])

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError):
            MatrixSequence.custom([np.array([[0.6, 0.6], [0.5, 0.5]])])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MatrixSequence.custom([np.eye(2), np.array([[0.5, bad], [0.5, 0.5]])])

    def test_entries_read_only(self):
        seq = MatrixSequence.custom([np.eye(2)])
        with pytest.raises(ValueError):
            seq.matrix_at(0)[0, 0] = 0.5

    def test_rejects_another_size_than_the_graph(self):
        with pytest.raises(ValueError, match="3x3, but the graph has m=8"):
            MatrixSequence.custom([np.eye(3)], GraphSequence.static(regular_tree_graph(3)))


class TestEqualNeighbor:
    def test_single_node(self):
        assert built(equal_neighbor_weights, DiGraph(1, frozenset())) == np.array([[1.0]])

    def test_two_cycle(self):
        np.testing.assert_allclose(built(equal_neighbor_weights, two_cycle()),
                                   np.full((2, 2), 0.5))

    def test_path(self):
        g = DiGraph(3, frozenset({(0, 1), (1, 2)}))
        expected = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        np.testing.assert_array_equal(built(equal_neighbor_weights, g), expected)


class TestLaplacian:
    def test_two_cycle_gamma3(self):
        np.testing.assert_allclose(built(laplacian_weights, two_cycle(), 3.0),
                                   np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]]))

    def test_empty_graph_identity(self):
        np.testing.assert_array_equal(built(laplacian_weights, DiGraph(3, frozenset()), 5.0),
                                      np.eye(3))

    def test_triangle_gamma4(self):
        a = built(laplacian_weights, triangle(), 4.0)
        assert np.allclose(np.diag(a), 0.5)
        for j, i in edges(triangle()):
            assert a[i, j] == 0.25

    @pytest.mark.parametrize("m", [6, 96, 300])
    def test_residue_bit_identical_to_dense_row_sums(self, m):
        """The diagonal takes ``1 -`` numpy's sum of each dense row, bit for bit."""
        adjacency = random_rooted_graph(m, 0.2, np.random.default_rng(m)).adjacency
        g = DiGraph.from_adjacency(adjacency | adjacency.T)
        want = g.adjacency / (m + 7.5)
        nodes = np.arange(m)
        want[nodes, nodes] = 1.0 - g.adjacency.sum(axis=1) / (m + 7.5)
        want[nodes, nodes] += 1.0 - want.sum(axis=1)
        assert built(laplacian_weights, g, m + 7.5).tobytes() == want.tobytes()

    def test_gamma_guard(self):
        with pytest.raises(GammaTooSmall):
            laplacian_weights(two_cycle().adjacency[None], 2.0)

    @pytest.mark.parametrize("gamma", [np.inf, np.nan])
    def test_non_finite_gamma(self, gamma):
        with pytest.raises(GammaTooSmall, match="gamma"):
            laplacian_weights(two_cycle().adjacency[None], gamma)

    def test_asymmetric_guard(self):
        with pytest.raises(AsymmetricGraph):
            laplacian_weights(DiGraph(2, frozenset({(0, 1)})).adjacency[None], 5.0)


class TestQuarterWeights:
    def test_rows_have_four_quarters(self):
        a = built(regular_quarter_weights, regular_tree_graph(3))
        assert all(sorted(row[row > 0]) == [0.25] * 4 for row in a)

    def test_doubly_stochastic(self):
        assert is_doubly_stochastic(built(regular_quarter_weights, regular_tree_graph(4)))

    def test_d2_is_quarter_ones(self):
        np.testing.assert_array_equal(built(regular_quarter_weights, regular_tree_graph(2)),
                                      np.full((4, 4), 0.25))

    def test_guard(self):
        with pytest.raises(NotThreeRegular):
            regular_quarter_weights(two_cycle().adjacency[None])


class TestLazyMetropolis:
    def test_doubly_stochastic_and_lazy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_rooted_graph(int(rng.integers(2, 10)), 0.5, rng)
            sym = DiGraph(g.m, frozenset(set(edges(g)) | {(i, j) for j, i in edges(g)}))
            a = built(lazy_metropolis_weights, sym)
            assert is_doubly_stochastic(a)
            assert np.diag(a).min() >= 0.5


class TestBuilderInvariants:
    def test_random_graphs_up_to_m50(self):
        rng = np.random.default_rng(31337)
        for _ in range(1000):
            m = int(rng.integers(2, 51))
            g = random_rooted_graph(m, rng.uniform(0, 0.2), rng)
            a = built(equal_neighbor_weights, g)
            assert (a >= 0).all()
            assert np.abs(a.sum(axis=1) - 1).max() <= 1e-12
            # positive entries exactly on edges plus diagonal
            pairs = edges(g)
            for i in range(m):
                support = {j for j in range(m) if a[i, j] > 0}
                assert support == {j for j, r in pairs if r == i} | {i}


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
            max_indeg = max(sum(r == i for _, r in edges(g)) for i in range(m))
            assert rep.beta == pytest.approx(1.0 / (1.0 + max_indeg), rel=1e-12)
            # exact agreement with a direct scan of diagonal and tree entries
            a = seq.matrix_at(0)
            tree = bfs_spanning_tree(g, min(roots(g)))
            scanned = list(np.diag(a)) + [a[i, j] for j, i in tree_edges(tree)]
            assert rep.beta == min(scanned)

    def test_strong_also_certifies_tree_level_data(self):
        # strong compliance must still come with trees and a tree-based beta
        seq = MatrixSequence.from_scheme(GraphSequence.random_rooted(8, 0.8, seed=2),
                                         "equal-neighbor")
        rep = verify_compliance(seq, 10)
        assert rep.ok
        betas, depths = [], []
        for t in range(10):
            a, g = seq.matrix_at(t), seq.graph_at(t)
            tree = bfs_spanning_tree(g, min(roots(g)))
            betas.extend(a[i, j] for j, i in tree_edges(tree))
            betas.extend(np.diag(a))
            depths.append(tree.depth)
        assert rep.beta == pytest.approx(min(betas), abs=0)
        assert rep.p_star == max(depths)

    def test_rooted_level_without_strong_connectivity(self):
        g = DiGraph(3, frozenset({(0, 1), (1, 2)}))  # rooted, not strongly connected
        seq = MatrixSequence.from_scheme(GraphSequence.static(g), "equal-neighbor")
        rep = verify_compliance(seq, 2)
        assert rep.level == "rooted"
        assert rep.beta == 0.5


class TestComplianceNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_neither(self, bad):
        # built directly: MatrixSequence.custom rejects the entry on construction
        support = weights._row_supports(np.array([[[0.5, bad], [0.5, 0.5]]]))
        seq = MatrixSequence(scheme="custom", m=2, period=1,
                             graph_seq=GraphSequence.static(two_cycle()), _cache={0: support})
        report = verify_compliance(seq, 5)
        assert report.level == "neither"
        assert "row-stochastic" in report.violation


def assert_matches_per_step(seq, horizon):
    """``verify_compliance`` agrees with the per-step oracle; returns its report.

    The batched root and tree search agrees, graph for graph, with ``roots``
    and ``bfs_spanning_tree`` on the graphs of the distinct steps.
    """
    got = verify_compliance(seq, horizon)
    want = verify_compliance_per_step(seq, horizon)
    assert (got.level, got.beta.hex(), got.p_star, got.doubly_stochastic, got.violation) == \
        (want.level, want.beta.hex(), want.p_star, want.doubly_stochastic, want.violation)
    graphs = [seq.graph_at(t) for t in seq.distinct_steps(horizon)]
    counts, tree_roots, parents, depths = _rooted_trees(np.stack([g.adjacency for g in graphs]))
    want_counts, *want_trees = rooted_trees_per_graph(graphs)
    assert counts.tolist() == want_counts.tolist()
    rooted = counts > 0
    for got_field, want_field in zip((tree_roots, parents, depths), want_trees):
        assert got_field[rooted].tolist() == want_field[rooted].tolist()
    return got


@pytest.fixture
def tree_searches(monkeypatch):
    """Steps whose roots and BFS tree ``verify_compliance`` searches, and their calls.

    The searches run a block of steps per call, so the step count, not the
    call count, shows one search per distinct step.
    """
    searched = Counter()
    original = weights._rooted_trees

    def counted(adjacency):
        searched["steps"] += adjacency.shape[0]
        searched["calls"] += 1
        return original(adjacency)

    monkeypatch.setattr(weights, "_rooted_trees", counted)
    return searched


class TestCompliancePerDistinctStep:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_static_cubic(self, d):
        seq = MatrixSequence.from_scheme(GraphSequence.static(regular_tree_graph(d)),
                                         "quarter")
        assert seq.distinct_steps(40) == range(1)
        assert assert_matches_per_step(seq, 40).ok

    def test_periodic_three_graphs(self):
        rng = np.random.default_rng(17)
        gseq = GraphSequence.periodic([random_rooted_graph(7, 0.2, rng) for _ in range(3)])
        seq = MatrixSequence.from_scheme(gseq, "equal-neighbor")
        assert seq.distinct_steps(2) == range(2)
        assert seq.distinct_steps(25) == range(3)
        assert assert_matches_per_step(seq, 25).ok

    def test_random_rooted(self):
        seq = MatrixSequence.from_scheme(GraphSequence.random_rooted(8, 0.3, seed=4),
                                         "equal-neighbor")
        assert seq.distinct_steps(10) == range(10)
        assert assert_matches_per_step(seq, 10).ok

    @pytest.mark.parametrize("fail_at_3", [False, True])
    def test_custom_matrices_on_periodic_graphs(self, period_six_sequence, fail_at_3):
        seq = period_six_sequence(fail_at_3)
        assert seq.distinct_steps(4) == range(4)
        assert seq.distinct_steps(20) == range(6)
        report = assert_matches_per_step(seq, 20)
        if fail_at_3:
            assert report.violation == "t=3: zero weight on tree edge (2,1)"
        else:
            assert report.level == "rooted"

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
        assert tree_searches == {"steps": 1, "calls": 1}

    def test_random_rooted_searches_every_step(self, tree_searches):
        seq = MatrixSequence.from_scheme(GraphSequence.random_rooted(8, 0.3, seed=4),
                                         "equal-neighbor")
        assert verify_compliance(seq, 10).ok
        assert tree_searches["steps"] == 10
        assert tree_searches["calls"] == -(-10 // seq.block_steps)


def _periodic_graphs(period, m=96, seed=23):
    rng = np.random.default_rng(seed)
    return GraphSequence.periodic([random_rooted_graph(m, 0.05, rng) for _ in range(period)])


def _with_zero_tree_edge(a, g):
    """``a`` with the weight of one BFS tree edge of ``g`` moved onto the diagonal."""
    a = np.array(a)
    parents = bfs_spanning_tree(g, min(roots(g))).parents
    child = next(v for v, p in enumerate(parents) if p >= 0)
    parent = parents[child]
    a[child, child] += a[child, parent]
    a[child, parent] = 0.0
    return a


class TestComplianceBlockEdges:
    """Blocks of ``block_steps`` steps against the one-step-at-a-time oracle."""

    @pytest.mark.parametrize("kind", ["tree edge", "diagonal", "not rooted"])
    def test_violation_in_a_later_block(self, kind):
        size = MatrixSequence.custom([np.eye(96)]).block_steps
        period, bad = 2 * size + 3, size + 2
        assert 1 <= size < bad < 2 * size
        gseq = _periodic_graphs(period)
        built_seq = MatrixSequence.from_scheme(gseq, "equal-neighbor")
        mats = [built_seq.matrix_at(t) for t in range(period)]
        if kind == "tree edge":
            mats[bad] = _with_zero_tree_edge(mats[bad], gseq.graphs[bad])
            seq = MatrixSequence.custom(mats, gseq)
        elif kind == "diagonal":
            mats[bad] = np.array(mats[bad])
            mats[bad][5, 5], mats[bad][5, 6] = 0.0, mats[bad][5, 6] + mats[bad][5, 5]
            seq = MatrixSequence.custom(mats, gseq)
        else:
            mats[bad] = np.eye(96)   # its support graph has no edge, so no root
            seq = MatrixSequence.custom(mats)
        report = assert_matches_per_step(seq, 3 * period)
        expected = {"tree edge": "zero weight on tree edge", "diagonal": "diagonal entry 5",
                    "not rooted": "graph is not rooted"}[kind]
        assert report.violation.startswith(f"t={bad}: {expected}")

    def test_horizon_ends_mid_block(self):
        size = MatrixSequence.custom([np.eye(96)]).block_steps
        horizon = 2 * size + 3
        gseq = _periodic_graphs(3 * size)
        seq = MatrixSequence.from_scheme(gseq, "equal-neighbor")
        assert seq.distinct_steps(horizon) == range(horizon)
        assert assert_matches_per_step(seq, horizon).ok

    def test_random_rooted_horizon_ends_mid_block(self):
        seq = MatrixSequence.from_scheme(GraphSequence.random_rooted(96, 0.1, seed=8),
                                         "equal-neighbor")
        size = seq.block_steps
        horizon = 2 * size + 3
        assert seq.distinct_steps(horizon) == range(horizon)
        assert assert_matches_per_step(seq, horizon).ok
        # The steps past the horizon, in its block and the next, build on demand.
        for t in range(3 * size + 1):
            want = built(equal_neighbor_weights, seq.graph_at(t))
            assert np.array_equal(seq.matrix_at(t), want)
            assert seq.matrix_at(t).tobytes() == want.tobytes()


def mixed_symmetric_stack(m: int, rng) -> np.ndarray:
    """Symmetric in-adjacencies on ``m`` nodes from several graph families."""
    nodes = np.arange(m)
    empty = np.zeros((m, m), dtype=bool)
    path = empty.copy()
    path[nodes[1:], nodes[:-1]] = path[nodes[:-1], nodes[1:]] = True
    cycle = path.copy()
    cycle[0, m - 1] = cycle[m - 1, 0] = m > 2
    star = empty.copy()
    star[0, 1:] = star[1:, 0] = True
    drawn = [random_rooted_graph(m, p, rng).adjacency for p in (0.05, 0.3)]
    return np.stack([empty, ~np.eye(m, dtype=bool), path, cycle, star]
                    + [a | a.T for a in drawn])


def column_dtype(m: int) -> np.dtype:
    """The narrowest unsigned type that holds ``m - 1``, for the sizes tested here."""
    return np.dtype(np.uint8 if m <= 256 else np.uint16)


def assert_builds(support, want):
    """A builder's row support holds exactly the dense oracle's nonzeros, bit for bit."""
    m = want.shape[-1]
    rows, cols = np.nonzero(want.reshape(-1, m))
    assert support[0].dtype == column_dtype(m)
    assert support[0].tobytes() == cols.astype(column_dtype(m)).tobytes()
    assert support[1].tobytes() == want.reshape(-1, m)[rows, cols].tobytes()
    assert support[2].tobytes() == np.searchsorted(rows, np.arange(want.size // m)).tobytes()
    assert dense_stack(support, m).tobytes() == want.tobytes()


class TestStackedBuilds:
    @pytest.mark.parametrize("m", [2, 3, 8, 17, 96])
    def test_each_scheme_bit_identical_to_its_dense_oracle(self, m):
        rng = np.random.default_rng(m)
        symmetric = mixed_symmetric_stack(m, rng)
        rooted = np.stack([random_rooted_graph(m, p, rng).adjacency for p in (0.0, 0.1, 0.6)])
        for builder, args, adjacency, oracle in [
                (equal_neighbor_weights, (), np.concatenate([symmetric, rooted]),
                 equal_neighbor_dense),
                (laplacian_weights, (m + 0.5,), symmetric, laplacian_dense),
                (laplacian_weights, (3.7 * m,), symmetric, laplacian_dense),
                (lazy_metropolis_weights, (), symmetric, lazy_metropolis_dense)]:
            assert_builds(builder(adjacency, *args), oracle(adjacency, *args))

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_quarter_bit_identical_to_its_dense_oracle(self, d):
        adjacency = regular_tree_graph(d).adjacency
        perm = np.random.default_rng(d).permutation(adjacency.shape[0])
        stack = np.stack([adjacency, adjacency[perm][:, perm]])
        assert_builds(regular_quarter_weights(stack), quarter_dense(stack))

    def test_equal_neighbor_stack_bit_identical_to_per_graph(self):
        rng = np.random.default_rng(61)
        graphs = [random_rooted_graph(96, p, rng) for p in (0.0, 0.02, 0.1, 0.5) * 10]
        stacked = dense_stack(equal_neighbor_weights(np.stack([g.adjacency for g in graphs])),
                              96)
        for a, g in zip(stacked, graphs):
            assert a.tobytes() == equal_neighbor_dense(g.adjacency).tobytes()

    @pytest.mark.parametrize("m", [2, 5, 8, 9, 96, 130, 256, 257, 300])
    @pytest.mark.parametrize("p", [0.0, 0.02, 0.1, 0.5, 1.0])
    def test_support_build_bit_identical_to_dense(self, m, p):
        """Row supports and block-densified steps hold the dense build's bits.

        From ``m = 257`` on the dense row sums take more than one chunk, and
        the column index, at most ``m - 1``, outgrows one byte.
        """
        seq = MatrixSequence.from_scheme(GraphSequence.random_rooted(m, p, seed=m),
                                         "equal-neighbor")
        horizon = 2 * seq.block_steps + 1 if m > 8 else 5
        graphs = [seq.graph_at(t) for t in range(horizon)]
        want = equal_neighbor_dense(np.stack([g.adjacency for g in graphs]))
        if p == 0.0:   # a tree: its root and every leaf hear no one, or only themselves
            assert not graphs[0].adjacency.any(axis=1).all()
        for (steps, support), t0 in zip(seq.supports(horizon),
                                        range(0, horizon, seq.block_steps)):
            block = want[steps]
            rows, cols = np.nonzero(block.reshape(-1, m))
            assert support[0].tobytes() == (rows // m * m + cols).tobytes()
            assert support[1].tobytes() == block.reshape(-1, m)[rows, cols].tobytes()
            starts = np.searchsorted(rows, np.arange(block.size // m))
            assert support[2].tobytes() == starts.tobytes()
            assert steps[0] == t0
        for t, (a, g) in enumerate(zip(seq.dense_steps(range(horizon)), graphs)):
            assert a.tobytes() == want[t].tobytes()
            assert a.tobytes() == built(equal_neighbor_weights, g).tobytes()
            assert seq.matrix_at(t).tobytes() == want[t].tobytes()

    def test_row_supports_split_per_matrix(self):
        seq = MatrixSequence.from_scheme(GraphSequence.random_rooted(40, 0.2, seed=1),
                                         "equal-neighbor")
        a = np.stack([seq.matrix_at(t) for t in range(5)])
        support = weights._row_supports(a)
        assert support[0].dtype == np.uint8
        for k, mat in enumerate(a):
            rows, cols = np.nonzero(mat)
            want = (cols, mat[rows, cols], np.searchsorted(rows, np.arange(40)))
            for x, y in zip(weights._matrices(support, k, k + 1, 40), want):
                assert np.array_equal(x, y)

    def test_row_support_rejects_an_empty_row(self):
        a = np.eye(3)
        a[1, 1] = 0.0
        with pytest.raises(ValueError, match="nonzero"):
            weights._row_supports(a[None])


def _held_after_supports(build, horizon):
    """The sequence ``build()`` gives, and the bytes it holds once ``supports(horizon)`` ran."""
    warm = build()   # numpy's one-time allocations stay out of the count
    next(warm.supports(1))
    del warm
    gc.collect()
    tracemalloc.start()
    try:
        seq = build()
        deque(seq.supports(horizon), maxlen=0)   # keeps no group alive
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return seq, held


def test_random_rooted_cache_holds_row_supports_only():
    """Cached matrices hold ``O(nnz)`` bytes each, far below ``8 m^2``.

    300 random-rooted steps, the one matrix of a static cubic tree and the
    cycle of a periodic sequence: none is held as a dense ``(p, m, m)`` array.
    """
    horizon = 300
    rng = np.random.default_rng(5)
    graphs = {"random-rooted": GraphSequence.random_rooted(96, 0.1, seed=3),
              "static cubic": GraphSequence.static(regular_tree_graph(8)),
              "periodic": GraphSequence.periodic([random_rooted_graph(96, 0.1, rng)
                                                  for _ in range(5)])}
    for kind, gseq in graphs.items():
        scheme = "quarter" if kind == "static cubic" else "equal-neighbor"
        seq, held = _held_after_supports(lambda: MatrixSequence.from_scheme(gseq, scheme),
                                         horizon)
        m = seq.m
        cached = sum(s[2].size for s in seq._cache.values()) // m
        assert cached >= (horizon if kind == "random-rooted" else seq.period), kind
        assert all(s[0].dtype == np.uint8 for s in seq._cache.values())
        nnz = sum(s[0].size for s in seq._cache.values()) / cached
        per_step = held / cached
        # A one-byte column and an 8-byte weight per nonzero, and the row starts
        # 8 bytes per row; the rest is Python object overhead.
        assert per_step <= 10 * nnz + 8 * m + 2048, kind
        assert per_step < 0.5 * 8 * m * m, kind


def test_custom_negative_zero_entry_reads_as_zero():
    """The row support keeps nonzeros only, so a custom ``-0.0`` entry reads back as ``0.0``."""
    seq = MatrixSequence.custom([np.array([[1.0, -0.0], [0.5, 0.5]])])
    a = seq.matrix_at(0)
    assert a.tobytes() == np.array([[1.0, 0.0], [0.5, 0.5]]).tobytes()
    assert not np.signbit(a[0, 1])
    assert edges(seq.graph_at(0)) == {(0, 1)}


@pytest.mark.parametrize("m", [96, 130])
@pytest.mark.parametrize("read_first", [False, True], ids=["compliance-first", "read-first"])
def test_partial_block_completed_by_a_later_read(m, read_first):
    """A block that compliance builds only in part is completed by a read past its horizon.

    Compliance over a horizon that ends two steps into block 1 caches those
    two steps, but keeps a whole block that a read built first.  Reading
    further completes the block, shifting the new steps' row starts, and
    every dense step and decrement keeps the dense oracle's bits.
    """
    seq = MatrixSequence.from_scheme(GraphSequence.random_rooted(m, 0.1, seed=m),
                                     "equal-neighbor")
    size = seq.block_steps
    horizon, longer = size + 2, 3 * size
    assert size > 2
    if read_first:
        seq.matrix_at(horizon)   # block 1's third step
        assert seq._cache[1][2].size == size * m
    assert verify_compliance(seq, horizon).ok
    assert seq._cache[1][2].size == (size if read_first else 2) * m
    want = equal_neighbor_dense(np.stack([seq.graph_at(t).adjacency for t in range(longer)]))
    rng = np.random.default_rng(m)
    states = rng.uniform(-1.0, 1.0, (longer + 1, m, 1))
    pi = rng.dirichlet(np.ones(m), longer + 1)
    series = decrement_series(seq, states, pi)
    assert seq._cache[1][2].size == size * m and seq._cache[1][0].dtype == np.uint8
    for t, a in enumerate(seq.dense_steps(range(longer))):
        assert a.tobytes() == want[t].tobytes()
        assert series[t] == pairwise_decrement_sum(want[t], states[t], pi[t + 1])


def test_compliance_reuses_a_cached_block():
    """Compliance on a sequence that a read has already cached a block of
    gives the report of a fresh sequence.

    At ``m = 96`` a block holds 7 steps.  ``matrix_at(9)`` builds and caches
    block 1; compliance over 9 steps then builds block 0 and block 1's first
    two steps itself.
    """
    gseq = GraphSequence.random_rooted(96, 0.05, seed=4)
    fresh = verify_compliance(MatrixSequence.from_scheme(gseq, "equal-neighbor"), 9)
    seq = MatrixSequence.from_scheme(gseq, "equal-neighbor")
    assert seq.block_steps == 7
    seq.matrix_at(9)
    assert verify_compliance(seq, 9) == fresh


def test_matrix_at_scatters_one_matrix():
    """Reading one step of a 200-graph cycle allocates about one ``m x m``
    matrix and its copy, not the cycle's 14.7 MB; a read that wraps past
    the cycle's end still gives every matrix."""
    seq = MatrixSequence.from_scheme(_periodic_graphs(200), "equal-neighbor")
    m = seq.m
    seq.matrix_at(0)   # numpy's one-time allocations stay out of the count
    tracemalloc.start()
    try:
        a = seq.matrix_at(150)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * m * m
    want = dense_stack(seq._cache[0], m)
    assert a.tobytes() == want[150].tobytes()
    for t, b in enumerate(seq.dense_steps(range(195, 405))):
        assert b.tobytes() == want[(195 + t) % 200].tobytes()


def _rooted_scenario(horizon: int) -> dict:
    return {"m": 12, "n": 1, "horizon": horizon, "seed": 5, "mode": "unconstrained",
            "graph": {"kind": "random-rooted", "extra_edge_prob": 0.2},
            "weights": {"scheme": "equal-neighbor"}, "adjoint": {"method": "backward-product"},
            "initial": {"kind": "uniform-box", "low": -1.0, "high": 1.0}}


def test_steps_past_the_horizon_are_checked(monkeypatch, tmp_path):
    """A step the adjoint builds past the horizon is checked, and a bad one stops the run."""
    horizon = 20
    build = MatrixSequence.stack

    def corrupt(self, steps):
        support, adjacency = build(self, steps)
        if horizon + 3 in steps:
            cols, weights, starts = support
            weights = weights.copy()
            weights[starts[(horizon + 3 - steps[0]) * self.m]] += 0.5
            support = (cols, weights, starts)
        return support, adjacency

    monkeypatch.setattr(MatrixSequence, "stack", corrupt)
    scenario = _rooted_scenario(horizon)
    config = engine.RunConfig.from_json_dict(scenario)
    assert verify_compliance(engine.build_matrix_sequence(
        config, engine.build_graph_sequence(config)), horizon).ok
    with pytest.raises(ValueError, match=f"t={horizon + 3}: matrix is not row-stochastic"):
        engine.run(config)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2


def test_every_built_step_is_checked_once(monkeypatch):
    """Compliance checks the steps it builds, a build on demand the rest: each step once."""
    built, checked = Counter(), Counter()
    build, row_stochastic = MatrixSequence.stack, weights._row_stochastic

    def counted_build(self, steps):
        built.update(steps)
        return build(self, steps)

    def counted_check(support, m):
        checked["rows"] += support[2].size
        return row_stochastic(support, m)

    monkeypatch.setattr(MatrixSequence, "stack", counted_build)
    monkeypatch.setattr(weights, "_row_stochastic", counted_check)
    horizon = 20
    engine.run(engine.RunConfig.from_json_dict(_rooted_scenario(horizon)))
    assert max(built.values()) == 1 and len(built) > horizon + 8
    assert checked["rows"] == 12 * len(built)


@pytest.mark.parametrize("scheme,params,oracle", [
    ("laplacian", {"gamma": 97.5}, laplacian_dense),
    ("lazy-metropolis", {}, lazy_metropolis_dense)])
def test_random_rooted_complete_graphs(scheme, params, oracle):
    """Complete digraphs are symmetric, the one random-rooted input these schemes take."""
    config = engine.RunConfig.from_json_dict(
        {**_rooted_scenario(20), "m": 96, "weights": {"scheme": scheme, **params},
         "graph": {"kind": "random-rooted", "extra_edge_prob": 1}})
    result = engine.run(config)
    assert result.compliance.level == "strong" and result.compliance.doubly_stochastic
    assert result.certificates.passed
    seq = engine.build_matrix_sequence(config, engine.build_graph_sequence(config))
    want = oracle(~np.eye(96, dtype=bool), *params.values())
    assert seq.block_steps < 20
    for t in range(20):
        assert seq.matrix_at(t).tobytes() == want.tobytes()


def test_scheme_builders_are_looked_up_at_call_time(monkeypatch):
    """A builder patched onto ``weights`` builds every cyclic and random-rooted step."""
    steps = Counter()
    for name in ("equal_neighbor_weights", "laplacian_weights", "lazy_metropolis_weights",
                 "regular_quarter_weights"):
        def counted(adjacency, *args, _name=name, _build=getattr(weights, name), **kwargs):
            steps[_name] += adjacency.shape[0]
            return _build(adjacency, *args, **kwargs)

        monkeypatch.setattr(weights, name, counted)
    MatrixSequence.from_scheme(GraphSequence.static(regular_tree_graph(3)), "quarter")
    MatrixSequence.from_scheme(GraphSequence.static(triangle()), "laplacian", gamma=4.0)
    path = DiGraph(3, frozenset({(0, 1), (1, 0), (1, 2), (2, 1)}))
    MatrixSequence.from_scheme(GraphSequence.periodic([triangle(), path]), "lazy-metropolis")
    seq = MatrixSequence.from_scheme(GraphSequence.random_rooted(12, 0.3, seed=1),
                                     "equal-neighbor")
    assert verify_compliance(seq, 10).ok
    assert steps == {"regular_quarter_weights": 1, "laplacian_weights": 1,
                     "lazy_metropolis_weights": 2, "equal_neighbor_weights": 10}
