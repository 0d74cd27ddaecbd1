import hashlib
import json
import math

import numpy as np
import pytest

from consensus_lab import (DiGraph, GraphSequence, NotRooted, bfs_spanning_tree, graphs,
                           random_rooted_graph, regular_tree_graph, roots)
from oracles import edges, tree_edges


def path_graph(m):
    return DiGraph(m, frozenset((i, i + 1) for i in range(m - 1)))


def complete_graph(m):
    return DiGraph(m, frozenset((j, i) for j in range(m) for i in range(m) if i != j))


def graph_json(g):
    """The graph JSON text whose digests are pinned below."""
    return json.dumps(g.to_json_dict(), sort_keys=True)


def dfs_reachable(g, start):
    pairs = edges(g)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in (i for j, i in pairs if j == u):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def oracle_roots(g):
    return frozenset(v for v in range(g.m) if len(dfs_reachable(g, v)) == g.m)


class TestDiGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            DiGraph(2, frozenset({(0, 0)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DiGraph(2, frozenset({(0, 2)}))

    def test_json_round_trip_is_one_based_and_sorted(self):
        g = DiGraph(3, frozenset({(2, 0), (0, 1)}))
        d = g.to_json_dict()
        assert d == {"m": 3, "edges": [[1, 2], [3, 1]]}
        assert DiGraph.from_json_dict(json.loads(graph_json(g))) == g


class TestRoots:
    def test_directed_path(self):
        assert roots(path_graph(3)) == {0}

    def test_complete_graph(self):
        assert roots(complete_graph(3)) == {0, 1, 2}

    def test_isolated_nodes(self):
        assert roots(DiGraph(2, frozenset())) == frozenset()

    def test_agrees_with_reachability_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(10000):
            m = int(rng.integers(1, 7))
            p = rng.uniform(0.0, 0.7)
            edges = {(int(j), int(i)) for j in range(m) for i in range(m)
                     if j != i and rng.random() < p}
            g = DiGraph(m, frozenset(edges))
            assert roots(g) == oracle_roots(g)


class TestBfsSpanningTree:
    def test_path_depth(self):
        tree = bfs_spanning_tree(path_graph(3), 0)
        assert tree.depth == 2
        assert tree.parents == (-1, 0, 1)

    def test_star_depth(self):
        g = DiGraph(5, frozenset((0, i) for i in range(1, 5)))
        assert bfs_spanning_tree(g, 0).depth == 1

    def test_not_rooted_raises(self):
        with pytest.raises(NotRooted):
            bfs_spanning_tree(path_graph(3), 2)

    def test_parent_tie_break_smallest_in_neighbor(self):
        # both 0 and 1 reach 2 at level 1; parent must be 0
        g = DiGraph(4, frozenset({(0, 1), (0, 2), (1, 2), (2, 3), (0, 3)}))
        tree = bfs_spanning_tree(g, 0)
        assert tree.parents[2] == 0
        assert tree.parents[3] == 0

    def test_structural_invariants_on_random_graphs(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            m = int(rng.integers(2, 9))
            g = random_rooted_graph(m, rng.uniform(0, 0.5), rng)
            pairs = edges(g)
            for r in sorted(roots(g)):
                tree = bfs_spanning_tree(g, r)
                branches = tree_edges(tree)
                assert len(branches) == m - 1
                assert all(e in pairs for e in branches)
                # every node walks up to the root without cycles
                for v in range(m):
                    seen = set()
                    while v != r:
                        assert v not in seen
                        seen.add(v)
                        v = tree.parents[v]
                # depth equals eccentricity of the root
                dist = {r: 0}
                frontier = [r]
                while frontier:
                    nxt = []
                    for u in frontier:
                        for w in (i for j, i in pairs if j == u):
                            if w not in dist:
                                dist[w] = dist[u] + 1
                                nxt.append(w)
                    frontier = nxt
                assert tree.depth == max(dist.values())


class TestRegularTreeGraph:
    def test_d2_is_k4(self):
        g = regular_tree_graph(2)
        assert g.m == 4
        assert edges(g) == edges(complete_graph(4))

    def test_d3_shape(self):
        g = regular_tree_graph(3)
        assert g.m == 8
        assert len(edges(g)) == 24  # 12 undirected edges
        assert all(g.degree(i) == 3 for i in range(8))
        assert bfs_spanning_tree(g, 0).depth == 2

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_three_regular(self, d):
        g = regular_tree_graph(d)
        assert g.m == 2 ** d
        assert g.is_symmetric
        assert all(g.degree(i) == 3 for i in range(g.m))

    def test_small_d_eccentricity_matches_half_depth(self):
        # at most ceil(d/2) is only achievable while 2^d fits in the
        # distance-k ball of a cubic graph (1 + 3(2^k - 1) nodes)
        for d in (2, 3):
            ecc = bfs_spanning_tree(regular_tree_graph(d), 0).depth
            assert ecc <= math.ceil(d / 2)

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            regular_tree_graph(1)


class TestRandomRootedGraph:
    def test_m2_no_extra(self):
        g = random_rooted_graph(2, 0.0, seed=5)
        assert len(edges(g)) == 1
        assert roots(g)

    def test_tree_edge_count(self):
        for seed in range(10):
            g = random_rooted_graph(10, 0.0, seed=seed)
            assert len(edges(g)) == 9
            assert roots(g)

    def test_full_probability_gives_complete_digraph(self):
        g = random_rooted_graph(10, 1.0, seed=0)
        assert len(edges(g)) == 90

    @pytest.mark.parametrize("p", [2.0, -0.5, 1.0000001, float("nan"), float("inf")])
    def test_rejects_probability_outside_unit_interval(self, p):
        with pytest.raises(ValueError):
            random_rooted_graph(5, p, seed=0)
        with pytest.raises(ValueError):
            GraphSequence.random_rooted(5, p, seed=0)

    def test_always_rooted(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            g = random_rooted_graph(int(rng.integers(2, 12)), rng.uniform(0, 1), rng)
            assert roots(g)


class TestDiGraphContract:
    def test_edge_and_array_constructors_agree(self):
        g = random_rooted_graph(20, 0.2, seed=3)
        from_edges = DiGraph(g.m, edges(g))
        from_array = DiGraph.from_adjacency(g.adjacency.astype(int).tolist())
        assert from_edges == from_array == g
        assert hash(from_edges) == hash(from_array) == hash(g)
        assert len({g, from_edges, from_array}) == 1
        other = DiGraph(g.m, edges(g) - {min(edges(g))})
        assert other != g

    def test_adjacency_orientation(self):
        g = DiGraph(3, {(2, 0), (0, 1)})
        assert g.adjacency.dtype == bool
        assert g.adjacency[0, 2] and g.adjacency[1, 0]
        assert g.adjacency.sum() == 2

    def test_edges_round_trip_through_json(self):
        for m, p in ((17, 0.0), (96, 0.1)):
            g = random_rooted_graph(m, p, seed=m)
            d = json.loads(graph_json(g))
            assert d["edges"] == sorted(d["edges"])
            back = DiGraph.from_json_dict(d)
            assert edges(back) == edges(g)
            assert back == g

    @pytest.mark.parametrize("build", [
        lambda: DiGraph(3, {(1, 1)}),
        lambda: DiGraph.from_adjacency(np.eye(3, dtype=bool)),
        lambda: DiGraph(3, {(0, 3)}),
        lambda: DiGraph(3, {(-1, 0)}),
        lambda: DiGraph.from_adjacency(np.zeros((2, 3), dtype=bool)),
        lambda: DiGraph.from_adjacency(np.zeros((0, 0), dtype=bool)),
        lambda: DiGraph(0, ()),
    ])
    def test_constructors_reject_self_loops_and_out_of_range(self, build):
        with pytest.raises(ValueError):
            build()

    def test_array_is_read_only(self):
        source = np.zeros((3, 3), dtype=bool)
        source[1, 0] = True
        g = DiGraph.from_adjacency(source)
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = True
        with pytest.raises(AttributeError):
            g.adjacency = source
        source[2, 0] = True  # the graph holds its own copy
        assert edges(g) == {(0, 1)}


# sha256 of the concatenated graph_json() of random_rooted_graph(m, p, seed) for
# seeds 0..9, recorded before the array-backed rewrite: any change in the
# order or number of random draws changes them.
RANDOM_GRAPH_DIGESTS = {
    (2, 0.0): "92e35e8e046ed3b8d4f1b0ed74bd4d1d8def4ad6209787881013374e2d760426",
    (2, 0.1): "4567b0a88e86cf7aa549089530034d524864f63d2dfb094184b6938eca4701d6",
    (2, 1.0): "bb2b28c4f8c52a6740ce919ecff98d74fb77e45ee2fed848c4b89f63a798490d",
    (3, 0.0): "340db7ab50700e6d7f83c56895dd681bc8b1c9d128dc94dde7431428a87a0810",
    (3, 0.1): "a2bfd0393b780e8445465d3562dd0645d8d80a4f62cfde3040fd3ee357a78f33",
    (3, 1.0): "edf3452fe6a6df1989d6f0f44bf9f820ca2246f16002e67eee2c737bfd8c27d7",
    (17, 0.0): "c25fe7b689644993222bf17c4a35bb999718feabcdeb03d0912fd47648cee38e",
    (17, 0.1): "5b97cf2080f0773ab12b016d6bc2772b4a12674fa41b4da5a0929e8cf6a03cd1",
    (17, 1.0): "494624a2788c04606d4581f2ad263089d38aeec62d1c3ee0bcca77f18bc54a39",
    (96, 0.0): "eea32c78428568f7966618b5dbd5da5ab6cd290c1e5bafa7e060be79de171715",
    (96, 0.1): "629e8f097ef415420fc0ba57361c7be046785d07684f642d9fb58510e075fa2f",
    (96, 1.0): "bc53d95c511e53a6daef2dc70a1471205ef02fac3271ec44c61a02147891233a",
}

SEQUENCE_DIGESTS = {
    0: "14c09f0fe8cfd4e370f028f4e585dfe3be4b8eac2fe14e0aea64de0bcebd8814",
    299: "7cb9aa64892386c9d8d0d5b38790f4ccd8d25b3a28f07e82033d7c5dad24fd35",
    364: "3f8843d8d64c2651598df4050610c6d271e4a9062350e39fa6dd88fcb9e1be35",
}


class TestRandomGraphDrawSequence:
    @pytest.mark.parametrize("m, p", sorted(RANDOM_GRAPH_DIGESTS))
    def test_random_rooted_graph_digest(self, m, p):
        h = hashlib.sha256()
        for seed in range(10):
            h.update(graph_json(random_rooted_graph(m, p, seed)).encode())
        assert h.hexdigest() == RANDOM_GRAPH_DIGESTS[(m, p)]

    def test_sequence_digest(self):
        seq = GraphSequence.random_rooted(96, 0.1, 5)
        for t, digest in SEQUENCE_DIGESTS.items():
            assert hashlib.sha256(graph_json(seq.graph_at(t)).encode()).hexdigest() == digest


def _two_source_graph(m, rng):
    """Unrooted: two disjoint random rooted parts, both sending into the rest."""
    perm = rng.permutation(m)
    a, b, rest = perm[: m // 3], perm[m // 3: 2 * m // 3], perm[2 * m // 3:]
    adjacency = np.zeros((m, m), dtype=bool)
    for part in (a, b):
        sub = random_rooted_graph(len(part), 0.05, rng).adjacency
        adjacency[np.ix_(part, part)] = sub
    senders = np.concatenate((a, b))
    adjacency[np.ix_(rest, senders)] = rng.random((len(rest), len(senders))) < 0.05
    adjacency[rest, rng.choice(senders, len(rest))] = True
    adjacency[np.ix_(rest, rest)] = rng.random((len(rest), len(rest))) < 0.05
    np.fill_diagonal(adjacency, False)
    return DiGraph.from_adjacency(adjacency)


def _nx_graph(nx, g):
    G = nx.DiGraph()
    G.add_nodes_from(range(g.m))
    G.add_edges_from(edges(g))
    return G


def _nx_roots(nx, G):
    cond = nx.condensation(G)
    sources = [c for c in cond if cond.in_degree(c) == 0]
    if len(sources) != 1:
        return frozenset(), len(sources)
    return frozenset(cond.nodes[sources[0]]["members"]), 1


def _scale_cases():
    rng = np.random.default_rng(31)
    for m in (20, 96, 256):
        for p in (0.0, 2.0 / m, 0.1):
            yield f"rooted-{m}-{p:.3f}", random_rooted_graph(m, p, rng)
        yield f"two-sources-{m}", _two_source_graph(m, rng)
    yield "cubic-8", regular_tree_graph(8)


class TestRootsAndBfsAtScale:
    @pytest.mark.parametrize("name, g", [pytest.param(*case, id=case[0])
                                         for case in _scale_cases()])
    def test_against_networkx(self, name, g):
        nx = pytest.importorskip("networkx")
        G = _nx_graph(nx, g)
        expected, n_sources = _nx_roots(nx, G)
        assert roots(g) == expected
        if name.startswith("two-sources"):
            assert n_sources == 2 and not expected
            for v in (0, g.m - 1):
                with pytest.raises(NotRooted):
                    bfs_spanning_tree(g, v)
            return
        assert expected
        ordered = sorted(expected)
        for r in {ordered[0], ordered[len(ordered) // 2], ordered[-1]}:
            layers = list(nx.bfs_layers(G, r))
            level = {v: k for k, layer in enumerate(layers) for v in layer}
            tree = bfs_spanning_tree(g, r)
            assert tree.root == r
            assert tree.depth == len(layers) - 1
            for v in range(g.m):
                want = -1 if v == r else min(u for u in G.predecessors(v)
                                             if level[u] == level[v] - 1)
                assert tree.parents[v] == want

    def test_cases_reach_multi_level_frontiers(self):
        depths = [bfs_spanning_tree(g, min(roots(g))).depth
                  for name, g in _scale_cases() if not name.startswith("two-sources")]
        assert max(depths) >= 8


def _late_source_graph(m):
    """Rooted at {40, 41}; the root search ends at 41, so the tree root 40 needs its own BFS."""
    order = [40] + list(range(42, m)) + list(range(40))
    pairs = {(40, 41), (41, 40)} | set(zip(order, order[1:]))
    return DiGraph(m, pairs)


class TestStackedRootsAndBfs:
    def test_one_block_against_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(47)
        m = 96
        cases = [random_rooted_graph(m, p, rng) for p in (0.0, 2.0 / m, 0.1)]
        cases += [_two_source_graph(m, rng), path_graph(m), _late_source_graph(m),
                  DiGraph(m, ())]
        stack = np.stack([g.adjacency for g in cases])
        c, _, _ = graphs._root_search(stack.astype(np.float32))
        assert c[5] == 41
        counts, first, parents, depths = graphs._rooted_trees(stack)
        for k, g in enumerate(cases):
            G = _nx_graph(nx, g)
            expected, _ = _nx_roots(nx, G)
            assert roots(g) == expected
            assert counts[k] == len(expected)
            if not expected:
                continue
            r = min(expected)
            layers = list(nx.bfs_layers(G, r))
            level = {v: k for k, layer in enumerate(layers) for v in layer}
            assert first[k] == r
            assert depths[k] == len(layers) - 1
            want = [-1 if v == r else min(u for u in G.predecessors(v)
                                          if level[u] == level[v] - 1) for v in range(m)]
            assert parents[k].tolist() == want
            assert bfs_spanning_tree(g, r).parents == tuple(want)
        assert counts[[0, 3, 4, 5, 6]].tolist() == [1, 0, 1, 2, 0]
        assert min(depths[4], depths[5]) >= 8


class TestGraphSequence:
    def test_static_requires_rooted(self):
        with pytest.raises(NotRooted):
            GraphSequence.static(DiGraph(2, frozenset()))

    def test_periodic_cycles(self):
        g1, g2 = path_graph(3), complete_graph(3)
        seq = GraphSequence.periodic([g1, g2])
        assert seq.graph_at(0) == g1
        assert seq.graph_at(3) == g2

    def test_random_rooted_deterministic(self):
        a = GraphSequence.random_rooted(6, 0.3, seed=123)
        b = GraphSequence.random_rooted(6, 0.3, seed=123)
        assert all(a.graph_at(t) == b.graph_at(t) for t in range(20))

    def test_random_rooted_seed_sensitivity(self):
        a = GraphSequence.random_rooted(6, 0.3, seed=123)
        b = GraphSequence.random_rooted(6, 0.3, seed=124)
        assert any(a.graph_at(t) != b.graph_at(t) for t in range(20))
