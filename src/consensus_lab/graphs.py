"""Directed communication graphs, rootedness, and spanning trees.

Nodes are ``0..m-1``.  An edge ``(j, i)`` means node ``j`` sends to node
``i``.  A graph is stored as its ``m x m`` boolean in-adjacency array, so
``adjacency[i, j]`` holds exactly when ``(j, i)`` is an edge.  Self-loops
are never stored: every agent implicitly hears itself, and the weight
builders account for that on the matrix diagonal.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .seeding import substream


class NotRooted(ValueError):
    """The requested root does not reach every node of the graph."""


class DiGraph:
    """Immutable directed graph on ``m`` nodes with edge set ``{(sender, receiver)}``.

    ``DiGraph(m, edges)`` takes the edge pairs; :meth:`from_adjacency` takes
    the in-adjacency array.  Both reject self-loops and out-of-range nodes.
    The array is read-only, and equality and hashing go by its content.
    """

    def __init__(self, m: int, edges):
        if m < 1:
            raise ValueError("graph needs at least one node")
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        outside = ((pairs < 0) | (pairs >= m)).any(axis=1)
        if outside.any():
            j, i = pairs[outside.argmax()]
            raise ValueError(f"edge ({j},{i}) out of range for m={m}")
        adjacency = np.zeros((m, m), dtype=bool)
        adjacency[pairs[:, 1], pairs[:, 0]] = True
        self._store(adjacency)

    @classmethod
    def from_adjacency(cls, adjacency) -> "DiGraph":
        """Graph whose edge ``(j, i)`` is present iff ``adjacency[i, j]`` is nonzero."""
        adjacency = np.array(adjacency, dtype=bool)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise ValueError(f"adjacency of shape {adjacency.shape} is not square, "
                             "so some node is out of range")
        if not adjacency.size:
            raise ValueError("graph needs at least one node")
        g = cls.__new__(cls)
        g._store(adjacency)
        return g

    def _store(self, adjacency: np.ndarray) -> None:
        loops = np.flatnonzero(adjacency.diagonal())
        if loops.size:
            raise ValueError(f"self-loop ({loops[0]},{loops[0]}) must stay implicit")
        adjacency.setflags(write=False)
        object.__setattr__(self, "adjacency", adjacency)

    def __setattr__(self, name, value):
        raise AttributeError(f"DiGraph is immutable; cannot set {name!r}")

    @property
    def m(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def edges(self) -> frozenset:
        receivers, senders = np.nonzero(self.adjacency)
        return frozenset(zip(senders.tolist(), receivers.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return np.array_equal(self.adjacency, other.adjacency)

    def __hash__(self) -> int:
        return hash(self.adjacency.tobytes())

    def __repr__(self) -> str:
        return f"DiGraph(m={self.m}, edges={sorted(self.edges)})"

    @cached_property
    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.adjacency, self.adjacency.T))

    def degree(self, i: int) -> int:
        """Undirected degree; only meaningful for symmetric edge sets."""
        if not self.is_symmetric:
            raise ValueError("degree is defined for symmetric graphs only")
        return int(np.count_nonzero(self.adjacency[i]))

    def in_adjacency(self) -> np.ndarray:
        """Matrix ``M`` with ``M[i, j] = 1`` iff ``j`` sends to ``i``; zero diagonal."""
        return self.adjacency.astype(float)

    def to_json_dict(self) -> dict:
        """Serialization with 1-based node ids and lexicographically sorted edges."""
        return {"m": self.m, "edges": (np.argwhere(self.adjacency.T) + 1).tolist()}

    @staticmethod
    def from_json_dict(d: dict) -> "DiGraph":
        return DiGraph(int(d["m"]), [(int(j) - 1, int(i) - 1) for j, i in d["edges"]])


@dataclass(frozen=True)
class SpanningTree:
    """Rooted directed spanning tree; ``parents[v]`` is the tree parent, ``-1`` at the root."""

    root: int
    parents: tuple[int, ...]
    depth: int

    def __post_init__(self):
        if self.parents[self.root] != -1:
            raise ValueError("root must have parent -1")
        if self.parents.count(-1) != 1:
            raise ValueError("exactly one root expected")

    @property
    def m(self) -> int:
        return len(self.parents)


def _levels(adjacency: np.ndarray, source: int) -> np.ndarray:
    """Hop distance from ``source`` along the edges of ``adjacency``; -1 where unreachable.

    Pass ``g.adjacency`` for forward distances and ``g.adjacency.T`` for
    distances against the edge direction.
    """
    level = np.full(adjacency.shape[0], -1)
    level[source] = 0
    frontier = [source]
    k = 0
    while len(frontier):
        k += 1
        reached = adjacency[:, frontier].any(axis=1)
        reached &= level < 0
        level[reached] = k
        frontier = reached.nonzero()[0]
    return level


def roots(g: DiGraph) -> frozenset[int]:
    """All nodes with a directed path to every other node; empty if none exist.

    Walks up the condensation: the nodes reaching candidate ``c`` but not
    reached from it lie in components above ``c``'s, so the candidate moves
    to the farthest of them until none is left.  ``c``'s component is then
    a source; the graph is rooted exactly when ``c`` reaches every node,
    and the roots are the nodes that reach ``c``.
    """
    c = 0
    while True:
        ahead = _levels(g.adjacency, c) >= 0
        behind = _levels(g.adjacency.T, c)
        above = np.where(ahead, -1, behind)
        if above.max() < 0:
            break
        c = int(above.argmax())
    if not ahead.all():
        return frozenset()
    return frozenset(np.flatnonzero(behind >= 0).tolist())


def bfs_spanning_tree(g: DiGraph, root: int) -> SpanningTree:
    """Breadth-first spanning tree from ``root``.

    The parent of a node discovered at level ``k+1`` is its smallest-index
    in-neighbor at level ``k``, so identical graphs always yield identical
    trees.  The tree depth equals the eccentricity of ``root``.
    """
    level = _levels(g.adjacency, root)
    unreachable = np.flatnonzero(level < 0)
    if unreachable.size:
        raise NotRooted(f"node {unreachable[0]} is unreachable from {root}")
    candidates = g.adjacency & (level == level[:, None] - 1)
    parents = candidates.argmax(axis=1)
    parents[root] = -1
    return SpanningTree(root=root, parents=tuple(parents.tolist()), depth=int(level.max()))


def regular_tree_graph(d: int) -> DiGraph:
    """Cubic graph on ``2**d`` nodes built from a complete binary tree.

    Node 0 is an auxiliary root joined to the binary-tree root; nodes
    ``1..2**d - 1`` hold the tree in heap order.  The leaves are joined
    left-to-right by a path, and the two outer leaves are joined to node 0,
    so every node ends with degree exactly 3.  Each undirected edge is
    stored as two directed edges.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    m = 2 ** d
    inner = np.arange(1, m // 2)
    leaves = np.arange(m // 2, m)
    ends = np.concatenate(([0, 0, 0], inner, inner, leaves[:-1]))
    others = np.concatenate(([1, leaves[0], leaves[-1]], 2 * inner, 2 * inner + 1, leaves[1:]))
    adjacency = np.zeros((m, m), dtype=bool)
    adjacency[ends, others] = adjacency[others, ends] = True
    return DiGraph.from_adjacency(adjacency)


def _check_edge_prob(extra_edge_prob: float) -> None:
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise ValueError(f"extra_edge_prob={extra_edge_prob} must lie in [0, 1]")


def random_rooted_graph(m: int, extra_edge_prob: float = 0.0, seed=0) -> DiGraph:
    """Random rooted digraph: a random recursive tree plus independent extra edges.

    The root is chosen uniformly; with ``extra_edge_prob=0`` the result has
    exactly ``m-1`` edges, with ``extra_edge_prob=1`` it is the complete
    digraph without self-loops.  Always rooted by construction.  The node
    ``order[k]`` joins the tree under ``order[picks[k-1]]``, a uniform pick
    among the ``k`` nodes placed before it.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    _check_edge_prob(extra_edge_prob)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    root = int(rng.integers(m))
    others = np.delete(np.arange(m), root)
    order = np.concatenate(([root], others[rng.permutation(m - 1)]))
    picks = rng.integers(0, np.arange(1, m))
    adjacency = np.zeros((m, m), dtype=bool)
    adjacency[order[1:], order[picks]] = True
    if extra_edge_prob > 0.0:
        adjacency |= (rng.random((m, m)) < extra_edge_prob).T
        np.fill_diagonal(adjacency, False)
    return DiGraph.from_adjacency(adjacency)


@dataclass(frozen=True)
class GraphSequence:
    """Time-indexed rooted graphs: ``graph_at(t)`` is defined for every ``t >= 0``.

    A static or periodic sequence cycles its ``graphs``.  A random-rooted
    sequence has no ``graphs``; it regenerates a seeded graph per step, so
    adjoint windows may look arbitrarily far past any simulation horizon.
    """

    m: int
    graphs: tuple = ()
    seed: int = 0
    extra_edge_prob: float = 0.0
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @staticmethod
    def static(graph: DiGraph) -> "GraphSequence":
        if not roots(graph):
            raise NotRooted("static graph is not rooted")
        return GraphSequence(m=graph.m, graphs=(graph,))

    @staticmethod
    def periodic(graphs) -> "GraphSequence":
        graphs = tuple(graphs)
        if not graphs:
            raise ValueError("periodic sequence needs at least one graph")
        for idx, g in enumerate(graphs):
            if not roots(g):
                raise NotRooted(f"graph at position {idx} is not rooted")
            if g.m != graphs[0].m:
                raise ValueError("all graphs in a sequence must share m")
        return GraphSequence(m=graphs[0].m, graphs=graphs)

    @staticmethod
    def random_rooted(m: int, extra_edge_prob: float, seed: int) -> "GraphSequence":
        _check_edge_prob(extra_edge_prob)
        return GraphSequence(m=m, seed=int(seed), extra_edge_prob=float(extra_edge_prob))

    def graph_at(self, t: int) -> DiGraph:
        if t < 0:
            raise ValueError("t must be >= 0")
        if self.graphs:
            return self.graphs[t % len(self.graphs)]
        g = self._cache.get(t)
        if g is None:
            g = random_rooted_graph(self.m, self.extra_edge_prob,
                                    substream(self.seed, "graph", t))
            self._cache[t] = g
        return g
