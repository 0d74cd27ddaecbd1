"""Row-stochastic weight matrices paired with graph sequences.

Builders produce matrices whose positive entries sit exactly on the graph
edges plus the diagonal.  :func:`verify_compliance` certifies which level of
structural conditions a sequence meets and extracts the uniform positivity
bound ``beta`` together with the spanning trees that witness it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import DiGraph, GraphSequence, SpanningTree, bfs_spanning_tree, roots

ROW_SUM_TOL = 1e-12
COLUMN_SUM_TOL = 1e-12

SCHEMES = ("equal-neighbor", "lazy-metropolis", "laplacian", "quarter", "custom")


class GammaTooSmall(ValueError):
    pass


class AsymmetricGraph(ValueError):
    pass


class NotThreeRegular(ValueError):
    pass


@dataclass(frozen=True)
class RowStochasticMatrix:
    """Dense finite nonnegative matrix whose rows each sum to 1 within 1e-12."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix")
        if not np.isfinite(a).all():
            raise ValueError("entries must be finite")
        if (a < 0).any():
            raise ValueError("entries must be nonnegative")
        err = np.abs(a.sum(axis=1) - 1.0).max()
        if err > ROW_SUM_TOL:
            raise ValueError(f"row sums off by {err:.3e} > {ROW_SUM_TOL}")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def m(self) -> int:
        return self.entries.shape[0]


def _absorb_row_residue(a: np.ndarray) -> np.ndarray:
    # The diagonal is positive in every scheme here, so it can take the
    # rounding residue without changing the sparsity pattern.
    resid = 1.0 - a.sum(axis=1)
    a[np.diag_indices_from(a)] += resid
    return a


def equal_neighbor_weights(g: DiGraph) -> RowStochasticMatrix:
    """Each agent averages uniformly over its in-neighbors and itself."""
    a = g.in_adjacency()
    np.fill_diagonal(a, 1.0)
    a /= a.sum(axis=1, keepdims=True)
    return RowStochasticMatrix(_absorb_row_residue(a))


def laplacian_weights(g: DiGraph, gamma: float) -> RowStochasticMatrix:
    """``I - L/gamma`` for the graph Laplacian ``L``; needs ``gamma > m``.

    Requires a symmetric edge set since the Laplacian scheme models
    bidirectional exchange; the result is then doubly stochastic.
    """
    if gamma <= g.m:
        raise GammaTooSmall(f"gamma={gamma} must exceed m={g.m}")
    if not g.is_symmetric:
        raise AsymmetricGraph("laplacian weights need a symmetric edge set")
    a = g.in_adjacency() / gamma
    a[np.diag_indices_from(a)] = 1.0 - g.adjacency.sum(axis=1) / gamma
    return RowStochasticMatrix(_absorb_row_residue(a))


def regular_quarter_weights(g: DiGraph) -> RowStochasticMatrix:
    """Weight 1/4 on the diagonal and every edge of a 3-regular symmetric graph."""
    if not g.is_symmetric:
        raise NotThreeRegular("quarter weights need a symmetric edge set")
    if (g.adjacency.sum(axis=1) != 3).any():
        raise NotThreeRegular("every node must have degree exactly 3")
    a = 0.25 * (g.in_adjacency() + np.eye(g.m))
    return RowStochasticMatrix(a)


def lazy_metropolis_weights(g: DiGraph) -> RowStochasticMatrix:
    """Lazy Metropolis weights: ``1/(2 max(deg_i, deg_j))`` on edges, rest on the diagonal.

    The 1/2 laziness keeps the diagonal at least 1/2; symmetry of the
    off-diagonal entries makes the matrix doubly stochastic.
    """
    if not g.is_symmetric:
        raise AsymmetricGraph("lazy metropolis weights need a symmetric edge set")
    deg = g.adjacency.sum(axis=1)
    receivers, senders = np.nonzero(g.adjacency)
    a = np.zeros((g.m, g.m))
    a[receivers, senders] = 1.0 / (2.0 * np.maximum(deg[receivers], deg[senders]))
    a[np.diag_indices_from(a)] = 1.0 - a.sum(axis=1)
    return RowStochasticMatrix(a)


_BUILDERS = {
    "equal-neighbor": lambda g, p: equal_neighbor_weights(g),
    "lazy-metropolis": lambda g, p: lazy_metropolis_weights(g),
    "laplacian": lambda g, p: laplacian_weights(g, p["gamma"]),
    "quarter": lambda g, p: regular_quarter_weights(g),
}


def _support_graph(a: np.ndarray) -> DiGraph:
    support = a > 0.0
    np.fill_diagonal(support, False)
    return DiGraph.from_adjacency(support)


@dataclass(frozen=True)
class MatrixSequence:
    """Time-indexed row-stochastic matrices; ``matrix_at(t)`` defined for every ``t >= 0``.

    ``matrices`` is a cycle: an explicit custom list, or one matrix per graph
    of a static or periodic graph sequence, built once by the scheme.  On a
    random-rooted graph sequence ``matrices`` is empty and the scheme builds
    each step's matrix from that step's graph.  Without a graph sequence the
    graphs are the positive off-diagonal support of the matrices.
    """

    scheme: str
    graph_seq: GraphSequence | None = None
    params: dict = field(default_factory=dict)
    matrices: tuple = ()
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @staticmethod
    def from_scheme(graph_seq: GraphSequence, scheme: str, **params) -> "MatrixSequence":
        if scheme not in _BUILDERS:
            raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
        matrices = tuple(_BUILDERS[scheme](g, params) for g in graph_seq.graphs)
        return MatrixSequence(scheme=scheme, graph_seq=graph_seq, params=dict(params),
                              matrices=matrices)

    @staticmethod
    def custom(matrices, graph_seq: GraphSequence | None = None) -> "MatrixSequence":
        mats = tuple(m if isinstance(m, RowStochasticMatrix) else RowStochasticMatrix(m)
                     for m in matrices)
        if not mats:
            raise ValueError("custom sequence needs at least one matrix")
        if any(m.m != mats[0].m for m in mats):
            raise ValueError("all matrices must share m")
        return MatrixSequence(scheme="custom", graph_seq=graph_seq, matrices=mats)

    @property
    def m(self) -> int:
        if self.graph_seq is not None:
            return self.graph_seq.m
        return self.matrices[0].m

    def graph_at(self, t: int) -> DiGraph:
        if self.graph_seq is not None:
            return self.graph_seq.graph_at(t)
        return _support_graph(self.matrix_at(t))

    def distinct_steps(self, horizon: int) -> range:
        """The steps ``t < horizon`` whose (matrix, graph) pair no earlier step repeats.

        Step ``t`` uses the pair of step ``t % len(result)``.  Cyclic matrices
        and graphs repeat after ``lcm(len(matrices), len(graphs))`` steps; on a
        random-rooted graph sequence every step is distinct.
        """
        gseq = self.graph_seq
        if gseq is not None and not gseq.graphs:
            return range(horizon)
        period = math.lcm(len(self.matrices), len(gseq.graphs) if gseq is not None else 1)
        return range(min(period, horizon))

    def matrix_at(self, t: int) -> np.ndarray:
        if t < 0:
            raise ValueError("t must be >= 0")
        if self.matrices:
            return self.matrices[t % len(self.matrices)].entries
        a = self._cache.get(t)
        if a is None:
            a = _BUILDERS[self.scheme](self.graph_seq.graph_at(t), self.params).entries
            self._cache[t] = a
        return a


@dataclass(frozen=True)
class ComplianceReport:
    """Outcome of the structural checks over an initial horizon.

    ``level`` is ``"strong"`` when every graph is strongly connected and all
    its edges carry positive weight, ``"rooted"`` when positive weight is
    only guaranteed on a rooted spanning tree per step, and ``"neither"``
    on the first violation (recorded in ``violation``).  ``beta`` is the
    minimum over diagonal entries and tree-edge weights across the horizon.
    ``trees`` holds one BFS tree per distinct step
    (:meth:`MatrixSequence.distinct_steps`), so on a compliant sequence the
    tree of step ``t`` is ``trees[t % len(trees)]``; after a violation it
    holds the trees of the distinct steps before the failing one.
    """

    level: str
    beta: float
    doubly_stochastic: bool
    trees: tuple
    p_star: int
    horizon: int
    violation: str | None = None

    @property
    def ok(self) -> bool:
        return self.level != "neither"


def verify_compliance(seq: MatrixSequence, horizon: int) -> ComplianceReport:
    """Check row-stochasticity, positive diagonals, rootedness, and edge compliance.

    Covers ``t = 0 .. horizon-1`` by checking each distinct step once, so the
    first failing distinct step is the first failing step.  Strong-level
    compliance additionally needs strong connectivity and positive weight on
    every graph edge; rooted-level compliance needs positive weight on the
    deterministic BFS tree from the smallest-index root.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    strong_ok = True
    violation: str | None = None
    beta = np.inf
    doubly = True
    trees: list[SpanningTree] = []
    for t in seq.distinct_steps(horizon):
        a = seq.matrix_at(t)
        g = seq.graph_at(t)
        # Written so that a NaN or infinite entry, whose row sum is not
        # finite, fails the row-sum test as well.
        if (a < 0).any() or not np.abs(a.sum(axis=1) - 1.0).max() <= ROW_SUM_TOL:
            violation = f"t={t}: matrix is not row-stochastic"
            break
        diag = np.diag(a)
        if diag.min() <= 0.0:
            violation = f"t={t}: diagonal entry {int(diag.argmin())} is not positive"
            break
        doubly = doubly and bool(np.abs(a.sum(axis=0) - 1.0).max() <= COLUMN_SUM_TOL)

        root_set = roots(g)
        if not root_set:
            violation = f"t={t}: graph is not rooted"
            break
        tree = bfs_spanning_tree(g, min(root_set))
        parents = np.array(tree.parents)
        children = np.flatnonzero(parents >= 0)
        tree_entries = a[children, parents[children]]
        if tree_entries.size and tree_entries.min() <= 0.0:
            i = children[tree_entries.argmin()]
            violation = f"t={t}: zero weight on tree edge ({parents[i]},{i})"
            break
        trees.append(tree)
        beta = min(beta, float(diag.min()))
        if tree_entries.size:
            beta = min(beta, float(tree_entries.min()))

        strong_ok = strong_ok and len(root_set) == g.m and bool((a[g.adjacency] > 0.0).all())

    if violation is not None:
        return ComplianceReport(level="neither", beta=0.0, doubly_stochastic=doubly,
                                trees=tuple(trees), p_star=0, horizon=horizon,
                                violation=violation)
    level = "strong" if strong_ok else "rooted"
    p_star = max(tree.depth for tree in trees) if trees else 0
    return ComplianceReport(level=level, beta=float(beta), doubly_stochastic=doubly,
                            trees=tuple(trees), p_star=max(p_star, 1), horizon=horizon,
                            violation=None)
