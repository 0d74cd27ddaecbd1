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

# roots and bfs_spanning_tree are not called here: compliance searches a whole
# block through _rooted_trees.  They stay bound because perfbench/spans.py
# patches them on this module.
from .graphs import (DiGraph, GraphSequence, SpanningTree, _rooted_trees,  # noqa: F401
                     bfs_spanning_tree, roots)

ROW_SUM_TOL = 1e-12
COLUMN_SUM_TOL = 1e-12

# Largest (steps, m, m) stack of matrix entries that a random-rooted sequence
# builds, and that compliance checks, at once: 7 steps at m = 96, and one step
# from m = 256 on.
_BLOCK_ENTRIES = 1 << 16

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
        _check_row_stochastic(a)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def m(self) -> int:
        return self.entries.shape[0]


def _check_row_stochastic(a: np.ndarray) -> None:
    """Raise ``ValueError`` unless every matrix of the ``(..., m, m)`` stack is row-stochastic."""
    if not np.isfinite(a).all():
        raise ValueError("entries must be finite")
    if (a < 0).any():
        raise ValueError("entries must be nonnegative")
    err = np.abs(a.sum(axis=-1) - 1.0).max()
    if err > ROW_SUM_TOL:
        raise ValueError(f"row sums off by {err:.3e} > {ROW_SUM_TOL}")


def _absorb_row_residue(a: np.ndarray) -> np.ndarray:
    # The diagonal is positive in every scheme here, so it can take the
    # rounding residue without changing the sparsity pattern.
    diag = np.arange(a.shape[-1])
    a[..., diag, diag] += 1.0 - a.sum(axis=-1)
    return a


def _equal_neighbor_entries(adjacency: np.ndarray) -> np.ndarray:
    """Equal-neighbor weights of an ``(..., m, m)`` stack of in-adjacencies.

    Each row is divided by its own sum, so a stack gives every matrix the
    bits it gets alone.
    """
    a = adjacency.astype(float)
    diag = np.arange(a.shape[-1])
    a[..., diag, diag] = 1.0
    a /= a.sum(axis=-1, keepdims=True)
    return _absorb_row_residue(a)


def equal_neighbor_weights(g: DiGraph) -> RowStochasticMatrix:
    """Each agent averages uniformly over its in-neighbors and itself."""
    return RowStochasticMatrix(_equal_neighbor_entries(g.adjacency))


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


def _support_adjacency(a: np.ndarray) -> np.ndarray:
    """Positive off-diagonal entries of an ``(..., m, m)`` stack, as in-adjacencies."""
    support = a > 0.0
    diag = np.arange(a.shape[-1])
    support[..., diag, diag] = False
    return support


def _scheme_entries(scheme: str, adjacency: np.ndarray, params: dict) -> np.ndarray:
    """Row-stochastic ``(s, m, m)`` matrices the scheme builds on a stack of graphs."""
    if scheme == "equal-neighbor":
        a = _equal_neighbor_entries(adjacency)
        _check_row_stochastic(a)
        return a
    return np.stack([_BUILDERS[scheme](DiGraph.from_adjacency(x), params).entries
                     for x in adjacency])


def _row_supports(a: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Row-major nonzeros of each matrix of an ``(s, m, m)`` stack.

    One ``(rows, cols, weights, row starts)`` tuple per matrix, the CSR-style
    form the decrement kernel gathers from.  Raises ``ValueError`` if a row
    has no nonzero entry.
    """
    s, m = a.shape[:2]
    flat = np.flatnonzero(a != 0.0)
    step_rows, cols = np.divmod(flat, m)
    counts = np.bincount(step_rows, minlength=s * m).reshape(s, m)
    if not counts.all():
        raise ValueError("every row of A needs a nonzero entry")
    weights = a.reshape(-1)[flat]
    starts = np.cumsum(counts, axis=1) - counts
    ends = np.cumsum(counts.sum(axis=1)).tolist()
    out = []
    lo = 0
    for k, hi in enumerate(ends):
        out.append((step_rows[lo:hi] - k * m, cols[lo:hi], weights[lo:hi], starts[k]))
        lo = hi
    return out


def _row_support(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """Row-major nonzeros of the matrix ``a`` as ``(rows, cols, weights, row starts)``."""
    return _row_supports(a[None])[0]


def _dense(support: tuple[np.ndarray, ...], m: int) -> np.ndarray:
    """The ``m x m`` matrix of a row support; scattering into zeros rebuilds it exactly."""
    rows, cols, weights, _ = support
    a = np.zeros((m, m))
    a[rows, cols] = weights
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class MatrixSequence:
    """Time-indexed row-stochastic matrices; ``matrix_at(t)`` defined for every ``t >= 0``.

    ``matrices`` is a cycle: an explicit custom list, or one matrix per graph
    of a static or periodic graph sequence, built once by the scheme.  On a
    random-rooted graph sequence ``matrices`` is empty and the scheme builds
    the steps from their graphs, a block of consecutive steps at a time (at
    most ``_BLOCK_ENTRIES`` matrix entries).  Only each step's row support
    is kept, about ``nnz`` entries rather than ``m**2``;
    :meth:`matrix_at` scatters it back into the dense matrix.  Without a
    graph sequence the graphs are the positive off-diagonal support of the
    matrices.
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

    @property
    def block_steps(self) -> int:
        """Steps per block: as many ``m x m`` matrices as fit in ``_BLOCK_ENTRIES``, at least one."""
        return max(1, _BLOCK_ENTRIES // (self.m * self.m))

    def graph_at(self, t: int) -> DiGraph:
        if self.graph_seq is not None:
            return self.graph_seq.graph_at(t)
        return DiGraph.from_adjacency(_support_adjacency(self.matrix_at(t)))

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
        return _dense(self.row_support(t), self.m)

    def row_support(self, t: int) -> tuple[np.ndarray, ...]:
        """Row-major nonzeros of ``matrix_at(t)`` as ``(rows, cols, weights, row starts)``.

        A random-rooted step not yet built is built with the rest of its
        block, the steps ``t - t % block_steps`` onwards.
        """
        if t < 0:
            raise ValueError("t must be >= 0")
        if self.matrices:
            return _row_support(self.matrix_at(t))
        support = self._cache.get(t)
        if support is None:
            start = t - t % self.block_steps
            self.stack([u for u in range(start, start + self.block_steps)
                        if u not in self._cache])
            support = self._cache[t]
        return support

    def stack(self, steps) -> tuple[np.ndarray, np.ndarray]:
        """Matrices and graph in-adjacencies of ``steps``, as two ``(len(steps), m, m)`` stacks.

        On a random-rooted sequence this draws each step's graph and builds
        its matrix, all steps at once, and keeps each step's row support.
        """
        if self.graph_seq is None:
            a = np.stack([self.matrix_at(t) for t in steps])
            return a, _support_adjacency(a)
        adjacency = np.stack([self.graph_seq.graph_at(t).adjacency for t in steps])
        if self.matrices:
            return np.stack([self.matrix_at(t) for t in steps]), adjacency
        a = _scheme_entries(self.scheme, adjacency, self.params)
        self._cache.update(zip(steps, _row_supports(a)))
        return a, adjacency


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
    deterministic BFS tree from the smallest-index root.  The steps are
    checked a block at a time (:attr:`MatrixSequence.block_steps`): every
    check is one reduction over the block's stack, and the roots and trees
    of all its graphs are one batched search.  Every check is exact, so the
    report is the one a step-by-step loop gives.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    strong_ok = True
    violation: str | None = None
    beta = np.inf
    doubly = True
    trees: list[SpanningTree] = []
    steps = seq.distinct_steps(horizon)
    nodes = np.arange(seq.m)
    for start in range(0, len(steps), seq.block_steps):
        ts = steps[start:start + seq.block_steps]
        a, adjacency = seq.stack(ts)
        # Written so that a NaN or infinite entry, whose row sum is not
        # finite, fails the row-sum test as well.
        stochastic = ~(a < 0).any(axis=(1, 2)) & (
            np.abs(a.sum(axis=2) - 1.0).max(axis=1) <= ROW_SUM_TOL)
        diag = a[:, nodes, nodes]
        positive_diag = ~(diag.min(axis=1) <= 0.0)
        columns = np.abs(a.sum(axis=1) - 1.0).max(axis=1) <= COLUMN_SUM_TOL
        counts, tree_roots, parents, depths = _rooted_trees(adjacency)
        # Weight of each node's tree edge from its parent; +inf at the root.
        tree_entries = np.where(parents >= 0,
                                a[np.arange(len(ts))[:, None], nodes, parents], np.inf)
        positive_tree = ~(tree_entries.min(axis=1) <= 0.0)
        strong = (counts == seq.m) & ~(adjacency & ~(a > 0.0)).any(axis=(1, 2))

        # The steps before the block's first failing one count; that one
        # names the violation by the first check it fails.
        passed = stochastic & positive_diag & (counts > 0) & positive_tree
        n_pass = len(ts) if passed.all() else int(passed.argmin())
        doubly = doubly and bool(columns[:n_pass].all())
        if n_pass:
            beta = min(beta, float(diag[:n_pass].min()), float(tree_entries[:n_pass].min()))
            strong_ok = strong_ok and bool(strong[:n_pass].all())
            trees.extend(SpanningTree(root=int(tree_roots[k]), parents=tuple(parents[k].tolist()),
                                      depth=int(depths[k])) for k in range(n_pass))
        if n_pass < len(ts):
            k, t = n_pass, ts[n_pass]
            if not stochastic[k]:
                violation = f"t={t}: matrix is not row-stochastic"
            elif not positive_diag[k]:
                violation = f"t={t}: diagonal entry {int(diag[k].argmin())} is not positive"
            else:
                doubly = doubly and bool(columns[k])
                if not counts[k]:
                    violation = f"t={t}: graph is not rooted"
                else:
                    i = int(tree_entries[k].argmin())
                    violation = f"t={t}: zero weight on tree edge ({parents[k, i]},{i})"
            break

    if violation is not None:
        return ComplianceReport(level="neither", beta=0.0, doubly_stochastic=doubly,
                                trees=tuple(trees), p_star=0, horizon=horizon,
                                violation=violation)
    level = "strong" if strong_ok else "rooted"
    p_star = max(tree.depth for tree in trees) if trees else 0
    return ComplianceReport(level=level, beta=float(beta), doubly_stochastic=doubly,
                            trees=tuple(trees), p_star=max(p_star, 1), horizon=horizon,
                            violation=None)
