"""Row-stochastic weight matrices paired with graph sequences.

Each scheme's builder lays its weights on a whole stack of graphs at once,
exactly on each graph's edges plus the diagonal.  :func:`verify_compliance`
certifies which level of structural conditions a sequence meets and
extracts the uniform positivity bound ``beta`` together with the depth
``p_star`` of the spanning trees that witness it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# roots and bfs_spanning_tree are not called here: compliance searches a whole
# block through _rooted_trees.  They stay bound because perfbench/spans.py
# patches them on this module.
from .graphs import (DiGraph, GraphSequence, _rooted_trees, _symmetric,  # noqa: F401
                     bfs_spanning_tree, roots)

ROW_SUM_TOL = 1e-12
COLUMN_SUM_TOL = 1e-12

# Largest (steps, m, m) stack of matrix entries that a random-rooted sequence
# builds, or densifies, at once: 7 steps at m = 96, and one step from m = 182
# on.  Each such block is kept as one row support, about 9 bytes per nonzero
# and 8 per row (see _row_supports).  A cyclic sequence's decrement gathers at
# most this many state entries at once.
_BLOCK_ENTRIES = 1 << 16

SCHEMES = ("equal-neighbor", "lazy-metropolis", "laplacian", "quarter", "custom")
# The schemes whose builders refuse an asymmetric edge set.
SYMMETRIC_SCHEMES = ("lazy-metropolis", "laplacian", "quarter")


class GammaTooSmall(ValueError):
    pass


class AsymmetricGraph(ValueError):
    pass


class NotThreeRegular(ValueError):
    pass


def _column_dtype(m: int) -> np.dtype:
    """The narrowest unsigned integer type that holds every column index below ``m``."""
    return np.min_scalar_type(max(m - 1, 0))


def _scheme_support(adjacency: np.ndarray, edge, diagonal) -> tuple:
    """Row support (:func:`_row_supports`) of one scheme's weights on an ``(s, m, m)``
    stack of in-adjacencies.

    ``deg[k*m + i]`` is node ``i``'s in-degree in graph ``k``.  The nonzeros
    are each matrix's adjacency-plus-diagonal pattern; the edge from ``j``
    to ``i`` in graph ``k`` sits at row ``k*m + i`` and column ``j``, and
    ``edge(deg, rows, cols)`` gives the weights of all of them, from int64
    row and column indices that the build drops once it is done.  The
    diagonal then takes ``diagonal(deg)``, one value per row, and ``1 -``
    its row's sum, the rounding residue, which leaves the pattern as it is.
    numpy's pairwise row sum groups its terms by where the zeros sit, so
    the rows are summed densely, a chunk at a time in one buffer kept zero
    off the support.
    """
    m = adjacency.shape[-1]
    flat = np.flatnonzero(adjacency | np.eye(m, dtype=bool))
    rows = flat // m
    cols = flat - rows * m
    counts = np.bincount(rows)
    deg = counts - 1
    weights = np.empty(flat.size)
    # The diagonal entries take the edge rule too, which may divide by an
    # isolated node's zero degree, and are then overwritten.
    with np.errstate(divide="ignore"):
        weights[:] = edge(deg, rows, cols)
    node = np.arange(counts.size)
    diag = np.searchsorted(flat, node * m + node % m)
    weights[diag] = diagonal(deg)
    starts = np.cumsum(counts) - counts
    size = min(max(1, _BLOCK_ENTRIES // m), starts.size)
    buf, sums = np.zeros(size * m), np.empty(starts.size)
    for lo in range(0, starts.size, size):
        part = slice(starts[lo], starts[lo + size] if lo + size < starts.size else flat.size)
        buf[flat[part] - lo * m] = weights[part]
        sums[lo:lo + size] = buf.reshape(size, m)[:starts.size - lo].sum(axis=1)
        buf[flat[part] - lo * m] = 0.0
    weights[diag] += 1.0 - sums
    return cols.astype(_column_dtype(m)), weights, starts


# Each scheme's builder takes an (s, m, m) stack of graph in-adjacencies and
# gives the row support (see _row_supports) of its s matrices.

def equal_neighbor_weights(adjacency: np.ndarray) -> tuple:
    """Each agent averages uniformly over its in-neighbors and itself."""
    return _scheme_support(adjacency, lambda deg, rows, _: (1.0 / (deg + 1))[rows],
                           lambda deg: 1.0 / (deg + 1))


def check_gamma(gamma: float, m: int) -> None:
    """``GammaTooSmall`` unless ``m < gamma < inf``, as the laplacian scheme needs."""
    if not m < gamma < math.inf:  # also false for a NaN
        raise GammaTooSmall(f"gamma={gamma} must exceed m={m} and be finite")


def laplacian_weights(adjacency: np.ndarray, gamma: float) -> tuple:
    """``I - L/gamma`` for the graph Laplacian ``L``; needs a finite ``gamma > m``.

    Requires a symmetric edge set since the Laplacian scheme models
    bidirectional exchange; the result is then doubly stochastic.
    """
    check_gamma(gamma, adjacency.shape[-1])
    if not _symmetric(adjacency):
        raise AsymmetricGraph("laplacian weights need a symmetric edge set")
    return _scheme_support(adjacency, lambda *_: 1.0 / gamma, lambda deg: 1.0 - deg / gamma)


def regular_quarter_weights(adjacency: np.ndarray) -> tuple:
    """Weight 1/4 on the diagonal and every edge of a 3-regular symmetric graph."""
    if not _symmetric(adjacency):
        raise NotThreeRegular("quarter weights need a symmetric edge set")
    if (adjacency.sum(axis=-1) != 3).any():
        raise NotThreeRegular("every node must have degree exactly 3")
    return _scheme_support(adjacency, lambda *_: 0.25, lambda deg: 0.25)


def lazy_metropolis_weights(adjacency: np.ndarray) -> tuple:
    """Lazy Metropolis weights: ``1/(2 max(deg_i, deg_j))`` on edges, rest on the diagonal.

    The 1/2 laziness keeps the diagonal at least 1/2; symmetry of the
    off-diagonal entries makes the matrix doubly stochastic.
    """
    if not _symmetric(adjacency):
        raise AsymmetricGraph("lazy metropolis weights need a symmetric edge set")
    m = adjacency.shape[-1]

    def edge(deg, rows, cols):  # the sender of row k*m + i, column j, is node k*m + j
        return 1.0 / (2.0 * np.maximum(deg[rows], deg[rows // m * m + cols]))

    return _scheme_support(adjacency, edge, lambda deg: 0.0)


def _builder(scheme: str):
    """``scheme``'s builder, looked up on this module at each call, so a patched one is used."""
    builders = {"equal-neighbor": equal_neighbor_weights, "laplacian": laplacian_weights,
                "lazy-metropolis": lazy_metropolis_weights, "quarter": regular_quarter_weights}
    if scheme not in builders:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    return builders[scheme]


def _row_supports(a: np.ndarray) -> tuple:
    """Row support of an ``(s, m, m)`` stack, its row-major nonzeros, in CSR form.

    ``(cols, weights, starts)``: entry ``(i, j)`` of matrix ``k`` lies in
    row ``k*m + i``, which begins at ``starts[k*m + i]`` (int64) and ends
    where the next row begins, or at the end.  ``cols`` holds ``j`` in the
    narrowest unsigned type that holds ``m - 1`` (one byte up to
    ``m = 256``) and ``weights`` the float64 entry, so a nonzero takes 9
    bytes and a row 8 more.  A row index, where one is needed, is derived
    from ``starts`` (:func:`_positions`).  Raises ``ValueError`` if a row
    has no nonzero entry.
    """
    s, m = a.shape[:2]
    flat = np.flatnonzero(a)
    rows = flat // m
    counts = np.bincount(rows, minlength=s * m)
    if not counts.all():
        raise ValueError("every row of A needs a nonzero entry")
    return ((flat - rows * m).astype(_column_dtype(m)), a.reshape(-1)[flat],
            np.cumsum(counts) - counts)


def _matrices(support: tuple, lo: int, hi: int, m: int) -> tuple:
    """The row support of a block's matrices ``lo`` to ``hi - 1``: views, row starts from 0."""
    cols, weights, starts = support
    first, end = starts[lo * m], (starts[hi * m] if hi * m < starts.size else cols.size)
    return cols[first:end], weights[first:end], starts[lo * m:hi * m] - first


def _lengths(starts: np.ndarray, end: int) -> np.ndarray:
    """Length of each segment that begins at ``starts``, the last one ending at ``end``."""
    out = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=out[:-1])
    out[-1] = end - starts[-1]
    return out


def _positions(support: tuple, m: int) -> np.ndarray:
    """Row-major position ``(k*m + i)*m + j`` of each nonzero in its ``(s, m, m)`` stack, int64."""
    cols, _, starts = support
    return np.repeat(np.arange(0, starts.size * m, m), _lengths(starts, cols.size)) + cols


def _block_columns(support: tuple, m: int) -> np.ndarray:
    """Column ``k*m + j`` of each nonzero ``(i, j)`` of matrix ``k`` in its block, int64."""
    cols, _, starts = support
    return np.repeat(np.arange(0, starts.size, m), _lengths(starts[::m], cols.size)) + cols


def _row_stochastic(support: tuple, m: int) -> np.ndarray:
    """Per matrix: finite nonnegative weights, rows summing to 1 within ``ROW_SUM_TOL``.

    A NaN or infinite weight fails, as its row sum is not finite.
    """
    _, weights, starts = support
    sums_ok = np.abs(np.add.reduceat(weights, starts) - 1.0) <= ROW_SUM_TOL
    return sums_ok.reshape(-1, m).all(axis=1) & np.logical_and.reduceat(weights >= 0.0,
                                                                         starts[::m])


def _column_errors(support: tuple, m: int) -> np.ndarray:
    """Per matrix of a support with columns ``k*m + j``, the largest column sum's error."""
    columns, weights, starts = support
    sums = np.bincount(columns, weights, minlength=starts.size)
    return np.abs(sums - 1.0).reshape(-1, m).max(axis=1)


def _row_entries(positions: np.ndarray, weights: np.ndarray,
                 targets: np.ndarray) -> np.ndarray:
    """Weight of row ``i`` of matrix ``k`` in column ``targets[k, i]``; 0 off the support.

    ``positions`` (:func:`_positions`) is row-major, so sorted.
    """
    query = np.arange(targets.size) * targets.shape[-1] + targets.ravel()
    pos = np.searchsorted(positions, query).clip(max=positions.size - 1)
    return np.where(positions[pos] == query, weights[pos], 0.0).reshape(targets.shape)


@dataclass(frozen=True)
class MatrixSequence:
    """Time-indexed row-stochastic matrices; ``matrix_at(t)`` defined for every ``t >= 0``.

    ``_cache`` holds the matrices, a row support (:func:`_row_supports`) per
    block: about 9 bytes per nonzero and 8 per row, where a dense matrix
    takes ``8 m^2``.  Block 0 of a cycle of ``period`` matrices, a custom
    list or one per graph of a static or periodic graph sequence, is all of
    them, made once, at construction.  On a random-rooted graph sequence
    ``period`` is 0 and the scheme builds the steps from their graphs,
    ``block_steps`` at a time; a block built on demand, such as the
    adjoint's steps past the horizon, is checked row-stochastic then, and
    compliance checks the blocks it builds.  Without a graph sequence the
    graphs are the positive off-diagonal support of the matrices.
    """

    scheme: str
    m: int
    period: int
    graph_seq: GraphSequence | None = None
    params: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @staticmethod
    def from_scheme(graph_seq: GraphSequence, scheme: str, **params) -> "MatrixSequence":
        build = _builder(scheme)  # rejects an unknown scheme
        graphs = graph_seq.graphs
        cache = {0: build(np.stack([g.adjacency for g in graphs]), **params)} if graphs else {}
        return MatrixSequence(scheme, graph_seq.m, len(graphs), graph_seq, dict(params), cache)

    @staticmethod
    def custom(matrices, graph_seq: GraphSequence | None = None) -> "MatrixSequence":
        """The cycle of ``matrices``, each finite, nonnegative and row-stochastic."""
        mats = [np.array(a, dtype=float) for a in matrices]
        if not mats:
            raise ValueError("custom sequence needs at least one matrix")
        m = len(mats[0]) if mats[0].ndim else 0
        if any(a.shape != (m, m) for a in mats):
            raise ValueError("custom matrices must be square and all of one size")
        if graph_seq is not None and graph_seq.m != m:
            raise ValueError(f"custom matrices are {m}x{m}, but the graph has m={graph_seq.m}")
        support = _row_supports(np.stack(mats))
        if not _row_stochastic(support, m).all():
            raise ValueError(f"entries must be finite and nonnegative, and each row must "
                             f"sum to 1 within {ROW_SUM_TOL}")
        return MatrixSequence("custom", m, len(mats), graph_seq, _cache={0: support})

    @property
    def block_steps(self) -> int:
        """Steps per block: as many ``m x m`` matrices as fit in ``_BLOCK_ENTRIES``, at least one."""
        return max(1, _BLOCK_ENTRIES // (self.m * self.m))

    def graph_at(self, t: int) -> DiGraph:
        if self.graph_seq is not None:
            return self.graph_seq.graph_at(t)
        if t < 0:
            raise ValueError("t must be >= 0")
        m, k = self.m, t % self.period
        support = _matrices(self._cache[0], k, k + 1, m)
        positive = _positions(support, m)[support[1] > 0.0]
        adjacency = np.isin(np.arange(m * m), positive[positive % (m + 1) != 0])
        return DiGraph.from_adjacency(adjacency.reshape(m, m))

    def distinct_steps(self, horizon: int) -> range:
        """The steps ``t < horizon`` whose (matrix, graph) pair no earlier step repeats.

        Step ``t`` uses the pair of step ``t % len(result)``.  Cyclic matrices
        and graphs repeat after ``lcm(period, len(graphs))`` steps; on a
        random-rooted graph sequence every step is distinct.
        """
        graphs = 1 if self.graph_seq is None else len(self.graph_seq.graphs)
        return range(min(math.lcm(self.period, graphs), horizon) if graphs else horizon)

    def matrix_at(self, t: int) -> np.ndarray:
        if t < 0:
            raise ValueError("t must be >= 0")
        a = next(self.dense_steps(range(t, t + 1))).copy()   # not the whole block's buffer
        a.setflags(write=False)
        return a

    def dense_steps(self, steps: range):
        """``matrix_at(t)`` for each ``t`` of a range, read-only.

        The steps are read a block at a time, a whole cycle or ``block_steps``
        random-rooted steps.  A block's matrices from the lowest to the
        highest that the range reads are scattered at once into one buffer,
        sized for the widest such read and zeroed again entry by entry for the
        next block, so a matrix is overwritten once the next block is read:
        copy it to keep it.  ``matrix_at`` thus scatters one matrix.
        """
        size, m = self.period or self.block_steps, self.m
        reads = [(b, [t % size for t in ts])
                 for b, ts in itertools.groupby(steps, lambda t: 0 if self.period else t // size)]
        width = max((max(ks) + 1 - min(ks) for _, ks in reads), default=0)
        buf = np.zeros(width * m * m)
        view = buf.reshape(width, m, m)[:]
        view.setflags(write=False)
        flat = []
        for b, ks in reads:
            lo = min(ks)
            support = self._block(b, lo, max(ks) + 1)
            buf[flat] = 0.0
            flat = _positions(support, m)
            buf[flat] = support[1]
            yield from (view[k - lo] for k in ks)

    def supports(self, horizon: int, n: int = 1):
        """``(steps, support)`` over ``t < horizon``: steps and their matrices' row support.

        One group per random-rooted block, its support's columns shifted to
        ``k*m + j`` (:func:`_block_columns`).  On a cyclic sequence, the
        steps ``r, r + period, ...`` that share matrix ``r``, in groups whose
        nonzeros gather at most ``_BLOCK_ENTRIES`` entries of
        ``n``-coordinate states.
        """
        m = self.m
        if not self.period:
            for start in range(0, horizon, self.block_steps):
                count = min(self.block_steps, horizon - start)
                support = self._block(start // self.block_steps, 0, count)
                yield np.arange(start, start + count), (_block_columns(support, m), *support[1:])
            return
        for r in range(min(self.period, horizon)):
            support = _matrices(self._cache[0], r, r + 1, m)
            steps = np.arange(r, horizon, self.period)
            size = max(1, _BLOCK_ENTRIES // (support[0].size * n))
            for s in range(0, steps.size, size):
                yield steps[s:s + size], support

    def _block(self, b: int, lo: int, hi: int) -> tuple:
        """Matrices ``lo..hi-1`` of block ``b``; a random-rooted one is completed and checked."""
        support = self._cache.get(b)
        have = 0 if support is None else support[2].size // self.m
        if have < hi:
            start = b * self.block_steps + have
            new = self.stack(range(start, (b + 1) * self.block_steps))[0]
            ok = _row_stochastic(new, self.m)
            if not ok.all():
                raise ValueError(f"t={start + int(ok.argmin())}: matrix is not row-stochastic")
            if support is not None:   # columns need no offset; row starts do
                new = tuple(map(np.concatenate, zip(support, (*new[:2],
                                                              new[2] + support[0].size))))
            self._cache[b] = support = new
        return _matrices(support, lo, hi, self.m)

    def stack(self, steps: range) -> tuple[tuple, np.ndarray]:
        """Unchecked row support and ``(len(steps), m, m)`` graph in-adjacencies of a step range.

        A cycle slices its support, repeated if the steps wrap.  A random-rooted sequence
        draws and builds the steps, and caches them if they begin a block cached shorter
        or not at all.
        """
        adjacency = np.stack([self.graph_at(t).adjacency for t in steps])
        if self.period:
            cols, weights, starts = self._cache[0]
            lo = steps[0] % self.period
            reps = -(-(lo + len(steps)) // self.period)
            if reps > 1:
                starts = (starts + cols.size * np.arange(reps)[:, None]).ravel()
                cols, weights = np.tile(cols, reps), np.tile(weights, reps)
            return _matrices((cols, weights, starts), lo, lo + len(steps), self.m), adjacency
        b, first = divmod(steps[0], self.block_steps)
        support = _builder(self.scheme)(adjacency, **self.params)
        if not first and support[2].size >= self._cache.get(b, support)[2].size:
            self._cache[b] = support
        return support, adjacency


@dataclass(frozen=True)
class ComplianceReport:
    """Outcome of the structural checks over an initial horizon.

    ``level`` is ``"strong"`` when every graph is strongly connected and all
    its edges carry positive weight, ``"rooted"`` when positive weight is
    only guaranteed on a rooted spanning tree per step, and ``"neither"``
    on the first violation (recorded in ``violation``).  ``beta`` is the
    minimum over diagonal entries and tree-edge weights across the horizon,
    and ``p_star`` the largest depth of those trees, at least 1.
    """

    level: str
    beta: float
    doubly_stochastic: bool
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
    checked a block at a time (:attr:`MatrixSequence.block_steps`), each
    check once on the block's row support (row sums by ``reduceat``, column
    sums by ``bincount``), and the roots and trees of all its graphs are one
    batched search.  Every check is exact, so the report is the one a
    step-by-step loop gives.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    strong_ok = True
    violation: str | None = None
    beta = np.inf
    doubly = True
    p_star = 1
    steps = seq.distinct_steps(horizon)
    m = seq.m
    for start in range(0, len(steps), seq.block_steps):
        ts = steps[start:start + seq.block_steps]
        support, adjacency = seq.stack(ts)
        _, weights, starts = support
        positions = _positions(support, m)
        nodes = np.broadcast_to(np.arange(m), (len(ts), m))
        stochastic = _row_stochastic(support, m)
        diag = _row_entries(positions, weights, nodes)
        positive_diag = ~(diag.min(axis=1) <= 0.0)
        columns = (_column_errors((_block_columns(support, m), weights, starts), m)
                   <= COLUMN_SUM_TOL)
        counts, _, parents, depths = _rooted_trees(adjacency)
        # Weight of each node's tree edge from its parent; +inf at the root.
        tree_entries = np.where(parents >= 0,
                                _row_entries(positions, weights, parents.clip(min=0)), np.inf)
        positive_tree = ~(tree_entries.min(axis=1) <= 0.0)
        # Strong steps weigh every graph edge: as many positive edge entries as edges.
        weighted = adjacency.reshape(-1)[positions] & (weights > 0.0)
        strong = (counts == m) & (np.add.reduceat(weighted, starts[::m], dtype=np.intp)
                                  == [np.count_nonzero(x) for x in adjacency])

        # The steps before the block's first failing one count; that one
        # names the violation by the first check it fails.
        passed = stochastic & positive_diag & (counts > 0) & positive_tree
        n_pass = len(ts) if passed.all() else int(passed.argmin())
        doubly = doubly and bool(columns[:n_pass].all())
        if n_pass:
            beta = min(beta, float(diag[:n_pass].min()), float(tree_entries[:n_pass].min()))
            strong_ok = strong_ok and bool(strong[:n_pass].all())
            p_star = max(p_star, int(depths[:n_pass].max()))
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
                                p_star=0, horizon=horizon, violation=violation)
    return ComplianceReport(level="strong" if strong_ok else "rooted", beta=float(beta),
                            doubly_stochastic=doubly, p_star=p_star, horizon=horizon)
