"""Absolute probability sequences for row-stochastic matrix chains.

A sequence of stochastic vectors ``pi(t)`` is adjoint to a matrix chain
``A(t)`` when ``pi'(t) = pi'(t+1) A(t)`` for all ``t``.  For doubly
stochastic chains the uniform vector works at every step.  For ergodic
chains the backward products ``A(t+T-1)...A(t)`` collapse to a rank-one
matrix ``1 phi'(t)`` and the vectors ``phi(t)`` form the unique adjoint
sequence; this module computes them numerically and validates the defining
relation step by step.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .seeding import substream
from .weights import MatrixSequence

STOCHASTIC_TOL = 1e-12
RESIDUAL_TOL = 1e-8
DEFAULT_SPREAD_TOL = 1e-10
DEFAULT_MAX_WINDOW = 2 ** 14
FIRST_WINDOW = 8  # backward products start this long and double


class NotDoublyStochastic(ValueError):
    pass


class NotErgodicWithinWindow(RuntimeError):
    """Backward products did not collapse to rank one within the window cap."""


class AdjointResidualTooLarge(RuntimeError):
    pass


@dataclass(frozen=True)
class AbsoluteProbabilitySequence:
    """Stochastic vectors ``pi(0..horizon)`` with per-step L1 residuals.

    ``residuals[t]`` is ``|| pi(t) - A(t)' pi(t+1) ||_1``; construction
    rejects any residual above 1e-8.
    """

    vectors: np.ndarray
    residuals: np.ndarray
    method: str

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float)
        r = np.array(self.residuals, dtype=float)
        if v.ndim != 2:
            raise ValueError("vectors must be a (horizon+1, m) array")
        if (v < 0).any() or np.abs(v.sum(axis=1) - 1.0).max() > STOCHASTIC_TOL:
            raise ValueError("each pi(t) must be stochastic within 1e-12")
        if r.size and r.max() > RESIDUAL_TOL:
            raise AdjointResidualTooLarge(
                f"max adjoint residual {r.max():.3e} exceeds {RESIDUAL_TOL}")
        v.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "residuals", r)

    @property
    def m(self) -> int:
        return self.vectors.shape[1]

    @property
    def horizon(self) -> int:
        return self.vectors.shape[0] - 1

    @property
    def delta(self) -> float:
        """Minimum entry over the stored horizon; at most 1/m."""
        return float(self.vectors.min())


def adjoint_residuals(vectors: np.ndarray, seq: MatrixSequence) -> np.ndarray:
    """L1 defect of the adjoint relation at each step."""
    horizon = vectors.shape[0] - 1
    out = np.empty(horizon)
    for t in range(horizon):
        out[t] = np.abs(vectors[t] - seq.matrix_at(t).T @ vectors[t + 1]).sum()
    return out


def uniform_adjoint(seq: MatrixSequence, horizon: int) -> AbsoluteProbabilitySequence:
    """The uniform sequence ``pi(t) = 1/m``; valid only for doubly stochastic chains."""
    m = seq.m
    for t in seq.distinct_steps(horizon):
        a = seq.matrix_at(t)
        err = np.abs(a.sum(axis=0) - 1.0).max()
        if err > STOCHASTIC_TOL:
            raise NotDoublyStochastic(f"t={t}: column sums off by {err:.3e}")
    vectors = np.full((horizon + 1, m), 1.0 / m)
    return AbsoluteProbabilitySequence(vectors=vectors,
                                       residuals=adjoint_residuals(vectors, seq),
                                       method="uniform")


def window_averaged_product(seq: MatrixSequence, t: int, window: int) -> tuple[np.ndarray, float]:
    """Row mean of ``A(t+window-1)...A(t)`` and the largest column spread of the product."""
    p = seq.matrix_at(t)
    for step in range(1, window):
        p = seq.matrix_at(t + step) @ p
    spread = float((p.max(axis=0) - p.min(axis=0)).max())
    return p.mean(axis=0), spread


def backward_product_adjoint(seq: MatrixSequence, t: int,
                             spread_tol: float = DEFAULT_SPREAD_TOL,
                             max_window: int = DEFAULT_MAX_WINDOW) -> np.ndarray:
    """Limit row of the backward products starting at ``t``.

    Accumulates ``P = A(t+T-1)...A(t)`` with ``T`` doubled from
    ``FIRST_WINDOW`` until the largest column spread of ``P`` falls below
    ``spread_tol``; the returned vector is the arithmetic mean of the rows of
    ``P``.  Because products of stochastic matrices only shrink column
    ranges, every entry of the true limit lies inside the final column
    envelope, so the result is within ``spread_tol`` of it entrywise.
    """
    if spread_tol <= 0:
        raise ValueError("spread_tol must be positive")
    if max_window < FIRST_WINDOW:
        raise ValueError(f"max_window must be at least {FIRST_WINDOW}, not {max_window}")
    p = None
    length = 0
    window = FIRST_WINDOW
    while window <= max_window:
        start = t + length
        for step in range(start, t + window):
            a = seq.matrix_at(step)
            p = a if p is None else a @ p
        length = window
        spread = float((p.max(axis=0) - p.min(axis=0)).max())
        if spread <= spread_tol:
            return p.mean(axis=0)
        window *= 2
    raise NotErgodicWithinWindow(
        f"t={t}: column spread {spread:.3e} > {spread_tol:.1e} after window {length}")


def assemble_adjoint(seq: MatrixSequence, horizon: int,
                     spread_tol: float = DEFAULT_SPREAD_TOL,
                     max_window: int = DEFAULT_MAX_WINDOW) -> AbsoluteProbabilitySequence:
    """Adjoint sequence over ``t = 0..horizon`` from backward products.

    One backward product anchors ``pi(horizon)`` and the rest of the
    sequence follows from the exact recursion ``pi(t) = A(t)' pi(t+1)``,
    which the true limit vectors satisfy identically; stochastic-transpose
    contraction keeps every ``pi(t)`` within ``m * spread_tol`` (L1) of the
    per-step product limit.
    """
    vectors = np.empty((horizon + 1, seq.m))
    vectors[horizon] = backward_product_adjoint(seq, horizon, spread_tol, max_window)
    for t in range(horizon - 1, -1, -1):
        vectors[t] = seq.matrix_at(t).T @ vectors[t + 1]
    return AbsoluteProbabilitySequence(vectors=vectors,
                                       residuals=adjoint_residuals(vectors, seq),
                                       method="backward-product")


def stationary_adjoint(seq: MatrixSequence, horizon: int) -> AbsoluteProbabilitySequence:
    """Constant adjoint sequence for a constant matrix chain.

    Computes the left eigenvector of ``A(0)`` at eigenvalue 1 and tiles it;
    the constructed sequence still has to pass the residual validation, so a
    chain without a unique positive stationary vector is rejected there.
    """
    a = seq.matrix_at(0)
    for t in seq.distinct_steps(horizon + 1)[1:]:
        if not np.array_equal(seq.matrix_at(t), a):
            raise ValueError("stationary method needs a constant matrix sequence")
    vals, vecs = np.linalg.eig(a.T)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, idx])
    if v.sum() < 0:
        v = -v
    if v.min() < -1e-10:
        raise ValueError("stationary vector has negative entries; chain is not ergodic")
    v = np.clip(v, 0.0, None)
    v = v / v.sum()
    vectors = np.tile(v, (horizon + 1, 1))
    return AbsoluteProbabilitySequence(vectors=vectors,
                                       residuals=adjoint_residuals(vectors, seq),
                                       method="stationary")


def permutation_counterexample(m: int, seed: int, horizon: int = 16):
    """A permutation chain with two distinct valid adjoint sequences.

    Permutation matrices are invertible with stochastic inverses, so any
    stochastic start ``u`` extends to an adjoint sequence via
    ``pi(t+1) = A(t) pi(t)``; two different starts give two sequences that
    satisfy the defining relation with exactly zero residual yet differ at
    ``t = 0``.  Returns ``(matrix sequence, first sequence, second sequence)``.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    rng = substream(seed, "permutation")
    eye = np.eye(m)
    mats = [eye[rng.permutation(m)] for _ in range(horizon)]
    seq = MatrixSequence.custom(mats)

    def extend(u: np.ndarray) -> np.ndarray:
        vectors = np.empty((horizon + 1, m))
        vectors[0] = u
        for t in range(horizon):
            vectors[t + 1] = mats[t] @ vectors[t]
        return vectors

    u = rng.random(m) + 0.1
    u /= u.sum()
    v = rng.random(m) + 0.1
    v /= v.sum()
    while np.abs(u - v).max() <= 1e-6:  # pragma: no cover - random ties are negligible
        v = rng.random(m) + 0.1
        v /= v.sum()
    sequences = []
    for start in (u, v):
        vectors = extend(start)
        sequences.append(AbsoluteProbabilitySequence(
            vectors=vectors, residuals=adjoint_residuals(vectors, seq),
            method="user-supplied"))
    return seq, sequences[0], sequences[1]


def write_adjoint_csv(aps: AbsoluteProbabilitySequence, path) -> None:
    """CSV export with columns ``t, i, pi, residual_l1`` (residual blank at the last t).

    The bytes are those of ``csv.writer`` (CRLF line ends; no cell needs
    quoting), but each step's block is one ``join`` written with one call.
    The ``,i,pi,`` cells of a step come from one ``%`` pass over a template
    and are reused while the vector repeats bit for bit (``tobytes``, so
    ``-0.0`` and ``0.0`` stay apart), as uniform and stationary sequences do
    on every step.
    """
    template = "\n".join(f",{i},%r," for i in range(aps.m))
    residuals = list(map(repr, aps.residuals[:aps.horizon].tolist())) + [""]
    key = None
    with open(path, "w", newline="") as fh:
        fh.write("t,i,pi,residual_l1\r\n")
        for t in range(aps.horizon + 1):
            vector, resid = aps.vectors[t], residuals[t]
            if vector.tobytes() != key:
                key = vector.tobytes()
                cells = (template % tuple(vector.tolist())).split("\n")
            fh.write(f"{t}" + f"{resid}\r\n{t}".join(cells) + f"{resid}\r\n")


def write_adjoint_sidecar(aps: AbsoluteProbabilitySequence, path) -> None:
    with open(path, "w") as fh:
        json.dump({"method": aps.method, "delta": aps.delta}, fh, indent=2, sort_keys=True)
        fh.write("\n")
