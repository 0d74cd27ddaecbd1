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

from .codec import write_bits_csv
from .seeding import substream
from .weights import COLUMN_SUM_TOL, MatrixSequence, _column_errors

STOCHASTIC_TOL = 1e-12
RESIDUAL_TOL = 1e-8
SPREAD_TOL = 1e-10  # a backward product has collapsed once its column spread is this small
FIRST_WINDOW = 8  # backward products start this long and double
MAX_WINDOW = 2 ** 14


class NotDoublyStochastic(ValueError):
    pass


class NotErgodicWithinWindow(RuntimeError):
    """Backward products did not collapse to rank one within the window cap."""


class AdjointResidualTooLarge(RuntimeError):
    pass


@dataclass(frozen=True)
class AbsoluteProbabilitySequence:
    """Stochastic vectors ``pi(0..horizon)`` with per-step L1 residuals.

    ``residuals[t]`` is ``|| pi(t) - A(t)' pi(t+1) ||_1``, one per step below
    the horizon; construction rejects any other count and any residual above
    1e-8.  ``adjoint.csv`` holds the vectors where they change, each entry
    as the 16 hex digits of its binary64 bits (:func:`write_adjoint_csv`),
    and ``adjoint.json`` the residuals.
    """

    vectors: np.ndarray
    residuals: np.ndarray
    method: str

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float)
        r = np.array(self.residuals, dtype=float)
        if v.ndim != 2:
            raise ValueError("vectors must be a (horizon+1, m) array")
        if r.shape != (len(v) - 1,):
            raise ValueError(f"{len(v)} vectors need {len(v) - 1} residuals, not {r.size}")
        # NaN compares false with everything, so the checks below would pass it.
        if not np.isfinite(v).all():
            raise ValueError("each pi(t) must be finite")
        if not np.isfinite(r).all():
            raise AdjointResidualTooLarge("an adjoint residual is not finite")
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
    for t, a in enumerate(seq.dense_steps(range(horizon))):
        out[t] = np.abs(vectors[t] - a.T @ vectors[t + 1]).sum()
    return out


def uniform_adjoint(seq: MatrixSequence, horizon: int) -> AbsoluteProbabilitySequence:
    """The uniform sequence ``pi(t) = 1/m``; needs columns summing to 1, as compliance checks."""
    m = seq.m
    for steps, support in seq.supports(len(seq.distinct_steps(horizon))):
        errors = _column_errors(support, m)
        k = int(np.argmin(errors <= COLUMN_SUM_TOL))   # the first failing matrix, if any
        if not errors[k] <= COLUMN_SUM_TOL:
            raise NotDoublyStochastic(f"t={steps[k]}: column sums off by {errors[k]:.3e}")
    return _constant_adjoint(seq, horizon, np.full(m, 1.0 / m), "uniform")


def _constant_adjoint(seq: MatrixSequence, horizon: int, v: np.ndarray,
                      method: str) -> AbsoluteProbabilitySequence:
    """``pi(t) = v`` at every step.  Step ``t`` repeats the matrix of distinct step
    ``t % period`` and the same two vectors, so its residual repeats that step's bits."""
    vectors = np.tile(v, (horizon + 1, 1))
    period = len(seq.distinct_steps(horizon))
    residuals = np.resize(adjoint_residuals(vectors[:period + 1], seq), horizon)
    return AbsoluteProbabilitySequence(vectors=vectors, residuals=residuals, method=method)


def _extend_product(seq: MatrixSequence, p: np.ndarray | None,
                    steps: range) -> tuple[np.ndarray, float]:
    """``A(s)...A(r) p`` over ``steps = range(r, s + 1)`` (``p = None`` starts afresh),
    and the largest column spread of that product."""
    for a in seq.dense_steps(steps):
        p = a.copy() if p is None else a @ p
    return p, float((p.max(axis=0) - p.min(axis=0)).max())


def window_averaged_product(seq: MatrixSequence, t: int, window: int) -> tuple[np.ndarray, float]:
    """Row mean of ``A(t+window-1)...A(t)`` and the largest column spread of the product."""
    p, spread = _extend_product(seq, None, range(t, t + window))
    return p.mean(axis=0), spread


def backward_product_adjoint(seq: MatrixSequence, t: int) -> np.ndarray:
    """Limit row of the backward products starting at ``t``.

    Accumulates ``P = A(t+T-1)...A(t)`` with ``T`` doubled from
    ``FIRST_WINDOW`` (8) until the largest column spread of ``P`` is at most
    ``SPREAD_TOL`` (1e-10); the returned vector is the arithmetic mean of the
    rows of ``P``.  Because products of stochastic matrices only shrink
    column ranges, every entry of the true limit lies inside the final column
    envelope, so the result is within ``SPREAD_TOL`` of it entrywise.  A
    product still wider after ``MAX_WINDOW`` (16384) steps raises
    ``NotErgodicWithinWindow``.
    """
    p = None
    length = 0
    window = FIRST_WINDOW
    while window <= MAX_WINDOW:
        p, spread = _extend_product(seq, p, range(t + length, t + window))
        length = window
        if spread <= SPREAD_TOL:
            return p.mean(axis=0)
        window *= 2
    raise NotErgodicWithinWindow(
        f"t={t}: column spread {spread:.3e} > {SPREAD_TOL:.1e} after window {length}")


def assemble_adjoint(seq: MatrixSequence, horizon: int) -> AbsoluteProbabilitySequence:
    """Adjoint sequence over ``t = 0..horizon`` from backward products.

    One backward product anchors ``pi(horizon)`` and the rest of the
    sequence follows from the exact recursion ``pi(t) = A(t)' pi(t+1)``,
    which the true limit vectors satisfy identically; stochastic-transpose
    contraction keeps every ``pi(t)`` within ``m * SPREAD_TOL`` (L1) of the
    per-step product limit.  Since each ``pi(t)`` is ``A(t)' pi(t+1)`` as
    :func:`adjoint_residuals` forms it, every residual is exactly zero.
    """
    vectors = np.empty((horizon + 1, seq.m))
    vectors[horizon] = backward_product_adjoint(seq, horizon)
    steps = range(horizon - 1, -1, -1)
    for t, a in zip(steps, seq.dense_steps(steps)):
        vectors[t] = a.T @ vectors[t + 1]
    return AbsoluteProbabilitySequence(vectors=vectors, residuals=np.zeros(horizon),
                                       method="backward-product")


def stationary_adjoint(seq: MatrixSequence, horizon: int) -> AbsoluteProbabilitySequence:
    """Constant adjoint sequence for a constant matrix chain.

    Computes the left eigenvector of ``A(0)`` at eigenvalue 1 and tiles it;
    the constructed sequence still has to pass the residual validation, so a
    chain without a unique positive stationary vector is rejected there.
    """
    a = seq.matrix_at(0)
    if not all(np.array_equal(b, a) for b in seq.dense_steps(seq.distinct_steps(horizon + 1))):
        raise ValueError("stationary method needs a constant matrix sequence")
    vals, vecs = np.linalg.eig(a.T)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, idx])
    if v.sum() < 0:
        v = -v
    if v.min() < -1e-10:
        raise ValueError("stationary vector has negative entries; chain is not ergodic")
    v = np.clip(v, 0.0, None)
    return _constant_adjoint(seq, horizon, v / v.sum(), "stationary")


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
    """CSV with header ``t,pi_0,...,pi_{m-1}``: the row ``t,<m bits cells>`` of step 0,
    then of each step whose vector's bytes differ from the previous step's (``-0.0`` is
    not ``0.0``); a reader holds each vector until the next written step.  Each bits
    cell is the entry's big-endian IEEE-754 binary64 pattern as 16 lowercase hex
    digits, ``struct.pack(">d", x).hex()``.  The bytes are ``csv.writer``'s (CRLF line
    ends), written by :func:`codec.write_bits_csv`, the trajectory's codec."""
    bits = np.ascontiguousarray(aps.vectors).view(np.uint64)
    steps = np.flatnonzero(np.append(True, (bits[1:] != bits[:-1]).any(axis=1)))
    write_bits_csv(path, "t," + ",".join(f"pi_{i}" for i in range(aps.m)), aps.vectors[steps],
                   steps)


def write_adjoint_sidecar(aps: AbsoluteProbabilitySequence, path) -> None:
    """JSON ``{delta, method, residual_l1}``; ``residual_l1`` lists each residual once."""
    with open(path, "w") as fh:
        json.dump({"delta": aps.delta, "method": aps.method,
                   "residual_l1": aps.residuals.tolist()}, fh, indent=2, sort_keys=True)
        fh.write("\n")
