"""Quadratic comparison function and geometric rate-bound certificates.

The comparison function ``phi(x, nu) = sum_i nu_i ||x_i - nu'x||^2`` decreases
exactly along a weighted-averaging step: for any stochastic ``A``,

    phi(Ax, nu) = phi(x, A'nu) - (1/2) sum_i nu_i sum_{j,l} A_ij A_il ||x_j - x_l||^2.

Every weighted sum of squared distances goes through one kernel,
:func:`v_function`.  With an adjoint sequence in the second slot the per-step
loss ``D(t)`` is evaluated in ``O(nnz(A) n)`` by :func:`decrement_series` and
is bounded below by ``delta * beta^2 / (4 p*)`` times the squared spread,
which yields the per-step contraction quotient ``q = 1 - delta*beta^2/(4 p*)``
certified here (:func:`contraction_drop`), together with the doubly-stochastic
baseline factor ``1 - beta/(2 m^2)``.  Each formula has one implementation in
this module.
"""
from __future__ import annotations

import math

import numpy as np

from .adjoint import AbsoluteProbabilitySequence
from .certificates import CheckBlock
from .weights import _BLOCK_ENTRIES, MatrixSequence, _lengths


class NegativeWeight(ValueError):
    pass


class VacuousBound(ValueError):
    """The claimed contraction quotient is not strictly between zero and one."""


def weighted_means(weights: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``weights[t] @ states[t]`` of every step; the stacked ``matmul`` rounds each as the
    1-D ``@`` does, while ``vecdot`` and ``einsum`` sum in another order."""
    return np.matmul(weights[..., None, :], states)[..., 0, :]


def v_function(states: np.ndarray, pi: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Weighted squared distances ``sum_i pi_i ||x_i - y||^2`` of each step of a run.

    Shapes: ``states (..., m, n)``, stochastic ``pi (..., m)`` (else
    ``NegativeWeight`` or ``ValueError``), ``y (n,)`` or ``(..., n)``.  Below 8
    coordinates the squared norms add one coordinate at a time, the order in
    which ``(d * d).sum(-1)`` adds them, without its slow loop over a short
    axis; the stacked ``matmul`` rounds as each 1-D ``pi[t] @ sq[t]``.
    """
    pi = np.asarray(pi, dtype=float)
    if (pi < 0).any():
        raise NegativeWeight("weights must be nonnegative")
    if (np.abs(pi.sum(axis=-1) - 1.0) > 1e-12).any():
        raise ValueError("weights must sum to one")
    x = np.asarray(states, dtype=float)
    y = np.asarray(y, dtype=float)[..., None, :]
    if x.shape[-1] < 8:
        d = x[..., 0] - y[..., 0]
        sq = np.multiply(d, d, out=d)
        for k in range(1, x.shape[-1]):
            d = x[..., k] - y[..., k]
            sq += np.multiply(d, d, out=d)
    else:
        d = x - y
        sq = (d * d).sum(axis=-1)
    return np.matmul(pi[..., None, :], sq[..., :, None])[..., 0, 0]


def weighted_variance(states: np.ndarray,
                      weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``phi(x(t), nu(t))`` summed over coordinates, and the centers ``nu(t)'x(t)``.

    ``states (T, m, n)`` and stochastic ``weights (T, m)`` give values ``(T,)``
    and centers ``(T, n)``.  Shifted two-pass form (Chan, Golub & LeVeque
    1983): ``phi = v_function(d, nu, nu'd)`` with ``d = x - x_0``, agent 0's
    state at the same step.  Its terms are nonnegative and its rounding scales
    with the spread, not with ``|x|``; the one-pass moment form
    ``sum nu_i x_i^2 - (nu'x)^2`` cancels near consensus and can go negative.
    """
    states = np.asarray(states, dtype=float)
    weights = np.asarray(weights, dtype=float)
    d = states - states[..., :1, :]
    return v_function(d, weights, weighted_means(weights, d)), weighted_means(weights, states)


# squared_spread prunes only scans of more than this many m*m*n entries;
# below it the pruning's ten or so numpy calls cost more than they save.
_PRUNE_MIN_ENTRIES = 1 << 14
_EPS = float(np.finfo(float).eps)
_SQRT_TINY = math.sqrt(float(np.finfo(float).tiny))


def _row_shifted_decrements(support: tuple[np.ndarray, ...], x: np.ndarray,
                            nu: np.ndarray) -> np.ndarray:
    """Decrement of each state block ``x[s]`` (shape ``(m, n)``) weighted by ``nu[s]``.

    ``support`` (:func:`weights._row_supports`, ``(cols, weights, starts)``)
    is one matrix's, shared by every block, or that of one matrix per block
    with columns ``k*m + j``.  No row index is formed: a row's own value is
    repeated once per nonzero of the row.
    """
    cols, weights, starts = support
    lengths = _lengths(starts, cols.size)
    x = x.reshape(-1, starts.size, x.shape[-1])
    d = x[:, cols] - np.repeat(x, lengths, axis=1)                # d_ij = x_j - x_i
    mu = np.add.reduceat(d * weights[:, None], starts, axis=1)    # mu_i = sum_j A_ij d_ij
    d -= np.repeat(mu, lengths, axis=1)
    per_row = np.add.reduceat(np.einsum("sen,sen->se", d, d) * weights, starts, axis=1)
    return np.einsum("si,si->s", per_row.reshape(nu.shape), nu)


def decrement_series(seq: MatrixSequence, states: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """``D(t) = (1/2) sum_i nu_i sum_{j,l} A_ij A_il ||x_j - x_l||^2`` at every step.

    ``A = A(t)``, ``x = x(t)`` and ``nu = pi(t+1)``; ``states`` has shape
    ``(horizon+1, m, n)`` and ``pi`` ``(horizon+1, m)``, and the result has
    one entry per step ``t < horizon``.  The inner double sum is the
    ``A_i``-weighted variance of the states, evaluated over the support of
    row ``i`` in the row-shifted form ``sum_j A_ij ||d_ij - mu_i||^2`` with
    ``d_ij = x_j - x_i`` and ``mu_i = sum_j A_ij d_ij``.  Every term is
    nonnegative, and shifting by ``x_i`` keeps the differences exact near
    consensus.  The plain centered form ``x_j - (Ax)_i`` is not accurate
    there: the rounding of ``(Ax)_i`` is then as large as the spread.  The
    cost is ``O(nnz(A) n)`` per step, one kernel call per group of steps of
    :meth:`MatrixSequence.supports`: a block of random-rooted steps, or the
    steps that repeat one distinct matrix of a cyclic sequence, at most
    ``2^16`` gathered entries at a time.  Each step's value has the bits it
    gets alone.
    """
    h = states.shape[0] - 1
    out = np.empty(h)
    for steps, support in seq.supports(h, states.shape[2]):
        out[steps] = _row_shifted_decrements(support, states[steps], pi[steps + 1])
    return out


def squared_spread(x: np.ndarray) -> np.ndarray:
    """``max_{j,l} ||x_j - x_l||^2`` of each state of a run.

    ``x`` holds the ``(T, m, n)`` states; the result holds their ``T``
    values.  One coordinate reduces to ``(max - min)^2``, squared with
    Python's float power, which is libm's ``pow`` as numpy's scalar power
    is: numpy squares an array by multiplying, and the two round
    differently.  Otherwise the squared coordinate differences of each
    step's candidate points below are added in coordinate order into one
    ``k x k`` buffer per step.  numpy sums fewer than 8 terms in that same
    order, so for ``n < 8`` each value is
    bit-identical to the maximum of the full ``m x m x n`` difference array
    summed over its last axis.  The steps go a chunk of at most
    ``_BLOCK_ENTRIES`` state entries at a time, and each chunk's buffers
    hold at most that many pairs, or one step's.

    *Pruning* (the diameter argument of Preparata & Shamos, *Computational
    Geometry*, ch. 4).  Take any center ``c`` (here the rounded mean), let
    ``d_i = ||x_i - c||``, ``R = max_i d_i`` attained at ``x_p``, and
    ``L = max_j ||x_j - x_p||``.  ``L`` is the length of a real pair, so the
    spread ``D`` is at least ``L``.  For the ends ``a, b`` of a diametral
    pair the triangle inequality through ``c`` gives
    ``D <= d_a + d_b <= d_a + R``, so ``d_a >= D - R >= L - R``, and the
    same for ``b``.  Only points with ``d_i >= L - R - margin`` can be an
    end of the pair that attains the maximum, so only they enter the buffer.
    Each pair's value comes from the same operations on the same numbers, so
    the maximum over the candidates is the maximum over all pairs, bit for
    bit.  Because the argument holds for every ``c``, the rounding of the
    mean itself never enters.  A step with fewer candidates than the most
    of its chunk is padded with copies of ``x_p``: each added pair is a real
    pair, whose value cannot exceed the maximum.

    *Margin.*  With ``u = 2^-53``, a rounded difference of two floats is
    within ``u`` of the exact difference, relative to its own size, and the
    squares, the sum of ``n`` nonnegative terms and the square root add at
    most ``(n + 2) u`` more.  So the computed ``d_i``, ``R`` and ``L`` are
    each within ``g = (n + 4) u`` of the exact distances, relative to their
    own size, and every computed pairwise value is within ``2 g`` of the
    exact squared distance.  Let ``(a, b)`` attain the computed maximum.  Its
    value is at least that of the pair giving ``L``, so its exact length is
    at least ``L (1 - 3 g)``; through ``c``, the exact distance of ``a`` (and
    of ``b``) from ``c`` is then at least ``L (1 - 3 g) - R (1 + g)``, and
    its computed ``d_a`` at least ``L - R - 4 g (L + R)`` to first order in
    ``g``.  The margin ``8 (n + 4) eps (L + R) = 16 g (L + R)``, with
    ``eps = 2 u``, is four times that, which also covers the higher-order
    terms.  The error thus scales with the distances from ``c``, and ``R``
    includes the distance of the rounded mean from the points, of order
    ``eps * max|x|``: near consensus far from the origin ``L - R`` falls
    below zero and every point is a candidate.  Squares below the smallest
    normal float lose their relative accuracy; the absolute term
    ``sqrt(tiny)`` covers what they can lose.  A non-finite threshold keeps
    every point, so ``inf`` and ``nan`` reach the buffer as before.  A
    scan of at most ``_PRUNE_MIN_ENTRIES`` entries per step is cheaper than
    the pruning and takes every point.
    """
    x = np.asarray(x, dtype=float)
    steps, m, n = x.shape
    if n == 1:
        return np.array([gap ** 2 for gap in (x.max(axis=1) - x.min(axis=1))[:, 0].tolist()])
    out = np.empty(steps)
    size = max(1, _BLOCK_ENTRIES // (m * n))
    for lo in range(0, steps, size):
        chunk = x[lo:lo + size]
        if m * m * n > _PRUNE_MIN_ENTRIES:
            chunk = _spread_candidates(chunk)
        _pairwise_max(chunk, out[lo:lo + size])
    return out


def _spread_candidates(x: np.ndarray) -> np.ndarray:
    """Each step's candidate points (see :func:`squared_spread`), padded with ``x_p``."""
    steps, m, n = x.shape
    y = x - x.mean(axis=1, keepdims=True)
    d = np.sqrt(np.einsum("tmn,tmn->tm", y, y))
    p = d.argmax(axis=1)
    y = x - np.take_along_axis(x, p[:, None, None], axis=1)
    r, ell = d.max(axis=1), np.sqrt(np.einsum("tmn,tmn->tm", y, y).max(axis=1))
    margin = 8.0 * (n + 4) * _EPS * (ell + r) + _SQRT_TINY
    keep = ~(d < (ell - r - margin)[:, None])
    counts = keep.sum(axis=1)
    k = int(counts.max())
    first = np.argsort(~keep, axis=1, kind="stable")[:, :k]  # the candidates, in order
    idx = np.where(np.arange(k) < counts[:, None], first, p[:, None])
    return np.take_along_axis(x, idx[..., None], axis=1)


def _pairwise_max(x: np.ndarray, out: np.ndarray) -> None:
    """``out[t] = max_{j,l} sum_c (x[t, j, c] - x[t, l, c])^2``, in coordinate order."""
    steps, k, n = x.shape
    size = max(1, _BLOCK_ENTRIES // (k * k))
    for lo in range(0, steps, size):
        c = x[lo:lo + size]
        buf = c[:, :, None, 0] - c[:, None, :, 0]
        buf *= buf
        diff = np.empty_like(buf)
        for j in range(1, n):
            np.subtract(c[:, :, None, j], c[:, None, :, j], out=diff)
            diff *= diff
            buf += diff
        out[lo:lo + size] = buf.max(axis=(1, 2))


def contraction_drop(delta: float, beta: float, p_star: int, r: float = 0.0) -> float:
    """Certified per-step drop ``delta*beta^2/(4 p* (r+1)^2)``; the quotient is ``1 - drop``.

    ``r`` is the set-regularity constant of a constrained run and ``0`` for
    the unconstrained quotient (``4 p* * 1.0`` is exact, so ``r = 0`` gives
    the bits of ``delta*beta^2/(4 p*)``).  Raises ``VacuousBound`` unless
    ``0 < 1 - drop < 1``: a drop of at least one, or one so small that the
    quotient rounds to one, certifies nothing.
    """
    drop = delta * beta * beta / (4.0 * p_star * (r + 1.0) ** 2)
    if not 0.0 < 1.0 - drop < 1.0:
        raise VacuousBound(f"contraction quotient 1 - {drop!r} is not in (0, 1); "
                           "check delta/beta/p*/r")
    return drop


def rate_quotient(delta: float, beta: float, p_star: int, r: float = 0.0) -> float:
    """Per-step contraction factor ``1 - delta*beta^2/(4 p* (r+1)^2)``."""
    return 1.0 - contraction_drop(delta, beta, p_star, r)


def geometric_envelope(q: float, steps: int, base: float) -> np.ndarray:
    """``q ** s * base`` for ``s = 0 .. steps - 1``.

    ``q ** s`` is Python's float power: ``np.power`` rounds differently in
    the last bits, and the envelopes are written to the certificates.
    """
    return np.array([q ** s * base for s in range(steps)])


def noise_floor(states: np.ndarray, projection_tol: float = 0.0,
                reach: float = 1.0) -> float:
    """Absolute float64 allowance for squared-deviation sums over a run.

    Deviations of size up to ``reach * max|x|`` are representable only to
    ``eps * (1 + reach * max|x|)``, plus ``projection_tol`` when they pass
    through a projection, so a weighted sum of squared deviations carries an
    irreducible error of about ``m * (projection_tol + eps * scale)^2`` with
    that scale; envelopes decaying below that level cannot be witnessed in
    double precision.  Unconstrained checks use the defaults.  V-based
    constrained checks pass the Dykstra tolerance and ``reach = 2``: both a
    state and the point it is measured from have norm up to ``max|x|``.
    """
    m = states.shape[1]
    scale = 1.0 + reach * float(np.abs(states).max())
    return m * (projection_tol + np.finfo(float).eps * scale) ** 2


def vector_contraction_certificate(states: np.ndarray, adjoint: AbsoluteProbabilitySequence,
                                   beta: float, p_star: int,
                                   k: int) -> CheckBlock:
    """Check the weighted variance about the conserved center against its envelope from ``k``.

    ``states`` has shape ``(horizon+1, m, n)``.  The center is the conserved
    value ``c = pi(0)'x(0)``; for each ``t >= k`` the check is

        sum_i pi_i(t) ||x_i(t) - c||^2  <=  q^(t-k) * sum_j pi_j(k) ||x_j(k) - c||^2.
    """
    states = np.asarray(states, dtype=float)
    pi = adjoint.vectors
    q = rate_quotient(adjoint.delta, beta, p_star)
    vals = v_function(states, pi, pi[0] @ states[0])
    return CheckBlock("vector-rate-contraction", vals[k:],
                      geometric_envelope(q, states.shape[0] - k, vals[k]), t0=k, k=k,
                      floor=noise_floor(states))


def doubly_stochastic_rate_factor(beta: float, m: int, steps: int) -> float:
    """Baseline per-product factor ``(1 - beta/(2 m^2))^steps`` for doubly stochastic chains."""
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    if m < 1:
        raise ValueError("m must be >= 1")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    return (1.0 - beta / (2.0 * m * m)) ** steps
