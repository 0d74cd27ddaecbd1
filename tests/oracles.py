"""Reference implementations that only the tests use.

Scalar record builders, the operator-norm envelope for backward products,
single-step decrement and identity residuals, the one-state squared spread
and projection checks serve as oracles for the package's array code.
``row_shifted_decrements`` and ``weighted_variance_reference`` are the
decrement kernel and the comparison value in their reference forms, which
the coordinate-plane kernels must reproduce bit for bit.
``evaluate_certificates_per_step`` is the step-by-step certificate loop
that ``engine.evaluate_certificates`` replaces with whole-series arrays; the
two must agree record for record, bit for bit, and ``certificate_records``
is the record loop, one scalar read at a time, that iterating
``Certificates`` must reproduce bit for bit.
``verify_compliance_per_step`` checks every step, one at a time, where
``weights.verify_compliance`` checks each distinct step once, a block of
steps at a time; ``rooted_trees_per_graph`` is the per-graph root and tree
search behind it.  ``equal_neighbor_dense`` is the dense equal-neighbor
build that the row-support build must reproduce bit for bit, and
``dense_stack`` the dense matrices of a row support.  ``edges``
gives a graph's edge pairs as a set.  The ``*_point`` functions are the
point-by-point set code that the batched projections in
``consensus_lab.sets`` must reproduce bit for bit; given a tuple of sets,
they take it as a nested intersection, the reference for the flattened one.
``read_adjoint`` reads ``adjoint.csv`` and ``adjoint.json`` back, carrying
each written vector forward; nothing in the package reads those files.
"""
from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

from consensus_lab.adjoint import AbsoluteProbabilitySequence
from consensus_lab.certificates import VALUE_SLACK, CertificateRecord
from consensus_lab.engine import (CONSERVATION_TOL, DECREMENT_FLOOR, IDENTITY_TOL, RunConfig,
                                  Trajectory)
from consensus_lab.lyapunov import (_EPS, _PRUNE_MIN_ENTRIES, _SQRT_TINY, contraction_drop,
                                    rate_quotient, v_function, weighted_means,
                                    weighted_variance)
from consensus_lab.graphs import DiGraph, SpanningTree, bfs_spanning_tree, roots
from consensus_lab.seeding import substream
from consensus_lab.sets import (_SPHERE_CHECK_SEED, DYKSTRA_MAX_SWEEPS, DYKSTRA_TOL,
                                FEASIBILITY_TOL, Ball, Box, ConvexSet, DykstraNotConverged,
                                Halfspace, Hyperplane, InteriorBallNotContained, Intersection,
                                RegularityEstimate, _vec)
from consensus_lab.weights import (COLUMN_SUM_TOL, ROW_SUM_TOL, ComplianceReport,
                                   MatrixSequence, _lengths, _positions, _row_supports)

NORM_SLACK = 1.0 + 1e-6

# Floats whose repr is easy to get wrong: a signed zero, the smallest
# subnormal, both sides of repr's switches to exponent notation (below 1e-4
# and from 1e16 on), and the non-finite values.
ADVERSARIAL_FLOATS = (-0.0, 0.0, 5e-324, 1e-5, 1e-4, 9.999999999999999e15, 1e16,
                      float("nan"), float("inf"), float("-inf"))


def adversarial_array(rng: np.random.Generator, shape) -> np.ndarray:
    """An array of ``shape`` drawn from ``ADVERSARIAL_FLOATS`` and their negations."""
    values = np.array(ADVERSARIAL_FLOATS)
    return rng.choice(np.concatenate([values, -values]), size=shape)


def read_adjoint(csv_path, sidecar_path) -> tuple[np.ndarray, np.ndarray]:
    """``pi(0..h)`` and the ``h`` residuals from ``adjoint.csv`` and its JSON sidecar.

    The CSV holds one row ``t,<bits>,...`` for step 0 and for each step whose
    vector changed, in increasing ``t``; every other step repeats the last
    written one.  Each bits cell is 16 lowercase hex digits of a big-endian
    binary64, decoded bit for bit.  ``h`` is the length of ``residual_l1``.
    """
    with open(sidecar_path) as fh:
        residuals = np.array(json.load(fh)["residual_l1"], dtype=float)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    m = len(rows[0]) - 1
    if rows[0] != ["t"] + [f"pi_{i}" for i in range(m)]:
        raise ValueError(f"unexpected header {rows[0]}")
    written: dict[int, list[str]] = {}
    for t, *cells in rows[1:]:
        if len(cells) != m:
            raise ValueError(f"t={t}: {len(cells)} cells, not {m}")
        if written and int(t) <= max(written):
            raise ValueError(f"t={t} does not follow t={max(written)}")
        bad = [bits for bits in cells if re.fullmatch("[0-9a-f]{16}", bits) is None]
        if bad:
            raise ValueError(f"t={t}: {bad[0]!r} is not 16 lowercase hex digits")
        written[int(t)] = cells
    vectors = np.empty((residuals.size + 1, m))
    for t in range(vectors.shape[0]):
        vectors[t] = (np.frombuffer(bytes.fromhex("".join(written[t])), ">f8")
                      if t in written else vectors[t - 1])
    if set(written) - set(range(vectors.shape[0])):
        raise ValueError("a written step lies beyond the horizon")
    return vectors, residuals


def certificate_records(certs) -> list[CertificateRecord]:
    """``Certificates`` iteration as a record loop: each group's blocks interleaved step by step."""
    records = []
    for group in certs.groups:
        for s in range(len(group[0])):
            records.extend(CertificateRecord(b.check, b.t0 + s, b.k, float(b.lhs[s]),
                                             float(b.rhs[s]), b.slack, b.floor)
                           for b in group)
    return records


def bounded(check: str, t: int, k: int | None, lhs: float, rhs: float,
            slack: float = VALUE_SLACK, floor: float = 0.0) -> CertificateRecord:
    """Record for ``lhs <= rhs * slack + floor``.

    ``floor`` is an absolute rounding allowance for quantities that sit at
    the float64 noise level (e.g. squared deviations after the iterates hit
    exact numerical consensus); it is zero unless the caller supplies one.
    """
    return CertificateRecord(check=check, t=t, k=k, lhs=float(lhs), rhs=float(rhs),
                             slack=float(slack), floor=float(floor))


class YNotInSet(ValueError):
    pass


class InfeasiblePoint(ValueError):
    pass


def row_shifted_decrements(support: tuple, x: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """The reference form of ``lyapunov.decrement_series``' kernel, kept fixed.

    Decrement of each state block ``x[s]`` (shape ``(m, n)``) weighted by
    ``nu[s]``, over a row support ``(cols, weights, starts)`` shared by every
    block, or one with columns ``k*m + j`` of one matrix per block.  Every
    row sum is ``np.add.reduceat`` over the interleaved ``(s, e, n)``
    gather, and the squared norms one ``einsum`` over its last axis; the
    package's coordinate-plane kernel must reproduce these bits.
    """
    cols, weights, starts = support
    lengths = _lengths(starts, cols.size)
    x = x.reshape(-1, starts.size, x.shape[-1])
    d = x[:, cols] - np.repeat(x, lengths, axis=1)                # d_ij = x_j - x_i
    mu = np.add.reduceat(d * weights[:, None], starts, axis=1)    # mu_i = sum_j A_ij d_ij
    d -= np.repeat(mu, lengths, axis=1)
    per_row = np.add.reduceat(np.einsum("sen,sen->se", d, d) * weights, starts, axis=1)
    return np.einsum("si,si->s", per_row.reshape(nu.shape), nu)


def pairwise_decrement_sum(a: np.ndarray, x: np.ndarray, nu: np.ndarray) -> float:
    """``(1/2) sum_i nu_i sum_{j,l} A_ij A_il ||x_j - x_l||^2`` for row-stochastic ``A``.

    ``x`` has shape ``(m,)`` or ``(m, n)``.  One step of
    :func:`row_shifted_decrements`; ``lyapunov.decrement_series`` documents
    the form.
    """
    x = np.asarray(x, dtype=float)
    nu = np.asarray(nu, dtype=float)
    block = x.reshape(1, x.shape[0], -1)
    support = _row_supports(np.asarray(a, dtype=float)[None])
    return float(row_shifted_decrements(support, block, nu[None])[0])


def weighted_variance_reference(states: np.ndarray,
                                weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``lyapunov.weighted_variance`` in its reference form, kept fixed: the
    shift by agent 0's state is one broadcast over all coordinates."""
    states = np.asarray(states, dtype=float)
    weights = np.asarray(weights, dtype=float)
    d = states - states[..., :1, :]
    return v_function(d, weights, weighted_means(weights, d)), weighted_means(weights, states)


def averaging_identity_residual(a: np.ndarray, x: np.ndarray, nu: np.ndarray) -> float:
    """Signed defect of the exact decrease identity; zero in exact arithmetic."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    nu = np.asarray(nu, dtype=float)
    states = np.stack([a @ x, x]).reshape(2, x.shape[0], -1)
    (lhs, rhs), _ = weighted_variance(states, np.stack([nu, a.T @ nu]))
    return float(lhs - (rhs - pairwise_decrement_sum(a, x, nu)))


def operator_norm_sq(mat: np.ndarray) -> float:
    """Squared induced 2-norm (largest singular value squared)."""
    return float(np.linalg.norm(mat, 2) ** 2)


def product_convergence_records(seq: MatrixSequence, adjoint: AbsoluteProbabilitySequence,
                                beta: float, p_star: int, k: int,
                                t_max: int) -> list[CertificateRecord]:
    """Operator-norm envelope for the backward products ``A(t:k)``.

    For each ``t`` in ``k..t_max`` checks

        || A(t:k) - 1 pi(k)' ||^2  <=  (1/delta) q^(t-k) || I - 1 pi(k)' ||^2

    with the products accumulated incrementally.
    """
    m = seq.m
    pi_k = adjoint.vectors[k]
    q = rate_quotient(adjoint.delta, beta, p_star)
    rank_one = np.outer(np.ones(m), pi_k)
    base = operator_norm_sq(np.eye(m) - rank_one) / adjoint.delta
    records = []
    prod = None
    for t in range(k, t_max + 1):
        prod = seq.matrix_at(k) if prod is None else seq.matrix_at(t) @ prod
        lhs = operator_norm_sq(prod - rank_one)
        records.append(bounded("product-convergence", t, k, lhs,
                               q ** (t - k) * base, slack=NORM_SLACK))
    return records


def mean_square_identity_residual(v: np.ndarray, phi: np.ndarray, s: float) -> float:
    """Defect of ``(phi'v - s)^2 = sum phi_j (v_j - s)^2 - (1/2) sum phi_j phi_l (v_j - v_l)^2``.

    The double sum equals the phi-weighted variance of ``v``, so the
    residual is evaluated without forming the m^2 terms.
    """
    v = np.asarray(v, dtype=float)
    phi = np.asarray(phi, dtype=float)
    mean = float(phi @ v)
    lhs = (mean - s) ** 2
    rhs = float(phi @ (v - s) ** 2) - float(phi @ (v - mean) ** 2)
    return lhs - rhs


def check_nonexpansive(s: ConvexSet, x, y) -> CertificateRecord:
    """Verify ``||P_S(x) - y|| <= ||x - y||`` for a member point ``y``."""
    x, y = _vec(x), _vec(y)
    if s.violation(y) > FEASIBILITY_TOL:
        raise YNotInSet(f"y violates the set by {s.violation(y):.3e}")
    lhs = float(np.linalg.norm(s.project(x) - y))
    rhs = float(np.linalg.norm(x - y))
    return bounded("projection-nonexpansive", 0, None, lhs, rhs, slack=1.0 + 1e-10)


def check_variational_inequality(s: ConvexSet, x, y) -> CertificateRecord:
    """Verify ``(P_S(x) - x).(y - P_S(x)) >= 0`` for a member point ``y``."""
    x, y = _vec(x), _vec(y)
    if s.violation(y) > FEASIBILITY_TOL:
        raise YNotInSet(f"y violates the set by {s.violation(y):.3e}")
    p = s.project(x)
    inner = float((p - x) @ (y - p))
    return bounded("projection-variational", 0, None, -inner, 1e-10, slack=1.0)


def spread_projection_bound(points, sets, phi, r: float,
                            intersection: ConvexSet | None = None) -> CertificateRecord:
    """Spread lower bound for feasible tuples under a regularity constant.

    For points ``x_i in X_i`` the maximal pairwise distance is at least
    ``1/(r+1)`` times the largest distance from any point to the projection
    of their ``phi``-weighted mean onto the intersection.
    """
    points = [_vec(p) for p in points]
    sets = tuple(sets)
    phi = _vec(phi)
    for idx, (p, s) in enumerate(zip(points, sets)):
        if s.violation(p) > FEASIBILITY_TOL:
            raise InfeasiblePoint(f"point {idx} violates its set by {s.violation(p):.3e}")
    target = intersection if intersection is not None else Intersection(sets)
    mean = sum(w * p for w, p in zip(phi, points))
    anchor = target.project(mean)
    lhs = max(float(np.linalg.norm(p - anchor)) for p in points) / (r + 1.0)
    rhs = max(float(np.linalg.norm(p - q)) for p in points for q in points)
    return bounded("regular-spread-bound", 0, None, lhs, rhs, slack=VALUE_SLACK)


def set_to_json_dict(s: ConvexSet) -> dict:
    def bound(v: float):
        return None if np.isinf(v) else float(v)

    if isinstance(s, Halfspace):
        return {"type": "halfspace", "a": list(map(float, s.a)), "b": s.b}
    if isinstance(s, Hyperplane):
        return {"type": "hyperplane", "a": list(map(float, s.a)), "b": s.b}
    if isinstance(s, Box):
        return {"type": "box", "lower": [bound(v) for v in s.lower],
                "upper": [bound(v) for v in s.upper]}
    if isinstance(s, Ball):
        return {"type": "ball", "center": list(map(float, s.center)), "radius": s.radius}
    if isinstance(s, Intersection):
        return {"type": "intersection",
                "members": [set_to_json_dict(m) for m in s.members]}
    raise TypeError(f"unknown set type {type(s)!r}")


def squared_spread_per_state(x: np.ndarray) -> float:
    """``max_{j,l} ||x_j - x_l||^2`` of one state ``(m,)`` or ``(m, n)``, pruned alone.

    The one-state form that ``lyapunov.squared_spread`` batches over a run;
    its docstring gives the pruning and its margin.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1 or x.shape[1] == 1:
        return float((x.max() - x.min()) ** 2)
    m, n = x.shape
    if m * m * n > _PRUNE_MIN_ENTRIES:
        y = x - x.mean(axis=0)
        d = np.sqrt(np.einsum("mn,mn->m", y, y))
        p = int(d.argmax())
        y = x - x[p]
        r, ell = float(d[p]), math.sqrt(float(np.einsum("mn,mn->m", y, y).max()))
        margin = 8.0 * (n + 4) * _EPS * (ell + r) + _SQRT_TINY
        x = x[~(d < ell - r - margin)]
    buf = np.subtract.outer(x[:, 0], x[:, 0])
    buf *= buf
    diff = np.empty_like(buf)
    for k in range(1, n):
        np.subtract.outer(x[:, k], x[:, k], out=diff)
        diff *= diff
        buf += diff
    return float(buf.max())


def noise_floor(states: np.ndarray) -> float:
    """Absolute float64 allowance for squared-deviation sums over a run.

    States are representable only to ``eps * (1 + |x|)``, so any weighted
    sum of squared deviations computed from them carries an irreducible
    error of about ``m * (eps * (1 + max|x|))^2``; envelopes decaying below
    that level cannot be witnessed in double precision.
    """
    m = states.shape[1]
    scale = 1.0 + float(np.abs(states).max())
    return m * (np.finfo(float).eps * scale) ** 2


def vector_contraction_certificate_per_step(states: np.ndarray,
                                            adjoint: AbsoluteProbabilitySequence,
                                            beta: float, p_star: int,
                                            k: int) -> list[CertificateRecord]:
    """Check the weighted variance about the conserved center against its envelope from ``k``.

    ``states`` has shape ``(horizon+1, m, n)``.  The center is the conserved
    value ``c = pi(0)'x(0)``; for each ``t >= k`` the check is

        sum_i pi_i(t) ||x_i(t) - c||^2  <=  q^(t-k) * sum_j pi_j(k) ||x_j(k) - c||^2.
    """
    states = np.asarray(states, dtype=float)
    pi = adjoint.vectors
    q = rate_quotient(adjoint.delta, beta, p_star)
    c = pi[0] @ states[0]
    vals = [float(pi[t] @ ((states[t] - c) ** 2).sum(axis=-1)) for t in range(states.shape[0])]
    floor = noise_floor(states)
    return [bounded("vector-rate-contraction", t, k, vals[t], q ** (t - k) * vals[k],
                    floor=floor)
            for t in range(k, states.shape[0])]


def v_noise_floor(traj: Trajectory) -> float:
    """Absolute allowance for V-based checks in constrained runs.

    V values are built from states representable to ``eps * scale`` and
    projections resolved to the Dykstra displacement tolerance, so a
    weighted sum of squared distances carries an irreducible error of about
    ``m * (dykstra_tol + eps * scale)^2``.
    """
    m = traj.states.shape[1]
    scale = 1.0 + 2.0 * float(np.abs(traj.states).max())
    return m * (DYKSTRA_TOL + np.finfo(float).eps * scale) ** 2


def constrained_decrease_certificate(traj: Trajectory, adjoint: AbsoluteProbabilitySequence,
                                     beta: float, p_star: int) -> list[CertificateRecord]:
    """Per-step decrease of ``V(t, y)`` by at least the spread-based decrement bound."""
    drop = contraction_drop(adjoint.delta, beta, p_star)
    floor = v_noise_floor(traj)
    return [bounded("constrained-decrease", t, None, float(traj.lyap[t + 1]),
                    float(traj.lyap[t] - drop * traj.spread_sq[t]), floor=floor)
            for t in range(traj.horizon)]


def tracked_contraction_certificate(traj: Trajectory, adjoint: AbsoluteProbabilitySequence,
                                    beta: float, p_star: int,
                                    r: float) -> list[CertificateRecord]:
    """Geometric decay of ``V(t, v(t))`` at quotient ``1 - delta beta^2 / (4 p* (r+1)^2)``."""
    q = rate_quotient(adjoint.delta, beta, p_star, r)
    floor = v_noise_floor(traj)
    return [bounded("tracked-contraction", t, None, float(traj.v_values[t + 1]),
                    q * float(traj.v_values[t]), floor=floor)
            for t in range(traj.horizon)]


def distance_envelope_certificate(traj: Trajectory, adjoint: AbsoluteProbabilitySequence,
                                  beta: float, p_star: int,
                                  r: float) -> list[CertificateRecord]:
    """Envelope ``sum_j dist^2(x_j(t), X) <= (1/delta) q^t V(0, v(0))``."""
    q = rate_quotient(adjoint.delta, beta, p_star, r)
    base = float(traj.v_values[0]) / adjoint.delta
    floor = v_noise_floor(traj)
    return [bounded("distance-envelope", t, None, float(traj.dist_sq[t].sum()),
                    (q ** t) * base, floor=floor)
            for t in range(traj.horizon + 1)]


def evaluate_certificates_per_step(config: RunConfig, compliance: ComplianceReport,
                          adjoint: AbsoluteProbabilitySequence,
                          traj: Trajectory, r: float | None) -> list[CertificateRecord]:
    """Every enabled per-step check, one step at a time, in a deterministic order.

    Identity-style checks store the absolute residual as ``lhs`` and the
    tolerance as ``rhs`` with slack 1.
    """
    records: list[CertificateRecord] = []
    h = traj.horizon
    pi = adjoint.vectors
    beta, p_star = compliance.beta, compliance.p_star

    if config.mode == "unconstrained":
        x0_norms = np.linalg.norm(traj.states[0], axis=0)  # per coordinate
        for t in range(h + 1):
            drift = np.abs(traj.conservation[t] - traj.conservation[0])
            scaled = float((drift / (1.0 + x0_norms)).max())
            records.append(bounded("conservation", t, None, scaled, CONSERVATION_TOL,
                                   slack=1.0))
        drop = contraction_drop(adjoint.delta, beta, p_star)
        for t in range(h):
            resid = float(abs(traj.lyap[t + 1] - (traj.lyap[t] - traj.decrement[t])))
            scale = max(1.0, float((traj.states[t] ** 2).sum()))
            records.append(bounded("step-identity", t, None, resid, IDENTITY_TOL * scale,
                                   slack=1.0))
            records.append(bounded("decrement-bound", t, None, drop * float(traj.spread_sq[t]),
                                   float(traj.decrement[t]), floor=DECREMENT_FLOOR))
        for k in sorted({0, h // 2}):   # the envelope starts every run checks
            records.extend(vector_contraction_certificate_per_step(traj.states, adjoint, beta,
                                                                   p_star, k))
        return records

    y = traj.y_point
    v_floor = v_noise_floor(traj)
    for t in range(1, h + 1):
        feas = float(traj.feasibility[t])
        records.append(bounded("feasibility", t, None, feas, FEASIBILITY_TOL, slack=1.0))
    for t in range(h):
        w_val = float(pi[t + 1] @ ((traj.w[t + 1] - y) ** 2).sum(axis=-1))
        resid = abs(w_val - (float(traj.lyap[t]) - float(traj.decrement[t])))
        scale = max(1.0, float(traj.lyap[t]))
        records.append(bounded("averaging-identity", t, None, resid, IDENTITY_TOL * scale,
                               slack=1.0))
        records.append(bounded("projection-step", t, None, float(traj.lyap[t + 1]),
                               w_val, floor=v_floor))
    records.extend(constrained_decrease_certificate(traj, adjoint, beta, p_star))
    records.extend(tracked_contraction_certificate(traj, adjoint, beta, p_star, r))
    records.extend(distance_envelope_certificate(traj, adjoint, beta, p_star, r))
    return records


def dense_stack(support: tuple, m: int) -> np.ndarray:
    """The read-only ``(s, m, m)`` stack of a block's row support: one scatter into zeros."""
    a = np.zeros((support[2].size // m, m, m))
    a.reshape(-1)[_positions(support, m)] = support[1]
    a.setflags(write=False)
    return a


def equal_neighbor_dense(adjacency: np.ndarray) -> np.ndarray:
    """Equal-neighbor weights of an ``(..., m, m)`` stack, built on the dense matrices.

    Each row of the adjacency plus the diagonal is divided by its own sum,
    and the diagonal takes the rounding residue of the row's sum.
    """
    a = adjacency.astype(float)
    diag = np.arange(a.shape[-1])
    a[..., diag, diag] = 1.0
    a /= a.sum(axis=-1, keepdims=True)
    a[..., diag, diag] += 1.0 - a.sum(axis=-1)
    return a


def laplacian_dense(adjacency: np.ndarray, gamma: float) -> np.ndarray:
    """``I - L/gamma`` of an ``(..., m, m)`` stack of in-adjacencies, built densely.

    ``1/gamma`` on the edges and ``1 - deg_i/gamma`` on the diagonal, which
    then takes the rounding residue of its row's sum.
    """
    a = adjacency / gamma
    diag = np.arange(a.shape[-1])
    a[..., diag, diag] = 1.0 - adjacency.sum(axis=-1) / gamma
    a[..., diag, diag] += 1.0 - a.sum(axis=-1)
    return a


def quarter_dense(adjacency: np.ndarray) -> np.ndarray:
    """1/4 on the diagonal and on every edge of an ``(..., m, m)`` stack, built densely."""
    return 0.25 * (adjacency + np.eye(adjacency.shape[-1]))


def lazy_metropolis_dense(adjacency: np.ndarray) -> np.ndarray:
    """Lazy Metropolis weights of an ``(..., m, m)`` stack, built densely.

    ``1/(2 max(deg_i, deg_j))`` on the edge from ``j`` to ``i``, and ``1 -``
    the sum of the row's edge weights on the diagonal.
    """
    deg = adjacency.sum(axis=-1)
    with np.errstate(divide="ignore"):
        edge = 1.0 / (2.0 * np.maximum(deg[..., :, None], deg[..., None, :]))
    a = np.where(adjacency, edge, 0.0)
    diag = np.arange(a.shape[-1])
    a[..., diag, diag] = 1.0 - a.sum(axis=-1)
    return a


def edges(g: DiGraph) -> frozenset[tuple[int, int]]:
    """The graph's edges as a frozenset of ``(sender, receiver)`` pairs."""
    receivers, senders = np.nonzero(g.adjacency)
    return frozenset(zip(senders.tolist(), receivers.tolist()))


def tree_edges(tree: SpanningTree) -> tuple[tuple[int, int], ...]:
    """Tree edges as (parent, child) pairs; there are exactly m-1 of them."""
    return tuple((p, v) for v, p in enumerate(tree.parents) if p >= 0)


def rooted_trees_per_graph(graphs) -> tuple[np.ndarray, ...]:
    """``graphs._rooted_trees`` one graph at a time, through ``roots`` and ``bfs_spanning_tree``.

    Returns ``(counts, tree roots, parents, depths)``; a graph without a root
    has count 0 and -1 everywhere else.
    """
    out = []
    for g in graphs:
        root_set = roots(g)
        if not root_set:
            out.append((0, -1, (-1,) * g.m, -1))
            continue
        tree = bfs_spanning_tree(g, min(root_set))
        out.append((len(root_set), tree.root, tree.parents, tree.depth))
    return tuple(np.array(column) for column in zip(*out))


def verify_compliance_per_step(seq: MatrixSequence, horizon: int) -> ComplianceReport:
    """``weights.verify_compliance`` evaluated at every step ``t = 0 .. horizon-1``."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    strong_ok = True
    rooted_ok = True
    violation: str | None = None
    beta = np.inf
    doubly = True
    trees: list[SpanningTree] = []

    def note(msg: str):
        nonlocal violation
        if violation is None:
            violation = msg

    for t in range(horizon):
        a = seq.matrix_at(t)
        g = seq.graph_at(t)
        if (a < 0).any() or not np.abs(a.sum(axis=1) - 1.0).max() <= ROW_SUM_TOL:
            note(f"t={t}: matrix is not row-stochastic")
            strong_ok = rooted_ok = False
            break
        diag = np.diag(a)
        if diag.min() <= 0.0:
            note(f"t={t}: diagonal entry {int(diag.argmin())} is not positive")
            strong_ok = rooted_ok = False
            break
        doubly = doubly and bool(np.abs(a.sum(axis=0) - 1.0).max() <= COLUMN_SUM_TOL)

        root_set = roots(g)
        if not root_set:
            note(f"t={t}: graph is not rooted")
            strong_ok = rooted_ok = False
            break
        tree = bfs_spanning_tree(g, min(root_set))
        parents = np.array(tree.parents)
        children = np.flatnonzero(parents >= 0)
        tree_entries = a[children, parents[children]]
        if tree_entries.size and tree_entries.min() <= 0.0:
            i = children[tree_entries.argmin()]
            note(f"t={t}: zero weight on tree edge ({parents[i]},{i})")
            rooted_ok = False
            strong_ok = False
            break
        trees.append(tree)
        beta = min(beta, float(diag.min()))
        if tree_entries.size:
            beta = min(beta, float(tree_entries.min()))

        strong_ok = strong_ok and len(root_set) == g.m and bool((a[g.adjacency] > 0.0).all())

    if not rooted_ok:
        return ComplianceReport(level="neither", beta=0.0, doubly_stochastic=doubly,
                                p_star=0, horizon=horizon, violation=violation)
    level = "strong" if strong_ok else "rooted"
    p_star = max(tree.depth for tree in trees) if trees else 0
    return ComplianceReport(level=level, beta=float(beta), doubly_stochastic=doubly,
                            p_star=max(p_star, 1), horizon=horizon, violation=None)


# ---------------------------------------------------------------------------
# point-by-point set code: one point per call, Python scalars in between


def project_point(s: ConvexSet, x) -> np.ndarray:
    """Projection of the single point ``x`` onto ``s``.

    A tuple of sets is an intersection that is never flattened: a member
    that is itself a tuple projects by its own Dykstra recursion, run to
    convergence inside every sweep of the outer one.
    """
    x = _vec(x)
    if isinstance(s, Halfspace):
        gap = float(s.a @ x) - s.b
        if gap <= 0.0:
            return x.copy()
        return x - (gap / float(s.a @ s.a)) * s.a
    if isinstance(s, Hyperplane):
        gap = float(s.a @ x) - s.b
        return x - (gap / float(s.a @ s.a)) * s.a
    if isinstance(s, Box):
        return np.clip(x, s.lower, s.upper)
    if isinstance(s, Ball):
        d = x - s.center
        r = float(np.linalg.norm(d))
        if r <= s.radius:
            return x.copy()
        return s.center + (s.radius / r) * d
    if isinstance(s, (Intersection, tuple)):
        members = s if isinstance(s, tuple) else s.members
        if len(members) == 1:
            return project_point(members[0], x)
        return dykstra_point(members, x)
    raise TypeError(f"unknown set type {type(s)!r}")


def violation_point(s: ConvexSet, x) -> float:
    """Violation of the single point ``x``."""
    x = _vec(x)
    if isinstance(s, Halfspace):
        return max(0.0, (float(s.a @ x) - s.b) / float(np.linalg.norm(s.a)))
    if isinstance(s, Hyperplane):
        return abs(float(s.a @ x) - s.b) / float(np.linalg.norm(s.a))
    if isinstance(s, Box):
        d = x - np.clip(x, s.lower, s.upper)
        # an offset whose squares all underflow still counts as outside
        return float(np.linalg.norm(d)) or float(np.abs(d).max())
    if isinstance(s, Ball):
        return max(0.0, float(np.linalg.norm(x - s.center)) - s.radius)
    if isinstance(s, (Intersection, tuple)):
        return max(violation_point(m, x) for m in (s if isinstance(s, tuple) else s.members))
    raise TypeError(f"unknown set type {type(s)!r}")


def dykstra_point(sets, x, tol: float = DYKSTRA_TOL,
                  max_sweeps: int = DYKSTRA_MAX_SWEEPS) -> np.ndarray:
    """Dykstra's recursion for the single point ``x``; see ``sets.dykstra_project``."""
    sets = tuple(sets)
    x = _vec(x)
    increments = [np.zeros_like(x) for _ in sets]
    current = x.copy()
    worst = np.inf
    for _ in range(max_sweeps):
        previous = current.copy()
        inc_change = 0.0
        for idx, s in enumerate(sets):
            target = current + increments[idx]
            projected = project_point(s, target)
            new_inc = target - projected
            inc_change = max(inc_change, float(np.abs(new_inc - increments[idx]).max()))
            increments[idx] = new_inc
            current = projected
        displacement = float(np.abs(current - previous).max())
        if displacement <= tol:
            worst = max(violation_point(s, current) for s in sets)
            if worst <= FEASIBILITY_TOL and inc_change <= tol:
                return current
            if inc_change == 0.0:
                break
    raise DykstraNotConverged(f"stopped with member violation {worst:.3e}")


def distance_point(s: ConvexSet, x) -> float:
    x = _vec(x)
    return float(np.linalg.norm(x - project_point(s, x)))


def _uniform_ball_point(rng: np.random.Generator, center: np.ndarray,
                        radius: float) -> np.ndarray:
    n = center.shape[0]
    direction = rng.normal(size=n)
    direction /= np.linalg.norm(direction)
    return center + radius * rng.random() ** (1.0 / n) * direction


def regularity_sampling_points(sets, region: Ball, samples: int,
                               seed: int) -> RegularityEstimate:
    """``sets.regularity_sampling`` with one projection call per sample."""
    sets = tuple(sets)
    intersection = Intersection(sets)
    rng = substream(seed, "regularity")
    r_hat = 1.0
    skipped = 0
    for _ in range(samples):
        x = _uniform_ball_point(rng, region.center, region.radius)
        dmax = max(distance_point(s, x) for s in sets)
        if dmax <= 1e-9:
            skipped += 1
            continue
        r_hat = max(r_hat, distance_point(intersection, x) / dmax)
    return RegularityEstimate(r_hat=float(r_hat), method="sampling",
                              samples=samples, skipped=skipped)


def regularity_interior_points(sets, theta: float, x_bar, region: Ball) -> RegularityEstimate:
    """``sets.regularity_interior`` with one violation call per sphere point and set."""
    x_bar = _vec(x_bar)
    n = x_bar.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence(_SPHERE_CHECK_SEED))
    for _ in range(100 * n):
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        point = x_bar + theta * direction
        for s in sets:
            v = violation_point(s, point)
            if v > FEASIBILITY_TOL:
                raise InteriorBallNotContained(f"sphere point violates a set by {v:.3e}")
    r = (float(np.linalg.norm(region.center - x_bar)) + region.radius) / theta
    return RegularityEstimate(r_hat=max(1.0, r), method="interior-formula",
                              samples=100 * n, skipped=0, theta=float(theta),
                              x_bar=tuple(map(float, x_bar)))


def constrained_fields_per_point(states: np.ndarray, pi: np.ndarray, sets,
                                 intersection: ConvexSet) -> dict:
    """``annotate``'s constrained series, one projection call per point and V per step."""
    h, m = states.shape[0] - 1, states.shape[1]
    u = np.array([pi[t] @ states[t] for t in range(h + 1)])
    v = np.array([project_point(intersection, u[t]) for t in range(h + 1)])
    return {"feasibility": np.array([max(violation_point(s, states[t, i])
                                         for i, s in enumerate(sets))
                                     for t in range(h + 1)]),
            "v_values": np.array([pi[t] @ ((states[t] - v[t]) ** 2).sum(axis=-1)
                                  for t in range(h + 1)]),
            "dist_sq": np.array([[distance_point(intersection, states[t, i]) ** 2
                                  for i in range(m)] for t in range(h + 1)])}
