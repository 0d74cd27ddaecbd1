"""Weighted-averaging runs, unconstrained and projection-constrained.

A run simulates ``x_i(t+1) = sum_j A_ij(t) x_j(t)`` (optionally followed by
projection onto per-agent sets), records every intermediate quantity, and
evaluates the full stack of per-step certificates: the exact comparison
function decrease, conservation of ``pi(t)'x(t)``, the decrement lower
bound, geometric contraction envelopes, and the constrained-mode distance
envelopes that depend on a set-regularity constant.
"""
from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import seeding
from .adjoint import (FIRST_WINDOW, AbsoluteProbabilitySequence, assemble_adjoint,
                      stationary_adjoint, uniform_adjoint)
from .certificates import CertificateRecord, bound_records, summarize
from .graphs import DiGraph, GraphSequence, regular_tree_graph
from .lyapunov import (VacuousBound, contraction_drop, decrement_series,
                       doubly_stochastic_rate_factor, noise_floor, rate_quotient,
                       squared_spread, v_function, vector_contraction_certificate,
                       weighted_means, weighted_variance)
from .sets import (DYKSTRA_TOL, FEASIBILITY_TOL, Ball, ConvexSet, Intersection, SetBank,
                   distance, regularity_interior, regularity_sampling, set_from_json_dict)
from .weights import ComplianceReport, MatrixSequence, verify_compliance

CONSERVATION_TOL = 1e-10
IDENTITY_TOL = 1e-10
VACUOUS_EPS = 1e-12
# D(t) sums nonnegative terms, so VALUE_SLACK covers its rounding; this covers underflow.
DECREMENT_FLOOR = float(np.finfo(float).tiny)

_INITIAL_KINDS = ("uniform-box", "explicit")
_ADJOINT_METHODS = ("auto", "uniform", "backward-product", "stationary")
# Each regularity method, with the keys it cannot do without.
_REGULARITY_METHODS = {"sampling": (), "interior": ("theta", "x_bar"), "fixed": ("r",)}


class DimensionMismatch(ValueError):
    pass


class YNotInX(ValueError):
    pass


class NotCompliant(ValueError):
    """The weight sequence failed the structural checks; no bound is certifiable."""


class ConfigError(ValueError):
    pass


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_positive(value) -> bool:
    return _is_number(value) and value > 0


# (section, key, test, what the value must be) for the optional values a run
# reads from a config section; each is checked when the key is present.  A
# regularity constant is at least 1.
_VALUE_CHECKS = (("initial", "low", _is_number, "a finite number"),
                 ("initial", "high", _is_number, "a finite number"),
                 ("adjoint", "spread_tol", _is_positive, "a positive finite number"),
                 ("adjoint", "max_window", _is_integer, "an integer"),
                 ("regularity", "theta", _is_positive, "a positive finite number"),
                 ("regularity", "r", lambda v: _is_number(v) and v >= 1,
                  "a finite number >= 1"),
                 ("regularity", "samples", lambda v: _is_integer(v) and v >= 1,
                  "a positive integer"))


@dataclass(frozen=True)
class RunConfig:
    """Declarative description of one run; JSON-serializable and rebuildable."""

    m: int
    n: int
    horizon: int
    seed: int
    mode: str
    graph: dict
    weights: dict
    initial: dict
    constraints: tuple = ()
    adjoint: dict = field(default_factory=dict)
    certificates_enabled: bool = True
    rate_ks: tuple = (0, "half")
    regularity: dict | None = None
    y_point: tuple | None = None

    def __post_init__(self):
        for name in ("m", "n", "horizon", "seed"):
            if not _is_integer(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, not {getattr(self, name)!r}")
        if not isinstance(self.certificates_enabled, bool):
            raise ConfigError("certificates_enabled must be true or false, "
                              f"not {self.certificates_enabled!r}")
        if self.mode not in ("unconstrained", "constrained"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.mode == "constrained" and len(self.constraints) != self.m:
            raise ConfigError("constrained mode needs one set spec per agent")
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.mode == "constrained":
            for i, spec in enumerate(self.constraints):
                try:
                    dim = set_from_json_dict(spec).dim
                except (ValueError, KeyError, TypeError) as exc:
                    raise ConfigError(f"constraints[{i}] is not a valid set: {exc}") from exc
                if dim != self.n:
                    raise ConfigError(f"constraints[{i}] has {dim} coordinates, not n={self.n}")
        if not isinstance(self.rate_ks, (list, tuple)):
            raise ConfigError(f"rate_ks must be a list, not {self.rate_ks!r}")
        object.__setattr__(self, "rate_ks", tuple(self.rate_ks))
        for k in self.rate_ks:
            if k != "half" and not (_is_integer(k) and 0 <= k <= self.horizon):
                raise ConfigError(f"rate_ks entry {k!r} must be 'half' or an integer "
                                  f"in [0, {self.horizon}]")
        if self.regularity is not None and not isinstance(self.regularity, dict):
            raise ConfigError("regularity must be an object")
        regularity = {"method": "sampling"} if self.regularity is None else self.regularity
        for what, value, allowed in (
                ("initial kind", self.initial.get("kind", "uniform-box"), _INITIAL_KINDS),
                ("adjoint method", self.adjoint.get("method", "auto"), _ADJOINT_METHODS),
                ("regularity method", regularity.get("method"), tuple(_REGULARITY_METHODS))):
            if value not in allowed:
                raise ConfigError(f"unknown {what} {value!r}")
        for key in _REGULARITY_METHODS[regularity["method"]]:
            if regularity.get(key) is None:
                raise ConfigError(f"regularity method {regularity['method']!r} needs {key!r}")
        sections = {"initial": self.initial, "adjoint": self.adjoint, "regularity": regularity}
        for section, key, test, what in _VALUE_CHECKS:
            if key in sections[section] and not test(sections[section][key]):
                raise ConfigError(f"{section}.{key} must be {what}, "
                                  f"not {sections[section][key]!r}")
        if self.adjoint.get("max_window", FIRST_WINDOW) < FIRST_WINDOW:
            raise ConfigError(f"adjoint.max_window must be at least {FIRST_WINDOW}, "
                              f"not {self.adjoint['max_window']!r}")
        for name, point in (("regularity.x_bar", regularity.get("x_bar")),
                            ("y_point", self.y_point)):
            if point is not None and not (isinstance(point, (list, tuple))
                                          and len(point) == self.n
                                          and all(map(_is_number, point))):
                raise ConfigError(f"{name} must be a list of {self.n} finite numbers, "
                                  f"not {point!r}")
        if self.y_point is not None:
            object.__setattr__(self, "y_point", tuple(self.y_point))

    @staticmethod
    def from_json_dict(d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"a config must be an object, not {d!r}")
        known = {"m", "n", "horizon", "seed", "mode", "graph", "weights", "initial",
                 "constraints", "adjoint", "certificates_enabled", "rate_ks",
                 "regularity", "y_point"}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        adjoint = {} if d.get("adjoint") is None else d["adjoint"]
        for key, value in (("graph", d.get("graph", {})), ("weights", d.get("weights", {})),
                           ("initial", d.get("initial", {})), ("adjoint", adjoint)):
            if not isinstance(value, dict):
                raise ConfigError(f"{key} must be an object, not {value!r}")
        constraints = [] if d.get("constraints") is None else d["constraints"]
        if not (isinstance(constraints, list) and all(isinstance(c, dict) for c in constraints)):
            raise ConfigError(f"constraints must be a list of objects, not {constraints!r}")
        try:
            return RunConfig(
                m=d["m"], n=d["n"], horizon=d["horizon"],
                seed=d["seed"], mode=d["mode"], graph=dict(d["graph"]),
                weights=dict(d["weights"]), initial=dict(d["initial"]),
                constraints=tuple(constraints), adjoint=dict(adjoint),
                certificates_enabled=d.get("certificates_enabled", True),
                rate_ks=d.get("rate_ks", (0, "half")),
                regularity=d.get("regularity"), y_point=d.get("y_point"),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config key {exc}") from exc

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "horizon": self.horizon, "seed": self.seed,
                "mode": self.mode, "graph": self.graph, "weights": self.weights,
                "initial": self.initial, "constraints": list(self.constraints),
                "adjoint": self.adjoint,
                "certificates_enabled": self.certificates_enabled,
                "rate_ks": list(self.rate_ks), "regularity": self.regularity,
                "y_point": list(self.y_point) if self.y_point else None}


def build_graph_sequence(config: RunConfig) -> GraphSequence:
    spec = config.graph
    kind = spec.get("kind")
    if kind == "static":
        if "regular_tree_d" in spec:
            g = regular_tree_graph(int(spec["regular_tree_d"]))
        else:
            g = DiGraph.from_json_dict(spec["graph"])
        seq = GraphSequence.static(g)
    elif kind == "periodic":
        seq = GraphSequence.periodic([DiGraph.from_json_dict(d) for d in spec["graphs"]])
    elif kind == "random-rooted":
        seq = GraphSequence.random_rooted(config.m, float(spec.get("extra_edge_prob", 0.0)),
                                          config.seed)
    else:
        raise ConfigError(f"unknown graph kind {kind!r}")
    if seq.m != config.m:
        raise ConfigError(f"graph has m={seq.m}, config says m={config.m}")
    return seq


def build_matrix_sequence(config: RunConfig, graph_seq: GraphSequence) -> MatrixSequence:
    spec = config.weights
    scheme = spec.get("scheme")
    if scheme == "custom":
        mats = [np.array(mm["rows"], dtype=float) for mm in spec["matrices"]]
        return MatrixSequence.custom(mats, graph_seq)
    if scheme == "laplacian":
        return MatrixSequence.from_scheme(graph_seq, "laplacian", gamma=float(spec["gamma"]))
    try:
        return MatrixSequence.from_scheme(graph_seq, scheme)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_constraints(config: RunConfig) -> tuple[ConvexSet, ...]:
    return tuple(set_from_json_dict(d) for d in config.constraints)


def initial_states(config: RunConfig, bank: SetBank | None) -> np.ndarray:
    """Initial (m, n) state block; random draws are projected onto each agent's set.

    ``bank`` holds the agents' sets, ``None`` in unconstrained mode.  Explicit
    states in constrained mode must already be feasible within 1e-10 per agent.
    """
    spec = config.initial
    if spec.get("kind") == "explicit":
        x0 = np.array(spec["states"], dtype=float)
        if x0.shape != (config.m, config.n):
            raise ConfigError(f"explicit states must have shape ({config.m}, {config.n})")
        if not np.isfinite(x0).all():
            raise ConfigError("explicit states must be finite")
        if bank is not None:
            for i, s in enumerate(bank.sets):
                if s.violation(x0[i]) > FEASIBILITY_TOL:
                    raise ConfigError(f"initial state of agent {i} violates its set")
        return x0
    low = float(spec.get("low", -1.0))
    high = float(spec.get("high", 1.0))
    rng = seeding.substream(config.seed, "init")
    x0 = rng.uniform(low, high, size=(config.m, config.n))
    return x0 if bank is None else bank.project(x0)


def step_unconstrained(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """One averaging step ``x(t+1) = A x(t)`` applied coordinatewise."""
    x = np.asarray(x, dtype=float)
    if a.shape[1] != x.shape[0]:
        raise DimensionMismatch(f"matrix is {a.shape}, states are {x.shape}")
    return a @ x


def step_constrained(x: np.ndarray, a: np.ndarray, sets) -> tuple[np.ndarray, np.ndarray]:
    """Averaging followed by per-agent projection; returns ``(w, x_next)``.

    ``sets`` holds one set per agent, or is a :class:`SetBank` built from them.
    """
    w = step_unconstrained(x, a)
    bank = sets if isinstance(sets, SetBank) else SetBank(sets)
    return w, bank.project(w)


def track_uv(states: np.ndarray, pi: np.ndarray,
             intersection: ConvexSet) -> tuple[np.ndarray, np.ndarray]:
    """Weighted means ``u`` of the agents and their projections ``v`` onto the intersection.

    ``states`` has shape ``(..., m, n)`` and ``pi`` shape ``(..., m)``, so a
    whole series is one call; ``u`` is :func:`weighted_means`.
    """
    u = weighted_means(np.asarray(pi, dtype=float), np.asarray(states, dtype=float))
    return u, intersection.project(u)


@dataclass
class Trajectory:
    """All per-step data of a run; constrained-only fields are ``None`` otherwise."""

    states: np.ndarray                    # (horizon+1, m, n)
    w: np.ndarray | None                  # (horizon+1, m, n); w[0] is unused
    spread_sq: np.ndarray                 # (horizon+1,)
    lyap: np.ndarray                      # (horizon+1,)
    decrement: np.ndarray                 # (horizon,)
    conservation: np.ndarray | None       # (horizon+1, n)
    feasibility: np.ndarray | None        # (horizon+1,) max per-agent violation
    u_points: np.ndarray | None           # (horizon+1, n)
    v_points: np.ndarray | None           # (horizon+1, n)
    v_values: np.ndarray | None           # (horizon+1,)
    dist_sq: np.ndarray | None            # (horizon+1, m)
    y_point: np.ndarray | None            # fixed test point in X

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1


def simulate(config: RunConfig, mseq: MatrixSequence,
             sets: tuple[ConvexSet, ...] | None) -> tuple[np.ndarray, np.ndarray | None]:
    """Run the dynamic; returns ``(states, w)`` with ``w`` only in constrained mode."""
    h = config.horizon
    states = np.empty((h + 1, config.m, config.n))
    bank = None if sets is None else SetBank(sets)
    states[0] = initial_states(config, bank)
    if bank is None:
        for t in range(h):
            states[t + 1] = step_unconstrained(states[t], mseq.matrix_at(t))
        return states, None
    w = np.zeros((h + 1, config.m, config.n))
    for t in range(h):
        w[t + 1], states[t + 1] = step_constrained(states[t], mseq.matrix_at(t), bank)
    return states, w


def _fixed_test_point(config: RunConfig, states: np.ndarray, pi: np.ndarray,
                      intersection: ConvexSet) -> np.ndarray:
    if config.y_point is not None:
        y = np.array(config.y_point, dtype=float)
    elif config.regularity and config.regularity.get("x_bar") is not None:
        y = np.array(config.regularity["x_bar"], dtype=float)
    else:
        y = intersection.project(pi[0] @ states[0])
    if intersection.violation(y) > FEASIBILITY_TOL:
        raise YNotInX(f"fixed test point violates X by {intersection.violation(y):.3e}")
    return y


def annotate(config: RunConfig, mseq: MatrixSequence,
             adjoint: AbsoluteProbabilitySequence, states: np.ndarray,
             w: np.ndarray | None, sets: tuple[ConvexSet, ...] | None,
             intersection: ConvexSet | None) -> Trajectory:
    """Derive every per-step series from the raw states.

    Per step, the decrement costs ``O(nnz(A) n)``, the spread ``O(m n)``
    plus ``O(k^2 n)`` over its ``k`` candidate points (``k = m`` at worst),
    and the comparison value ``O(m n)``; see :func:`decrement_series`,
    :func:`squared_spread` and :func:`weighted_variance`.  In constrained
    mode the feasibilities, the tracked projections and the distances to the
    intersection are each a batched projection over the whole run.
    """
    h = states.shape[0] - 1
    pi = adjoint.vectors
    spread_sq = np.array([squared_spread(states[t]) for t in range(h + 1)])
    decrement = decrement_series(mseq, states, pi)

    if sets is None:
        lyap, conservation = weighted_variance(states, pi)
        return Trajectory(states=states, w=w, spread_sq=spread_sq, lyap=lyap,
                          decrement=decrement, conservation=conservation, feasibility=None,
                          u_points=None, v_points=None, v_values=None,
                          dist_sq=None, y_point=None)

    y = _fixed_test_point(config, states, pi, intersection)
    lyap = v_function(states, pi, y)
    feasibility = np.max([s.violation(states[:, i]) for i, s in enumerate(sets)], axis=0)
    u_points, v_points = track_uv(states, pi, intersection)
    v_values = v_function(states, pi, v_points)
    # Squared with Python's float power, which is libm's pow: numpy squares
    # by multiplying, and the two round differently in about 1 value in 1000.
    dist_sq = np.array([d ** 2 for d in distance(intersection, states).ravel().tolist()])
    dist_sq = dist_sq.reshape(h + 1, config.m)
    return Trajectory(states=states, w=w, spread_sq=spread_sq, lyap=lyap,
                      decrement=decrement, conservation=None, feasibility=feasibility,
                      u_points=u_points, v_points=v_points, v_values=v_values,
                      dist_sq=dist_sq, y_point=y)


def _rate_k_values(config: RunConfig) -> list[int]:
    ks = []
    for k in config.rate_ks:
        ks.append(config.horizon // 2 if k == "half" else int(k))
    return sorted(set(ks))


def _interleave(first: list, second: list) -> list:
    return [r for pair in zip(first, second) for r in pair]


def evaluate_certificates(config: RunConfig, compliance: ComplianceReport,
                          adjoint: AbsoluteProbabilitySequence,
                          traj: Trajectory,
                          r_used: float | None) -> list[CertificateRecord]:
    """Every enabled check over the whole run, in a deterministic order.

    Each check is one array expression over the run, turned into records by
    :func:`bound_records`; per step, step-identity(t) precedes
    decrement-bound(t) and averaging-identity(t) precedes projection-step(t).
    Identity-style checks store the absolute residual as ``lhs`` and the
    tolerance as ``rhs`` with slack 1.
    """
    h = traj.horizon
    beta, p_star = compliance.beta, compliance.p_star
    drop = contraction_drop(adjoint.delta, beta, p_star)
    lyap, decrement = traj.lyap, traj.decrement

    if config.mode == "unconstrained":
        x0_norms = np.linalg.norm(traj.states[0], axis=0)  # per coordinate
        drift = np.abs(traj.conservation - traj.conservation[0])
        records = bound_records("conservation", (drift / (1.0 + x0_norms)).max(axis=1),
                                CONSERVATION_TOL, slack=1.0)
        resid = np.abs(lyap[1:] - (lyap[:-1] - decrement))
        scale = np.maximum(1.0, (traj.states[:-1] ** 2).reshape(h, -1).sum(axis=1))
        records += _interleave(
            bound_records("step-identity", resid, IDENTITY_TOL * scale, slack=1.0),
            bound_records("decrement-bound", drop * traj.spread_sq[:h], decrement,
                          floor=DECREMENT_FLOOR))
        for k in _rate_k_values(config):
            records.extend(vector_contraction_certificate(traj.states, adjoint, beta,
                                                          p_star, k))
        return records

    floor = noise_floor(traj.states, DYKSTRA_TOL, reach=2.0)
    w_vals = v_function(traj.w[1:], adjoint.vectors[1:], traj.y_point)
    resid = np.abs(w_vals - (lyap[:-1] - decrement))
    records = bound_records("feasibility", traj.feasibility[1:], FEASIBILITY_TOL, t0=1,
                            slack=1.0)
    records += _interleave(
        bound_records("averaging-identity", resid,
                      IDENTITY_TOL * np.maximum(1.0, lyap[:-1]), slack=1.0),
        bound_records("projection-step", lyap[1:], w_vals, floor=floor))
    records += bound_records("constrained-decrease", lyap[1:],
                             lyap[:-1] - drop * traj.spread_sq[:-1], floor=floor)
    if r_used is not None:
        records += _regularity_records(compliance, adjoint, traj, r_used)
    return records


def _regularity_records(compliance: ComplianceReport, adjoint: AbsoluteProbabilitySequence,
                        traj: Trajectory, r: float) -> list[CertificateRecord]:
    """Tracked-contraction and distance-envelope records at the regularity constant ``r``.

    They are the last ``2h + 1`` records of a constrained run.  Raises
    ``VacuousBound`` when ``r`` makes the quotient :func:`rate_quotient` round to one.
    """
    q = rate_quotient(adjoint.delta, compliance.beta, compliance.p_star, r)
    floor = noise_floor(traj.states, DYKSTRA_TOL, reach=2.0)
    v = traj.v_values
    # Python's float power: np.power rounds differently in the last bits.
    powers = np.array([q ** t for t in range(traj.horizon + 1)])
    envelope = powers * (float(v[0]) / adjoint.delta)
    return (bound_records("tracked-contraction", v[1:], q * v[:-1], floor=floor)
            + bound_records("distance-envelope", traj.dist_sq.sum(axis=1), envelope,
                            floor=floor))


@dataclass
class RunResult:
    config: RunConfig
    compliance: ComplianceReport
    adjoint: AbsoluteProbabilitySequence
    trajectory: Trajectory
    records: list[CertificateRecord]
    report: dict

    @property
    def certificates_pass(self) -> bool:
        return all(r.passed for r in self.records)


def _build_adjoint(config: RunConfig, mseq: MatrixSequence,
                   compliance: ComplianceReport) -> AbsoluteProbabilitySequence:
    spec = config.adjoint
    method = spec.get("method", "auto")
    spread_tol = float(spec.get("spread_tol", 1e-10))
    max_window = int(spec.get("max_window", 2 ** 14))
    if method == "auto":
        method = "uniform" if compliance.doubly_stochastic else "backward-product"
    if method == "uniform":
        return uniform_adjoint(mseq, config.horizon)
    if method == "backward-product":
        return assemble_adjoint(mseq, config.horizon, spread_tol, max_window)
    return stationary_adjoint(mseq, config.horizon)


def _resolve_regularity(config: RunConfig, sets, rho: float) -> tuple[float, dict]:
    """Regularity constant for the observed iterate ball ``B(0, rho)``."""
    spec = config.regularity or {"method": "sampling"}
    if spec["method"] == "fixed":
        r = float(spec["r"])
        return r, {"method": "fixed", "r_hat": r, "samples": 0, "skipped": 0}
    ball = Ball(np.zeros(config.n), max(rho, 1e-9) * (1.0 + 1e-12) + 1e-12)
    if spec["method"] == "interior":
        est = regularity_interior(sets, float(spec["theta"]),
                                  np.array(spec["x_bar"], dtype=float), ball)
    else:
        est = regularity_sampling(sets, ball, int(spec.get("samples", 2000)),
                                  config.seed)
    return est.r_hat, est.to_json_dict()


def _certify(config: RunConfig, mseq: MatrixSequence, compliance: ComplianceReport,
             adjoint: AbsoluteProbabilitySequence, states: np.ndarray,
             w: np.ndarray | None, sets, intersection) -> RunResult:
    traj = annotate(config, mseq, adjoint, states, w, sets, intersection)
    rho = float(np.linalg.norm(states, axis=2).max())

    r_used = regularity_info = None
    if config.mode == "constrained":
        r_used, regularity_info = _resolve_regularity(config, sets, rho)

    records: list[CertificateRecord] = []
    if config.certificates_enabled:
        records = evaluate_certificates(config, compliance, adjoint, traj, r_used)
        if r_used is not None and regularity_info["method"] != "interior-formula":
            # Only the interior-ball formula proves its constant.  Try r*1.5,
            # r*1.5^2, ... until the r-dependent checks pass; if the quotient
            # turns vacuous first, keep the first constant's failing records.
            head = records[:-2 * traj.horizon - 1]
            tail, r_try = records[len(head):], r_used
            try:
                while not all(rec.passed for rec in tail):
                    r_try *= 1.5
                    tail = _regularity_records(compliance, adjoint, traj, r_try)
            except VacuousBound:
                r_try = r_used
            if r_try != r_used:
                records = head + tail
                regularity_info = dict(regularity_info, r_used=r_try, escalated=True,
                                       r_initial=r_used)
                r_used = r_try

    report = _build_report(config, compliance, adjoint, traj, records, rho,
                           r_used, regularity_info)
    return RunResult(config=config, compliance=compliance, adjoint=adjoint,
                     trajectory=traj, records=records, report=report)


def _prepare(config: RunConfig):
    """Everything a run derives from its config alone, in pipeline order.

    Returns ``(mseq, compliance, adjoint, sets, intersection)``; raises
    ``NotCompliant`` when the weight sequence fails the structural checks.
    """
    gseq = build_graph_sequence(config)
    mseq = build_matrix_sequence(config, gseq)
    compliance = verify_compliance(mseq, config.horizon)
    if not compliance.ok:
        raise NotCompliant(compliance.violation or "compliance level is neither")
    adjoint = _build_adjoint(config, mseq, compliance)
    sets = parse_constraints(config) if config.mode == "constrained" else None
    intersection = Intersection(sets) if sets else None
    return mseq, compliance, adjoint, sets, intersection


def run(config: RunConfig) -> RunResult:
    """Execute a configured run end to end and assemble its report."""
    mseq, compliance, adjoint, sets, intersection = _prepare(config)
    states, w = simulate(config, mseq, sets)
    return _certify(config, mseq, compliance, adjoint, states, w, sets, intersection)


def _build_report(config: RunConfig, compliance: ComplianceReport,
                  adjoint: AbsoluteProbabilitySequence, traj: Trajectory,
                  records, rho: float, r_used, regularity_info) -> dict:
    h = traj.horizon
    q_step = rate_quotient(adjoint.delta, compliance.beta, compliance.p_star)
    # Only steps above the rounding level decay in a way a ratio can measure.
    keep = traj.lyap[:-1] > noise_floor(traj.states)
    ratios = traj.lyap[1:][keep] / traj.lyap[:-1][keep]
    rate = {"q_step": q_step,
            "empirical_median_step_ratio": float(np.median(ratios)) if ratios.size else None,
            "empirical_max_step_ratio": float(np.max(ratios)) if ratios.size else None}
    if compliance.doubly_stochastic:
        rate["doubly_stochastic_baseline_step"] = doubly_stochastic_rate_factor(
            compliance.beta, config.m, 1)
    consensus = {"final_spread_sq": float(traj.spread_sq[h]),
                 "rho_observed": rho}
    if config.mode == "unconstrained":
        consensus["final_estimate"] = [float(v) for v in traj.conservation[0]]
        consensus["conservation_max_drift"] = float(
            np.abs(traj.conservation - traj.conservation[0]).max())
    else:
        consensus["final_estimate"] = [float(v) for v in traj.states[h].mean(axis=0)]
        consensus["final_max_dist_sq"] = float(traj.dist_sq[h].max())
    report = {
        "config": config.to_json_dict(),
        "seed_scheme": seeding.SCHEME,
        "compliance": {"level": compliance.level, "beta": compliance.beta,
                       "doubly_stochastic": compliance.doubly_stochastic,
                       "p_star": compliance.p_star, "violation": compliance.violation,
                       "p_star_scope": f"max over simulated t < {compliance.horizon}"},
        "adjoint": {"method": adjoint.method, "delta": adjoint.delta,
                    "max_residual": float(adjoint.residuals.max())
                    if adjoint.residuals.size else 0.0,
                    "horizon_extension": ("regenerate-per-step"
                                          if config.graph.get("kind") == "random-rooted"
                                          else "cycle")},
        "rate": rate,
        "certificates": summarize(records),
    }
    if config.mode == "constrained":
        report["regularity"] = regularity_info
        report["r_used"] = r_used
        report["regularity_escalated"] = regularity_info.get("escalated", False)
        if r_used is not None:
            q_tracked = rate_quotient(adjoint.delta, compliance.beta, compliance.p_star,
                                      r_used)
            report["tracked_contraction_step"] = q_tracked
            report["tracked_contraction_vacuous"] = q_tracked >= 1.0 - VACUOUS_EPS
    report["consensus"] = consensus
    return report


# ---------------------------------------------------------------------------
# trajectory CSV round trip

_COLUMNS = ["t", "agent", "coord", "x", "w"]


def write_trajectory_csv(result: RunResult, path) -> None:
    """The states: one row ``t,agent,coord,x,w`` per (t, agent, coord).

    ``w`` is blank at ``t = 0`` and in unconstrained runs.  The bytes are
    those of ``csv.writer`` (CRLF line ends; no cell needs quoting), but each
    step's block is one ``%`` pass over a row template (``%r`` is the
    ``repr`` of each value, ``T`` the step index), written with one call.
    """
    traj = result.trajectory
    m, n = traj.states.shape[1], traj.states.shape[2]
    rows = [f"T,{agent},{coord},%r," for agent in range(m) for coord in range(n)]
    blank_w = "\r\n".join(rows) + "\r\n"
    with_w = "%r\r\n".join(rows) + "%r\r\n"
    pair = np.empty((m, n, 2))  # a step's x and w side by side
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_COLUMNS) + "\r\n")
        for t in range(traj.horizon + 1):
            if traj.w is None or t == 0:
                template, values = blank_w, traj.states[t]
            else:
                pair[..., 0], pair[..., 1] = traj.states[t], traj.w[t]
                template, values = with_w, pair
            fh.write(template.replace("T", str(t)) % tuple(values.ravel().tolist()))


# Bytes of text that read_trajectory_states parses at a time.  A row of about
# 33 bytes takes about 300 bytes while it is parsed, so a chunk peaks near 0.6 MB.
_CHUNK_BYTES = 1 << 16
# A repr'd float never needs more than 24 of the 32 bytes of ``w``.
_ROW_DTYPE = np.dtype([("t", "i8"), ("agent", "i8"), ("coord", "i8"), ("x", "f8"),
                       ("w", "S32")])


def read_trajectory_states(path, m: int, n: int,
                           horizon: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse states (and w, when present) back from a trajectory CSV.

    The rows are parsed by ``np.loadtxt`` in chunks of about ``_CHUNK_BYTES``,
    so the memory used beyond the returned arrays stays bounded.  Raises
    ``ConfigError`` when the file does not match the declared shape: a bad
    header, a row that does not parse (other than five cells, a non-integer
    index, a non-numeric or quoted value, since the writer never quotes, or a
    ``w`` cell too long to be the writer's), an index outside the shape, or
    a row count or a missing or NaN state that shows a truncated or
    inconsistent file.  Blank lines count as rows.
    """
    states = np.full((horizon + 1, m, n), np.nan)
    w = None
    count = 0
    with open(path, errors="replace") as fh:  # a bad byte then fails to parse
        if fh.readline().rstrip("\r\n").split(",") != _COLUMNS:
            raise ConfigError("trajectory CSV header does not match")
        for lines in iter(lambda: fh.readlines(_CHUNK_BYTES), []):
            count += len(lines)
            if not any(map(str.strip, lines)):
                continue  # only blank lines, which loadtxt skips; the count rejects them
            try:
                rows = np.loadtxt(lines, dtype=_ROW_DTYPE, delimiter=",", comments=None,
                                  ndmin=1)
                # mode="raise" also rejects negative indices, which would wrap.
                flat = np.ravel_multi_index((rows["t"], rows["agent"], rows["coord"]),
                                            states.shape)
                states.reshape(-1)[flat] = rows["x"]
                has_w = rows["w"] != b""
                if has_w.any():
                    if (np.strings.str_len(rows["w"]) == _ROW_DTYPE["w"].itemsize).any():
                        raise ValueError("a w cell fills 32 bytes and may be cut short")
                    if w is None:
                        w = np.full(states.shape, np.nan)
                    w.reshape(-1)[flat[has_w]] = rows["w"][has_w].astype(float)
            except ValueError as exc:
                raise ConfigError(f"bad trajectory row in lines {count - len(lines) + 2}"
                                  f"..{count + 1}: {exc}") from exc
    if count != states.size or np.isnan(states).any():
        raise ConfigError("trajectory CSV is truncated or inconsistent")
    return states, w


def write_plot_data_csv(result: RunResult, path) -> None:
    """Per-step summary series for plotting."""
    traj = result.trajectory
    h = traj.horizon
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "spread_sq", "lyap", "decrement", "V_vt", "max_dist_sq"])
        for t in range(h + 1):
            wr.writerow([t, repr(float(traj.spread_sq[t])), repr(float(traj.lyap[t])),
                         repr(float(traj.decrement[t])) if t < h else "",
                         repr(float(traj.v_values[t])) if traj.v_values is not None else "",
                         repr(float(traj.dist_sq[t].max())) if traj.dist_sq is not None else ""])


def replay_certificates(config: RunConfig, states: np.ndarray,
                        w: np.ndarray | None) -> RunResult:
    """Recompute compliance, adjoint, series, and certificates for stored states.

    Used for offline verification: apart from the states themselves, every
    quantity is rebuilt deterministically from the config, so verdicts are
    bit-stable against the original run.
    """
    mseq, compliance, adjoint, sets, intersection = _prepare(config)
    return _certify(config, mseq, compliance, adjoint, states, w, sets, intersection)
