"""Weighted-averaging runs, unconstrained and projection-constrained.

A run simulates ``x_i(t+1) = sum_j A_ij(t) x_j(t)`` (optionally followed by
projection onto per-agent sets), records every intermediate quantity, and
evaluates the full stack of per-step certificates: the exact comparison
function decrease, conservation of ``pi(t)'x(t)``, the decrement lower
bound, geometric contraction envelopes, and the constrained-mode distance
envelopes that depend on a set-regularity constant.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import seeding
from .adjoint import (AbsoluteProbabilitySequence, assemble_adjoint, stationary_adjoint,
                      uniform_adjoint)
from .certificates import CertificateRecord, Certificates, CheckBlock, summarize
from .codec import NIBBLE, row_blocks, write_bits_csv
from .graphs import DiGraph, GraphSequence, regular_tree_graph
from .lyapunov import (contraction_drop, decrement_series,
                       doubly_stochastic_rate_factor, geometric_envelope, noise_floor,
                       rate_quotient, squared_spread, v_function,
                       vector_contraction_certificate, weighted_means, weighted_variance)
from .sets import (DYKSTRA_TOL, FEASIBILITY_TOL, Ball, ConvexSet, Intersection,
                   RegularityEstimate, SetBank, distance, regularity_interior,
                   regularity_sampling, set_from_json_dict)
from .weights import (SCHEMES, SYMMETRIC_SCHEMES, ComplianceReport, GammaTooSmall,
                      MatrixSequence, check_gamma, verify_compliance)

CONSERVATION_TOL = 1e-10
IDENTITY_TOL = 1e-10
VACUOUS_EPS = 1e-12
# D(t) sums nonnegative terms, so VALUE_SLACK covers its rounding; this covers underflow.
DECREMENT_FLOOR = float(np.finfo(float).tiny)

_INITIAL_KINDS = ("uniform-box", "explicit")
_ADJOINT_METHODS = ("auto", "uniform", "backward-product", "stationary")
# The keys each config section may hold.  A regularity section holds its method
# and that method's keys, each of them required but sampling's samples.
_SECTION_KEYS = {"graph": ("kind", "regular_tree_d", "extra_edge_prob", "graph", "graphs"),
                 "weights": ("scheme", "gamma", "matrices"),
                 "initial": ("kind", "low", "high", "states"),
                 "adjoint": ("method",)}
_REGULARITY_METHODS = {"sampling": ("samples",), "interior": ("theta", "x_bar"), "fixed": ("r",)}
_MATRIX_KEYS = ("m", "rows")   # of each weights.matrices entry; m, if given, counts the rows


class YNotInX(ValueError):
    pass


class NotCompliant(ValueError):
    """The weight sequence failed the structural checks; no bound is certifiable."""


class ConfigError(ValueError):
    pass


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_real(value) and math.isfinite(value)


def _is_positive(value) -> bool:
    return _is_number(value) and value > 0


def _is_objects(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, dict) for v in value)


def _is_edge(value) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_integer, value))


def _is_row(value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(_is_real, value))


def _bad_item(value, test) -> str | None:
    """What keeps ``value`` from being a list whose items pass ``test``, or ``None``."""
    if not isinstance(value, (list, tuple)):
        return repr(value)
    return next((f"a list holding {v!r}" for v in value if not test(v)), None)


# (section, key, test, what the value must be) for the optional values a run
# reads from a config section; each is checked when the key is present.  A
# regularity constant is at least 1.  A laplacian gamma may be infinite or
# NaN here; ``check_gamma`` then names it.
_VALUE_CHECKS = (("graph", "regular_tree_d", _is_integer, "an integer"),
                 ("graph", "extra_edge_prob", _is_number, "a finite number"),
                 ("graph", "graph", lambda v: isinstance(v, dict), "an object"),
                 ("graph", "graphs", _is_objects, "a list of objects"),
                 ("weights", "scheme", lambda v: isinstance(v, str) and v in SCHEMES,
                  f"one of {SCHEMES}"),
                 ("weights", "gamma", _is_real, "a number"),
                 ("weights", "matrices", _is_objects, "a list of objects"),
                 ("initial", "low", _is_number, "a finite number"),
                 ("initial", "high", _is_number, "a finite number"),
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
    regularity: dict | None = None

    def __post_init__(self):
        for name in ("m", "n", "horizon", "seed"):
            if not _is_integer(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, not {getattr(self, name)!r}")
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
        if self.regularity is not None and not isinstance(self.regularity, dict):
            raise ConfigError("regularity must be an object")
        regularity = {"method": "sampling"} if self.regularity is None else self.regularity
        for what, value, allowed in (
                ("initial kind", self.initial.get("kind", "uniform-box"), _INITIAL_KINDS),
                ("adjoint method", self.adjoint.get("method", "auto"), _ADJOINT_METHODS),
                ("regularity method", regularity.get("method"), tuple(_REGULARITY_METHODS))):
            if value not in allowed:
                raise ConfigError(f"unknown {what} {value!r}")
        method_keys = _REGULARITY_METHODS[regularity["method"]]
        for key in method_keys:
            if key != "samples" and regularity.get(key) is None:
                raise ConfigError(f"regularity method {regularity['method']!r} needs {key!r}")
        sections = {"graph": self.graph, "weights": self.weights, "initial": self.initial,
                    "adjoint": self.adjoint, "regularity": regularity}
        known = dict(_SECTION_KEYS, regularity=("method", *method_keys))
        unknown = [f"{name}.{key}" for name, section in sections.items()
                   for key in section if key not in known[name]]
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}")
        for section, key, test, what in _VALUE_CHECKS:
            if key in sections[section] and not test(sections[section][key]):
                raise ConfigError(f"{section}.{key} must be {what}, "
                                  f"not {sections[section][key]!r}")
        matrices = self.weights.get("matrices", ())
        unknown = [f"weights.matrices[{k}].{key}" for k, mm in enumerate(matrices)
                   for key in mm if key not in _MATRIX_KEYS]
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}")
        # A graph's own JSON holds an integer m and [j, i] edges of 1-based node ids; custom
        # matrix rows (whose reader names non-finite ones) and explicit states hold numbers.
        own = [("graph.graph", self.graph["graph"])] if "graph" in self.graph else []
        own += [(f"graph.graphs[{k}]", g) for k, g in enumerate(self.graph.get("graphs", ()))]
        for name, spec in own:
            if not _is_integer(spec.get("m")):
                raise ConfigError(f"{name}.m must be an integer, not {spec.get('m')!r}")
        lists = [(f"{name}.edges", spec.get("edges", []), _is_edge, "two-integer lists")
                 for name, spec in own]
        lists += [(f"weights.matrices[{k}].rows", mm.get("rows"), _is_row, "lists of numbers")
                  for k, mm in enumerate(matrices)]
        if "states" in self.initial:
            lists.append(("initial.states", self.initial["states"], _is_row, "lists of numbers"))
        for name, value, test, what in lists:
            bad = _bad_item(value, test)
            if bad is not None:
                raise ConfigError(f"{name} must be a list of {what}, not {bad}")
        for k, mm in enumerate(matrices):
            if "m" in mm and not (_is_integer(mm["m"]) and mm["m"] == len(mm["rows"])):
                raise ConfigError(f"weights.matrices[{k}].m must equal its row count "
                                  f"{len(mm['rows'])}, not {mm['m']!r}")
        states = self.initial.get("states", ())
        if self.initial.get("kind") == "explicit" and not (len(states) == self.m and all(
                len(row) == self.n and all(map(math.isfinite, row)) for row in states)):
            raise ConfigError(f"initial.states must be {self.m} rows of {self.n} finite numbers")
        # Only the complete draw, extra_edge_prob 1, is symmetric at every step.
        scheme, prob = self.weights.get("scheme"), self.graph.get("extra_edge_prob", 0.0)
        if (self.graph.get("kind") == "random-rooted" and scheme in SYMMETRIC_SCHEMES
                and prob != 1):
            raise ConfigError(f"graph.kind 'random-rooted' with weights.scheme {scheme!r} needs "
                              f"graph.extra_edge_prob 1 (symmetric draws), not {prob!r}")
        if scheme == "laplacian":
            if "gamma" not in self.weights:
                raise ConfigError("weights scheme 'laplacian' needs 'gamma'")
            try:
                check_gamma(float(self.weights["gamma"]), self.m)
            except GammaTooSmall as exc:
                raise ConfigError(f"weights.{exc}") from exc
        x_bar = regularity.get("x_bar")
        if x_bar is not None and not (isinstance(x_bar, (list, tuple)) and len(x_bar) == self.n
                                      and all(map(_is_number, x_bar))):
            raise ConfigError(f"regularity.x_bar must be a list of {self.n} finite numbers, "
                              f"not {x_bar!r}")

    @staticmethod
    def from_json_dict(d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"a config must be an object, not {d!r}")
        known = {"m", "n", "horizon", "seed", "mode", "graph", "weights", "initial",
                 "constraints", "adjoint", "regularity"}
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
                regularity=d.get("regularity"),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config key {exc}") from exc

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "horizon": self.horizon, "seed": self.seed,
                "mode": self.mode, "graph": self.graph, "weights": self.weights,
                "initial": self.initial, "constraints": list(self.constraints),
                "adjoint": self.adjoint, "regularity": self.regularity}


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
        return MatrixSequence.custom([mm["rows"] for mm in spec["matrices"]], graph_seq)
    params = {"gamma": float(spec["gamma"])} if scheme == "laplacian" else {}
    try:
        return MatrixSequence.from_scheme(graph_seq, scheme, **params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def initial_states(config: RunConfig, bank: SetBank | None) -> np.ndarray:
    """Initial (m, n) state block; random draws are projected onto each agent's set.

    ``bank`` holds the agents' sets, ``None`` in unconstrained mode.  Explicit
    states in constrained mode must already be feasible within 1e-10 per agent.
    """
    spec = config.initial
    if spec.get("kind") == "explicit":
        x0 = np.array(spec["states"], dtype=float)
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


@dataclass
class Trajectory:
    """All per-step data of a run, derived from its states alone.

    The constrained-only fields, ``w`` among them, are ``None`` otherwise.
    """

    states: np.ndarray                    # (horizon+1, m, n)
    w: np.ndarray | None                  # (horizon+1, m, n); w[t+1] = A(t)x(t), w[0] = 0
    spread_sq: np.ndarray                 # (horizon+1,)
    lyap: np.ndarray                      # (horizon+1,)
    decrement: np.ndarray                 # (horizon,)
    conservation: np.ndarray | None       # (horizon+1, n)
    feasibility: np.ndarray | None        # (horizon+1,) max per-agent violation
    v_values: np.ndarray | None           # (horizon+1,)
    dist_sq: np.ndarray | None            # (horizon+1, m)
    y_point: np.ndarray | None            # fixed test point in X

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    @cached_property
    def conservation_drift(self) -> np.ndarray:
        """``|pi(t)'x(t) - pi(0)'x(0)|`` per coordinate, ``(horizon+1, n)``."""
        return np.abs(self.conservation - self.conservation[0])


def simulate(config: RunConfig, mseq: MatrixSequence,
             sets: tuple[ConvexSet, ...] | None) -> np.ndarray:
    """Run the dynamic; returns the ``(horizon+1, m, n)`` states.

    Each step averages, ``w(t+1) = A(t) x(t)``; in constrained mode each agent
    then projects its row of ``w(t+1)`` onto its own set.
    """
    h = config.horizon
    states = np.empty((h + 1, config.m, config.n))
    bank = None if sets is None else SetBank(sets)
    states[0] = initial_states(config, bank)
    for t, a in enumerate(mseq.dense_steps(range(h))):
        states[t + 1] = a @ states[t] if bank is None else bank.project(a @ states[t])
    return states


def _fixed_test_point(config: RunConfig, states: np.ndarray, pi: np.ndarray,
                      intersection: ConvexSet) -> np.ndarray:
    """The test point ``y`` in ``X`` of the comparison function ``V``: the
    interior regularity's ``x_bar``, else ``P_X(pi(0)'x(0))``; raises
    ``YNotInX`` if ``y`` leaves ``X`` by more than ``FEASIBILITY_TOL``."""
    spec = config.regularity or {}
    y = (np.array(spec["x_bar"], dtype=float) if "x_bar" in spec
         else intersection.project(pi[0] @ states[0]))
    if intersection.violation(y) > FEASIBILITY_TOL:
        raise YNotInX(f"fixed test point violates X by {intersection.violation(y):.3e}")
    return y


def annotate(config: RunConfig, mseq: MatrixSequence,
             adjoint: AbsoluteProbabilitySequence, states: np.ndarray,
             sets: tuple[ConvexSet, ...] | None,
             intersection: ConvexSet | None) -> Trajectory:
    """Derive every per-step series from the raw states.

    Per step, the decrement costs ``O(nnz(A) n)``, the spread ``O(m n)``
    plus ``O(k^2 n)`` over its ``k`` candidate points (``k = m`` at worst),
    and the comparison value ``O(m n)``; see :func:`decrement_series`,
    :func:`squared_spread` and :func:`weighted_variance`.  The spread is one
    batched call over the run.  In constrained mode the feasibilities, the
    tracked projections and the distances to the intersection are each a
    batched projection over the whole run, and each average
    ``w(t+1) = A(t) x(t)`` is formed again step by step, the very product
    that :func:`simulate` projects.
    """
    h = states.shape[0] - 1
    pi = adjoint.vectors
    spread_sq = squared_spread(states)
    decrement = decrement_series(mseq, states, pi)

    if sets is None:
        lyap, conservation = weighted_variance(states, pi)
        return Trajectory(states=states, w=None, spread_sq=spread_sq, lyap=lyap,
                          decrement=decrement, conservation=conservation, feasibility=None,
                          v_values=None, dist_sq=None, y_point=None)

    w = np.zeros_like(states)
    for t, a in enumerate(mseq.dense_steps(range(h))):
        w[t + 1] = a @ states[t]
    y = _fixed_test_point(config, states, pi, intersection)
    lyap = v_function(states, pi, y)
    feasibility = np.max([s.violation(states[:, i]) for i, s in enumerate(sets)], axis=0)
    # V about the projection onto X of each step's weighted mean pi(t)'x(t)
    v_values = v_function(states, pi, intersection.project(weighted_means(pi, states)))
    # Squared with Python's float power, which is libm's pow: numpy squares
    # by multiplying, and the two round differently in about 1 value in 1000.
    dist_sq = np.array([d ** 2 for d in distance(intersection, states).ravel().tolist()])
    dist_sq = dist_sq.reshape(h + 1, config.m)
    return Trajectory(states=states, w=w, spread_sq=spread_sq, lyap=lyap,
                      decrement=decrement, conservation=None, feasibility=feasibility,
                      v_values=v_values, dist_sq=dist_sq, y_point=y)


def evaluate_certificates(config: RunConfig, compliance: ComplianceReport,
                          adjoint: AbsoluteProbabilitySequence,
                          traj: Trajectory, r: float | None) -> Certificates:
    """Every check over the whole run, in a deterministic order.

    Each check is one array expression over the run, held as one
    :class:`CheckBlock`; per step, step-identity(t) precedes
    decrement-bound(t) and averaging-identity(t) precedes projection-step(t).
    Identity-style checks store the absolute residual as ``lhs`` and the
    tolerance as ``rhs`` with slack 1.  A constrained run's last two blocks
    take the quotient :func:`rate_quotient` at the regularity constant ``r``
    (``VacuousBound`` if it rounds to one); an unconstrained run ignores ``r``
    and ends with the vector-rate envelopes from ``k = 0`` and ``k = h // 2``.
    """
    h = traj.horizon
    beta, p_star = compliance.beta, compliance.p_star
    drop = contraction_drop(adjoint.delta, beta, p_star)
    lyap, decrement = traj.lyap, traj.decrement

    if config.mode == "unconstrained":
        x0_norms = np.linalg.norm(traj.states[0], axis=0)  # per coordinate
        resid = np.abs(lyap[1:] - (lyap[:-1] - decrement))
        scale = np.maximum(1.0, (traj.states[:-1] ** 2).reshape(h, -1).sum(axis=1))
        return Certificates(
            CheckBlock("conservation", (traj.conservation_drift / (1.0 + x0_norms)).max(axis=1),
                       CONSERVATION_TOL, slack=1.0),
            (CheckBlock("step-identity", resid, IDENTITY_TOL * scale, slack=1.0),
             CheckBlock("decrement-bound", drop * traj.spread_sq[:h], decrement,
                        floor=DECREMENT_FLOOR)),
            *[vector_contraction_certificate(traj.states, adjoint, beta, p_star, k)
              for k in sorted({0, h // 2})])

    floor = noise_floor(traj.states, DYKSTRA_TOL, reach=2.0)
    w_vals = v_function(traj.w[1:], adjoint.vectors[1:], traj.y_point)
    resid = np.abs(w_vals - (lyap[:-1] - decrement))
    q = rate_quotient(adjoint.delta, beta, p_star, r)
    v = traj.v_values
    return Certificates(
        CheckBlock("feasibility", traj.feasibility[1:], FEASIBILITY_TOL, t0=1, slack=1.0),
        (CheckBlock("averaging-identity", resid, IDENTITY_TOL * np.maximum(1.0, lyap[:-1]),
                    slack=1.0),
         CheckBlock("projection-step", lyap[1:], w_vals, floor=floor)),
        CheckBlock("constrained-decrease", lyap[1:], lyap[:-1] - drop * traj.spread_sq[:-1],
                   floor=floor),
        CheckBlock("tracked-contraction", v[1:], q * v[:-1], floor=floor),
        CheckBlock("distance-envelope", traj.dist_sq.sum(axis=1),
                   geometric_envelope(q, h + 1, float(v[0]) / adjoint.delta), floor=floor))


@dataclass
class RunResult:
    config: RunConfig
    compliance: ComplianceReport
    adjoint: AbsoluteProbabilitySequence
    trajectory: Trajectory
    certificates: Certificates
    report: dict

    @property
    def records(self) -> list[CertificateRecord]:
        """Every record, built on demand from the blocks."""
        return list(self.certificates)


def _build_adjoint(config: RunConfig, mseq: MatrixSequence,
                   compliance: ComplianceReport) -> AbsoluteProbabilitySequence:
    spec = config.adjoint
    method = spec.get("method", "auto")
    if method == "auto":
        method = "uniform" if compliance.doubly_stochastic else "backward-product"
    if method == "uniform":
        return uniform_adjoint(mseq, config.horizon)
    if method == "backward-product":
        return assemble_adjoint(mseq, config.horizon)
    return stationary_adjoint(mseq, config.horizon)


def _resolve_regularity(config: RunConfig, sets, rho: float) -> RegularityEstimate:
    """Regularity constant for the observed iterate ball ``B(0, rho)``."""
    spec = config.regularity or {"method": "sampling"}
    if spec["method"] == "fixed":
        return RegularityEstimate(r_hat=float(spec["r"]), method="fixed", samples=0)
    ball = Ball(np.zeros(config.n), max(rho, 1e-9) * (1.0 + 1e-12) + 1e-12)
    if spec["method"] == "interior":
        return regularity_interior(sets, float(spec["theta"]),
                                   np.array(spec["x_bar"], dtype=float), ball)
    return regularity_sampling(sets, ball, int(spec.get("samples", 2000)), config.seed)


def _certify(config: RunConfig, mseq: MatrixSequence, compliance: ComplianceReport,
             adjoint: AbsoluteProbabilitySequence, states: np.ndarray,
             sets, intersection) -> RunResult:
    """Annotate the states and evaluate every check once; a constrained run's
    checks take the one regularity constant its config states, and no other."""
    traj = annotate(config, mseq, adjoint, states, sets, intersection)
    rho = float(np.linalg.norm(states, axis=2).max())
    regularity = (_resolve_regularity(config, sets, rho) if config.mode == "constrained"
                  else None)
    certs = evaluate_certificates(config, compliance, adjoint, traj,
                                  None if regularity is None else regularity.r_hat)
    report = _build_report(config, compliance, adjoint, traj, certs, rho, regularity)
    return RunResult(config=config, compliance=compliance, adjoint=adjoint,
                     trajectory=traj, certificates=certs, report=report)


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
    sets = None
    if config.mode == "constrained":
        sets = tuple(set_from_json_dict(d) for d in config.constraints)
    intersection = Intersection(sets) if sets else None
    return mseq, compliance, adjoint, sets, intersection


def run(config: RunConfig) -> RunResult:
    """Execute a configured run end to end and assemble its report."""
    mseq, compliance, adjoint, sets, intersection = _prepare(config)
    states = simulate(config, mseq, sets)
    return _certify(config, mseq, compliance, adjoint, states, sets, intersection)


def _build_report(config: RunConfig, compliance: ComplianceReport,
                  adjoint: AbsoluteProbabilitySequence, traj: Trajectory,
                  certs: Certificates, rho: float,
                  regularity: RegularityEstimate | None) -> dict:
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
        consensus["conservation_max_drift"] = float(traj.conservation_drift.max())
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
                    "max_residual": float(adjoint.residuals.max()),
                    "horizon_extension": ("regenerate-per-step"
                                          if config.graph.get("kind") == "random-rooted"
                                          else "cycle")},
        "rate": rate,
        "certificates": summarize(certs),
    }
    if config.mode == "constrained":
        q_tracked = rate_quotient(adjoint.delta, compliance.beta, compliance.p_star,
                                  regularity.r_hat)
        report["regularity"] = regularity.to_json_dict()
        report["r_used"] = regularity.r_hat
        report["tracked_contraction_step"] = q_tracked
        report["tracked_contraction_vacuous"] = q_tracked >= 1.0 - VACUOUS_EPS
    report["consensus"] = consensus
    return report


# ---------------------------------------------------------------------------
# trajectory CSV round trip

_HEADER = "t,agent,coord,x_bits"


def _trajectory_tails(m: int, n: int) -> list[list[str]]:
    return [[f"{agent},{coord}," for coord in range(n)] for agent in range(m)]


def write_trajectory_csv(result: RunResult, path) -> None:
    """The states: one row ``t,agent,coord,x_bits`` per (t, agent, coord).

    ``x_bits`` is the state's big-endian IEEE-754 binary64 pattern as 16
    lowercase hex digits, ``struct.pack(">d", x).hex()``.  The averages ``w``
    are not written: :func:`annotate` forms them again.  The bytes are those
    of ``csv.writer`` (CRLF line ends), written one block of steps at a time
    by :func:`codec.write_bits_csv`.
    """
    x = result.trajectory.states
    write_bits_csv(path, _HEADER, _trajectory_tails(*x.shape[1:]), x, range(len(x)))


def read_trajectory_states(path, m: int, n: int, horizon: int) -> np.ndarray:
    """Parse the ``(horizon+1, m, n)`` states back from a trajectory CSV.

    The file must hold the bytes :func:`write_trajectory_csv` writes for that
    shape, with the header's line end, ``\\r\\n`` or ``\\n``, on every row.
    It is read one block of steps at a time.  Any other header, row, cell or
    line end, a NaN state, a short file or bytes after the last row raise
    ``ConfigError``.
    """
    states = np.empty((horizon + 1, m, n))
    with open(path, "rb") as fh:
        header = fh.readline(len(_HEADER) + 2)
        eol = header[len(_HEADER):]
        if header[:len(_HEADER)] != _HEADER.encode() or eol not in (b"\r\n", b"\n"):
            raise ConfigError(f"trajectory CSV header is not {_HEADER}")
        for t0, t1, block, cells in row_blocks(_trajectory_tails(m, n), range(horizon + 1),
                                               eol.decode()):
            want, size = block.copy(), fh.readinto(block)
            for agents, coords, cell in cells:
                nibbles = NIBBLE[cell]
                octets = nibbles[..., 0::2] << 4 | nibbles[..., 1::2]
                states[t0:t1, agents, coords] = octets.view(">f8")[..., 0]
                cell[nibbles < 16] = ord("0")  # a byte that is no hex digit stays, and differs
            if (size < block.size or not np.array_equal(block, want)
                    or np.isnan(states[t0:t1]).any()):
                raise ConfigError(f"trajectory CSV steps {t0}..{t1 - 1}: bad rows or a NaN state")
        if fh.read(1):
            raise ConfigError("trajectory CSV has bytes after its last row")
    return states


def write_plot_data_csv(result: RunResult, path) -> None:
    """Per-step summary series for plotting: one row per ``t``.

    ``decrement`` is blank at ``t = horizon``, and ``V_vt`` and
    ``max_dist_sq`` in unconstrained runs.  The bytes are those of
    ``csv.writer`` (CRLF line ends; no cell needs quoting), but the rows are
    one ``%`` pass over a template, written with one call.
    """
    traj = result.trajectory
    h = traj.horizon
    series = [traj.spread_sq, traj.lyap, np.append(traj.decrement, 0.0), traj.v_values,
              None if traj.dist_sq is None else traj.dist_sq.max(axis=1)]
    cells = ["%r" if column is not None else "" for column in series]
    last = cells[:2] + [""] + cells[3:]
    template = ("".join(f"{t},{','.join(cells)}\r\n" for t in range(h))
                + f"{h},{','.join(last)}\r\n")
    present = [column for column in series if column is not None]
    values = np.column_stack(present).ravel().tolist()
    del values[2 - len(present)]   # the padded decrement of the last step
    with open(path, "w", newline="") as fh:
        fh.write("t,spread_sq,lyap,decrement,V_vt,max_dist_sq\r\n" + template % tuple(values))


def replay_certificates(config: RunConfig, states: np.ndarray) -> RunResult:
    """Recompute compliance, adjoint, series, and certificates for stored states.

    Used for offline verification: apart from the states themselves, every
    quantity is rebuilt deterministically from the config, so verdicts are
    bit-stable against the original run.
    """
    mseq, compliance, adjoint, sets, intersection = _prepare(config)
    return _certify(config, mseq, compliance, adjoint, states, sets, intersection)
