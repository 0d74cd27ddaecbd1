"""Closed convex sets with Euclidean projection and set-regularity machinery.

Halfspaces, hyperplanes, boxes, and balls project in closed form;
polyhedra and general intersections project through Dykstra's alternating
scheme, which converges to the exact nearest point of the intersection.
Regularity constants (``dist(x, X) <= r * max_i dist(x, X_i)`` over a
region) are estimated either by sampling (a certified lower bound) or from
an interior ball via ``r = max_{y in Y} ||y - x_bar|| / theta``.

Every projection, violation and distance takes points of shape ``(..., n)``:
a 1-D point is a batch of one.  Each point of a batch gets the bits it would
get alone, because the inner products are ``np.vecdot`` and the norms
``np.sqrt(np.vecdot(d, d))``, which round exactly as the 1-D ``a @ x`` and
``np.linalg.norm(d)`` do (``(x * a).sum(-1)`` and ``einsum`` sum in another
order).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .seeding import substream

FEASIBILITY_TOL = 1e-10
DYKSTRA_TOL = 1e-12
DYKSTRA_MAX_SWEEPS = 10 ** 5


class DykstraNotConverged(RuntimeError):
    """Iterate displacement stayed above tolerance; intersection may be empty."""


class NoInformativeSamples(RuntimeError):
    """Every sample fell inside the intersection, so no ratio is defined."""


class InteriorBallNotContained(ValueError):
    pass


class ConvexSet:
    """Marker base class; concrete sets implement ``project`` and ``violation``.

    Both take points of shape ``(..., n)``; ``project`` returns a new array
    of the same shape and ``violation`` one value per point.
    """

    def project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def violation(self, x: np.ndarray):
        """Distance-scaled infeasibility measure; zero inside the set."""
        raise NotImplementedError


def _vec(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _norm(d: np.ndarray):
    """Euclidean norm over the last axis, bit-equal to ``np.linalg.norm`` of each row."""
    return np.sqrt(np.vecdot(d, d))


def _positive_part(v):
    """``max(0.0, v)`` per point: ``v`` where it is positive, else exactly ``0.0``."""
    return np.where(v > 0.0, v, 0.0)[()]


def _worst(sets, x):
    """Largest member violation per point."""
    return functools.reduce(np.maximum, [s.violation(x) for s in sets])


@dataclass(frozen=True)
class Halfspace(ConvexSet):
    """``{x : a.x <= b}``"""

    a: np.ndarray
    b: float

    def __post_init__(self):
        a = _vec(self.a)
        norm = float(np.linalg.norm(a))
        if norm == 0.0:
            raise ValueError("halfspace normal must be nonzero")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "_a_norm", norm)
        object.__setattr__(self, "_a_norm_sq", float(a @ a))

    def project(self, x):
        x = _vec(x)
        gap = np.vecdot(x, self.a) - self.b
        return np.where((gap <= 0.0)[..., None], x,
                        x - (gap / self._a_norm_sq)[..., None] * self.a)

    def violation(self, x):
        gap = np.vecdot(_vec(x), self.a) - self.b
        return _positive_part(gap / self._a_norm)


@dataclass(frozen=True)
class Hyperplane(ConvexSet):
    """``{x : a.x = b}``"""

    a: np.ndarray
    b: float

    def __post_init__(self):
        a = _vec(self.a)
        norm = float(np.linalg.norm(a))
        if norm == 0.0:
            raise ValueError("hyperplane normal must be nonzero")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "_a_norm", norm)
        object.__setattr__(self, "_a_norm_sq", float(a @ a))

    def project(self, x):
        x = _vec(x)
        gap = np.vecdot(x, self.a) - self.b
        return x - (gap / self._a_norm_sq)[..., None] * self.a

    def violation(self, x):
        return np.abs(np.vecdot(_vec(x), self.a) - self.b) / self._a_norm


@dataclass(frozen=True)
class Box(ConvexSet):
    """Coordinate box; ``+-inf`` bounds leave a side open."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo, hi = _vec(self.lower), _vec(self.upper)
        if lo.shape != hi.shape:
            raise ValueError("bound shapes differ")
        if np.isnan(lo).any() or np.isnan(hi).any() or (lo > hi).any():
            raise ValueError("need lower <= upper coordinatewise")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def project(self, x):
        return np.clip(_vec(x), self.lower, self.upper)

    def violation(self, x):
        x = _vec(x)
        return _norm(x - np.clip(x, self.lower, self.upper))


@dataclass(frozen=True)
class Ball(ConvexSet):
    """Closed Euclidean ball of positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = _vec(self.center)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))

    def project(self, x):
        x = _vec(x)
        d = x - self.center
        r = _norm(d)
        # radius / max(r, radius) is radius / r wherever that branch is taken,
        # and never divides by zero where it is not.
        scale = self.radius / np.maximum(r, self.radius)
        return np.where((r <= self.radius)[..., None], x,
                        self.center + scale[..., None] * d)

    def violation(self, x):
        return _positive_part(_norm(_vec(x) - self.center) - self.radius)


@dataclass(frozen=True)
class Polyhedron(ConvexSet):
    """Finite intersection of halfspaces, projected by Dykstra's scheme."""

    halfspaces: tuple

    def __post_init__(self):
        object.__setattr__(self, "halfspaces", tuple(self.halfspaces))
        if not self.halfspaces:
            raise ValueError("polyhedron needs at least one halfspace")

    def project(self, x):
        return dykstra_project(self.halfspaces, x)

    def violation(self, x):
        return _worst(self.halfspaces, x)


@dataclass(frozen=True)
class Intersection(ConvexSet):
    """Intersection of arbitrary member sets, projected by Dykstra's scheme."""

    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("intersection needs at least one member")

    def project(self, x):
        if len(self.members) == 1:
            return self.members[0].project(x)
        return dykstra_project(self.members, x)

    def violation(self, x):
        return _worst(self.members, x)


def dykstra_project(sets, x, tol: float = DYKSTRA_TOL,
                    max_sweeps: int = DYKSTRA_MAX_SWEEPS) -> np.ndarray:
    """Exact Euclidean projection onto an intersection via Dykstra increments.

    Unlike plain cyclic projections, carrying per-set increments makes the
    iterates converge to the true nearest point.  The iterate can plateau
    for many sweeps while the increments rebalance, so a sweep only counts
    as converged when its displacement is at most ``tol`` AND the point is
    feasible for every member within 1e-10; a sweep that changes neither
    the iterate nor any increment is a fixed point of the whole recursion
    and ends the search immediately.

    ``x`` has shape ``(..., n)``.  Each point runs its own recursion with its
    own increments, and a point leaves the batch the sweep it stops, so every
    point gets the bits and the sweep count it would get alone.  If any
    point fails to converge, ``DykstraNotConverged`` names the lowest-index
    failing point, after every other point has run to its end.
    """
    sets = tuple(sets)
    x = _vec(x)
    points = x.reshape(-1, x.shape[-1])
    result = points.copy()
    # Member violation at each point's last settled sweep; a point converged
    # exactly when its final value is within FEASIBILITY_TOL.
    worst = np.full(points.shape[0], np.inf)
    active = np.arange(points.shape[0])
    current = points
    increments = np.zeros((len(sets),) + points.shape)
    for _ in range(max_sweeps):
        if not active.size:
            break
        previous, previous_increments = current, increments.copy()
        for idx, s in enumerate(sets):
            target = current + increments[idx]
            current = s.project(target)
            increments[idx] = target - current
        settled = np.abs(current - previous).max(axis=-1) <= tol
        if not settled.any():
            continue
        here, settled_at = active[settled], current[settled]
        worst[here] = _worst(sets, settled_at)
        feasible = worst[here] <= FEASIBILITY_TOL
        result[here[feasible]] = settled_at[feasible]
        # A settled sweep that moved no increment can change nothing anymore:
        # the intersection is unreachable from that point.
        inc_change = np.abs(increments[:, settled] - previous_increments[:, settled])
        stops = settled.copy()
        stops[settled] = feasible | (inc_change.max(axis=(0, 2)) == 0.0)
        active, current, increments = active[~stops], current[~stops], increments[:, ~stops]
    failed = np.flatnonzero(~(worst <= FEASIBILITY_TOL))
    if failed.size:
        raise DykstraNotConverged(
            f"point {failed[0]} stopped with member violation {worst[failed[0]]:.3e}; "
            "intersection may be empty or ill-conditioned")
    return result.reshape(x.shape)


def distance(s: ConvexSet, x):
    """``||x - P_S(x)||`` per point of ``x``, shape ``(..., n)``."""
    x = _vec(x)
    return _norm(x - s.project(x))


@dataclass(frozen=True)
class RegularityEstimate:
    """Regularity constant estimate; ``r_hat >= 1`` always.

    Sampling gives a lower bound on any valid constant over the sampled
    region; the interior-ball formula gives a usable upper-bound constant.
    """

    r_hat: float
    method: str
    samples: int
    skipped: int = 0
    theta: float | None = None
    x_bar: tuple | None = None

    def __post_init__(self):
        if self.r_hat < 1.0:
            raise ValueError("regularity constants are at least 1")

    def to_json_dict(self) -> dict:
        d = {"r_hat": self.r_hat, "method": self.method,
             "samples": self.samples, "skipped": self.skipped}
        if self.theta is not None:
            d["theta"] = self.theta
        if self.x_bar is not None:
            d["x_bar"] = list(self.x_bar)
        return d


def _uniform_ball_point(rng: np.random.Generator, center: np.ndarray, radius: float) -> np.ndarray:
    n = center.shape[0]
    direction = rng.normal(size=n)
    direction /= np.linalg.norm(direction)
    return center + radius * rng.random() ** (1.0 / n) * direction


_SAMPLE_BLOCK = 2 ** 14  # points per batched projection; bounds the memory of a call


def regularity_sampling(sets, region: Ball, samples: int, seed: int) -> RegularityEstimate:
    """Largest observed ratio ``dist(x, X) / max_i dist(x, X_i)`` over samples from ``region``.

    Samples inside the intersection (max distance below 1e-9) carry no
    information and are skipped; if every sample is skipped the call fails.
    Samples are drawn one by one, so the stream does not depend on the block
    size, and projected a block at a time.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    sets = tuple(sets)
    intersection = Intersection(sets)
    rng = substream(seed, "regularity")
    r_hat = 1.0
    skipped = 0
    for start in range(0, samples, _SAMPLE_BLOCK):
        points = np.array([_uniform_ball_point(rng, region.center, region.radius)
                           for _ in range(min(_SAMPLE_BLOCK, samples - start))])
        dmax = np.max([distance(s, points) for s in sets], axis=0)
        informative = ~(dmax <= 1e-9)
        skipped += int(points.shape[0] - informative.sum())
        if informative.any():
            ratios = distance(intersection, points[informative]) / dmax[informative]
            r_hat = max(r_hat, float(ratios.max()))
    if skipped == samples:
        raise NoInformativeSamples("all samples lie in the intersection")
    return RegularityEstimate(r_hat=float(r_hat), method="sampling",
                              samples=samples, skipped=skipped)


_SPHERE_CHECK_SEED = 0x5E7C0DE


def regularity_interior(sets, theta: float, x_bar, region: Ball) -> RegularityEstimate:
    """Regularity constant from an interior ball: ``(||c_Y - x_bar|| + radius_Y) / theta``.

    The ball of radius ``theta`` around ``x_bar`` must lie in every set;
    containment is checked by sampling the sphere at ``100 n`` points with a
    fixed deterministic stream, each required feasible within 1e-10.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    x_bar = _vec(x_bar)
    n = x_bar.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence(_SPHERE_CHECK_SEED))
    directions = rng.normal(size=(100 * n, n))
    directions /= _norm(directions)[:, None]
    points = x_bar + theta * directions
    # (point, set) in the order a point-by-point check meets them
    violations = np.array([s.violation(points) for s in sets]).T
    bad = np.flatnonzero(violations > FEASIBILITY_TOL)
    if bad.size:
        raise InteriorBallNotContained(
            f"sphere point violates a set by {violations.flat[bad[0]]:.3e}")
    r = (float(np.linalg.norm(region.center - x_bar)) + region.radius) / theta
    return RegularityEstimate(r_hat=max(1.0, r), method="interior-formula",
                              samples=100 * n, skipped=0, theta=float(theta),
                              x_bar=tuple(map(float, x_bar)))


def set_from_json_dict(d: dict) -> ConvexSet:
    """Parse the set-specification JSON; box bounds accept null or "inf"/"-inf"."""

    def bound(v, sign: float) -> float:
        return sign * np.inf if v is None else float(v)

    if not isinstance(d, dict):
        raise ValueError(f"a set spec must be an object, not {d!r}")
    kind = d["type"]
    if kind == "halfspace":
        return Halfspace(np.array(d["a"], dtype=float), float(d["b"]))
    if kind == "hyperplane":
        return Hyperplane(np.array(d["a"], dtype=float), float(d["b"]))
    if kind == "box":
        lo = np.array([bound(v, -1.0) for v in d["lower"]])
        hi = np.array([bound(v, +1.0) for v in d["upper"]])
        return Box(lo, hi)
    if kind == "ball":
        return Ball(np.array(d["center"], dtype=float), float(d["radius"]))
    if kind == "polyhedron":
        return Polyhedron(tuple(set_from_json_dict(h) for h in d["halfspaces"]))
    if kind == "intersection":
        return Intersection(tuple(set_from_json_dict(mm) for mm in d["members"]))
    raise ValueError(f"unknown set type {kind!r}")
