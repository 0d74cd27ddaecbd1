"""Closed convex sets with Euclidean projection and set-regularity machinery.

Halfspaces, hyperplanes, boxes, and balls project in closed form;
intersections, polyhedra among them, project through Dykstra's alternating
scheme, which converges to the exact nearest point of the intersection.  An
intersection's members are flattened when it is built: a member that is
itself an intersection (a polyhedron, say) gives up its own members, so one
Dykstra recursion runs over primitive sets and never nests another.  Boyle &
Dykstra (1986) show the scheme converges to the projection onto the
intersection for any finite family of closed convex sets, so the flat family
has the nested one's limit.
Regularity constants (``dist(x, X) <= r * max_i dist(x, X_i)`` over a
region) are estimated either by sampling (a certified lower bound) or from
an interior ball via ``r = max_{y in Y} ||y - x_bar|| / theta``.

Every projection, violation and distance takes points of shape ``(..., n)``:
a 1-D point is a batch of one.  Each point of a batch gets the bits it would
get alone, because the inner products are ``np.vecdot`` and the norms
``np.sqrt(np.vecdot(d, d))``, which round exactly as the 1-D ``a @ x`` and
``np.linalg.norm(d)`` do (``(x * a).sum(-1)`` and ``einsum`` sum in another
order).

A :class:`SetBank` projects row ``i`` of a block onto agent ``i``'s set, as a
constrained run does every step.  It stacks the halfspace, hyperplane, box
and ball agents into one array per kind (normals and offsets, bounds,
centres and radii) and runs each kind's closed form once over its rows.  The
closed forms are the sets' own and work elementwise per point, so every
agent keeps the bits of its own ``project``.  The facets of the agents whose
set is an intersection of two or more halfspaces are stacked too, for
Dykstra's exit before the first sweep, so only the agents really outside
their polyhedron run the recursion.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .seeding import substream

FEASIBILITY_TOL = 1e-10
DYKSTRA_TOL = 1e-12
DYKSTRA_MAX_SWEEPS = 10 ** 5
_SAMPLE_BLOCK = 2 ** 14  # points per batched call; bounds the memory of a call


class DykstraNotConverged(RuntimeError):
    """Iterate displacement stayed above tolerance; intersection may be empty."""


class InteriorBallNotContained(ValueError):
    pass


class ConvexSet:
    """Marker base class; concrete sets implement ``project`` and ``violation``.

    Both take points of shape ``(..., n)``; ``project`` returns a new array
    of the same shape and ``violation`` one value per point.  ``dim`` is the
    set's number of coordinates ``n``.
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


def _per_point(ufunc, a):
    """``ufunc.reduce(a, axis=-1)`` for ``np.maximum`` over absolute values or
    ``np.logical_and`` over flags, one coordinate at a time.

    numpy reduces a short last axis with a loop per point: for 2 000 points
    of 2 coordinates it takes about 80 us where this takes about 3 us.
    Neither reduction depends on order for these inputs, so the bits are
    numpy's.
    """
    out = a[..., 0].copy()
    for k in range(1, a.shape[-1]):
        ufunc(out, a[..., k], out=out)
    return out


def _worst(sets, x):
    """Largest member violation per point."""
    return functools.reduce(np.maximum, (s.violation(x) for s in sets))


def _coordinates(v, what: str) -> np.ndarray:
    """``v`` as a read-only vector of at least one coordinate, else ``ValueError``."""
    v = _vec(v)
    if v.ndim != 1 or not v.size:
        raise ValueError(f"{what} must be a vector of at least one coordinate, not {v!r}")
    v.setflags(write=False)
    return v


def _set_plane(s, kind: str) -> None:
    """Check and store the normal ``a`` and offset ``b`` of a halfspace or hyperplane."""
    a = _coordinates(s.a, f"{kind} normal")
    norm = float(np.linalg.norm(a))
    if not 0.0 < norm < math.inf:  # also false for a NaN
        raise ValueError(f"{kind} normal must be finite and nonzero")
    b = float(s.b)
    if not math.isfinite(b):
        raise ValueError(f"{kind} offset must be finite")
    object.__setattr__(s, "a", a)
    object.__setattr__(s, "b", b)
    object.__setattr__(s, "_a_norm", norm)
    object.__setattr__(s, "_a_norm_sq", float(a @ a))


# The closed forms.  The set data may be stacked, one row per point (a
# SetBank's), or belong to one set; the arithmetic per point is the same.

def _halfspace_project(x, a, b, a_norm_sq):
    gap = np.vecdot(x, a) - b
    return np.where((gap <= 0.0)[..., None], x, x - (gap / a_norm_sq)[..., None] * a)


def _halfspace_violation(x, a, b, a_norm):
    return _positive_part((np.vecdot(x, a) - b) / a_norm)


def _hyperplane_project(x, a, b, a_norm_sq):
    return x - ((np.vecdot(x, a) - b) / a_norm_sq)[..., None] * a


def _ball_project(x, center, radius):
    d = x - center
    r = _norm(d)
    # radius / max(r, radius) is radius / r wherever that branch is taken,
    # and never divides by zero where it is not.
    scale = radius / np.maximum(r, radius)
    return np.where((r <= radius)[..., None], x, center + scale[..., None] * d)


@dataclass(frozen=True)
class Halfspace(ConvexSet):
    """``{x : a.x <= b}``"""

    a: np.ndarray
    b: float

    def __post_init__(self):
        _set_plane(self, "halfspace")

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def project(self, x):
        return _halfspace_project(_vec(x), self.a, self.b, self._a_norm_sq)

    def violation(self, x):
        return _halfspace_violation(_vec(x), self.a, self.b, self._a_norm)


@dataclass(frozen=True)
class Hyperplane(ConvexSet):
    """``{x : a.x = b}``"""

    a: np.ndarray
    b: float

    def __post_init__(self):
        _set_plane(self, "hyperplane")

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def project(self, x):
        return _hyperplane_project(_vec(x), self.a, self.b, self._a_norm_sq)

    def violation(self, x):
        return np.abs(np.vecdot(_vec(x), self.a) - self.b) / self._a_norm


@dataclass(frozen=True)
class Box(ConvexSet):
    """Coordinate box; ``+-inf`` bounds leave a side open."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _coordinates(self.lower, "box lower bound")
        hi = _coordinates(self.upper, "box upper bound")
        if lo.shape != hi.shape:
            raise ValueError("bound shapes differ")
        if np.isnan(lo).any() or np.isnan(hi).any() or (lo > hi).any():
            raise ValueError("need lower <= upper coordinatewise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def project(self, x):
        return np.clip(_vec(x), self.lower, self.upper)

    def violation(self, x):
        x = _vec(x)
        d = x - np.clip(x, self.lower, self.upper)
        # Offsets below about 1e-162 square to zero; their largest magnitude
        # keeps such a point's violation positive, so zero means inside.
        r = _norm(d)
        return np.where(r > 0.0, r, _per_point(np.maximum, np.abs(d)))[()]


@dataclass(frozen=True)
class Ball(ConvexSet):
    """Closed Euclidean ball of positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = _coordinates(self.center, "ball center")
        radius = float(self.radius)
        if not (np.isfinite(c).all() and 0.0 < radius < math.inf):
            raise ValueError("ball needs a finite center and a finite positive radius")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", radius)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def project(self, x):
        return _ball_project(_vec(x), self.center, self.radius)

    def violation(self, x):
        return _positive_part(_norm(_vec(x) - self.center) - self.radius)


@dataclass(frozen=True)
class Intersection(ConvexSet):
    """Intersection of arbitrary member sets, projected by Dykstra's scheme.

    A polyhedron is the intersection of its facets' halfspaces.  A member
    that is itself an intersection is replaced by its members, which are
    already flat, so ``members`` holds no intersection.
    """

    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(
            m for s in self.members for m in (s.members if isinstance(s, Intersection) else (s,))))
        if not self.members:
            raise ValueError("intersection needs at least one member")
        dims = {s.dim for s in self.members}
        if len(dims) != 1:
            raise ValueError(f"intersection members differ in dimension: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def project(self, x):
        if len(self.members) == 1:
            return self.members[0].project(x)
        return dykstra_project(self.members, x)

    def violation(self, x):
        return _worst(self.members, x)


def dykstra_project(sets, x, max_sweeps: int = DYKSTRA_MAX_SWEEPS) -> np.ndarray:
    """Exact Euclidean projection onto an intersection via Dykstra increments.

    Unlike plain cyclic projections, carrying per-set increments makes the
    iterates converge to the true nearest point.  The iterate can plateau
    for many sweeps, or end a sweep where it began, while the increments
    rebalance (Birgin & Raydan 2005, "Robust stopping criteria for Dykstra's
    algorithm"), so a point only converges at a sweep that moved neither
    the iterate nor any increment by more than ``DYKSTRA_TOL`` and left the
    point feasible for every member within 1e-10; a sweep that changes
    neither the iterate nor any increment is a fixed point of the whole
    recursion and ends the search immediately.

    ``x`` has shape ``(..., n)``.  Each point runs its own recursion with its
    own increments, and a point leaves the batch the sweep it stops, so every
    point gets the bits and the sweep count it would get alone.  The points
    that need sweeps run them in blocks of at most ``_SAMPLE_BLOCK``, which
    bounds the memory the increments take.  If any point fails to converge,
    ``DykstraNotConverged`` names the lowest-index failing point, after every
    other point has run to its end.

    A finite point whose every member violation is exactly ``0.0`` leaves
    before the first sweep with that sweep's result.  Each member returns its
    target ``point + 0.0`` up to the sign of a zero, which the next member's
    target (plus a zero increment) clears again, so the sweep ends on the last
    member's projection of ``point + 0.0`` and stops there.
    """
    sets = tuple(sets)
    x = _vec(x)
    points = x.reshape(-1, x.shape[-1])
    inside = (_worst(sets, points) == 0.0) & _per_point(np.logical_and, np.isfinite(points))
    if inside.all():
        return sets[-1].project(points + 0.0).reshape(x.shape)
    result = points.copy()
    if inside.any():
        result[inside] = sets[-1].project(points[inside] + 0.0)
    worst = np.where(inside, 0.0, np.inf)
    converged = inside.copy()
    outside = np.flatnonzero(~inside)
    for start in range(0, outside.size, _SAMPLE_BLOCK):
        rows = outside[start:start + _SAMPLE_BLOCK]
        result[rows], worst[rows], converged[rows] = _dykstra_sweeps(sets, points[rows],
                                                                     max_sweeps)
    failed = np.flatnonzero(~converged)
    if failed.size:
        raise DykstraNotConverged(
            f"point {failed[0]} stopped with member violation {worst[failed[0]]:.3e}; "
            "intersection may be empty or ill-conditioned")
    return result.reshape(x.shape)


def _dykstra_sweeps(sets, points, max_sweeps):
    """Dykstra's sweeps for each row of ``points``, shape ``(k, n)``.

    Returns the rows' results, their member violations at their last sweep
    that left the iterate within ``DYKSTRA_TOL`` of where it began (``inf``
    for a row with no such sweep), and whether each row converged.  A row's result is
    the iterate of that sweep (its point if none).
    """
    result = points.copy()
    worst = np.full(points.shape[0], np.inf)
    converged = np.zeros(points.shape[0], dtype=bool)
    active = np.arange(points.shape[0])
    current = points
    # Two increment buffers: each sweep writes its increments into the spare
    # one, so the last sweep's stay there for comparison without a copy.
    increments = np.zeros((len(sets),) + points.shape)
    spare = np.empty_like(increments)
    for _ in range(max_sweeps):
        if not active.size:
            break
        previous = current
        for idx, s in enumerate(sets):
            target = current + increments[idx]
            current = s.project(target)
            np.subtract(target, current, out=spare[idx])
        increments, spare = spare, increments
        moves = _per_point(np.maximum, np.abs(current - previous))
        settled = np.flatnonzero(moves <= DYKSTRA_TOL)
        if not settled.size:
            continue
        # How far each increment moved, which is how far each member's step
        # moved the iterate; an increment that stays infinite moves, as
        # inf - inf is NaN.  The iterate can end a sweep where it began while
        # the increments still rebalance, so a point converges only once they
        # have settled too.  One member at a time, so no temporary outgrows
        # a member's increments.
        moved = _per_point(np.maximum, functools.reduce(np.maximum, (
            np.abs(new[settled] - old[settled]) for new, old in zip(increments, spare))))
        here = active[settled]
        result[here], worst[here] = current[settled], np.nan  # NaN: not evaluated yet
        stops = moved <= DYKSTRA_TOL  # only these can stop, so only they evaluate the members
        if stops.any():
            worst[here[stops]] = _worst(sets, result[here[stops]])
            stops[stops] = worst[here[stops]] <= FEASIBILITY_TOL
        converged[here[stops]] = True
        # A settled sweep that moved no increment can change nothing anymore:
        # the intersection is unreachable from that point.
        stops |= moved == 0.0
        ends = np.zeros(active.size, dtype=bool)
        ends[settled[stops]] = True
        if ends.any():
            active, current, increments = active[~ends], current[~ends], increments[:, ~ends]
            spare = spare[:, :active.size]  # its leading rows serve the points left
    late = np.isnan(worst)  # the last settled sweep skipped the members (no violation is NaN)
    if late.any():
        worst[late] = _worst(sets, result[late])
    return result, worst, converged


class SetBank:
    """Agent ``i``'s set for row ``i`` of a block, one closed form per set kind.

    Built once per run from the agents' sets (see the module docstring).  The
    rows are gathered once, in an order that makes each kind's rows one
    slice, and scattered back once.  A polyhedron agent, one whose set is an
    intersection of two or more halfspaces, whose point is finite and
    violates none of its facets (every violation exactly ``0.0``) gets the
    last facet's projection of ``point + 0.0``, which is what
    :func:`dykstra_project` gives it before its first sweep, so the
    polyhedra ride in the halfspace slice with their last facets.  An agent
    outside its polyhedron, and one whose set is of any other kind, projects
    through its own set.
    """

    def __init__(self, sets):
        self.sets = tuple(sets)
        rows = {kind: [i for i, s in enumerate(self.sets) if type(s) is kind]
                for kind in (Halfspace, Intersection, Hyperplane, Box, Ball)}
        rows[Intersection] = [i for i in rows[Intersection]
                              if len(self.sets[i].members) > 1
                              and all(type(h) is Halfspace for h in self.sets[i].members)]
        facets = [self.sets[i].members for i in rows[Intersection]]
        stacked = [i for kind_rows in rows.values() for i in kind_rows]
        self._others = [i for i in range(len(self.sets)) if i not in set(stacked)]
        self._order = np.array(stacked + self._others, dtype=np.intp)
        self._inverse = np.argsort(self._order)
        # (slice of the gathered rows, closed form, its stacked set data)
        self._slices = []
        start = 0
        for closed_form, fields, members in (
                (_halfspace_project, ("a", "b", "_a_norm_sq"),
                 [self.sets[i] for i in rows[Halfspace]] + [f[-1] for f in facets]),
                (_hyperplane_project, ("a", "b", "_a_norm_sq"),
                 [self.sets[i] for i in rows[Hyperplane]]),
                (np.clip, ("lower", "upper"), [self.sets[i] for i in rows[Box]]),
                (_ball_project, ("center", "radius"), [self.sets[i] for i in rows[Ball]])):
            if members:
                self._slices.append((slice(start, start + len(members)), closed_form,
                                     _stack(members, fields)))
                start += len(members)
        self._rest = slice(start, None)
        self._polyhedra = np.array(rows[Intersection], dtype=np.intp)
        if facets:
            first = len(rows[Halfspace])
            self._polyhedron_slice = slice(first, first + len(facets))
            counts = np.array([len(f) for f in facets])
            self._owner = np.repeat(np.arange(len(facets)), counts)
            self._starts = np.cumsum(counts) - counts
            self._facets = _stack([h for f in facets for h in f], ("a", "b", "_a_norm"))

    def project(self, points) -> np.ndarray:
        """Row ``i`` of ``points``, shape ``(len(sets), n)``, projected onto set ``i``."""
        points = _vec(points)
        gathered = points[self._order]
        one_by_one = self._others
        if self._polyhedra.size:
            p = gathered[self._polyhedron_slice]
            worst = np.maximum.reduceat(_halfspace_violation(p[self._owner], *self._facets),
                                        self._starts)
            inside = (worst == 0.0) & np.isfinite(p).all(axis=-1)
            if not inside.all():
                one_by_one = self._polyhedra[~inside].tolist() + one_by_one
            p += 0.0  # the polyhedra's rows now hold point + 0.0
        out = np.concatenate([closed_form(gathered[rows], *data)
                              for rows, closed_form, data in self._slices]
                             + [gathered[self._rest]])[self._inverse]
        for i in one_by_one:
            out[i] = self.sets[i].project(points[i])
        return out


def _stack(sets, fields) -> tuple:
    """Each field of ``sets`` as one array, a row (or an entry) per set."""
    return tuple(np.array([getattr(s, f) for s in sets]) for f in fields)


def distance(s: ConvexSet, x):
    """``||x - P_S(x)||`` per point of ``x``, shape ``(..., n)``."""
    x = _vec(x)
    return _norm(x - s.project(x))


@dataclass(frozen=True)
class RegularityEstimate:
    """Regularity constant estimate; ``r_hat >= 1`` always.

    Sampling gives a lower bound on any valid constant over the sampled
    region; the interior-ball formula gives a usable upper-bound constant;
    a fixed constant (``method`` ``"fixed"``, no samples) is taken as given.
    A run certifies at ``r_hat`` as it stands.
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
        d = {k: v for k, v in self.__dict__.items() if v is not None}
        return d if self.x_bar is None else dict(d, x_bar=list(self.x_bar))


def regularity_sampling(sets, region: Ball, samples: int, seed: int) -> RegularityEstimate:
    """Largest observed ratio ``dist(x, X) / max_i dist(x, X_i)`` over samples from ``region``.

    Samples inside the intersection (max distance below 1e-9) carry no
    information and are skipped.  The ratio is never below 1, so ``r_hat``
    starts at 1.0, which is also the bound when every sample is skipped
    (``skipped == samples``), as when every set holds the whole region.
    Each sample draws its direction ``rng.normal(size=n)`` and then its
    radial factor ``rng.random() ** (1 / n)``, in Python's float power, one
    sample after another, so the stream does not depend on the block size.
    Each block of draws is then normalized, scaled and projected at once.

    One pass over the sets keeps, per sample, its largest member distance
    (the bits of :func:`distance`) and its projection onto a member at that
    distance, so a block holds a few arrays of its samples, not one per set.
    Where that projection violates no member (every violation exactly
    ``0.0``), it is also the projection onto the intersection: the ratio is
    exactly 1 and cannot raise ``r_hat`` above its start of 1.0, so only the
    other informative samples run Dykstra.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    sets = tuple(sets)
    intersection = Intersection(sets)
    rng = substream(seed, "regularity")
    n = region.center.shape[0]
    r_hat = 1.0
    skipped = 0
    for start in range(0, samples, _SAMPLE_BLOCK):
        count = min(_SAMPLE_BLOCK, samples - start)
        directions, radial = np.empty((count, n)), np.empty(count)
        for i in range(count):
            directions[i] = rng.normal(size=n)
            radial[i] = rng.random() ** (1.0 / n)
        directions /= _norm(directions)[:, None]
        points = region.center + (region.radius * radial)[:, None] * directions
        dmax, nearest = np.full(count, -np.inf), np.empty_like(points)
        for s in sets:
            projected = s.project(points)
            d = _norm(points - projected)  # distance(s, points), without projecting again
            farther = d > dmax
            nearest[farther] = projected[farther]
            dmax = np.maximum(dmax, d)
        informative = np.flatnonzero(~(dmax <= 1e-9))
        skipped += count - informative.size
        # A projection onto one member that lies in every member is the
        # projection onto their intersection, so its ratio is exactly 1.
        rest = informative[intersection.violation(nearest[informative]) != 0.0]
        if rest.size:
            ratios = distance(intersection, points[rest]) / dmax[rest]
            r_hat = max(r_hat, float(ratios.max()))
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


# The keys each set type reads beside its "type".
_SPEC_KEYS = {"halfspace": ("a", "b"), "hyperplane": ("a", "b"), "box": ("lower", "upper"),
              "ball": ("center", "radius"), "polyhedron": ("halfspaces",),
              "intersection": ("members",)}


def set_from_json_dict(d: dict) -> ConvexSet:
    """Parse the set-specification JSON; box bounds accept null or "inf"/"-inf".

    A key its type does not read raises ``ValueError`` naming it.
    """

    def bound(v, sign: float) -> float:
        return sign * np.inf if v is None else float(v)

    if not isinstance(d, dict):
        raise ValueError(f"a set spec must be an object, not {d!r}")
    kind = d["type"]
    if not (isinstance(kind, str) and kind in _SPEC_KEYS):
        raise ValueError(f"unknown set type {kind!r}")
    unknown = sorted(set(d) - {"type", *_SPEC_KEYS[kind]})
    if unknown:
        raise ValueError(f"unknown {kind} keys {unknown}")
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
        facets = tuple(set_from_json_dict(h) for h in d["halfspaces"])
        if not all(isinstance(h, Halfspace) for h in facets):
            raise ValueError("polyhedron facets must be halfspaces")
        return Intersection(facets)
    return Intersection(tuple(set_from_json_dict(mm) for mm in d["members"]))
