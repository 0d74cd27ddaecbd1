"""Batched projections against the point-by-point reference, bit for bit.

Every ``project``, ``violation`` and ``distance`` takes points of shape
``(..., n)``.  For each set kind, dimension and batch shape, the batched
result must have the bytes of ``oracles.project_point`` (and friends)
applied to one point at a time.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from consensus_lab import (Ball, Box, Halfspace, Hyperplane, Intersection,  # noqa: E402
                           distance)
from consensus_lab.sets import _per_point  # noqa: E402
from oracles import ADVERSARIAL_FLOATS, distance_point, project_point, violation_point  # noqa: E402

EXAMPLES = settings(derandomize=True, database=None, max_examples=80, deadline=None)

KINDS = ("halfspace", "hyperplane", "box", "ball", "polyhedron", "intersection")


def unit(rng, n):
    a = rng.normal(size=n)
    while np.linalg.norm(a) < 1e-3:
        a = rng.normal(size=n)
    return a / np.linalg.norm(a)


def polyhedron(rng, n, anchor):
    """An intersection of halfspaces whose facets are kept away from parallel and off the
    anchor, so Dykstra converges quickly."""
    normals = []
    want = 1 if n == 1 else int(rng.integers(2, 5))
    for _ in range(200):
        if len(normals) == want:
            break
        a = unit(rng, n)
        if all(abs(a @ b) <= 0.85 for b in normals):
            normals.append(a)
    return Intersection(tuple(Halfspace(a, float(a @ anchor + rng.uniform(0.3, 2)))
                              for a in normals))


def make_set(kind, n, rng, grid):
    """A set of ``kind``.  On the grid its data are small integers, so integer
    points land exactly on its boundary."""
    if kind in ("halfspace", "hyperplane"):
        cls = Halfspace if kind == "halfspace" else Hyperplane
        if grid:
            a = rng.integers(-2, 3, size=n)
            a[rng.integers(n)] = rng.choice([-1, 1, 2])
            return cls(a, float(rng.integers(-2, 3)))
        return cls(rng.normal(size=n) + unit(rng, n), float(rng.normal()))
    if kind == "box":
        lo = rng.integers(-3, 1, size=n).astype(float) if grid else rng.uniform(-3, 0, n)
        hi = lo + (rng.integers(0, 3, size=n) if grid else rng.uniform(0.1, 3, n))
        lo[rng.random(n) < 0.3] = -np.inf
        hi[rng.random(n) < 0.3] = np.inf
        return Box(lo, hi)
    if kind == "ball":
        if grid:
            return Ball(rng.integers(-2, 3, size=n).astype(float), float(rng.integers(1, 4)))
        return Ball(rng.normal(size=n), float(rng.uniform(0.2, 3)))
    anchor = rng.normal(size=n)
    if kind == "polyhedron":
        return polyhedron(rng, n, anchor)
    # Every member contains a ball around the anchor, so the intersection has
    # an interior and Dykstra converges; one member is a nested polyhedron.
    members = [polyhedron(rng, n, anchor),
               Ball(anchor + rng.normal(size=n) * 0.2, float(rng.uniform(1.0, 3))),
               Box(anchor - rng.uniform(0.5, 2, n), np.full(n, np.inf))]
    if rng.random() < 0.5:
        a = unit(rng, n)
        members.append(Halfspace(a, float(a @ anchor + rng.uniform(0.3, 1))))
    rng.shuffle(members)
    return Intersection(tuple(members[:int(rng.integers(1, len(members) + 1))]))


def make_points(s, n, k, rng, grid):
    """Points inside, outside and on the boundary of ``s``."""
    if grid:
        points = rng.integers(-4, 5, size=(k, n)).astype(float)
    else:
        points = rng.normal(size=(k, n)) * rng.choice([0.1, 1.0, 5.0], size=(k, 1))
    on_boundary = rng.random(k) < 0.3
    if on_boundary.any():
        points[on_boundary] = np.array([project_point(s, p) for p in points[on_boundary]])
    return points


def same_bytes(batched, reference) -> bool:
    batched = np.asarray(batched, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return batched.shape == reference.shape and batched.tobytes() == reference.tobytes()


@EXAMPLES
@given(kind=st.sampled_from(KINDS), n=st.integers(1, 5), k=st.integers(2, 12),
       grid=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_equals_point_by_point(kind, n, k, grid, seed):
    rng = np.random.default_rng(seed)
    s = make_set(kind, n, rng, grid and kind not in ("polyhedron", "intersection"))
    points = make_points(s, n, k, rng, grid)
    projected = np.array([project_point(s, p) for p in points])
    violations = np.array([violation_point(s, p) for p in points])
    distances = np.array([distance_point(s, p) for p in points])

    # shape (k, n), and the same points as a (2, k, n) block
    assert same_bytes(s.project(points), projected)
    assert same_bytes(s.violation(points), violations)
    assert same_bytes(distance(s, points), distances)
    stacked = np.stack([points, points[::-1]])
    assert same_bytes(s.project(stacked), np.stack([projected, projected[::-1]]))
    assert same_bytes(distance(s, stacked), np.stack([distances, distances[::-1]]))
    # shape (1, n) and (n,)
    assert same_bytes(s.project(points[:1]), projected[:1])
    assert same_bytes(s.violation(points[:1]), violations[:1])
    assert same_bytes(s.project(points[0]), projected[0])
    assert same_bytes(s.violation(points[0]), violations[0])
    assert same_bytes(distance(s, points[0]), distances[0])


# The callers reduce absolute values and flags, so the values are the
# absolute values of every adversarial float: NaN, inf, zero (from -0.0 too)
# and subnormals among them.
MAGNITUDES = np.abs(np.array(ADVERSARIAL_FLOATS))


@EXAMPLES
@given(n=st.integers(1, 16), batch=st.lists(st.integers(1, 4), min_size=0, max_size=2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_per_point_reductions_equal_numpy_bit_for_bit(n, batch, seed):
    """1-D, 2-D and 3-D batches of 1 to 16 coordinates."""
    rng = np.random.default_rng(seed)
    a = rng.choice(MAGNITUDES, size=(*batch, n))
    assert _per_point(np.maximum, a).tobytes() == np.maximum.reduce(a, axis=-1).tobytes()
    for flags in (np.isfinite(a), a > 0.0, a == 0.0):
        assert (_per_point(np.logical_and, flags).tobytes()
                == np.logical_and.reduce(flags, axis=-1).tobytes())
