"""The stacked per-agent projection against each agent's set alone, bit for bit.

``SetBank.project`` must give row ``i`` the bytes of ``oracles.project_point``
on agent ``i``'s set, for every set kind and for points inside, on the
boundary, outside by gaps that underflow, and at adversarial floats.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from consensus_lab import (Ball, Box, Halfspace, Hyperplane, Intersection,  # noqa: E402
                           Polyhedron)
from consensus_lab import sets as sets_module  # noqa: E402
from consensus_lab.sets import SetBank  # noqa: E402
from oracles import ADVERSARIAL_FLOATS, dykstra_point, project_point  # noqa: E402
from test_batched_sets import KINDS, make_points, make_set, polyhedron, same_bytes  # noqa: E402

EXAMPLES = settings(derandomize=True, database=None, max_examples=120, deadline=None)

TINY = 5e-324
# Small enough that Dykstra settles within its tolerance from any of them.
FINITE_SMALL = tuple(v for v in ADVERSARIAL_FLOATS if np.isfinite(v) and abs(v) <= 1e-4)


def nested_intersection(rng, n, polyhedron_last):
    """An intersection with a nested polyhedron as its first or last member."""
    anchor = rng.normal(size=n)
    members = [Ball(anchor, float(rng.uniform(1.0, 3.0))),
               Box(anchor - rng.uniform(0.5, 2, n), np.full(n, np.inf))]
    poly = polyhedron(rng, n, anchor)
    return Intersection(tuple(members + [poly] if polyhedron_last else [poly] + members))


def underflowing_outside(s, n, rng):
    """A point on a face of ``s`` nudged outward by the smallest subnormal.

    Where the face passes through the origin the point lies outside by a
    gap that underflows; elsewhere the nudge rounds away and it stays on
    the face."""
    if isinstance(s, (Halfspace, Hyperplane)):
        point = s.a * (s.b / s._a_norm_sq)
        return point + np.sign(s.a) * TINY
    if isinstance(s, Box):
        point = np.where(np.isfinite(s.upper), s.upper, 0.0)
        if np.isfinite(s.upper).any():
            point[np.flatnonzero(np.isfinite(s.upper))[0]] += TINY
        return point
    if isinstance(s, Polyhedron):
        return underflowing_outside(s.halfspaces[0], n, rng)
    return project_point(s, rng.normal(size=n) * 5)


def agent_point(s, n, rng, grid):
    """Inside, on the boundary, off it by an underflowing gap, or adversarial."""
    choice = rng.integers(4)
    if choice == 0:
        return make_points(s, n, 1, rng, grid)[0]
    if choice == 1:
        return project_point(s, rng.normal(size=n) * 3)
    if choice == 2:
        return underflowing_outside(s, n, rng)
    values = FINITE_SMALL if isinstance(s, (Polyhedron, Intersection)) else ADVERSARIAL_FLOATS
    return rng.choice(values, size=n)


@EXAMPLES
@given(n=st.integers(1, 4), m=st.integers(1, 9), grid=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bank_equals_each_agent_alone(n, m, grid, seed):
    rng = np.random.default_rng(seed)
    kinds = list(KINDS) + ["nested-first", "nested-last"]
    sets = []
    for _ in range(m):
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind.startswith("nested"):
            sets.append(nested_intersection(rng, n, kind == "nested-last"))
        else:
            on_grid = grid and kind not in ("polyhedron", "intersection")
            sets.append(make_set(kind, n, rng, on_grid))
    points = np.array([agent_point(s, n, rng, grid) for s in sets])
    want = np.array([project_point(s, p) for s, p in zip(sets, points)])
    assert same_bytes(SetBank(sets).project(points), want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bank_on_every_adversarial_row():
    """Every kind against every pair of adversarial coordinates, all in one block."""
    closed = [Halfspace(np.array([1.0, -2.0]), 0.0), Hyperplane(np.array([0.0, 3.0]), 0.0),
              Box(np.array([-0.0, -np.inf]), np.array([1.0, 0.0])),
              Ball(np.array([0.0, -0.0]), 1.0)]
    dykstra = [Polyhedron((Halfspace(np.array([1.0, 0.0]), 1.0),
                           Halfspace(np.array([1.0, 100.0]), 0.0))),
               Intersection((Polyhedron((Halfspace(np.array([0.0, 1.0]), 0.0),)),
                             Ball(np.zeros(2), 2.0),
                             Polyhedron((Halfspace(np.array([-1.0, 0.0]), 1.0),))))]
    for sets, values in ((closed, ADVERSARIAL_FLOATS), (dykstra, FINITE_SMALL)):
        pairs = np.array([(u, v) for u in values for v in values])
        agents = [s for s in sets for _ in pairs]
        points = np.tile(pairs, (len(sets), 1))
        want = np.array([project_point(s, p) for s, p in zip(agents, points)])
        assert same_bytes(SetBank(agents).project(points), want)


def test_only_agents_outside_their_polyhedron_run_dykstra(monkeypatch):
    poly = Polyhedron((Halfspace(np.array([1.0, 0.0]), 1.0),
                       Halfspace(np.array([0.0, 1.0]), 0.0)))
    inter = Intersection((poly, Ball(np.zeros(2), 3.0)))
    calls = []

    def counting(sets, x, *args, **kwargs):
        calls.append(np.asarray(x).tolist())
        return dykstra_point(sets, x)

    monkeypatch.setattr(sets_module, "dykstra_project", counting)
    bank = SetBank([poly, Halfspace(np.array([1.0, 1.0]), 0.0), poly, poly, inter])
    points = np.array([[0.5, -0.0], [2.0, 2.0], [0.5, TINY], [-0.0, -0.0], [9.0, 9.0]])
    want = [project_point(s, p) for s, p in zip(bank.sets, points)]
    assert same_bytes(bank.project(points), np.array(want))
    # agent 2 lies outside by an underflowing gap; agent 4's intersection
    # is not stacked and projects itself
    assert calls == [[0.5, TINY], [9.0, 9.0]]
