import functools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from consensus_lab import (Ball, Box, ConvexSet, DykstraNotConverged, Halfspace, Hyperplane,
                           InteriorBallNotContained, Intersection, RegularityEstimate, cli,
                           distance, dykstra_project, regularity_interior, regularity_sampling,
                           set_from_json_dict)
from consensus_lab import sets as sets_module
from consensus_lab.sets import DYKSTRA_TOL, FEASIBILITY_TOL
import oracles
from oracles import (InfeasiblePoint, YNotInSet, check_nonexpansive,
                     check_variational_inequality, dykstra_point, project_point,
                     regularity_interior_points, regularity_sampling_points, set_to_json_dict,
                     spread_projection_bound, violation_point)
from test_batched_sets import polyhedron


def random_set(rng, n):
    kind = rng.integers(6)
    if kind == 0:
        a = rng.normal(size=n)
        while np.linalg.norm(a) < 1e-3:
            a = rng.normal(size=n)
        return Halfspace(a, float(rng.normal()))
    if kind == 1:
        a = rng.normal(size=n)
        while np.linalg.norm(a) < 1e-3:
            a = rng.normal(size=n)
        return Hyperplane(a, float(rng.normal()))
    if kind == 2:
        lo = rng.uniform(-3, 0, n)
        return Box(lo, lo + rng.uniform(0.1, 3, n))
    if kind == 3:
        return Ball(rng.normal(size=n), float(rng.uniform(0.2, 3)))
    if kind == 4:
        # unit normals kept away from parallel and a generous interior
        # margin keep the wedge well-conditioned for Dykstra
        normals: list[np.ndarray] = []
        anchor = rng.normal(size=n)
        want = 1 if n == 1 else int(rng.integers(2, 5))
        for _ in range(200):
            if len(normals) == want:
                break
            a = rng.normal(size=n)
            if np.linalg.norm(a) < 1e-3:
                continue
            a /= np.linalg.norm(a)
            if n > 1 and any(abs(a @ b) > 0.85 for b in normals):
                continue
            normals.append(a)
        halves = [Halfspace(a, float(a @ anchor + rng.uniform(0.3, 2)))
                  for a in normals]
        return Intersection(tuple(halves))
    anchor = rng.normal(size=n)
    members = [Ball(anchor + rng.normal(size=n) * 0.2, float(rng.uniform(1.0, 3)))
               for _ in range(int(rng.integers(2, 4)))]
    return Intersection(tuple(members))


def feasible_point(rng, s, n):
    return s.project(rng.normal(size=n) * 2)


class TestClosedFormProjections:
    def test_halfspace_example(self):
        s = Halfspace(np.array([1.0, 0.0]), 1.0)
        np.testing.assert_array_equal(s.project(np.array([2.0, 0.0])), [1.0, 0.0])

    def test_member_point_fixed(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 4):
            for _ in range(50):
                s = random_set(rng, n)
                x = feasible_point(rng, s, n)
                np.testing.assert_allclose(s.project(x), x, atol=1e-10)

    def test_ball_distance(self):
        assert distance(Ball(np.zeros(2), 1.0), np.array([2.0, 0.0])) == 1.0

    def test_box_with_infinite_bounds(self):
        s = Box(np.array([-np.inf, 0.0]), np.array([np.inf, np.inf]))
        np.testing.assert_array_equal(s.project(np.array([-7.0, -2.0])), [-7.0, 0.0])

    def test_hyperplane(self):
        s = Hyperplane(np.array([0.0, 1.0]), 1.0)
        np.testing.assert_allclose(s.project(np.array([3.0, 4.0])), [3.0, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            s = random_set(rng, n)
            p = s.project(rng.normal(size=n) * 3)
            np.testing.assert_allclose(s.project(p), p, atol=1e-10)


class TestDykstra:
    def test_orthogonal_halfspaces(self):
        inter = Intersection((Halfspace(np.array([1.0, 0.0]), 0.0),
                              Halfspace(np.array([0.0, 1.0]), 0.0)))
        np.testing.assert_allclose(inter.project(np.array([1.0, 1.0])), [0.0, 0.0],
                                   atol=1e-12)
        assert distance(inter, np.array([1.0, 1.0])) == pytest.approx(math.sqrt(2),
                                                                      abs=1e-12)

    def test_matches_closed_form_on_redundant_box(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            lo = rng.uniform(-2, 0, n)
            hi = lo + rng.uniform(0.5, 2, n)
            box = Box(lo, hi)
            halves = [Halfspace(e, float(hi[i]))
                      for i, e in enumerate(np.eye(n))]
            halves += [Halfspace(-e, float(-lo[i]))
                       for i, e in enumerate(np.eye(n))]
            halves += halves[:1]  # redundant duplicate
            poly = Intersection(tuple(halves))
            x = rng.normal(size=n) * 4
            assert np.abs(poly.project(x) - box.project(x)).max() <= 1e-8

    def test_matches_redundant_halfspace_encoding(self):
        rng = np.random.default_rng(4)
        base = Halfspace(np.array([1.0, 2.0]), 1.0)
        poly = Intersection((base, Halfspace(base.a * 2, base.b * 2),
                             Halfspace(base.a * 0.5, base.b * 0.5)))
        for _ in range(50):
            x = rng.normal(size=2) * 5
            assert np.abs(poly.project(x) - base.project(x)).max() <= 1e-8


class TestBatchedDykstraFailure:
    def disjoint(self):
        return (Halfspace(np.array([1.0]), -1.0), Halfspace(np.array([-1.0]), -1.0))

    def test_empty_intersection_raises_in_a_batch(self):
        # Points inside one member or the other, and one between them.
        points = np.array([[-2.0], [0.0], [3.0], [-1.0]])
        for x in points:
            with pytest.raises(DykstraNotConverged):
                dykstra_point(self.disjoint(), x, max_sweeps=200)
        with pytest.raises(DykstraNotConverged):
            dykstra_project(self.disjoint(), points, max_sweeps=200)

    def test_names_lowest_index_failing_point(self):
        # A thin wedge opening to +x: the inside point converges on the first
        # sweep, the points behind the apex need far more than three sweeps.
        wedge = (Halfspace(np.array([0.0, 1.0]), 0.0),
                 Halfspace(np.array([-0.05, -1.0]), 0.0))
        points = np.array([[1.0, -0.01], [-30.0, -5.0], [-40.0, 5.0]])
        np.testing.assert_array_equal(dykstra_project(wedge, points[:1], max_sweeps=3),
                                      points[:1])
        with pytest.raises(DykstraNotConverged) as alone:
            dykstra_point(wedge, points[1], max_sweeps=3)
        # the member violation the point stopped with, as the oracle gives it
        with pytest.raises(DykstraNotConverged, match=f"^point 1 {re.escape(str(alone.value))};"):
            dykstra_project(wedge, points, max_sweeps=3)

    def test_thin_wedge_converges_with_the_bits_of_the_oracle(self):
        wedge = (Halfspace(np.array([0.0, 1.0]), 0.0),
                 Halfspace(np.array([-0.05, -1.0]), 0.0))
        points = np.array([[1.0, -0.01], [-30.0, -5.0], [-40.0, 5.0], [3.0, 0.2]])
        want = np.array([dykstra_point(wedge, p) for p in points])
        assert dykstra_project(wedge, points).tobytes() == want.tobytes()

    def test_blocks_bound_the_memory_of_a_large_batch(self, monkeypatch):
        """64 members and 2^15 points outside them.  The two increment buffers
        of all the points take 64 MiB, those of a block of 2^11 points 4 MiB."""
        monkeypatch.setattr(sets_module, "_SAMPLE_BLOCK", 2 ** 11)
        e = np.eye(2)
        members = [Halfspace(e[k % 2], 1.0 + (k // 2) / 64) for k in range(64)]
        points = np.random.default_rng(0).uniform(2.0, 4.0, size=(2 ** 15, 2))
        tracemalloc.start()
        try:
            projected = dykstra_project(members, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        for i in (0, 2 ** 11, 2 ** 15 - 1):
            assert projected[i].tobytes() == dykstra_point(members, points[i]).tobytes()
        np.testing.assert_allclose(projected, 1.0, rtol=0, atol=1e-12)

    def test_every_block_runs_before_the_lowest_failing_point_is_named(self, monkeypatch):
        monkeypatch.setattr(sets_module, "_SAMPLE_BLOCK", 2)
        points = np.array([[-2.0], [-3.0], [-4.0], [0.0], [3.0]])
        blocks = []
        sweeps = sets_module._dykstra_sweeps

        def counting(sets, rows, *args):
            blocks.append(rows.shape[0])
            return sweeps(sets, rows, *args)

        monkeypatch.setattr(sets_module, "_dykstra_sweeps", counting)
        with pytest.raises(DykstraNotConverged, match="^point 0 "):
            dykstra_project(self.disjoint(), points, max_sweeps=50)
        assert blocks == [2, 2, 1]


class TestMemberViolationsOnlyWhereAPointCanStop:
    """A settled sweep stops a point only if it settled the increments too, so
    only those sweeps evaluate the members; a point that ends unconverged after
    a settled sweep that skipped them is evaluated at that sweep's iterate."""

    def family(self):
        """24 members, halfspace, box and ball in turn, each containing
        B(x_bar, 0.4), and 40 points around them; most points settle outside
        the intersection for some sweeps while the increments still move."""
        rng = np.random.default_rng(0)
        x_bar = rng.uniform(-1.0, 1.0, size=2)
        members = []
        for i in range(24):
            if i % 3 == 0:
                a = rng.normal(size=2)
                a /= np.linalg.norm(a)
                members.append(Halfspace(a, float(a @ x_bar) + 0.4 + rng.uniform(0.1, 1.0)))
            elif i % 3 == 1:
                members.append(Box(x_bar - 0.4 - rng.uniform(0.1, 1.5, size=2),
                                   x_bar + 0.4 + rng.uniform(0.1, 1.5, size=2)))
            else:
                offset = rng.uniform(-0.8, 0.8, size=2)
                members.append(Ball(x_bar + offset,
                                    float(np.linalg.norm(offset)) + 0.4 + rng.uniform(0.1, 1.0)))
        return members, rng.uniform(-4.0, 4.0, size=(40, 2))

    def test_bits_of_the_oracle_with_fewer_member_evaluations(self, monkeypatch):
        members, points = self.family()
        oracle_evaluations = []
        violation = oracles.violation_point
        monkeypatch.setattr(oracles, "violation_point",
                            lambda s, x: oracle_evaluations.append(1) or violation(s, x))
        want = np.array([dykstra_point(members, p) for p in points])
        evaluated = []

        def counting(method):
            def wrapped(self, x):
                evaluated.append(np.shape(x)[0])
                return method(self, x)
            return wrapped

        for kind in (Halfspace, Box, Ball):
            monkeypatch.setattr(kind, "violation", counting(kind.violation))
        assert dykstra_project(members, points).tobytes() == want.tobytes()
        # The check before the first sweep evaluates every point once; the
        # oracle evaluates the members at every settled sweep.
        swept = sum(evaluated) - len(members) * len(points)
        assert 0 < swept < len(oracle_evaluations) / 4

    @pytest.mark.parametrize("cap", [2, 3, 5, 8, 13, 21, 34])
    def test_unconverged_message_is_the_oracles(self, cap):
        members, points = self.family()
        failed = 0
        for x in points:
            try:
                want = dykstra_point(members, x, max_sweeps=cap)
            except DykstraNotConverged as alone:
                failed += 1
                with pytest.raises(DykstraNotConverged, match=f"^point 0 {re.escape(str(alone))};"):
                    dykstra_project(members, x, max_sweeps=cap)
            else:
                assert dykstra_project(members, x, max_sweeps=cap).tobytes() == want.tobytes()
        assert failed

    def test_empty_intersection_message_unchanged(self):
        # The increments grow every sweep, so no settled sweep evaluates the
        # members until the cap ends the search.
        message = "^" + re.escape("point 0 stopped with member violation 2.000e+00; "
                                  "intersection may be empty or ill-conditioned") + "$"
        disjoint = (Halfspace(np.array([1.0]), -1.0), Halfspace(np.array([-1.0]), -1.0))
        with pytest.raises(DykstraNotConverged, match=message):
            dykstra_project(disjoint, np.array([[-2.0], [0.0], [3.0], [-1.0]]), max_sweeps=200)
        nested = TestFlatIntersection().empty().members
        with pytest.raises(DykstraNotConverged, match=message):
            dykstra_project(nested, np.array([[0.5, 0.5], [-2.0, 0.0], [2.0, 1.0]]),
                            max_sweeps=200)


def same_members(got, want) -> bool:
    return len(got) == len(want) and all(g is w for g, w in zip(got, want))


class TestFlatIntersection:
    """A nested intersection is flattened into one Dykstra over primitive sets."""

    def sets(self):
        poly = Intersection((Halfspace(np.array([1.0, 0.0]), 1.0),
                             Halfspace(np.array([0.0, 1.0]), 1.0),
                             Halfspace(np.array([1.0, 1.0]), 1.5)))
        return poly, Ball(np.array([0.2, -0.1]), 2.0), Box(np.array([-1.5, -1.5]),
                                                           np.array([np.inf, np.inf]))

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
    def test_nested_polyhedron_comes_out_flat(self, position):
        poly, ball, box = self.sets()
        others = [ball, box]
        flat = Intersection(tuple(others[:position] + [poly] + others[position:]))
        assert same_members(flat.members,
                            others[:position] + list(poly.members) + others[position:])

    def test_intersection_of_intersections_comes_out_flat(self):
        poly, ball, box = self.sets()
        inner = Intersection((ball, poly))
        flat = Intersection((Intersection((box, inner)), Intersection((poly,)), ball))
        assert same_members(flat.members, [box, ball, *poly.members, *poly.members, ball])
        assert not any(isinstance(m, Intersection) for m in flat.members)

    def test_one_member_nesting_projects_through_the_member(self):
        poly, ball, _ = self.sets()
        assert same_members(Intersection((Intersection((ball,)),)).members, [ball])
        x = np.array([[3.0, 4.0], [0.1, 0.2]])
        assert (Intersection((Intersection((ball,)),)).project(x).tobytes()
                == ball.project(x).tobytes())
        assert same_members(Intersection((poly,)).members, poly.members)

    def nested_cases(self):
        """Nested intersections, as a tuple the oracles leave nested, and points
        around them; every seed of the range is used."""
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 4))
            anchor = rng.normal(size=n)
            poly = polyhedron(rng, n, anchor)
            others = [Ball(anchor + rng.normal(size=n) * 0.2, float(rng.uniform(1.0, 3.0))),
                      Box(anchor - rng.uniform(0.5, 2.0, n), np.full(n, np.inf))]
            position = int(rng.integers(3))
            nested = tuple(others[:position] + [poly.members] + others[position:])
            flat = Intersection(tuple(others[:position] + [poly] + others[position:]))
            points = anchor + rng.normal(size=(8, n)) * rng.choice([0.3, 3.0, 10.0], size=(8, 1))
            yield nested, flat, points

    def test_violation_is_the_nested_max_bit_for_bit(self):
        for nested, flat, points in self.nested_cases():
            want = np.array([violation_point(nested, p) for p in points])
            assert flat.violation(points).tobytes() == want.tobytes()

    def test_projection_matches_the_nested_recursion(self):
        """Each recursion stops once no member step moved its iterate by more
        than DYKSTRA_TOL: an approximate optimality point of the strongly
        convex nearest-point problem, whose distance to the projection is of
        order sqrt(DYKSTRA_TOL)."""
        bound = math.sqrt(DYKSTRA_TOL)
        for nested, flat, points in self.nested_cases():
            got = flat.project(points)
            want = np.array([project_point(nested, p) for p in points])
            assert np.abs(got - want).max() <= bound
            assert flat.violation(got).max() <= FEASIBILITY_TOL

    def test_projection_satisfies_the_variational_inequality(self):
        """An optimality check that runs no Dykstra reference: ``p`` is the
        projection of ``x`` exactly when ``(x - p).(y - p) <= 0`` for every
        feasible ``y``.  A recursion that stops at a feasible point while its
        increments still move fails it by a share of the two distances."""
        rng = np.random.default_rng(0)
        for _, flat, points in self.nested_cases():
            got = flat.project(points)
            feasible = flat.project(got.mean(axis=0) + rng.normal(size=(200, flat.dim)) * 3.0)
            assert flat.violation(feasible).max() <= FEASIBILITY_TOL
            toward, away = points - got, feasible[None] - got[:, None]
            inner = np.einsum("kn,kmn->km", toward, away)
            # A relative slack, and an absolute one for a ``y`` at ``p`` itself.
            scale = np.linalg.norm(toward, axis=-1)[:, None] * (np.linalg.norm(away, axis=-1) + 1.0)
            assert (inner <= 1e-9 * scale).all()

    def test_a_sweep_that_ends_where_it_began_is_not_convergence(self):
        """Constrained-mix sets (benchmark seed 33, scenario 1) with the
        polyhedron nested.  The second sweep from ``x`` ends within 1e-13 of
        where it began, feasible, while the box, ball and polyhedron
        increments still move by more than 0.1; stopping there gave
        ``stopped_at``, 1 % too far in squared distance."""
        h = lambda a, b: Halfspace(np.array(a), b)  # noqa: E731
        members = [h([-0.859955193623083, 0.510369537649619], 0.7514987284075006),
                   Box(np.array([-1.8764464125248612, -1.883470291514041]),
                       np.array([1.5410513377249, 1.6182372489172967])),
                   Ball(np.array([-0.4030823948473014, -0.5761567791675558]), 2.039096964066487),
                   Intersection((h([-0.7470721969240302, -0.6647429071326021], 1.169652958810938),
                                 h([0.34750720891303505, -0.937677311100931], 1.1876622331687785),
                                 h([0.9974617583181589, 0.07120421822368939], 0.6839642843543826))),
                   h([0.21828808051869086, 0.9758843752737645], 0.4395933988960683),
                   Box(np.array([-1.8224154266535835, -2.37510151253813]),
                       np.array([1.6798982449318691, 1.3818751392632644]))]
        x = np.array([1.424207745600302, -3.543717836378371])
        stopped_at = np.array([0.7561178922, -0.9863796534])
        nested = dykstra_project(members, x)
        flat = Intersection(tuple(members))
        assert np.abs(nested - flat.project(x)).max() <= math.sqrt(DYKSTRA_TOL)
        # The variational inequality holds at the projection against feasible
        # points all around it, and fails at the early stop.
        rng = np.random.default_rng(0)
        for y in flat.project(nested + rng.normal(size=(50, 2)) * 0.5):
            assert check_variational_inequality(flat, x, y).passed
        assert (stopped_at - x) @ (nested - stopped_at) < -0.05

    def empty(self):
        """A nested polyhedron of two disjoint halfspaces beside a ball."""
        return Intersection((Intersection((Halfspace(np.array([1.0, 0.0]), -1.0),
                                           Halfspace(np.array([-1.0, 0.0]), -1.0))),
                             Ball(np.zeros(2), 3.0)))

    def test_empty_nested_polyhedron_raises(self, monkeypatch):
        # 200 sweeps instead of 10^5: the increments grow every sweep, so no
        # number of sweeps converges.
        monkeypatch.setattr(sets_module, "dykstra_project",
                            functools.partial(dykstra_project, max_sweeps=200))
        points = np.array([[0.5, 0.5], [-2.0, 0.0], [2.0, 1.0]])
        with pytest.raises(DykstraNotConverged, match="^point 0 "):
            self.empty().project(points)
        with pytest.raises(DykstraNotConverged):
            dykstra_point(self.empty().members, points[0], max_sweeps=200)

    def test_simulate_on_an_empty_nested_polyhedron_exits_4(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sets_module, "dykstra_project",
                            functools.partial(dykstra_project, max_sweeps=200))
        empty = {"type": "intersection", "members": [
            {"type": "polyhedron", "halfspaces": [{"type": "halfspace", "a": [1.0, 0.0], "b": -1.0},
                                                  {"type": "halfspace", "a": [-1.0, 0.0],
                                                   "b": -1.0}]},
            {"type": "ball", "center": [0.0, 0.0], "radius": 3.0}]}
        scenario = {"m": 3, "n": 2, "horizon": 20, "seed": 1, "mode": "constrained",
                    "graph": {"kind": "random-rooted", "extra_edge_prob": 0.5},
                    "weights": {"scheme": "equal-neighbor"},
                    "initial": {"kind": "uniform-box", "low": -3, "high": 3},
                    "constraints": [empty, {"type": "ball", "center": [0.0, 0.0], "radius": 2.0},
                                    {"type": "box", "lower": [-2.0, -2.0], "upper": [2.0, 2.0]}]}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(scenario))
        assert cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 4
        assert not (tmp_path / "out").exists()


class Counting(ConvexSet):
    """A member that counts the points it is asked to project."""

    def __init__(self, inner):
        self.inner, self.projected = inner, 0

    def project(self, x):
        self.projected += np.asarray(x).reshape(-1, np.shape(x)[-1]).shape[0]
        return self.inner.project(x)

    def violation(self, x):
        return self.inner.violation(x)


class TestDykstraSkipsFeasiblePoints:
    """Points with no member violation leave before the first sweep, with the
    bits of the full recursion (``dykstra_point``, which never skips)."""

    TINY = 5e-324

    def members(self):
        """Each set kind with points inside it, on its boundary, at ``-0.0``
        and off it by gaps that underflow."""
        t = self.TINY
        box_neg_zero = Box(np.array([-0.0, -1.0]), np.array([1.0, 1.0]))
        return {
            "halfspace": (Halfspace(np.array([1.0, 100.0]), 0.0),
                          [[-1.0, 0.0], [0.0, 0.0], [-0.0, -0.0], [t, 0.0], [100.0, -1.0]]),
            "hyperplane": (Hyperplane(np.array([1.0, 100.0]), 0.0),
                           [[0.0, 0.0], [-0.0, 0.0], [t, 0.0], [-t, -0.0], [100.0, -1.0]]),
            "box": (Box(np.array([-1.0, 1e-170]), np.array([1.0, 1.0])),
                    [[0.5, 0.5], [-1.0, 1.0], [-0.0, 1e-170], [0.0, 0.0], [0.0, -t]]),
            "box-neg-zero": (box_neg_zero, [[0.0, 0.5], [-0.0, -0.0], [t, 0.0]]),
            "box-open": (Box(np.array([-np.inf, -1.0]), np.array([0.5, np.inf])),
                         [[3.0, -4.0], [-5.0, 0.3], [0.2, 0.1], [-0.0, -1.0], [0.5, -t]]),
            "ball": (Ball(np.array([0.0, 0.0]), 5.0),
                     [[3.0, 4.0], [-0.0, 0.0], [0.0, -5.0], [t, -t]]),
            "polyhedron": (Intersection((Halfspace(np.array([1.0, 0.0]), 1.0),
                                         Halfspace(np.array([0.0, 1.0]), 1.0),
                                         Halfspace(np.array([1.0, 100.0]), 0.0))),
                           [[1.0, -0.0], [-0.0, -0.0], [t, 0.0], [-3.0, 0.01], [1.0, -1.0]]),
        }

    @pytest.mark.parametrize("kind", ["halfspace", "hyperplane", "box", "box-neg-zero",
                                      "box-open", "ball", "polyhedron"])
    @pytest.mark.parametrize("last", [False, True])
    def test_bits_equal_the_recursion(self, kind, last):
        s, points = self.members()[kind]
        # A wide ball as the other member; [150, -150] lies outside it and
        # [2, 3] outside most sets under test, so the batch mixes both paths.
        sets = [Ball(np.array([0.0, 0.0]), 200.0)]
        sets.insert(len(sets) if last else 0, s)
        points = np.array(points + [[150.0, -150.0], [2.0, 3.0]])
        want = np.array([dykstra_point(sets, p) for p in points])
        got = dykstra_project(sets, points)
        assert got.tobytes() == want.tobytes()
        for p, w in zip(points, want):
            assert dykstra_project(sets, p).tobytes() == w.tobytes()

    def test_feasible_points_run_no_sweep(self):
        first = Counting(Halfspace(np.array([1.0, 0.0]), 1.0))
        last = Counting(Ball(np.array([0.0, 0.0]), 5.0))
        points = np.array([[0.0, 0.0], [1.0, 0.0], [-0.0, 3.0], [2.0, 0.0]])
        got = dykstra_project((first, last), points)
        want = np.array([dykstra_point((first.inner, last.inner), p) for p in points])
        assert got.tobytes() == want.tobytes()
        # Three points leave with the last member's projection alone; the
        # outside point takes two sweeps through both members.
        assert (first.projected, last.projected) == (2, 3 + 2)

    def test_underflowing_box_offset_is_a_violation(self):
        box = Box(np.array([1e-170, -1.0]), np.array([1.0, 1.0]))
        assert box.violation(np.array([0.0, 0.0])) == 1e-170
        assert box.violation(np.array([[0.0, 0.0], [0.5, 0.0]])).tolist() == [1e-170, 0.0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_points_still_run_the_recursion(self):
        sets = (Halfspace(np.array([1.0, 0.0]), 1.0), Halfspace(np.array([0.0, 1.0]), 1.0))
        point = np.array([-np.inf, 0.0])
        with pytest.raises(DykstraNotConverged):
            dykstra_point(sets, point, max_sweeps=3)
        with pytest.raises(DykstraNotConverged):
            dykstra_project(sets, point, max_sweeps=3)


class TestProjectionProperties:
    def test_nonexpansive_hand_case(self):
        s = Halfspace(np.array([1.0]), 0.0)
        rec = check_nonexpansive(s, np.array([2.0]), np.array([-1.0]))
        assert rec.lhs == 1.0 and rec.rhs == 3.0 and rec.passed

    def test_variational_hand_case(self):
        s = Halfspace(np.array([1.0, 0.0]), 0.0)
        rec = check_variational_inequality(s, np.array([1.0, 0.0]), np.array([0.0, 5.0]))
        assert rec.passed

    def test_guard_on_outside_y(self):
        s = Ball(np.zeros(2), 1.0)
        with pytest.raises(YNotInSet):
            check_nonexpansive(s, np.zeros(2), np.array([5.0, 0.0]))

    def test_random_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 5))
            s = random_set(rng, n)
            x = rng.normal(size=n) * 3
            y = feasible_point(rng, s, n)
            assert check_nonexpansive(s, x, y).passed
            assert check_variational_inequality(s, x, y).passed


class TestRegularitySampling:
    def pair(self):
        return [Halfspace(np.array([1.0, 0.0]), 0.0), Halfspace(np.array([0.0, 1.0]), 0.0)]

    def test_single_set_ratio_one(self):
        est = regularity_sampling([Ball(np.zeros(2), 0.5)], Ball(np.zeros(2), 2.0),
                                  200, seed=0)
        assert est.r_hat == 1.0
        assert est.method == "sampling"

    def test_orthogonal_pair_near_sqrt2(self):
        est = regularity_sampling(self.pair(), Ball(np.zeros(2), 2.0), 10000, seed=0)
        assert 1.40 <= est.r_hat <= math.sqrt(2) + 1e-12

    def test_seed_stable(self):
        a = regularity_sampling(self.pair(), Ball(np.zeros(2), 2.0), 500, seed=9)
        b = regularity_sampling(self.pair(), Ball(np.zeros(2), 2.0), 500, seed=9)
        assert a.r_hat == b.r_hat and a.skipped == b.skipped

    def test_nested_sets_ratio_one(self):
        inner = Ball(np.zeros(2), 0.5)
        outer = Ball(np.zeros(2), 1.5)
        est = regularity_sampling([inner, outer], Ball(np.zeros(2), 3.0), 500, seed=1)
        assert est.r_hat == pytest.approx(1.0, abs=1e-12)  # inner ball dominates

    def test_no_informative_samples(self):
        """Every sample lies in the one set, so the lower bound stays at 1."""
        est = regularity_sampling([Ball(np.zeros(2), 10.0)], Ball(np.zeros(2), 1.0),
                                  50, seed=2)
        assert est.r_hat == 1.0 and est.skipped == 50

    def test_geometry_oracle_single_point(self):
        sets = self.pair()
        x = np.array([1.0, 1.0])
        ratio = distance(Intersection(tuple(sets)), x) / max(distance(s, x) for s in sets)
        assert ratio == pytest.approx(math.sqrt(2), abs=1e-12)


class TestBatchedRegularity:
    """The batched estimates equal the point-by-point reference field for field."""

    def families(self):
        rng = np.random.default_rng(21)
        wedge = []
        for _ in range(3):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            wedge.append(Halfspace(a, float(rng.uniform(0.05, 0.5))))
        return [
            ([Halfspace(np.array([1.0, 0.0]), 0.0), Halfspace(np.array([0.0, 1.0]), 0.0)],
             Ball(np.zeros(2), 2.0)),
            (wedge, Ball(np.zeros(3), 3.0)),
            ([Ball(np.zeros(2), 1.0), Box(np.array([-0.5, -np.inf]), np.array([np.inf, 0.7])),
              Intersection((Halfspace(np.array([1.0, 1.0]), 1.0),
                            Halfspace(np.array([1.0, -1.0]), 1.0)))],
             Ball(np.array([0.2, -0.1]), 1.5)),
            ([Ball(np.zeros(1), 0.5), Hyperplane(np.array([2.0]), 0.25)],
             Ball(np.zeros(1), 2.0)),
        ]

    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_sampling_matches_reference(self, seed):
        for sets, region in self.families():
            est = regularity_sampling(sets, region, 300, seed)
            ref = regularity_sampling_points(sets, region, 300, seed)
            assert est == ref and est.r_hat.hex() == ref.r_hat.hex()

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_block_size_does_not_change_the_estimate(self, monkeypatch, block):
        sets, region = self.families()[2]
        ref = regularity_sampling_points(sets, region, 150, seed=4)
        monkeypatch.setattr(sets_module, "_SAMPLE_BLOCK", block)
        assert regularity_sampling(sets, region, 150, seed=4) == ref

    def test_more_samples_than_one_block(self):
        sets, region = self.families()[0]
        samples = sets_module._SAMPLE_BLOCK + 5
        assert (regularity_sampling(sets, region, samples, seed=1)
                == regularity_sampling_points(sets, region, samples, seed=1))

    @staticmethod
    def around_a_point(rng, n):
        """Two to five sets, each holding ``c`` within 0.05 to 0.5 of its boundary.

        Halfspaces, boxes (some sides open), balls and polyhedra of two to
        four such halfspaces, so no set holds another and most samples that
        leave the intersection leave it at an angle.
        """
        c = rng.uniform(-1.0, 1.0, n)

        def halfspace():
            a = rng.normal(size=n)
            return Halfspace(a, float(a @ c + np.linalg.norm(a) * rng.uniform(0.05, 0.5)))

        def make(kind):
            if kind == 0:
                return halfspace()
            if kind == 1:
                lo, hi = c - rng.uniform(0.05, 0.5, n), c + rng.uniform(0.05, 0.5, n)
                open_side = rng.random(n) < 0.25
                return Box(np.where(open_side, -np.inf, lo), hi)
            if kind == 2:
                u = rng.normal(size=n)
                radius = float(rng.uniform(0.5, 2.0))
                inside = rng.uniform(0.05, 0.5)
                return Ball(c + (radius - inside) * u / np.linalg.norm(u), radius)
            return Intersection(tuple(halfspace() for _ in range(rng.integers(2, 5))))

        sets = [make(k) for k in rng.integers(0, 4, size=rng.integers(2, 6))]
        return sets, Ball(c + rng.uniform(-0.3, 0.3, n), float(rng.uniform(1.0, 3.0)))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_families_match_reference(self, monkeypatch, seed):
        """Both kinds of informative sample, with blocks of 37 samples and of
        ``_SAMPLE_BLOCK``: the estimate equals the reference, which runs
        Dykstra on every sample, field for field and bit for bit."""
        rng = np.random.default_rng(100 + seed)
        dykstra_points = []
        distance = sets_module.distance

        def counted(s, points):
            dykstra_points.append(len(points))
            return distance(s, points)

        monkeypatch.setattr(sets_module, "distance", counted)
        informative = 0
        for _ in range(4):
            sets, region = self.around_a_point(rng, int(rng.integers(2, 4)))
            ref = regularity_sampling_points(sets, region, 150, seed)
            informative += 150 - ref.skipped
            for block in (37, sets_module._SAMPLE_BLOCK):
                monkeypatch.setattr(sets_module, "_SAMPLE_BLOCK", block)
                est = regularity_sampling(sets, region, 150, seed)
                assert est == ref and est.r_hat.hex() == ref.r_hat.hex()
        # Each family ran twice; some informative samples skipped Dykstra, and some did not.
        assert 0 < sum(dykstra_points) < 2 * informative

    def test_a_set_inside_all_others_gives_exactly_one(self):
        """A box inside a ball: every informative sample's nearest box point
        lies in the ball, so it is the projection onto the intersection, and
        the ratio is exactly 1 where Dykstra's rounding may exceed it."""
        sets = [Box(np.array([-0.5, -0.25]), np.array([0.5, 0.25])),
                Ball(np.array([0.1, 0.0]), 1.0)]
        region = Ball(np.zeros(2), 2.0)
        est = regularity_sampling(sets, region, 2000, seed=3)
        ref = regularity_sampling_points(sets, region, 2000, seed=3)
        assert est.r_hat == 1.0 and ref.r_hat >= 1.0
        assert (est.samples, est.skipped) == (ref.samples, ref.skipped)

    def test_largest_distances_take_memory_per_sample_not_per_set(self):
        """64 sets, one full block of samples: a box first and 63 balls around
        it, so no sample runs Dykstra and the peak is the largest-distance
        pass.  It holds a few arrays of the samples and a ball projection's
        temporaries, about 2.6 MiB; one distance array per set held 8 MiB,
        and 8 MiB more where ``np.max`` stacked them."""
        rng = np.random.default_rng(2)
        box = Box(np.array([-0.3, -0.2]), np.array([0.3, 0.2]))
        u = rng.normal(size=(63, 2))
        centers = 0.2 * u / np.linalg.norm(u, axis=1)[:, None]
        sets = [box] + [Ball(c, float(r)) for c, r in zip(centers, rng.uniform(0.6, 1.5, 63))]
        samples = sets_module._SAMPLE_BLOCK
        region = Ball(np.zeros(2), 2.0)
        regularity_sampling(sets, region, 10, seed=0)   # numpy's one-time allocations
        tracemalloc.start()
        try:
            est = regularity_sampling(sets, region, samples, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.r_hat == 1.0 and est.skipped < samples
        assert peak < 4 * 2 ** 20

    def test_interior_matches_reference(self):
        for sets, region in self.families():
            n = region.center.shape[0]
            for theta, x_bar in ((0.05, np.full(n, -0.3)), (0.4, np.zeros(n))):
                try:
                    ref = regularity_interior_points(sets, theta, x_bar, region)
                except InteriorBallNotContained as exc:
                    with pytest.raises(InteriorBallNotContained, match=f"^{re.escape(str(exc))}$"):
                        regularity_interior(sets, theta, x_bar, region)
                else:
                    assert regularity_interior(sets, theta, x_bar, region) == ref


class TestRegularityInterior:
    def test_formula_case_origin(self):
        sets = [Ball(np.zeros(2), 3.0)]
        est = regularity_interior(sets, 1.0, np.zeros(2), Ball(np.zeros(2), 2.0))
        assert est.r_hat == 2.0
        assert est.method == "interior-formula"

    def test_formula_case_offset(self):
        sets = [Ball(np.array([1.0, 0.0]), 2.0)]
        est = regularity_interior(sets, 0.5, np.array([1.0, 0.0]), Ball(np.zeros(2), 1.0))
        assert est.r_hat == 4.0

    def test_degenerate_region_clamps_to_one(self):
        sets = [Ball(np.zeros(2), 2.0)]
        est = regularity_interior(sets, 1.0, np.zeros(2), Ball(np.zeros(2), 1e-12))
        assert est.r_hat == 1.0

    def test_containment_guard(self):
        sets = [Ball(np.zeros(2), 0.5)]
        with pytest.raises(InteriorBallNotContained):
            regularity_interior(sets, 1.0, np.zeros(2), Ball(np.zeros(2), 2.0))

    def test_sampling_never_exceeds_interior_constant(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n = 2
            theta = 0.5
            x_bar = rng.uniform(-0.5, 0.5, n)
            sets = []
            for _ in range(3):
                a = rng.normal(size=n)
                a /= np.linalg.norm(a)
                sets.append(Halfspace(a, float(a @ x_bar) + theta + rng.uniform(0.05, 0.5)))
            region = Ball(np.zeros(n), 3.0)
            upper = regularity_interior(sets, theta, x_bar, region)
            lower = regularity_sampling(sets, region, 2000, seed=int(rng.integers(1 << 16)))
            assert lower.r_hat <= upper.r_hat + 1e-9

    def test_estimate_floor(self):
        with pytest.raises(ValueError):
            RegularityEstimate(r_hat=0.5, method="sampling", samples=1)


class TestDistancesAndSpreadBound:
    def test_member_distance_zero(self):
        assert distance(Ball(np.zeros(3), 1.0), np.zeros(3)) == 0.0

    def test_distance_to_member_below_intersection(self):
        rng = np.random.default_rng(6)
        sets = [Halfspace(np.array([1.0, 0.0]), 0.0),
                Halfspace(np.array([0.0, 1.0]), 0.0),
                Ball(np.array([-1.0, -1.0]), 3.0)]
        inter = Intersection(tuple(sets))
        for _ in range(200):
            x = rng.normal(size=2) * 3
            d_inter = distance(inter, x)
            for s in sets:
                assert distance(s, x) <= d_inter + 1e-10

    def test_spread_bound_identical_points(self):
        sets = [Ball(np.zeros(2), 1.0)] * 3
        pts = [np.zeros(2)] * 3
        rec = spread_projection_bound(pts, sets, np.full(3, 1 / 3), r=1.0)
        assert rec.lhs == 0.0 and rec.rhs == 0.0 and rec.passed

    def test_two_halfspace_hand_case(self):
        sets = [Halfspace(np.array([0.0, 1.0]), 1.0), Halfspace(np.array([1.0, 0.0]), 1.0)]
        pts = [np.array([0.0, 1.0]), np.array([1.0, 0.0])]
        rec = spread_projection_bound(pts, sets, np.array([0.5, 0.5]), r=math.sqrt(2))
        assert rec.passed

    def test_infeasible_point_guard(self):
        sets = [Ball(np.zeros(2), 1.0), Ball(np.zeros(2), 1.0)]
        pts = [np.array([5.0, 0.0]), np.zeros(2)]
        with pytest.raises(InfeasiblePoint):
            spread_projection_bound(pts, sets, np.array([0.5, 0.5]), r=1.0)

    def test_random_feasible_tuples_with_interior_constant(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n = 2
            theta = 0.5
            x_bar = rng.uniform(-0.5, 0.5, n)
            sets = []
            for _ in range(3):
                a = rng.normal(size=n)
                a /= np.linalg.norm(a)
                sets.append(Halfspace(a, float(a @ x_bar) + theta + rng.uniform(0.05, 1.0)))
            region = Ball(np.zeros(n), 4.0)
            r = regularity_interior(sets, theta, x_bar, region).r_hat
            pts = [s.project(rng.normal(size=n) * 2) for s in sets]
            phi = rng.random(3)
            phi /= phi.sum()
            assert spread_projection_bound(pts, sets, phi, r=r).passed


class TestJsonRoundTrip:
    def test_all_variants(self):
        sets = [Halfspace(np.array([1.0, -2.0]), 0.5),
                Hyperplane(np.array([0.0, 1.0]), 2.0),
                Box(np.array([-np.inf, 0.0]), np.array([1.0, np.inf])),
                Ball(np.array([0.5, 0.5]), 2.0),
                Intersection((Halfspace(np.array([1.0, 0.0]), 0.0),)),
                Intersection((Ball(np.zeros(2), 1.0), Box(np.zeros(2), np.ones(2))))]
        for s in sets:
            d = json.loads(json.dumps(set_to_json_dict(s)))
            rebuilt = set_from_json_dict(d)
            assert set_to_json_dict(rebuilt) == set_to_json_dict(s)

    def test_inf_strings_accepted(self):
        s = set_from_json_dict({"type": "box", "lower": ["-inf", 0], "upper": [None, "inf"]})
        assert s.lower[0] == -np.inf and s.upper[0] == np.inf

    @pytest.mark.parametrize("spec,message", [
        ({"type": "halfspace", "a": [1.0], "b": 0.0, "c": 1.0}, "unknown halfspace keys ['c']"),
        ({"type": "ball", "center": [0.0], "centre": [0.0], "radius": 1.0},
         "unknown ball keys ['centre']"),
        ({"type": "intersection", "members": [
            {"type": "box", "lower": [0.0], "upper": [1.0], "lowr": [0.0]}]},
         "unknown box keys ['lowr']"),
    ], ids=["halfspace-c", "ball-centre", "member-box-lowr"])
    def test_unknown_key_named(self, spec, message):
        """Each set type reads its own keys and names any other, nested members too."""
        with pytest.raises(ValueError, match=re.escape(message)):
            set_from_json_dict(spec)


class TestSetValidation:
    """Bad set data is a ValueError when the set is built, never a projection failure."""

    @pytest.mark.parametrize("build", [
        lambda: Halfspace(np.array([np.nan, 1.0]), 0.0),
        lambda: Halfspace(np.array([1.0, 0.0]), np.nan),
        lambda: Halfspace(np.array([np.inf, 0.0]), 0.0),
        lambda: Halfspace(np.array([[1.0, 0.0]]), 0.0),
        lambda: Hyperplane(np.array([1.0, np.nan]), 0.0),
        lambda: Hyperplane(np.array([1.0, 0.0]), np.inf),
        lambda: Box(np.array(0.0), np.array(1.0)),
        lambda: Box(np.array([]), np.array([])),
        lambda: Ball(np.array([np.nan, 0.0]), 1.0),
        lambda: Ball(np.zeros(2), np.nan),
        lambda: Ball(np.zeros(2), np.inf),
        lambda: set_from_json_dict({"type": "polyhedron", "halfspaces": [
            {"type": "halfspace", "a": [1.0, 0.0], "b": 0.0},
            {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}]}),
        lambda: set_from_json_dict({"type": "polyhedron", "halfspaces": [
            {"type": "halfspace", "a": [1.0, 0.0], "b": 0.0},
            {"type": "halfspace", "a": [1.0], "b": 0.0}]}),
        lambda: Intersection((Ball(np.zeros(2), 1.0), Box(np.zeros(3), np.ones(3)))),
    ], ids=["nan-normal", "nan-offset", "infinite-normal", "matrix-normal",
            "nan-hyperplane-normal", "infinite-hyperplane-offset", "scalar-box", "empty-box",
            "nan-center", "nan-radius", "infinite-radius", "ball-facet",
            "mixed-dimension-facets", "mixed-dimension-members"])
    def test_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_dimensions(self):
        assert Halfspace(np.array([1.0, 0.0, 0.0]), 0.0).dim == 3
        assert Box(np.array([-np.inf]), np.array([np.inf])).dim == 1
        assert set_from_json_dict({"type": "polyhedron", "halfspaces": [
            {"type": "halfspace", "a": [1.0, 0.0], "b": 0.0}]}).dim == 2
        assert Intersection((Ball(np.zeros(4), 1.0), Hyperplane(np.ones(4), 0.0))).dim == 4
