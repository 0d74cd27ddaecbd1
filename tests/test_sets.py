import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from consensus_lab import (Ball, Box, ConvexSet, DykstraNotConverged, Halfspace, Hyperplane,
                           InteriorBallNotContained, Intersection, NoInformativeSamples,
                           Polyhedron, RegularityEstimate, distance, dykstra_project,
                           regularity_interior, regularity_sampling, set_from_json_dict)
from consensus_lab import sets as sets_module
from oracles import (InfeasiblePoint, YNotInSet, check_nonexpansive,
                     check_variational_inequality, dykstra_point, regularity_interior_points,
                     regularity_sampling_points, set_to_json_dict, spread_projection_bound)


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
        return Polyhedron(tuple(halves))
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
            poly = Polyhedron(tuple(halves))
            x = rng.normal(size=n) * 4
            assert np.abs(poly.project(x) - box.project(x)).max() <= 1e-8

    def test_matches_redundant_halfspace_encoding(self):
        rng = np.random.default_rng(4)
        base = Halfspace(np.array([1.0, 2.0]), 1.0)
        poly = Polyhedron((base, Halfspace(base.a * 2, base.b * 2),
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
            "polyhedron": (Polyhedron((Halfspace(np.array([1.0, 0.0]), 1.0),
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
        with pytest.raises(NoInformativeSamples):
            regularity_sampling([Ball(np.zeros(2), 10.0)], Ball(np.zeros(2), 1.0),
                                50, seed=2)

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
              Polyhedron((Halfspace(np.array([1.0, 1.0]), 1.0),
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
                Polyhedron((Halfspace(np.array([1.0, 0.0]), 0.0),)),
                Intersection((Ball(np.zeros(2), 1.0), Box(np.zeros(2), np.ones(2))))]
        for s in sets:
            d = json.loads(json.dumps(set_to_json_dict(s)))
            rebuilt = set_from_json_dict(d)
            assert set_to_json_dict(rebuilt) == set_to_json_dict(s)

    def test_inf_strings_accepted(self):
        s = set_from_json_dict({"type": "box", "lower": ["-inf", 0], "upper": [None, "inf"]})
        assert s.lower[0] == -np.inf and s.upper[0] == np.inf


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
        lambda: Polyhedron((Halfspace(np.array([1.0, 0.0]), 0.0), Ball(np.zeros(2), 1.0))),
        lambda: Polyhedron((Halfspace(np.array([1.0, 0.0]), 0.0),
                            Halfspace(np.array([1.0]), 0.0))),
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
        assert Polyhedron((Halfspace(np.array([1.0, 0.0]), 0.0),)).dim == 2
        assert Intersection((Ball(np.zeros(4), 1.0), Hyperplane(np.ones(4), 0.0))).dim == 4
