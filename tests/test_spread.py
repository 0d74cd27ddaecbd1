"""The pruned squared spread against the brute-force pairwise maximum, bit for bit.

``squared_spread`` scans only the points that can end a diametral pair, with
a rounding margin.  These cases put many points at or near that threshold
(regular polygons, where every point is as far from the mean as the farthest
one, and ``L = 2R`` in exact arithmetic), repeat and align points, and shift
tiny clouds far from the origin, where the rounding of the mean exceeds the
spread itself.  A whole run in one call must give each step the value of the
one-state oracle, ``oracles.squared_spread_per_state``.
"""
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from consensus_lab import lyapunov  # noqa: E402
from consensus_lab.lyapunov import squared_spread  # noqa: E402

from oracles import squared_spread_per_state  # noqa: E402

EXAMPLES = settings(derandomize=True, database=None, max_examples=200, deadline=None)
seeds = st.integers(0, 2 ** 32 - 1)
dims = st.integers(2, 7)
# Point-cloud scales down to 1e-30 and offsets up to 1e6.
scales = st.integers(-30, 3).map(lambda e: 10.0 ** e)
offsets = st.integers(-3, 6).map(lambda e: 10.0 ** e)


def brute_force(x: np.ndarray) -> float:
    diff = x[:, None, :] - x[None, :, :]
    return float((diff * diff).sum(axis=-1).max())


def assert_matches_brute_force(x: np.ndarray, rng: np.random.Generator) -> None:
    want = brute_force(x)
    assert squared_spread(x[None])[0] == want
    # Relabelling the agents changes the rounded mean, hence the candidates,
    # but never the value.
    assert squared_spread(x[None, rng.permutation(len(x))])[0] == want


def plane(rng: np.random.Generator, n: int) -> np.ndarray:
    """Two orthonormal rows spanning a random plane of R^n."""
    return np.linalg.qr(rng.standard_normal((n, 2)))[0].T


@EXAMPLES
@given(half=st.integers(1, 80), n=dims, rotate=st.booleans(), scale=scales,
       offset=offsets, seed=seeds)
def test_regular_polygon(half, n, rotate, scale, offset, seed):
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0, 2 * np.pi) + 2 * np.pi * np.arange(2 * half) / (2 * half)
    circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    basis = plane(rng, n) if rotate else np.eye(2, n)
    x = offset * rng.uniform(-1, 1, n) + scale * (circle @ basis)
    assert_matches_brute_force(x, rng)


@EXAMPLES
@given(kind=st.sampled_from(["cloud", "duplicates", "collinear", "circle", "outliers"]),
       m=st.integers(1, 160), n=dims, scale=scales, offset=offsets, seed=seeds)
def test_adversarial_clouds(kind, m, n, scale, offset, seed):
    rng = np.random.default_rng(seed)
    if kind == "cloud":
        pts = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 3, size=n)
    elif kind == "duplicates":
        base = rng.standard_normal((int(rng.integers(1, m + 1)), n))
        pts = base[rng.integers(0, len(base), size=m)]
    elif kind == "collinear":
        pts = rng.standard_normal((m, 1)) * rng.standard_normal(n)
    elif kind == "circle":
        angles = rng.uniform(0, 2 * np.pi, size=m)
        pts = np.stack([np.cos(angles), np.sin(angles)], axis=1) @ plane(rng, n)
    else:
        pts = rng.standard_normal((m, n))
        pts[rng.integers(0, m, size=3)] *= 1e3
    x = offset * rng.uniform(-1, 1, n) + scale * pts
    assert_matches_brute_force(x, rng)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_state_keeps_every_point(value):
    """A non-finite threshold prunes nothing, so the scan still sees the bad state."""
    x = np.arange(12.0).reshape(6, 2)
    x[3, 1] = value
    with np.errstate(invalid="ignore"):
        assert np.isnan(brute_force(x)) and np.isnan(squared_spread(x[None])[0])


# A step of a run: how its points sit, before scaling and shifting.
step_kinds = st.sampled_from(["cloud", "consensus", "polygon", "outliers", "special"])
SPECIALS = (np.nan, np.inf, -np.inf, -0.0, 5e-324)


def run_step(rng: np.random.Generator, kind: str, m: int, n: int) -> np.ndarray:
    if kind == "consensus":
        return np.zeros((m, n)) + 1e-17 * rng.integers(-1, 2, size=(m, n))
    if kind == "polygon" and n >= 2:
        angles = 2 * np.pi * np.arange(m) / m
        return np.stack([np.cos(angles), np.sin(angles)], axis=1) @ plane(rng, n)
    pts = rng.standard_normal((m, n))
    if kind == "outliers":
        pts[rng.integers(0, m, size=2)] *= 1e3
    elif kind == "special":
        pts[rng.integers(0, m), rng.integers(0, n)] = rng.choice(SPECIALS)
    return pts


@EXAMPLES
@given(kinds=st.lists(step_kinds, min_size=1, max_size=12), m=st.integers(1, 40),
       n=st.integers(1, 4), block=st.sampled_from([1, 7, 64, 1 << 16]),
       prune=st.sampled_from([0, 50, 1 << 14]), scale=scales, offset=offsets, seed=seeds)
def test_batched_equals_per_state_oracle(kinds, m, n, block, prune, scale, offset, seed):
    """One call over a run gives each step's one-state value, bit for bit.

    Small chunk and pruning thresholds split the run at every step and prune
    even a few points, so steps with different candidate counts share a
    padded buffer.
    """
    rng = np.random.default_rng(seed)
    states = offset * rng.uniform(-1, 1, n) + scale * np.stack(
        [run_step(rng, kind, m, n) for kind in kinds])
    with np.errstate(invalid="ignore", over="ignore"):
        want = [squared_spread_per_state(x).hex() for x in states]
        with mock.patch.object(lyapunov, "_BLOCK_ENTRIES", block), \
                mock.patch.object(lyapunov, "_PRUNE_MIN_ENTRIES", prune):
            got = squared_spread(states)
    assert got.shape == (len(kinds),)
    assert [v.hex() for v in got.tolist()] == want


def test_one_coordinate_squares_with_float_power():
    """numpy's array ``** 2`` multiplies and would give 0.13134695247455289 here."""
    x = np.array([[0.0], [0.3624182010806754]])
    assert squared_spread_per_state(x) == 0.13134695247455286
    assert squared_spread(x[None]).tolist() == [0.13134695247455286]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 12])
@pytest.mark.parametrize("block", [1 << 10, 1 << 16])
def test_count_groups_equal_per_state_oracle(n, block):
    """A run whose steps keep from a few points to all of them: sorted by
    candidate count and cut into groups of at most ``block`` pairs, every
    step still gets the one-state oracle's bits, at each coordinate count."""
    rng = np.random.default_rng(n)
    m = 100
    kinds = ["cloud", "outliers", "polygon", "consensus", "special"] * 6
    states = np.stack([rng.uniform(-1, 1, n) + run_step(rng, kind, m, n)
                       for kind in rng.permutation(kinds)])
    with np.errstate(invalid="ignore", over="ignore"):
        want = [squared_spread_per_state(x).hex() for x in states]
        with mock.patch.object(lyapunov, "_BLOCK_ENTRIES", block):
            got = squared_spread(states)
    assert [v.hex() for v in got.tolist()] == want
