"""The pruned squared spread against the brute-force pairwise maximum, bit for bit.

``squared_spread`` scans only the points that can end a diametral pair, with
a rounding margin.  These cases put many points at or near that threshold
(regular polygons, where every point is as far from the mean as the farthest
one, and ``L = 2R`` in exact arithmetic), repeat and align points, and shift
tiny clouds far from the origin, where the rounding of the mean exceeds the
spread itself.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from consensus_lab.lyapunov import squared_spread  # noqa: E402

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
    assert squared_spread(x) == want
    # Relabelling the agents changes the rounded mean, hence the candidates,
    # but never the value.
    assert squared_spread(x[rng.permutation(len(x))]) == want


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
        assert np.isnan(brute_force(x)) and np.isnan(squared_spread(x))
