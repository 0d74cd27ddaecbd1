import numpy as np
import pytest

from consensus_lab import DiGraph, GraphSequence, MatrixSequence, engine


def _unconstrained_config(seed: int, scheme: str, m: int, horizon: int = 500,
                          n: int = 1) -> engine.RunConfig:
    if scheme == "quarter":
        d = 2 + seed % 3
        graph = {"kind": "static", "regular_tree_d": d}
        m = 2 ** d
    else:
        graph = {"kind": "random-rooted", "extra_edge_prob": 0.15 + 0.3 * ((seed * 7) % 3) / 3}
    return engine.RunConfig.from_json_dict({
        "m": m, "n": n, "horizon": horizon, "seed": seed, "mode": "unconstrained",
        "graph": graph, "weights": {"scheme": scheme},
        "initial": {"kind": "uniform-box", "low": -5.0, "high": 5.0},
    })


def _constrained_config(seed: int, horizon: int = 500) -> engine.RunConfig:
    """Halfspace/box/ball constraints that all contain the ball B(x_bar, theta)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    m = int(rng.integers(3, 7))
    theta = 0.4
    x_bar = rng.uniform(-1.0, 1.0, size=n)
    constraints = []
    for i in range(m):
        kind = ("halfspace", "box", "ball")[i % 3]
        if kind == "halfspace":
            a = rng.normal(size=n)
            a /= np.linalg.norm(a)
            b = float(a @ x_bar) + theta + float(rng.uniform(0.1, 1.0))
            constraints.append({"type": "halfspace", "a": a.tolist(), "b": b})
        elif kind == "box":
            lo = x_bar - theta - rng.uniform(0.1, 1.5, size=n)
            hi = x_bar + theta + rng.uniform(0.1, 1.5, size=n)
            constraints.append({"type": "box", "lower": lo.tolist(), "upper": hi.tolist()})
        else:
            offset = rng.uniform(-0.8, 0.8, size=n)
            center = x_bar + offset
            radius = float(np.linalg.norm(offset)) + theta + float(rng.uniform(0.1, 1.0))
            constraints.append({"type": "ball", "center": center.tolist(), "radius": radius})
    return engine.RunConfig.from_json_dict({
        "m": m, "n": n, "horizon": horizon, "seed": seed, "mode": "constrained",
        "graph": {"kind": "random-rooted", "extra_edge_prob": 0.3},
        "weights": {"scheme": "equal-neighbor"},
        "initial": {"kind": "uniform-box", "low": -3.0, "high": 3.0},
        "constraints": constraints,
        "regularity": {"method": "interior", "theta": theta, "x_bar": x_bar.tolist()},
    })


@pytest.fixture
def unconstrained_config():
    return _unconstrained_config


@pytest.fixture
def constrained_config():
    return _constrained_config


@pytest.fixture
def period_six_sequence():
    """Builder of three custom matrices cycled over two periodic graphs on 3 nodes.

    The period is ``lcm(3, 2) = 6``.  Graph 0 is the path ``0 -> 1 -> 2`` and
    graph 1 the path ``0 -> 2 -> 1``.  With ``fail_at_3`` matrix 0 carries
    only graph 0's edges, so it has no weight on graph 1's tree edges; matrix 0
    first meets graph 1 at ``t = 3``.
    """
    def build(fail_at_3: bool = False) -> MatrixSequence:
        graphs = GraphSequence.periodic([DiGraph(3, {(0, 1), (1, 2)}),
                                         DiGraph(3, {(0, 2), (2, 1)})])
        first = ([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]] if fail_at_3
                 else [[0.6, 0.2, 0.2], [0.3, 0.4, 0.3], [0.1, 0.2, 0.7]])
        mats = [first, np.full((3, 3), 1 / 3),
                [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.2, 0.3, 0.5]]]
        return MatrixSequence.custom([np.array(a) for a in mats], graphs)
    return build
