"""Metamorphic invariances: scaling, coordinate splitting, agent relabelling and translation.

The scaling, splitting and relabelling examples run the full pipeline from
explicit initial states, so the series under test come from
``engine.annotate`` and the verdicts from ``engine.evaluate_certificates``.
The translation example probes the comparison value
``lyapunov.weighted_variance`` directly.
"""
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from consensus_lab import (DiGraph, bfs_spanning_tree, engine,  # noqa: E402
                           random_rooted_graph, regular_tree_graph, roots,
                           weighted_variance)

HORIZON = 60
EXAMPLES = settings(derandomize=True, database=None, max_examples=15, deadline=None)

# (graph kind, size, extra edge probability): random rooted graphs on m
# agents with equal-neighbor weights, or the cubic tree on 2^d agents with
# quarter weights (doubly stochastic, so the uniform adjoint).
graphs = st.one_of(
    st.tuples(st.just("random-rooted"), st.integers(3, 20), st.sampled_from([0.0, 0.2])),
    st.tuples(st.just("regular-tree"), st.integers(2, 4), st.just(0.0)),
)
seeds = st.integers(0, 2 ** 16)


def agents(graph) -> int:
    kind, size, _ = graph
    return 2 ** size if kind == "regular-tree" else size


def initial(graph, n: int, state_seed: int) -> np.ndarray:
    return np.random.default_rng(state_seed).uniform(-5.0, 5.0, (agents(graph), n))


def run(graph, seed: int, x0: np.ndarray) -> engine.RunResult:
    kind, size, prob = graph
    if kind == "regular-tree":
        spec, scheme = {"kind": "static", "regular_tree_d": size}, "quarter"
    else:
        spec, scheme = {"kind": kind, "extra_edge_prob": prob}, "equal-neighbor"
    return engine.run(engine.RunConfig.from_json_dict({
        "m": x0.shape[0], "n": x0.shape[1], "horizon": HORIZON, "seed": seed,
        "mode": "unconstrained", "graph": spec, "weights": {"scheme": scheme},
        "initial": {"kind": "explicit", "states": x0.tolist()},
    }))


def verdicts(result: engine.RunResult) -> list[tuple]:
    return [(r.check, r.t, r.k, r.verdict) for r in result.records]


@EXAMPLES
@given(graph=graphs, n=st.integers(1, 3), seed=seeds, state_seed=seeds)
def test_scaling_states_by_8_scales_series_by_64(graph, n, seed, state_seed):
    # a power of two scales every product and sum exactly, so the series
    # scale bit for bit and no verdict moves
    x0 = initial(graph, n, state_seed)
    base = run(graph, seed, x0)
    scaled = run(graph, seed, 8.0 * x0)
    for name in ("lyap", "decrement", "spread_sq"):
        np.testing.assert_array_equal(getattr(scaled.trajectory, name),
                                      64.0 * getattr(base.trajectory, name), err_msg=name)
    assert verdicts(scaled) == verdicts(base)


@EXAMPLES
@given(graph=graphs, n=st.integers(2, 3), seed=seeds, state_seed=seeds)
def test_vector_run_is_sum_of_coordinate_runs(graph, n, seed, state_seed):
    # absolute tolerance: at floating-point consensus the values are rounding
    # noise, so a relative error says nothing there
    x0 = initial(graph, n, state_seed)
    whole = run(graph, seed, x0).trajectory
    parts = [run(graph, seed, x0[:, [k]]).trajectory for k in range(n)]
    scale = np.maximum(1.0, (whole.states ** 2).sum(axis=(1, 2)))
    for name in ("lyap", "decrement"):
        got = getattr(whole, name)
        want = sum(getattr(p, name) for p in parts)
        assert (np.abs(got - want) <= 1e-12 * scale[:got.size]).all(), name


def cyclic_run(graphs: list[DiGraph], scheme: str, seed: int,
               x0: np.ndarray) -> engine.RunResult:
    spec = ({"kind": "static", "graph": graphs[0].to_json_dict()} if len(graphs) == 1 else
            {"kind": "periodic", "graphs": [g.to_json_dict() for g in graphs]})
    return engine.run(engine.RunConfig.from_json_dict({
        "m": x0.shape[0], "n": x0.shape[1], "horizon": HORIZON, "seed": seed,
        "mode": "unconstrained", "graph": spec, "weights": {"scheme": scheme},
        "initial": {"kind": "explicit", "states": x0.tolist()},
    }))


# (graphs per period, size, extra edge probability): a static or periodic
# sequence of symmetrized random rooted graphs on m agents with equal-neighbor
# weights, or the static cubic tree on 2^d agents with quarter weights.
cyclic_graphs = st.one_of(
    st.tuples(st.sampled_from([1, 3]), st.integers(3, 12), st.sampled_from([0.0, 0.3])),
    st.tuples(st.just("regular-tree"), st.integers(2, 4), st.just(0.0)),
)


@EXAMPLES
@given(graph=cyclic_graphs, n=st.integers(1, 2), seed=seeds, state_seed=seeds)
def test_relabelling_agents_moves_nothing_but_rounding(graph, n, seed, state_seed):
    """Agent ``i`` renamed ``perm[i]``: the same run, up to rounding, and the same verdicts.

    The series are sums over agents taken in another order, and the
    equal-neighbor diagonal takes a residue summed in another order, so they
    agree to a relative 1e-12 (of the series' first value, the scale of
    their rounding).  ``p*`` is the depth of the BFS tree from the smallest
    root, which relabelling may move to another root of another depth.
    """
    kind, size, prob = graph
    rng = np.random.default_rng(seed)
    if kind == "regular-tree":
        graphs, scheme = [regular_tree_graph(size)], "quarter"
    else:
        # Symmetrized, so strongly connected: a fixed tree would starve its
        # leaves of adjoint weight, and delta would round the quotient to 1.
        trees = [random_rooted_graph(size, prob, rng).adjacency for _ in range(kind)]
        graphs = [DiGraph.from_adjacency(a | a.T) for a in trees]
        scheme = "equal-neighbor"
    m = graphs[0].m
    perm = rng.permutation(m)
    inv = np.argsort(perm)
    moved = [DiGraph.from_adjacency(g.adjacency[np.ix_(inv, inv)]) for g in graphs]
    x0 = np.random.default_rng(state_seed).uniform(-5.0, 5.0, (m, n))
    base = cyclic_run(graphs, scheme, seed, x0)
    other = cyclic_run(moved, scheme, seed, x0[inv])
    np.testing.assert_allclose(other.trajectory.states[:, perm], base.trajectory.states,
                               rtol=0, atol=1e-12 * np.abs(x0).max())
    for name in ("lyap", "decrement", "spread_sq"):
        want = getattr(base.trajectory, name)
        np.testing.assert_allclose(getattr(other.trajectory, name), want, rtol=1e-12,
                                   atol=1e-12 * want[0], err_msg=name)
    assert other.adjoint.delta == pytest.approx(base.adjoint.delta, rel=1e-12, abs=0)
    assert other.compliance.beta == pytest.approx(base.compliance.beta, rel=1e-12, abs=0)
    depth = max(bfs_spanning_tree(g, min(roots(g))).depth for g in moved)
    assert other.compliance.p_star == max(depth, 1)
    if other.compliance.p_star == base.compliance.p_star:
        assert verdicts(other) == verdicts(base)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(m=st.integers(2, 12), n=st.integers(1, 3), seed=seeds,
       center=st.floats(-1e3, 1e3), log_spread=st.floats(-12.0, 0.0),
       log_shift=st.floats(-2.0, 8.0))
def test_translation_moves_phi_by_rounding_only(m, n, seed, center, log_spread, log_shift):
    """``phi(x + s, nu)`` stays within a rounding bound of ``phi(x, nu)``.

    In exact arithmetic ``sqrt(phi)`` is a seminorm that ignores translation.
    Rounding ``x + s`` moves each entry by at most ``u S``, with ``u = eps/2``
    and ``S = max|x| + max|s|``, so ``sqrt(phi)`` by at most ``2 sqrt(n) u S``.
    The shifted two-pass kernel then adds, for each side, the rounding of
    ``d = x - x_0`` and of ``d - nu'd`` (entries up to ``2S``), the error of
    the center ``nu'd`` (``gamma_m 2S`` per entry) and the relative
    ``gamma_(n+m+1)`` of the sums: under ``sqrt(n) u S (3m + n + 6)`` each, to
    first order.  ``E = 4 (m + n + 2) sqrt(n) eps S`` bounds the total with
    room for the higher-order terms.  The one-pass moment form
    ``sum nu x^2 - (nu'x)^2`` errs by about ``eps S^2`` in ``phi`` instead,
    which near consensus far from the origin is the whole value.
    """
    rng = np.random.default_rng(seed)
    x = center + 10.0 ** log_spread * rng.uniform(-1.0, 1.0, (1, m, n))
    s = 10.0 ** log_shift * rng.uniform(-1.0, 1.0, n)
    nu = rng.uniform(0.05, 1.0, (1, m))
    nu /= nu.sum()
    (base,), _ = weighted_variance(x, nu)
    (moved,), _ = weighted_variance(x + s, nu)
    assert base >= 0.0 and moved >= 0.0
    bound = 4 * (m + n + 2) * math.sqrt(n) * np.finfo(float).eps * (
        np.abs(x).max() + np.abs(s).max())
    assert abs(math.sqrt(moved) - math.sqrt(base)) <= bound
