"""Scenario generator for the benchmark workloads.

``generate(workload, seed, out_dir)`` writes the workload's scenario files,
and the same ``(workload, seed)`` always gives byte-identical files.  The
program under test sees only these files, so any seed not used while tuning
a change can serve as a held-out seed.

Run as a script it is also the set-up probe the benchmark times: a fresh
interpreter loads the package, the way a user's first ``simulate`` must,
and then writes the scenario files::

    python3 perfbench/scenarios.py --workload rooted-churn --seed 7 --out /tmp/s
"""
from __future__ import annotations

import argparse
import json
import sys
import zlib
from pathlib import Path

import numpy as np

# Scenario files per workload seed.  The measurement loop cycles through them
# at least POOL + 1 times, so some scenario repeats and its report can be
# compared byte for byte with the first.
POOL = 3

# Run seeds are drawn, without replacement, from range(RUN_SEEDS).  On
# rooted-churn the run seed alone decides the graphs, and reference.json
# stores the expected scalars of every one of these run seeds, so every
# workload seed is checked against the reference.
RUN_SEEDS = 512

# Fixed graph for constrained-mix: the undirected 6-cycle, with Laplacian
# weights I - L/gamma.  gamma = 40 mixes slowly (second eigenvalue 0.975), so
# the states stay clear of floating-point consensus over the horizon: a run
# that reaches it writes exact zeros, and the artifact size would then flip
# between two values from seed to seed.  A fixed graph also keeps beta, p*
# and delta the same for every seed: only the sets and the initial states vary.
_MIX_GRAPH = {"m": 6, "edges": [[i + 1, (i + d) % 6 + 1] for i in range(6) for d in (1, 5)]}
_MIX_GAMMA = 40.0


def _rooted_churn(rng: np.random.Generator, run_seed: int) -> dict:
    return {
        "m": 96, "n": 1, "horizon": 300, "seed": run_seed, "mode": "unconstrained",
        "graph": {"kind": "random-rooted", "extra_edge_prob": 0.1},
        "weights": {"scheme": "equal-neighbor"},
        "adjoint": {"method": "backward-product"},
        "initial": {"kind": "uniform-box", "low": -5.0, "high": 5.0},
    }


def _cubic_tree(rng: np.random.Generator, run_seed: int) -> dict:
    return {
        "m": 256, "n": 2, "horizon": 300, "seed": run_seed, "mode": "unconstrained",
        "graph": {"kind": "static", "regular_tree_d": 8},
        "weights": {"scheme": "quarter"},
        "adjoint": {"method": "uniform"},
        "initial": {"kind": "uniform-box", "low": -5.0, "high": 5.0},
    }


def _halfspace(x_bar: np.ndarray, theta: float, angle: float, margin: float) -> dict:
    a = np.array([np.cos(angle), np.sin(angle)])
    return {"type": "halfspace", "a": a.tolist(), "b": float(a @ x_bar) + theta + margin}


def _constrained_mix(rng: np.random.Generator, run_seed: int) -> dict:
    """Halfspace, box, ball and polyhedron sets in turn, all containing B(x_bar, theta).

    The five halfspace normals (agents 0 and 4, and the polyhedron's three
    facets) are spread 72 degrees apart around a random rotation, give or
    take 3 degrees, so the halfspaces cut out a pentagon within 1.5 of
    ``x_bar``; the box and the ball contain that pentagon.  Dykstra's sweep
    count grows without bound as two facets meeting at the nearest point turn
    parallel, so free angles, or box sides that meet a facet, would make the
    run time swing several-fold from seed to seed.
    """
    m, n, theta = 6, 2, 0.4
    x_bar = rng.uniform(-0.5, 0.5, size=n)
    angles = (rng.uniform(0.0, 2.0 * np.pi) + np.arange(5) * 2.0 * np.pi / 5.0
              + rng.uniform(-0.05, 0.05, size=5))

    def halfspace(k: int) -> dict:
        return _halfspace(x_bar, theta, float(angles[k]), float(rng.uniform(0.4, 0.5)))

    def box() -> dict:
        lo = x_bar - 1.5 - rng.uniform(0.0, 0.5, size=n)
        hi = x_bar + 1.5 + rng.uniform(0.0, 0.5, size=n)
        return {"type": "box", "lower": lo.tolist(), "upper": hi.tolist()}

    offset = rng.uniform(-0.3, 0.3, size=n)
    ball = {"type": "ball", "center": (x_bar + offset).tolist(),
            "radius": float(np.linalg.norm(offset)) + 1.5 + float(rng.uniform(0.0, 0.5))}
    constraints = [halfspace(0), box(), ball,
                   {"type": "polyhedron", "halfspaces": [halfspace(k) for k in (1, 2, 3)]},
                   halfspace(4), box()]
    # Agent 0 starts at norm 4 on the far side of its halfspace, the others
    # inside the common interior ball.  The iterate radius rho, which sizes
    # the regularity sampling region, is then 4 for every seed.
    far = angles[0] + 0.8 * np.pi + rng.uniform(-0.1, 0.1)
    states = [[4.0 * np.cos(far), 4.0 * np.sin(far)]]
    for _ in range(1, m):
        angle, radius = rng.uniform(0.0, 2.0 * np.pi), theta * np.sqrt(rng.uniform())
        states.append((x_bar + radius * np.array([np.cos(angle), np.sin(angle)])).tolist())
    # No "regularity" key: the run takes the engine's default sampling
    # estimate and its escalation, which is the work this workload measures.
    return {
        "m": m, "n": n, "horizon": 500, "seed": run_seed, "mode": "constrained",
        "graph": {"kind": "static", "graph": _MIX_GRAPH},
        "weights": {"scheme": "laplacian", "gamma": _MIX_GAMMA},
        "initial": {"kind": "explicit", "states": states},
        "constraints": constraints,
    }


WORKLOADS = {
    "rooted-churn": _rooted_churn,
    "cubic-tree": _cubic_tree,
    "constrained-mix": _constrained_mix,
}


def scenarios(workload: str, seed: int) -> list[dict]:
    """The workload's scenario dicts for ``seed``; pure function of its arguments."""
    make = WORKLOADS[workload]
    rng = np.random.default_rng([int(seed), zlib.crc32(workload.encode("ascii"))])
    run_seeds = rng.choice(RUN_SEEDS, size=POOL, replace=False)
    return [make(rng, int(run_seed)) for run_seed in run_seeds]


def generate(workload: str, seed: int, out_dir: Path) -> list[Path]:
    """Write the workload's scenario files into ``out_dir`` and return their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for idx, scenario in enumerate(scenarios(workload, seed)):
        path = out_dir / f"{workload}-{idx}.json"
        path.write_text(json.dumps(scenario, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", default=None,
                        help="directory holding the consensus_lab package to load first")
    args = parser.parse_args(argv)
    if args.src is not None:
        sys.path.insert(0, args.src)
        import consensus_lab.cli  # noqa: F401  (set-up cost: loading the package)
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
