"""Projected consensus: average with your neighbors, then project onto your set.

Each agent i keeps its state inside its own convex set X_i via
w_i(t+1) = sum_j A_ij(t) x_j(t);  x_i(t+1) = P_{X_i}[w_i(t+1)].
With an interior ball certified inside the intersection, the weighted squared
distance V(t, v(t)) to the tracked projection point contracts geometrically
and the per-agent distances to the intersection decay under an explicit
envelope.
"""
import math

from consensus_lab import engine

config = engine.RunConfig.from_json_dict({
    "m": 4, "n": 2, "horizon": 300, "seed": 9, "mode": "constrained",
    "graph": {"kind": "random-rooted", "extra_edge_prob": 0.4},
    "weights": {"scheme": "equal-neighbor"},
    "initial": {"kind": "uniform-box", "low": -4.0, "high": 4.0},
    "constraints": [
        {"type": "halfspace", "a": [1.0, 0.0], "b": 1.0},
        {"type": "halfspace", "a": [0.0, 1.0], "b": 1.0},
        {"type": "ball", "center": [0.0, 0.0], "radius": 3.0},
        {"type": "box", "lower": [-2.0, -2.0], "upper": [2.0, 2.0]},
    ],
    "regularity": {"method": "interior", "theta": 0.5, "x_bar": [0.0, 0.0]},
})

result = engine.run(config)
report = result.report
traj = result.trajectory

print("regularity constant r (interior-ball formula):", report["r_used"])
print("tracked contraction quotient:", report["tracked_contraction_step"])
print()

print("V(t, v(t)) and the worst per-agent distance to the intersection:")
for t in (0, 1, 5, 20, 50, 100, 200, 300):
    print(f"  t={t:3d}  V={traj.v_values[t]:.6e}  "
          f"max dist={math.sqrt(traj.dist_sq[t].max()):.3e}  "
          f"spread={math.sqrt(traj.spread_sq[t]):.3e}")
print()

summary = report["certificates"]
print(f"certificates: {summary['passed']}/{summary['total']} passed")
for check, counts in summary["by_check"].items():
    print(f"  {check:28s} {counts['passed']}/{counts['total']}")
print()
print("consensus point estimate:", report["consensus"]["final_estimate"])
print("observed iterate radius rho:", report["consensus"]["rho_observed"])
