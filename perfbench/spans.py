"""Coarse spans around the public functions of each consensus-lab layer.

A ``Tracer`` replaces a function by a timing wrapper on the module attribute
the caller looks it up on.  Modules that did ``from .weights import
verify_compliance`` hold their own binding, so the patch goes on
``engine.verify_compliance``, not on ``weights.verify_compliance``.
``restore()`` puts every original back.  Spans stay in memory as
``(name, start, end, parent)`` rows; the benchmark writes them out once, at
the end of a run.

There is deliberately no span per ``ConvexSet.project``: the per-call
overhead would dominate the constrained workload.  Dykstra and distance
calls are the finest grain.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

PKG = "consensus_lab"


def _annotate_entries(tracer, args, result):
    # spread_sq and the decrement each form an m x m pairwise block per step:
    # (h+1) + h blocks of m^2 entries, each summing n coordinates.
    steps, m, n = args[3].shape
    tracer.counters["engine.pairwise_entries"] += (2 * steps - 1) * m * m * n


def _records(tracer, args, result):
    tracer.counters["certificates.records"] += len(result)


def _regularity_samples(tracer, args, result):
    tracer.counters["sets.regularity_samples"] += result.samples


def _trajectory_rows(tracer, args, result):
    tracer.counters["cli.trajectory_rows"] += result[0].size


def _distinct_graph(tracer, args, result):
    tracer.graphs.add((tracer.current_root, hash(args[0])))


# (module, attribute, span name, hook run on (tracer, args, result)).
TARGETS = [
    ("graphs", "random_rooted_graph", "graphs.generate", None),
    ("graphs", "roots", "graphs.roots", _distinct_graph),
    ("weights", "roots", "graphs.roots", _distinct_graph),
    ("weights", "bfs_spanning_tree", "graphs.bfs", None),
    ("weights", "equal_neighbor_weights", "weights.build", None),
    ("weights", "laplacian_weights", "weights.build", None),
    ("weights", "regular_quarter_weights", "weights.build", None),
    ("weights", "lazy_metropolis_weights", "weights.build", None),
    ("engine", "verify_compliance", "weights.compliance", None),
    ("engine", "assemble_adjoint", "adjoint", None),
    ("engine", "uniform_adjoint", "adjoint", None),
    ("engine", "stationary_adjoint", "adjoint", None),
    ("adjoint", "adjoint_residuals", "adjoint.residuals", None),
    ("engine", "simulate", "engine.simulate", None),
    ("engine", "annotate", "engine.annotate", _annotate_entries),
    ("engine", "evaluate_certificates", "engine.evaluate", _records),
    ("engine", "vector_contraction_certificate", "lyapunov.contraction", None),
    ("engine", "regularity_sampling", "sets.regularity", _regularity_samples),
    ("engine", "regularity_interior", "sets.regularity", _regularity_samples),
    ("sets", "dykstra_project", "sets.dykstra", None),
    ("engine", "write_trajectory_csv", "cli.write_trajectory", None),
    ("engine", "write_plot_data_csv", "cli.write_other", None),
    ("cli", "_dump_json", "cli.write_other", None),
    ("cli", "write_certificates_json", "cli.write_other", None),
    ("cli", "write_certificates_csv", "cli.write_other", None),
    ("cli", "write_adjoint_csv", "cli.write_other", None),
    ("cli", "write_adjoint_sidecar", "cli.write_other", None),
    ("engine", "read_trajectory_states", "cli.read_trajectory", _trajectory_rows),
]

# Call counts only, no span: distance is called tens of thousands of times per
# constrained run.
COUNTED = [
    ("engine", "distance", "sets.distance_calls"),
    ("sets", "distance", "sets.distance_calls"),
]


class Tracer:
    """Span recorder that patches module attributes until ``restore()``."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counters: Counter = Counter()
        self.nested: Counter = Counter()     # calls folded into a same-name span
        self.graphs: set = set()             # (root span, graph hash) pairs
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @property
    def current_root(self) -> int:
        return self._stack[0] if self._stack else -1

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        row = self.spans[idx]
        row[1], row[2] = start, end

    def root(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a top-level span named ``name``."""
        idx = self._open(name)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, start, time.perf_counter())

    def patch(self, module, attr: str, name: str, hook=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == name:
                # Directly nested in a span of its own name (a polyhedron's
                # Dykstra inside the intersection's): the outer span already
                # holds its time, so it is only counted.
                self.nested[name] += 1
                return original(*args, **kwargs)
            idx = self._open(name)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx, start, time.perf_counter())
            if hook is not None:
                hook(self, args, result)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def count(self, module, attr: str, counter: str) -> None:
        original = getattr(module, attr)
        counters = self.counters

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return original(*args, **kwargs)

        self._patches.append((module, attr, original))
        setattr(module, attr, counted)

    def install(self) -> "Tracer":
        for mod, attr, name, hook in TARGETS:
            self.patch(importlib.import_module(f"{PKG}.{mod}"), attr, name, hook)
        for mod, attr, counter in COUNTED:
            self.count(importlib.import_module(f"{PKG}.{mod}"), attr, counter)
        return self

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for idx, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures for the spans and counters of one traced cycle.

    ``cycle_s``, the time inside root spans, is the base for layer shares and
    is not itself a benchmark metric.
    """
    spans = tracer.spans
    own = Counter()
    calls = Counter(tracer.nested)
    for (name, *_), t in zip(spans, self_times(spans)):
        own[name] += t
        calls[name] += 1
    roots_calls = calls["graphs.roots"]
    beyond = sum(1 for idx, row in enumerate(spans)
                 if row[0] == "weights.build" and _has_ancestor(spans, idx, "adjoint"))
    c = tracer.counters
    return {
        "cycle_s": sum(end - start for _, start, end, parent in spans if parent < 0),
        "graphs.generate_s": own["graphs.generate"],
        "graphs.generate_calls": calls["graphs.generate"],
        "graphs.roots_s": own["graphs.roots"],
        "graphs.roots_calls": roots_calls,
        "graphs.bfs_s": own["graphs.bfs"],
        "graphs.distinct_ratio": len(tracer.graphs) / roots_calls if roots_calls else 0.0,
        "weights.build_s": own["weights.build"],
        "weights.build_calls": calls["weights.build"],
        "weights.compliance_self_s": own["weights.compliance"],
        "adjoint.self_s": own["adjoint"],
        "adjoint.residuals_s": own["adjoint.residuals"],
        "adjoint.beyond_horizon_builds": beyond,
        "engine.simulate_self_s": own["engine.simulate"],
        "engine.annotate_self_s": own["engine.annotate"],
        "engine.pairwise_entries": c["engine.pairwise_entries"],
        "engine.evaluate_self_s": own["engine.evaluate"],
        "engine.evaluate_calls": calls["engine.evaluate"],
        "lyapunov.contraction_s": own["lyapunov.contraction"],
        "certificates.records": c["certificates.records"],
        "sets.dykstra_s": own["sets.dykstra"],
        "sets.dykstra_calls": calls["sets.dykstra"],
        "sets.distance_calls": c["sets.distance_calls"],
        "sets.regularity_s": own["sets.regularity"],
        "sets.regularity_samples": c["sets.regularity_samples"],
        "cli.write_trajectory_s": own["cli.write_trajectory"],
        "cli.write_other_s": own["cli.write_other"],
        "cli.read_trajectory_s": own["cli.read_trajectory"],
        "cli.trajectory_rows": c["cli.trajectory_rows"],
        "cli.replay_self_s": own["cli.replay"],
    }
