"""Stage-timed certify-and-verify benchmark for consensus-lab.

One run measures one workload for a fixed time, in one process::

    python3 perfbench/run.py --workload rooted-churn --seed 1 --seconds 35 --trace 0

It writes the workload's scenario files from ``--seed`` (see
``scenarios.py``), then runs a closed loop: one scenario at a time, each call
waiting for the previous one, ``cli.main(["simulate", ...])`` followed by
``cli.main(["verify", ..., "--certificates", ...])`` on the artifacts just
written.  Every operation is checked against ``reference.json``.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced cycles of the same scenario and prints the
per-layer metrics of the traced ones (see ``spans.py``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

End-to-end times are reported in reference seconds (see ``Gauge``); the raw
wall-clock medians are printed beside them.
"""
from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported, here and in the set-up
# probes, which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scenarios  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = BENCH / "reference.json"

SETUP_REPEATS = 5
REL_TOL = 1e-9


def declared_units() -> dict[str, str]:
    """Unit of every metric ``BENCHMARK.json`` declares, end-to-end and per-layer."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


# ---------------------------------------------------------------------------
# reference gate

def verdict_list(certificates_path: Path) -> list:
    with open(certificates_path) as fh:
        return [[r["check"], r["t"], r["k"], r["verdict"]] for r in json.load(fh)]


def verdict_digest(verdicts: list) -> str:
    return hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()


def report_scalars(report: dict) -> list:
    c = report["compliance"]
    return [c["beta"], c["p_star"], report["adjoint"]["delta"], report["rate"]["q_step"]]


def scalars_match(got: list, want: list) -> bool:
    return all(abs(g - w) <= REL_TOL * max(abs(w), 1e-300) for g, w in zip(got, want))


class Gate:
    """Checks each simulate output against the reference and against its repeats."""

    def __init__(self, workload: str, reference: dict):
        self.ref = reference[workload]
        self.reports: dict[int, bytes] = {}

    def check(self, scenario: dict, out_dir: Path) -> list[str]:
        problems = []
        report_bytes = (out_dir / "report.json").read_bytes()
        first = self.reports.setdefault(scenario["seed"], report_bytes)
        if report_bytes != first:
            problems.append("report.json differs from the first run of this scenario")
        verdicts = verdict_list(out_dir / "certificates.json")
        if verdict_digest(verdicts) != self.ref["verdicts_sha256"]:
            problems.append(f"(check, t, k, verdict) list differs from the reference "
                            f"({len(verdicts)} records)")
        want = self.ref["scalars"].get(str(scenario["seed"]), self.ref.get("all_seeds"))
        if want is None:
            problems.append(f"reference.json has no scalars for run seed {scenario['seed']}")
        elif not scalars_match(report_scalars(json.loads(report_bytes)), want):
            problems.append("beta/p_star/delta/q_step differ from the reference")
        return problems


# ---------------------------------------------------------------------------
# the measured operations

# Wall time of ``calibrate()`` on the host the bounds were set on: a 2-core
# x86-64 VM with Python 3.11 and numpy 2.4, a typical reading.
CAL_REFERENCE_S = 0.07


def calibrate() -> float:
    """Wall time of a fixed kernel mixing the kinds of work the workloads do.

    Interpreter-bound small-vector arithmetic (Dykstra), a pairwise block and
    a 256 x 256 matrix product (annotate), and CSV formatting and parsing
    (artifact export and import).  It calls nothing in consensus-lab, and the
    garbage collector is off while it runs, so that neither the program's code
    nor the objects it leaves alive can move it.
    """
    x = np.array([0.3, -1.2])
    a = np.array([0.6, 0.8])
    block = np.linspace(-1.0, 1.0, 512).reshape(256, 2)
    mat = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)
    gc_was_on = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    acc = 0.0
    for _ in range(1500):
        gap = float(a @ x) - 0.1
        y = x - (gap / float(a @ a)) * a
        acc += float(np.abs(y - x).max())
    for i in range(50000):
        acc += i % 7
    for _ in range(15):
        diff = block[:, None, :] - block[None, :, :]
        acc += float((mat @ (diff * diff).sum(axis=-1)).max())
    buf = io.StringIO()
    writer = csv.writer(buf)
    for i in range(3000):
        writer.writerow([i, 0, 1, repr(acc / (i + 1)), repr(i * 0.1), ""])
    for row in csv.reader(io.StringIO(buf.getvalue())):
        acc += float(row[3])
    elapsed = time.perf_counter() - start
    if gc_was_on:
        gc.enable()
    return elapsed


class Gauge:
    """Times operations and scales them to the reference host speed.

    The shared host the benchmark was tuned on runs the same code up to 70 %
    slower or faster from one minute to the next, which no number of samples
    within a 35-second run averages out.  So every operation runs between two
    runs of ``calibrate()``, and its wall time is multiplied by
    ``CAL_REFERENCE_S`` over the mean of the two kernel times: seconds on a
    host where the kernel takes ``CAL_REFERENCE_S``.  Consecutive operations
    share the kernel run between them.
    """

    def __init__(self):
        self._last: float | None = None

    def time(self, fn):
        """Return ``(fn(), wall seconds, reference seconds)``."""
        before = self._last if self._last is not None else calibrate()
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        self._last = calibrate()
        return result, wall, wall * CAL_REFERENCE_S / ((before + self._last) / 2.0)


class Loop:
    """Closed-loop driver of simulate + verify cycles over the scenario pool."""

    def __init__(self, cli, paths: list[Path], gate: Gate, out_root: Path, gauge: Gauge):
        self.cli = cli
        self.paths = paths
        self.scenarios = [json.loads(p.read_text()) for p in paths]
        self.gate = gate
        self.out_root = out_root
        self.gauge = gauge
        self.attempted = 0
        self.failed = 0
        self.wall: dict[str, list[float]] = {"simulate": [], "verify": []}
        self.scaled: dict[str, list[float]] = {"simulate": [], "verify": []}
        self.artifact_bytes: list[int] = []

    def _call(self, argv: list[str], call) -> tuple[bool, float]:
        self.attempted += 1

        def attempt():
            try:
                return call(self.cli.main, argv)
            except Exception:  # a crash is a failed operation; the run goes on
                traceback.print_exc()
                return None

        code, wall, scaled = self.gauge.time(attempt)
        if code != 0:
            print(f"FAILED: {argv[0]} exited {code}", file=sys.stderr)
        self.wall[argv[0]].append(wall)
        self.scaled[argv[0]].append(scaled)
        return code == 0, scaled

    def cycle(self, idx: int, call=lambda fn, argv: fn(argv)) -> float:
        """One simulate then one verify of scenario ``idx``; returns the cycle's scaled time."""
        path, scenario = self.paths[idx], self.scenarios[idx]
        out = self.out_root / path.stem
        shutil.rmtree(out, ignore_errors=True)
        ok, sim = self._call(["simulate", "--scenario", str(path), "--out", str(out)], call)
        if ok:
            problems = self.gate.check(scenario, out)
            for problem in problems:
                print(f"FAILED: {path.name}: {problem}", file=sys.stderr)
            ok = not problems
            self.artifact_bytes.append(sum(f.stat().st_size for f in out.iterdir()))
        self.failed += not ok
        ok, ver = self._call(["verify", "--report", str(out / "report.json"),
                              "--trajectory", str(out / "trajectory.csv"),
                              "--certificates", str(out / "certificates.json")], call)
        self.failed += not ok
        return sim + ver


def measure_setup(workload: str, seed: int, expected: dict[str, bytes],
                  gauge: Gauge) -> tuple[list[float], list[float], bool]:
    """Time fresh processes that load the package and write the scenario files.

    Returns the wall and the reference-scaled times of each probe, and
    whether every probe wrote exactly the expected bytes.
    """
    walls, scaled = [], []
    same = True
    for k in range(SETUP_REPEATS):
        out = WORK / f"setup-{k}"
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, str(BENCH / "scenarios.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(out), "--src", str(SRC)]
        _, wall, ref = gauge.time(lambda: subprocess.run(cmd, check=True, timeout=120))
        walls.append(wall)
        scaled.append(ref)
        written = {p.name: p.read_bytes() for p in out.iterdir()}
        same = same and written == expected
        shutil.rmtree(out)
    return walls, scaled, same


def environment() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_desc = "unknown"
    return (f"numpy {np.__version__}, BLAS {blas_desc}, "
            f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}, nproc {os.cpu_count()}, "
            f"python {platform.python_version()}")


def run_untraced(loop: Loop, seconds: float, min_cycles: int) -> None:
    start = time.perf_counter()
    i = 0
    last = 0.0
    while i < min_cycles or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        loop.cycle(i % len(loop.paths))
        last = time.perf_counter() - began
        i += 1


def run_traced(loop: Loop, seconds: float, min_pairs: int):
    """Alternate an untraced and a traced cycle of each scenario.

    Returns the per-cycle layer metrics, the traced/untraced ratios of the
    cycles' reference-scaled times, and every traced cycle's spans.
    """
    start = time.perf_counter()
    layers, ratios, all_spans = [], [], []
    i = 0
    last = 0.0
    while i < min_pairs or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        idx = i % len(loop.paths)
        plain = loop.cycle(idx)
        tracer = spans.Tracer().install()
        try:
            traced = loop.cycle(idx, call=lambda fn, argv: tracer.root(
                "cli.simulate" if argv[0] == "simulate" else "cli.replay", fn, argv))
        finally:
            tracer.restore()
        layers.append(spans.layer_metrics(tracer))
        ratios.append(traced / plain)
        all_spans.append(tracer.spans)
        last = time.perf_counter() - began
        i += 1
    return layers, ratios, all_spans


def write_spans(path: Path, cycles) -> None:
    with open(path, "w") as fh:
        fh.write("cycle\tspan\tparent\tname\tstart\tend\n")
        for c, rows in enumerate(cycles):
            for idx, (name, start, end, parent) in enumerate(rows):
                fh.write(f"{c}\t{idx}\t{parent}\t{name}\t{start!r}\t{end!r}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="consensus-lab certify-and-verify benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "consensus_lab" / "cli.py").is_file():
        print(f"error: no consensus_lab package under {SRC}", file=sys.stderr)
        return 2
    with open(REFERENCE) as fh:
        reference = json.load(fh)

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    paths = scenarios.generate(args.workload, args.seed, work / "scenarios")
    expected = {p.name: p.read_bytes() for p in paths}
    gauge = Gauge()
    setup_wall, setup_scaled, setup_same = measure_setup(args.workload, args.seed,
                                                         expected, gauge)

    sys.path.insert(0, str(SRC))
    from consensus_lab import cli
    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"error: consensus_lab was loaded from {cli.__file__}", file=sys.stderr)
        return 2
    print(f"environment: {environment()}")

    loop = Loop(cli, paths, Gate(args.workload, reference), work / "out", gauge)
    if args.trace:
        layers, ratios, cycles = run_traced(loop, args.seconds, min_pairs=2)
        write_spans(work / "spans.tsv", cycles)
        values = {name: statistics.median(c[name] for c in layers) for name in layers[0]}
        cycle_s = values.pop("cycle_s")
        shares = {}
        for name, v in values.items():
            if name.endswith("_s"):
                layer = name.split(".")[0]
                shares[layer] = shares.get(layer, 0.0) + v / cycle_s
        print(f"traced cycle: median {cycle_s:.4f} s wall; self-time share by layer: "
              + ", ".join(f"{k} {v:.2f}" for k, v in shares.items()))
        values["trace.overhead_frac"] = statistics.median(ratios) - 1.0
        values["failed_frac"] = loop.failed / loop.attempted
        print(f"traced cycles: {len(layers)}, each after an untraced cycle of the same "
              f"scenario; layer times are raw wall seconds per cycle")
    else:
        run_untraced(loop, args.seconds, min_cycles=len(paths) + 1)
        values = {
            "setup_s": statistics.median(setup_scaled),
            "run_s_p50": statistics.median(loop.scaled["simulate"]),
            "verify_s_p50": statistics.median(loop.scaled["verify"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "artifact_mb": statistics.median(loop.artifact_bytes) / 1e6
            if loop.artifact_bytes else 0.0,
        }
        for name, walls in (("set-up", setup_wall), ("simulate", loop.wall["simulate"]),
                            ("verify", loop.wall["verify"])):
            print(f"{name}: {len(walls)} samples, raw wall median "
                  f"{statistics.median(walls):.4f} s")
    shutil.rmtree(work / "out", ignore_errors=True)
    units = declared_units()
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}

    if not setup_same:
        print("FAILED: set-up probes wrote different scenario files", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": loop.failed == 0 and setup_same,
                      "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
