"""Command-line harness.

Subcommands: ``simulate`` runs a scenario file and writes all artifacts,
``construct-graph`` prints the cubic tree graph, ``estimate-regularity``
reports regularity constants for a set file, and ``verify`` re-checks a
stored run offline.  Exit codes: 0 success, 2 configuration error,
3 certificate violation, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import engine
from .adjoint import (AdjointResidualTooLarge, NotErgodicWithinWindow,
                      write_adjoint_csv, write_adjoint_sidecar)
from .certificates import write_certificates_csv, write_certificates_json
from .graphs import regular_tree_graph
from .sets import (Ball, DykstraNotConverged, InteriorBallNotContained, Intersection,
                   NoInformativeSamples, regularity_interior, regularity_sampling,
                   set_from_json_dict)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3
EXIT_NUMERICAL = 4

log = logging.getLogger("consensus_lab")

_NUMERICAL_ERRORS = (NotErgodicWithinWindow, DykstraNotConverged, NoInformativeSamples,
                     AdjointResidualTooLarge)


def _configure_logging() -> None:
    level = os.environ.get("CONSENSUS_LAB_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


def _dump_json(obj, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path: Path, kind: type = dict):
    """The file's top-level JSON value; ``ValueError`` unless it is a ``kind``."""
    with open(path) as fh:
        value = json.load(fh)
    if not isinstance(value, kind):
        raise ValueError(f"{path} holds {type(value).__name__}, not a JSON "
                         + ("object" if kind is dict else "list"))
    return value


def cmd_simulate(args) -> int:
    try:
        scenario = _load_json(Path(args.scenario))
    except (OSError, ValueError) as exc:
        log.error("cannot read scenario: %s", exc)
        return EXIT_CONFIG

    out_dir = Path(args.out or scenario.get("out_dir", "out"))
    config_dict = {k: v for k, v in scenario.items() if k != "out_dir"}
    if args.seed is not None:
        config_dict["seed"] = args.seed
    if args.horizon is not None:
        config_dict["horizon"] = args.horizon
    if args.no_certificates:
        config_dict["certificates_enabled"] = False

    try:
        config = engine.RunConfig.from_json_dict(config_dict)
        out_dir.mkdir(parents=True, exist_ok=True)
        result = engine.run(config)
    except _NUMERICAL_ERRORS as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL
    except (ValueError, OSError, KeyError) as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG

    _dump_json(result.report, out_dir / "report.json")
    engine.write_trajectory_csv(result, out_dir / "trajectory.csv")
    write_certificates_json(result.records, out_dir / "certificates.json")
    write_certificates_csv(result.records, out_dir / "certificates.csv")
    engine.write_plot_data_csv(result, out_dir / "plot_data.csv")
    write_adjoint_csv(result.adjoint, out_dir / "adjoint.csv")
    write_adjoint_sidecar(result.adjoint, out_dir / "adjoint.json")

    if config.certificates_enabled and not result.certificates_pass:
        log.error("certificate violations: %s", result.report["certificates"])
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_construct_graph(args) -> int:
    if args.d < 2:
        log.error("d must be >= 2")
        return EXIT_CONFIG
    print(json.dumps(regular_tree_graph(args.d).to_json_dict(), sort_keys=True))
    return EXIT_OK


def _point_arg(text: str, flag: str, n: int) -> np.ndarray:
    """The JSON list ``text`` as ``n`` finite coordinates, else ``ValueError``."""
    try:
        point = np.array(json.loads(text), dtype=float)
    except TypeError as exc:  # a JSON object; bad JSON is a ValueError already
        raise ValueError(f"{flag} must be a list of {n} numbers, not {text!r}") from exc
    if point.shape != (n,) or not np.isfinite(point).all():
        raise ValueError(f"{flag} must be a list of {n} finite numbers, not {text!r}")
    return point


def cmd_estimate_regularity(args) -> int:
    try:
        sets = [set_from_json_dict(d) for d in _load_json(Path(args.sets), list)]
        if not sets:
            raise ValueError(f"{args.sets} lists no sets")
        n = Intersection(sets).dim  # the sets must share one
        region = Ball(_point_arg(args.center, "--center", n), args.radius)
        if args.samples < 1:
            raise ValueError(f"--samples must be at least 1, not {args.samples}")
        x_bar = None
        if args.theta is not None:
            if args.interior_center is None:
                raise ValueError("--interior-center is required with --theta")
            if not 0.0 < args.theta < math.inf:
                raise ValueError(f"--theta must be positive and finite, not {args.theta}")
            x_bar = _point_arg(args.interior_center, "--interior-center", n)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    out: dict = {}
    try:
        out["sampling"] = regularity_sampling(sets, region, args.samples,
                                              args.seed).to_json_dict()
        if x_bar is not None:
            out["interior"] = regularity_interior(sets, args.theta, x_bar,
                                                  region).to_json_dict()
    except _NUMERICAL_ERRORS + (InteriorBallNotContained,) as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        report = _load_json(Path(args.report))
        config = engine.RunConfig.from_json_dict(report["config"])
    except (OSError, KeyError, ValueError) as exc:
        log.error("cannot load report: %s", exc)
        return EXIT_CONFIG
    try:
        states, w = engine.read_trajectory_states(Path(args.trajectory), config.m,
                                                  config.n, config.horizon)
    except (OSError, engine.ConfigError) as exc:
        log.error("trajectory inconsistent: %s", exc)
        return EXIT_CONFIG
    try:
        result = engine.replay_certificates(config, states, w)
    except _NUMERICAL_ERRORS as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL
    except (ValueError, KeyError) as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG

    if not result.certificates_pass:
        log.error("certificate violations found on replay: %s",
                  result.report["certificates"])
        return EXIT_VIOLATION

    if args.certificates:
        # Whole records, verdicts included: a stored verdict that does not
        # follow from its own fields cannot equal a replayed one.
        try:
            stored = _load_json(Path(args.certificates), list)
        except (OSError, ValueError) as exc:
            log.error("cannot load stored certificates: %s", exc)
            return EXIT_CONFIG
        if stored != [r.to_json_dict() for r in result.records]:
            log.error("stored certificates do not match the replay")
            return EXIT_CONFIG
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="consensus-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario file and write artifacts")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--horizon", type=int, default=None, help="override the horizon")
    p.add_argument("--no-certificates", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("construct-graph", help="emit the cubic tree graph as JSON")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_construct_graph)

    p = sub.add_parser("estimate-regularity", help="estimate a set-regularity constant")
    p.add_argument("--sets", required=True, help="JSON file with a list of set specs")
    p.add_argument("--center", required=True, help="region ball center, e.g. [0,0]")
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta", type=float, default=None, help="interior ball radius")
    p.add_argument("--interior-center", default=None, help="interior ball center")
    p.set_defaults(func=cmd_estimate_regularity)

    p = sub.add_parser("verify", help="re-run certificates on stored artifacts")
    p.add_argument("--report", required=True)
    p.add_argument("--trajectory", required=True)
    p.add_argument("--certificates", default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
