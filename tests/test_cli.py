import csv
import json
from pathlib import Path

import numpy as np
import pytest

from consensus_lab import cli, engine


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=2))
    return path


def quarter_scenario(tmp_path: Path, **overrides) -> Path:
    scenario = {
        "m": 8, "n": 1, "horizon": 120, "seed": 7, "mode": "unconstrained",
        "graph": {"kind": "static", "regular_tree_d": 3},
        "weights": {"scheme": "quarter"},
        "initial": {"kind": "uniform-box", "low": -1, "high": 1},
    }
    scenario.update(overrides)
    return write_json(tmp_path / "scenario.json", scenario)


def random_rooted_scenario(tmp_path: Path, **overrides) -> Path:
    scenario = {
        "m": 6, "n": 1, "horizon": 40, "seed": 3, "mode": "unconstrained",
        "graph": {"kind": "random-rooted", "extra_edge_prob": 0.2},
        "weights": {"scheme": "equal-neighbor"},
        "initial": {"kind": "uniform-box", "low": -5, "high": 5},
    }
    scenario.update(overrides)
    return write_json(tmp_path / "random_rooted.json", scenario)


HALFSPACE = {"type": "halfspace", "a": [1.0, 0.0], "b": 1.0}
BOX = {"type": "box", "lower": [-2.0, -2.0], "upper": [2.0, 2.0]}
BALL = {"type": "ball", "center": [0.0, 0.0], "radius": 2.5}


def constrained_scenario(tmp_path: Path) -> Path:
    scenario = {
        "m": 3, "n": 2, "horizon": 300, "seed": 21, "mode": "constrained",
        "graph": {"kind": "random-rooted", "extra_edge_prob": 0.5},
        "weights": {"scheme": "equal-neighbor"},
        "initial": {"kind": "uniform-box", "low": -3, "high": 3},
        "constraints": [HALFSPACE, BOX, BALL],
        "regularity": {"method": "interior", "theta": 0.5, "x_bar": [0.0, 0.0]},
    }
    return write_json(tmp_path / "constrained.json", scenario)


class TestSimulate:
    def test_quarter_scenario_exit_zero_and_report(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["simulate", "--scenario", str(quarter_scenario(tmp_path)),
                         "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["rate"]["q_step"] == 1 - 1 / 1024
        assert report["certificates"]["failed"] == 0
        for name in ("trajectory.csv", "certificates.json", "certificates.csv",
                     "plot_data.csv", "adjoint.csv", "adjoint.json"):
            assert (out / name).exists()

    def test_identity_weights_exit_config(self, tmp_path):
        scenario = quarter_scenario(
            tmp_path,
            weights={"scheme": "custom",
                     "matrices": [{"m": 8, "rows": [[float(i == j) for j in range(8)]
                                                    for i in range(8)]}]})
        code = cli.main(["simulate", "--scenario", str(scenario),
                         "--out", str(tmp_path / "out")])
        assert code == 2

    def test_missing_scenario_exit_config(self, tmp_path):
        assert cli.main(["simulate", "--scenario", str(tmp_path / "nope.json")]) == 2
        not_object = write_json(tmp_path / "list.json", [1, 2])
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(not_object), "--out", str(out)]) == 2
        assert not out.exists()

    def test_constrained_scenario_final_distance(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["simulate", "--scenario", str(constrained_scenario(tmp_path)),
                         "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["consensus"]["final_max_dist_sq"] <= 1e-12

    def test_seed_override_changes_artifacts(self, tmp_path):
        scenario = quarter_scenario(tmp_path)
        cli.main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "a")])
        cli.main(["simulate", "--scenario", str(scenario), "--seed", "8",
                  "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() != \
            (tmp_path / "b" / "trajectory.csv").read_bytes()

    def test_random_rooted_scenario_exit_zero(self, tmp_path):
        code = cli.main(["simulate", "--scenario", str(random_rooted_scenario(tmp_path)),
                         "--out", str(tmp_path / "out")])
        assert code == 0

    @pytest.mark.parametrize("prob", [2.0, -0.5])
    def test_out_of_range_edge_probability_exit_config(self, tmp_path, prob):
        scenario = random_rooted_scenario(
            tmp_path, graph={"kind": "random-rooted", "extra_edge_prob": prob})
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("key,value", [("export", {"trajectory": False}), ("verbosity", 2)])
    def test_unknown_scenario_key_exit_config(self, tmp_path, key, value):
        scenario = quarter_scenario(tmp_path, **{key: value})
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("ks", [[-1], [1000000]])
    def test_bad_rate_ks_exit_config(self, tmp_path, ks):
        scenario = random_rooted_scenario(tmp_path, rate_ks=ks)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("overrides", [
        {"weights": {"scheme": "custom",
                     "matrices": [{"m": 2, "rows": [[0.5, float("nan")], [0.5, 0.5]]}]}},
        {"initial": {"kind": "explicit", "states": [[float("nan")], [1.0]]}},
    ], ids=["nan-weight", "nan-state"])
    def test_non_finite_input_exit_config(self, tmp_path, overrides):
        scenario = dict({
            "m": 2, "n": 1, "horizon": 100, "seed": 0, "mode": "unconstrained",
            "graph": {"kind": "static", "graph": {"m": 2, "edges": [[1, 2], [2, 1]]}},
            "weights": {"scheme": "equal-neighbor"},
            "initial": {"kind": "uniform-box"},
        }, **overrides)
        path = tmp_path / "non_finite.json"
        # json writes NaN as the bare token NaN, which json.load reads back
        path.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()

    def test_no_certificates_flag(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["simulate", "--scenario", str(quarter_scenario(tmp_path)),
                         "--out", str(out), "--no-certificates"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["certificates"]["total"] == 0


class TestReproducibility:
    def test_byte_identical_artifacts(self, tmp_path):
        scenario = quarter_scenario(tmp_path)
        for sub in ("one", "two"):
            assert cli.main(["simulate", "--scenario", str(scenario),
                             "--out", str(tmp_path / sub)]) == 0
        for name in ("report.json", "trajectory.csv", "certificates.json",
                     "certificates.csv", "plot_data.csv", "adjoint.csv", "adjoint.json"):
            assert (tmp_path / "one" / name).read_bytes() == \
                (tmp_path / "two" / name).read_bytes(), name


class TestConstructGraph:
    def test_d3_output(self, tmp_path, capsys):
        assert cli.main(["construct-graph", "--d", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["m"] == 8
        assert len(data["edges"]) == 24  # 12 undirected edges, both directions

    def test_d2_is_k4(self, capsys):
        assert cli.main(["construct-graph", "--d", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["m"] == 4 and len(data["edges"]) == 12

    def test_d1_rejected(self):
        assert cli.main(["construct-graph", "--d", "1"]) == 2


class TestEstimateRegularity:
    def sets_file(self, tmp_path):
        return write_json(tmp_path / "sets.json",
                          [{"type": "halfspace", "a": [1.0, 0.0], "b": 0.0},
                           {"type": "halfspace", "a": [0.0, 1.0], "b": 0.0}])

    def test_orthogonal_pair(self, tmp_path, capsys):
        code = cli.main(["estimate-regularity", "--sets", str(self.sets_file(tmp_path)),
                         "--center", "[0,0]", "--radius", "2.0",
                         "--samples", "10000", "--seed", "0"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert 1.40 <= out["sampling"]["r_hat"] <= 2 ** 0.5 + 1e-12

    def test_interior_formula(self, tmp_path, capsys):
        sets = write_json(tmp_path / "ball.json", [{"type": "ball", "center": [0, 0],
                                                    "radius": 1.5}])
        code = cli.main(["estimate-regularity", "--sets", str(sets),
                         "--center", "[0,0]", "--radius", "2.0", "--samples", "200",
                         "--seed", "1", "--theta", "1.0", "--interior-center", "[0,0]"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["interior"]["r_hat"] == 2.0
        assert out["sampling"]["r_hat"] == 1.0  # single set: ratio identically one

    @pytest.mark.parametrize("content", [{"a": 1}, [1, 2], []],
                             ids=["object", "list-of-numbers", "empty-list"])
    def test_malformed_sets_exit_config(self, tmp_path, content):
        sets = write_json(tmp_path / "sets.json", content)
        assert cli.main(["estimate-regularity", "--sets", str(sets),
                         "--center", "[0,0]", "--radius", "1.0", "--samples", "20"]) == 2

    @pytest.mark.parametrize("extra", [
        ["--samples", "0"],
        ["--theta", "0", "--interior-center", "[0,0]"],
        ["--theta", "nan", "--interior-center", "[0,0]"],
        ["--theta", "1.0"],
        ["--theta", "1.0", "--interior-center", "[0,"],
        ["--theta", "1.0", "--interior-center", '{"x": 0}'],
        ["--theta", "1.0", "--interior-center", "[0,0,0]"],
        ["--theta", "1.0", "--interior-center", "[NaN,0]"],
        ["--center", "[0]"],
        ["--center", "[0,0"],
        ["--radius", "nan"],
        ["--radius", "inf"],
        ["--radius", "0"],
    ], ids=["zero-samples", "zero-theta", "nan-theta", "theta-without-center",
            "unparsable-interior-center", "object-interior-center", "long-interior-center",
            "nan-interior-center", "short-center", "unparsable-center", "nan-radius",
            "infinite-radius", "zero-radius"])
    def test_malformed_arguments_exit_config(self, tmp_path, capsys, extra):
        code = cli.main(["estimate-regularity", "--sets", str(self.sets_file(tmp_path)),
                         "--center", "[0,0]", "--radius", "2.0", "--samples", "50"] + extra)
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_sets_of_different_dimensions_exit_config(self, tmp_path):
        sets = write_json(tmp_path / "mixed.json",
                          [{"type": "halfspace", "a": [1.0, 0.0], "b": 0.0},
                           {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}])
        assert cli.main(["estimate-regularity", "--sets", str(sets), "--center", "[0,0]",
                         "--radius", "1.0", "--samples", "20"]) == 2

    def test_no_informative_samples_exit(self, tmp_path):
        sets = write_json(tmp_path / "big.json", [{"type": "ball", "center": [0, 0],
                                                   "radius": 50.0}])
        code = cli.main(["estimate-regularity", "--sets", str(sets),
                         "--center", "[0,0]", "--radius", "1.0", "--samples", "20",
                         "--seed", "3"])
        assert code == 4


class TestVerify:
    def _simulate(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(quarter_scenario(tmp_path)),
                         "--out", str(out)]) == 0
        return out

    def test_round_trip(self, tmp_path):
        out = self._simulate(tmp_path)
        assert cli.main(["verify", "--report", str(out / "report.json"),
                         "--trajectory", str(out / "trajectory.csv"),
                         "--certificates", str(out / "certificates.json")]) == 0

    def test_perturbed_state_fails(self, tmp_path):
        out = self._simulate(tmp_path)
        rows = list(csv.reader((out / "trajectory.csv").open()))
        xcol = rows[0].index("x")
        for row in rows[1:]:
            if row[0] == "40" and row[1] == "0":
                row[xcol] = repr(float(row[xcol]) + 1e-3)
                break
        bad = tmp_path / "perturbed.csv"
        with bad.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert cli.main(["verify", "--report", str(out / "report.json"),
                         "--trajectory", str(bad)]) == 3

    def test_truncated_file_fails(self, tmp_path):
        out = self._simulate(tmp_path)
        rows = list(csv.reader((out / "trajectory.csv").open()))
        bad = tmp_path / "truncated.csv"
        with bad.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows[: len(rows) // 2])
        assert cli.main(["verify", "--report", str(out / "report.json"),
                         "--trajectory", str(bad)]) == 2

    @pytest.mark.parametrize("keys,value", [
        (("config", "graph", "kind"), "bogus"),
        (("config", "weights", "scheme"), "bogus"),
        (("config", "adjoint", "method"), "bogus"),
        (("config", "graph", "regular_tree_d"), 4),   # 16 nodes against m = 8
        (("config", "m"), "eight"),
        (("config",), 5),
    ])
    def test_bad_config_in_report_exit_config(self, tmp_path, keys, value):
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(quarter_scenario(tmp_path, horizon=20)),
                         "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        section = report
        for key in keys[:-1]:
            section = section[key]
        section[keys[-1]] = value
        bad = write_json(tmp_path / "bad_report.json", report)
        assert cli.main(["verify", "--report", str(bad),
                         "--trajectory", str(out / "trajectory.csv")]) == 2

    @pytest.mark.parametrize("relabel", ["t", "agent"])
    def test_negative_index_rows_exit_config(self, tmp_path, relabel):
        """Relabelled rows keep the row count; numpy would wrap a negative index."""
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(quarter_scenario(tmp_path, horizon=20)),
                         "--out", str(out)]) == 0
        rows = list(csv.reader((out / "trajectory.csv").open()))
        for row in rows[1:]:
            if relabel == "t" and row[0] == "20":
                row[0] = "-1"
            elif relabel == "agent" and row[0] == "5" and row[1] == "0":
                row[1] = "-8"
        bad = tmp_path / "negative.csv"
        with bad.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert cli.main(["verify", "--report", str(out / "report.json"),
                         "--trajectory", str(bad)]) == 2

    @pytest.mark.parametrize("case", [
        "header", "short-row", "fractional-t", "non-numeric-x", "t-beyond-horizon",
        "agent-beyond-m", "coord-beyond-n", "duplicate-row", "blank-line", "nan-x",
        "non-ascii-x", "non-ascii-w", "quoted-t", "quoted-x", "quoted-w", "long-w",
        "extra-cell", "old-header",
    ])
    def test_malformed_trajectory_exit_config(self, tmp_path, case):
        """Each edit of one middle row (or the header) of a good file is rejected.

        The writer never quotes, so a quoted cell, even the empty ``""`` that
        ``csv.reader`` would accept, is refused; so is a ``w`` cell too long
        for the parser to keep whole.
        """
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario",
                         str(quarter_scenario(tmp_path, n=2, horizon=20)),
                         "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_bytes().decode().splitlines(keepends=True)
        mid = len(lines) // 2
        cells = lines[mid].rstrip("\r\n").split(",")
        edits = {"fractional-t": (0, "1.5"), "non-numeric-x": (3, "abc"),
                 "t-beyond-horizon": (0, "21"), "agent-beyond-m": (1, "8"),
                 "coord-beyond-n": (2, "2"), "nan-x": (3, "nan"),
                 "non-ascii-x": (3, cells[3] + "\xff"), "non-ascii-w": (4, "\xff"),
                 "quoted-t": (0, f'"{cells[0]}"'), "quoted-x": (3, f'"{cells[3]}"'),
                 "quoted-w": (4, '""'), "long-w": (4, "1" * 40 + ".0")}
        if case == "header":
            lines[0] = lines[0].replace("agent", "agents", 1)
        elif case == "old-header":
            lines[0] = "t,agent,coord,x,w,spread_sq,lyap,decrement,V_vt,dist_sq_X\r\n"
        elif case == "short-row":
            lines[mid] = ",".join(cells[:4]) + "\r\n"
        elif case == "extra-cell":
            lines[mid] = ",".join(cells + ["0.0"]) + "\r\n"
        elif case == "duplicate-row":
            lines[mid] = lines[mid - 1]
        elif case == "blank-line":
            lines.insert(mid, "\r\n")
        else:
            col, value = edits[case]
            cells[col] = value
            lines[mid] = ",".join(cells) + "\r\n"
        bad = tmp_path / "bad.csv"
        bad.write_bytes("".join(lines).encode("latin-1"))
        assert cli.main(["verify", "--report", str(out / "report.json"),
                         "--trajectory", str(bad)]) == 2

    @pytest.mark.parametrize("case", ["object", "number-list", "no-floor", "verdict-not-witnessed",
                                      "moved-lhs"])
    def test_bad_certificates_exit_config(self, tmp_path, case):
        """Stored records must equal the replayed ones, field for field.

        ``verdict-not-witnessed`` raises one record's ``lhs`` past
        ``rhs * slack + floor`` and leaves its ``pass``; ``moved-lhs`` changes
        an ``lhs`` by one ulp with the verdict still following from it.
        """
        out = self._simulate(tmp_path)
        records = json.loads((out / "certificates.json").read_text())
        r = records[5]
        if case == "object":
            records = {"a": 1}
        elif case == "number-list":
            records = [1]
        elif case == "no-floor":
            for rec in records:
                del rec["floor"]
        elif case == "verdict-not-witnessed":
            assert r["verdict"] == "pass"
            r["lhs"] = 2.0 * (r["rhs"] * r["slack"] + r["floor"]) + 1.0
        else:
            r["lhs"] = float(np.nextafter(r["lhs"], 0.0))
        bad = write_json(tmp_path / "bad_certificates.json", records)
        assert cli.main(["verify", "--report", str(out / "report.json"),
                         "--trajectory", str(out / "trajectory.csv"),
                         "--certificates", str(bad)]) == 2

    def test_constrained_round_trip(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(constrained_scenario(tmp_path)),
                         "--out", str(out)]) == 0
        assert cli.main(["verify", "--report", str(out / "report.json"),
                         "--trajectory", str(out / "trajectory.csv"),
                         "--certificates", str(out / "certificates.json")]) == 0


class TestValidateBeforeWork:
    @pytest.mark.parametrize("key,value", [
        ("initial", {"kind": "bogus"}),
        ("regularity", {"method": "bogus"}),
        ("adjoint", {"method": "bogus"}),
        ("regularity", "interior"),
        ("m", 8.9), ("horizon", 20.7), ("seed", 7.5), ("n", True),
        ("certificates_enabled", "false"),
        ("regularity", {"method": "interior", "x_bar": [0.0, 0.0]}),
        ("regularity", {"method": "interior", "theta": "0.5", "x_bar": [0.0, 0.0]}),
        ("regularity", {"method": "interior", "theta": 0.5}),
        ("regularity", {"method": "interior", "theta": 0.5, "x_bar": [0.0, "0"]}),
        ("regularity", {"method": "interior", "theta": 0.5, "x_bar": [0.0]}),
        ("regularity", {"method": "fixed"}),
        ("regularity", {"method": "fixed", "r": "two"}),
        ("regularity", {"method": "sampling", "samples": 2.5}),
        ("adjoint", {"method": "backward-product", "spread_tol": "tiny"}),
        ("adjoint", {"method": "backward-product", "max_window": 1024.5}),
        ("initial", {"kind": "uniform-box", "low": "low", "high": 3}),
        ("initial", {"kind": "uniform-box", "low": -3, "high": None}),
        ("adjoint", {"method": "backward-product", "max_window": 4}),
        ("initial", 5), ("graph", ["static"]), ("weights", "laplacian"), ("adjoint", 0),
        ("constraints", "abc"), ("constraints", [None, 1, "ball"]),
        ("regularity", {"method": "fixed", "r": -1}),
        ("regularity", {"method": "fixed", "r": -3}),
        ("regularity", {"method": "fixed", "r": 0.5}),
        ("regularity", {"method": "interior", "theta": 0.0, "x_bar": [0.0, 0.0]}),
        ("regularity", {"method": "interior", "theta": -0.5, "x_bar": [0.0, 0.0]}),
        ("regularity", {"method": "sampling", "samples": 0}),
        ("adjoint", {"method": "backward-product", "spread_tol": 0.0}),
        ("adjoint", {"method": "backward-product", "spread_tol": -1e-10}),
        ("rate_ks", 5), ("y_point", 5), ("y_point", [1, "a"]), ("y_point", [0.0]),
        ("constraints", [HALFSPACE, {"type": "box", "lower": [-0.5], "upper": [0.5]}, BALL]),
        ("constraints", [HALFSPACE, BOX, {"type": "ball", "center": [0.0, 0.0, 0.0],
                                          "radius": 2.5}]),
        ("constraints", [{"type": "halfspace", "a": [float("nan"), 0.0], "b": 1.0}, BOX, BALL]),
        ("constraints", [{"type": "halfspace", "a": [1.0, 0.0], "b": float("nan")}, BOX, BALL]),
        ("constraints", [{"type": "hyperplane", "a": [1.0, float("nan")], "b": 0.0}, BOX, BALL]),
        ("constraints", [{"type": "hyperplane", "a": [1.0, 0.0], "b": float("nan")}, BOX, BALL]),
        ("constraints", [HALFSPACE, BOX, {"type": "ball", "center": [float("nan"), 0.0],
                                          "radius": 2.5}]),
        ("constraints", [HALFSPACE, BOX, {"type": "ball", "center": [0.0, 0.0],
                                          "radius": float("nan")}]),
        ("constraints", [{"type": "polyhedron", "halfspaces": [HALFSPACE, BALL]}, BOX, BALL]),
        ("constraints", [HALFSPACE, BOX, {"type": "ball"}]),
    ], ids=["initial-kind", "regularity-method", "adjoint-method", "regularity-not-object",
            "fractional-m", "fractional-horizon", "fractional-seed", "bool-n",
            "string-certificates_enabled", "no-theta", "string-theta", "no-x_bar",
            "string-x_bar", "short-x_bar", "no-r", "string-r", "fractional-samples",
            "string-spread_tol", "fractional-max_window", "string-low", "null-high",
            "small-max_window", "number-initial", "list-graph", "string-weights",
            "number-adjoint", "string-constraints", "non-object-constraint", "r-minus-one",
            "negative-r", "r-below-one", "zero-theta", "negative-theta", "zero-samples",
            "zero-spread_tol", "negative-spread_tol", "number-rate_ks", "number-y_point",
            "string-y_point", "short-y_point", "one-coordinate-box", "three-coordinate-ball",
            "nan-halfspace-normal", "nan-halfspace-offset", "nan-hyperplane-normal",
            "nan-hyperplane-offset", "nan-ball-center", "nan-ball-radius",
            "ball-polyhedron-facet", "ball-without-keys"])
    def test_unknown_method_exits_before_compliance(self, tmp_path, monkeypatch, key, value):
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(constrained_scenario(tmp_path)),
                         "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        report["config"][key] = value
        bad_report = write_json(tmp_path / "bad_report.json", report)
        bad_scenario = write_json(tmp_path / "bad_scenario.json", report["config"])

        def refuse(*args, **kwargs):
            pytest.fail("compliance ran before the config was validated")

        monkeypatch.setattr(engine, "verify_compliance", refuse)
        assert cli.main(["simulate", "--scenario", str(bad_scenario),
                         "--out", str(tmp_path / "bad_out")]) == 2
        assert not (tmp_path / "bad_out").exists()
        assert cli.main(["verify", "--report", str(bad_report),
                         "--trajectory", str(out / "trajectory.csv")]) == 2
