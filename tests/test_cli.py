import copy
import csv
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from consensus_lab import Certificates, cli, engine
from test_certificates import polyhedron_config

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


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
    def test_polyhedron_and_intersection_spellings_run_alike(self, tmp_path):
        """One set of halfspaces spelled both ways gives byte-identical artifacts."""
        config = polyhedron_config().to_json_dict()
        triangle = config["constraints"][0]
        assert triangle["type"] == "polyhedron" and len(triangle["halfspaces"]) == 3
        spelled = dict(config, constraints=[{"type": "intersection",
                                             "members": triangle["halfspaces"]}]
                       + config["constraints"][1:])
        for name, scenario in (("polyhedron", config), ("intersection", spelled)):
            path = write_json(tmp_path / f"{name}.json", scenario)
            assert cli.main(["simulate", "--scenario", str(path),
                             "--out", str(tmp_path / name)]) == 0
        for name in ("trajectory.csv", "certificates.json", "certificates.csv",
                     "plot_data.csv", "adjoint.csv", "adjoint.json"):
            got = (tmp_path / "intersection" / name).read_bytes()
            assert got == (tmp_path / "polyhedron" / name).read_bytes()
        reports = [json.loads((tmp_path / name / "report.json").read_text())
                   for name in ("polyhedron", "intersection")]
        assert [r.pop("config")["constraints"][0]["type"] for r in reports] == \
            ["polyhedron", "intersection"]
        assert json.dumps(reports[0]) == json.dumps(reports[1])

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

    @pytest.mark.parametrize("spec", [
        {"type": "ball", "center": [0.0], "radius": 5.0},
        {"type": "halfspace", "a": [1.0], "b": 3.0},
        {"type": "box", "lower": [-4.0], "upper": [4.0]},
    ], ids=["ball", "halfspace", "box"])
    def test_sets_that_never_bind_exit_zero(self, tmp_path, spec):
        """Every regularity sample lies in both sets, so the sampled bound is 1."""
        scenario = write_json(tmp_path / "free.json", {
            "m": 2, "n": 1, "horizon": 50, "seed": 0, "mode": "constrained",
            "graph": {"kind": "static", "graph": {"m": 2, "edges": [[1, 2], [2, 1]]}},
            "weights": {"scheme": "equal-neighbor"}, "initial": {"kind": "uniform-box"},
            "constraints": [spec, spec]})
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert cli.main(["verify", "--report", str(out / "report.json"),
                         "--trajectory", str(out / "trajectory.csv"),
                         "--certificates", str(out / "certificates.json")]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["regularity"] == {"r_hat": 1.0, "method": "sampling", "samples": 2000,
                                        "skipped": 2000}
        assert report["r_used"] == 1.0

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
    def test_bad_rate_ks_exit_config(self, tmp_path, caplog, ks):
        """rate_ks is no config key: every run checks k = 0 and horizon // 2."""
        scenario = random_rooted_scenario(tmp_path, rate_ks=ks)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 2
        assert "unknown config keys ['rate_ks']" in caplog.text
        assert not out.exists()

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

    def test_no_certificates_flag(self, tmp_path, capsys):
        """Every run is certified: no flag turns the checks off."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--scenario", str(quarter_scenario(tmp_path)),
                      "--out", str(out), "--no-certificates"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-certificates" in capsys.readouterr().err
        assert not out.exists()


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

    def test_interior_ball_outside_the_sets_exit_config(self, tmp_path, capsys):
        """A bad input, as ``simulate`` with the same ball says, not a numerical failure."""
        sets = SCENARIOS / "orthogonal_halfspaces_sets.json"
        code = cli.main(["estimate-regularity", "--sets", str(sets), "--center", "[0,0]",
                         "--radius", "2.0", "--samples", "50", "--theta", "5",
                         "--interior-center", "[-1,-1]"])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        scenario = json.loads((SCENARIOS / "constrained_halfspaces.json").read_text())
        scenario["regularity"]["theta"] = 50.0
        path = write_json(tmp_path / "scenario.json", scenario)
        assert cli.main(["simulate", "--scenario", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_no_informative_samples_exit(self, tmp_path, capsys):
        """Every sample lies in the set: the sampled lower bound is 1, exit 0."""
        sets = write_json(tmp_path / "big.json", [{"type": "ball", "center": [0, 0],
                                                   "radius": 50.0}])
        code = cli.main(["estimate-regularity", "--sets", str(sets),
                         "--center", "[0,0]", "--radius", "1.0", "--samples", "20",
                         "--seed", "3"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["sampling"] == {
            "r_hat": 1.0, "method": "sampling", "samples": 20, "skipped": 20}


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

    def test_reformatted_certificates_match(self, tmp_path):
        """The compare is on values: indentation and key order do not matter."""
        out = self._simulate(tmp_path)
        records = json.loads((out / "certificates.json").read_text())
        moved = write_json(tmp_path / "reformatted.json",
                           [dict(reversed(list(r.items()))) for r in records])
        assert cli.main(["verify", "--report", str(out / "report.json"),
                         "--trajectory", str(out / "trajectory.csv"),
                         "--certificates", str(moved)]) == 0

    @pytest.mark.parametrize("scenario", [quarter_scenario, constrained_scenario])
    def test_written_file_matches_on_its_bytes(self, tmp_path, monkeypatch, scenario):
        """The file ``simulate`` wrote is neither parsed nor compared field by field."""
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(scenario(tmp_path)),
                         "--out", str(out)]) == 0
        load = json.load

        def load_all_but_certificates(fh, *args, **kwargs):
            if Path(fh.name).name == "certificates.json":
                raise AssertionError("certificates.json was parsed")
            return load(fh, *args, **kwargs)

        def no_compare(self, stored):
            raise AssertionError("Certificates.matches was called")

        monkeypatch.setattr(json, "load", load_all_but_certificates)
        monkeypatch.setattr(Certificates, "matches", no_compare)
        assert cli.main(["verify", "--report", str(out / "report.json"),
                         "--trajectory", str(out / "trajectory.csv"),
                         "--certificates", str(out / "certificates.json")]) == 0

    def test_one_ulp_in_the_written_layout_is_parsed_and_refused(self, tmp_path, monkeypatch):
        """One ``lhs`` one ulp lower, in the writer's own layout: the bytes
        differ, so the file is parsed and compared, and the compare fails."""
        out = self._simulate(tmp_path)
        text = (out / "certificates.json").read_text()
        records = json.loads(text)
        encoder = json.JSONEncoder(separators=(",", ":"))

        def layout(records):
            return "[\n" + ",\n".join(map(encoder.encode, records)) + "\n]\n"

        assert layout(records) == text
        r = records[5]
        lower = float(np.nextafter(r["lhs"], 0.0))
        assert 0.0 < lower < r["lhs"] and r["verdict"] == "pass"   # the verdict still follows
        r["lhs"] = lower
        bad = tmp_path / "one_ulp.json"
        bad.write_text(layout(records))
        compared = []
        matches = Certificates.matches
        monkeypatch.setattr(Certificates, "matches",
                            lambda self, stored: compared.append(len(stored))
                            or matches(self, stored))
        assert cli.main(["verify", "--report", str(out / "report.json"),
                         "--trajectory", str(out / "trajectory.csv"),
                         "--certificates", str(bad)]) == 2
        assert compared == [len(records)]

    def test_perturbed_state_fails(self, tmp_path):
        out = self._simulate(tmp_path)
        rows = list(csv.reader((out / "trajectory.csv").open()))
        xcol = rows[0].index("x_0_0")
        for row in rows[1:]:
            if row[0] == "40":
                x = struct.unpack(">d", bytes.fromhex(row[xcol]))[0]
                row[xcol] = struct.pack(">d", x + 1e-3).hex()
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

    @pytest.mark.parametrize("enabled", [True, False])
    def test_certificates_enabled_in_report_exit_config(self, tmp_path, enabled):
        """Every run is certified, so ``certificates_enabled`` is an unknown config
        key.  A trajectory whose step 50 is overwritten fails its checks, and
        under the stored config ``verify`` says so; a report that names the key,
        ``true`` or ``false``, exits 2 before any replay."""
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(SCENARIOS / "regular_tree_d3.json"),
                         "--out", str(out)]) == 0
        rows = list(csv.reader((out / "trajectory.csv").open()))
        for row in rows[1:]:
            if row[0] == "50":
                row[3] = struct.pack(">d", 123.0).hex()
        tampered = tmp_path / "tampered.csv"
        with tampered.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert cli.main(["verify", "--report", str(out / "report.json"),
                         "--trajectory", str(tampered)]) == 3
        report = json.loads((out / "report.json").read_text())
        assert "certificates_enabled" not in report["config"]
        report["config"]["certificates_enabled"] = enabled
        bad = write_json(tmp_path / "bad_report.json", report)
        assert cli.main(["verify", "--report", str(bad), "--trajectory", str(tampered)]) == 2

    @pytest.mark.parametrize("relabel", ["t", "agent"])
    def test_negative_index_rows_exit_config(self, tmp_path, relabel):
        """A negative ``t`` or agent label keeps the cell count; numpy would wrap a
        negative index."""
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(quarter_scenario(tmp_path, horizon=20)),
                         "--out", str(out)]) == 0
        rows = list(csv.reader((out / "trajectory.csv").open()))
        if relabel == "t":
            rows[-1][0] = "-1"
        else:
            rows[0][rows[0].index("x_0_0")] = "x_-8_0"
        bad = tmp_path / "negative.csv"
        with bad.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert cli.main(["verify", "--report", str(out / "report.json"),
                         "--trajectory", str(bad)]) == 2

    @pytest.mark.parametrize("case", [
        "header", "short-row", "fractional-t", "non-numeric-x", "t-beyond-horizon",
        "agent-beyond-m", "coord-beyond-n", "duplicate-row", "blank-line", "nan-x",
        "non-ascii-x", "quoted-t", "quoted-x", "extra-cell", "old-header", "w-header",
        "uppercase-x", "nan-bits-x", "15-digit-x", "17-digit-x", "swapped-rows",
        "mixed-line-ends", "trailing-bytes", "decimal-x", "decimal-header", "nan-payload-x",
        "missing-cell", "long-layout",
    ])
    def test_malformed_trajectory_exit_config(self, tmp_path, case):
        """Each edit of one middle row (or the header) of a good file is rejected.

        A row holds ``t`` and then the ``m = 8`` agents' ``n = 2`` bits cells,
        agent-major.  ``agent-beyond-m`` adds a ninth agent's two cells to the
        row, ``coord-beyond-n`` a third cell to each agent, and ``missing-cell``
        drops the last one.  The writer never quotes, so a quoted cell is
        refused.  The earlier layouts hold one row per state under the labels
        ``t,agent,coord``: ``long-layout`` is the whole file in the
        four-column bits layout, header ``t,agent,coord,x_bits``,
        ``decimal-header`` each state as its decimal ``repr`` under the
        header ``t,agent,coord,x``, and ``w-header`` the bits layout with a
        blank ``w`` cell ending each row, under ``t,agent,coord,x,w``; no
        reader accepts any of them.  ``nan-bits-x`` is the bit pattern of a
        quiet NaN, ``nan-payload-x`` a negative signalling one.
        """
        m, n = 8, 2
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario",
                         str(quarter_scenario(tmp_path, n=n, horizon=20)),
                         "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_bytes().decode().splitlines(keepends=True)
        mid = len(lines) // 2
        cells = lines[mid].rstrip("\r\n").split(",")
        assert len(cells) == 1 + m * n
        long_rows = [(row[0], agent, coord, row[1 + agent * n + coord])
                     for row in (line.rstrip("\r\n").split(",") for line in lines[1:])
                     for agent in range(m) for coord in range(n)]
        edits = {"fractional-t": (0, "1.5"), "non-numeric-x": (3, "abc"),
                 "t-beyond-horizon": (0, "21"), "nan-x": (3, "nan"),
                 "non-ascii-x": (3, cells[3] + "\xff"),
                 "quoted-t": (0, f'"{cells[0]}"'), "quoted-x": (3, f'"{cells[3]}"'),
                 "uppercase-x": (3, cells[3].upper()),
                 "nan-bits-x": (3, "7ff8000000000000"), "15-digit-x": (3, cells[3][:15]),
                 "17-digit-x": (3, cells[3] + "0"), "nan-payload-x": (3, "fff0000000000001"),
                 "decimal-x": (3, repr(struct.unpack(">d", bytes.fromhex(cells[3]))[0]))}
        assert cells[3].upper() != cells[3]   # the state's bits hold a hex letter
        if case == "header":
            lines[0] = lines[0].replace("x_0_1", "x_0_10", 1)
        elif case == "old-header":
            lines[0] = "t,agent,coord,x,w,spread_sq,lyap,decrement,V_vt,dist_sq_X\r\n"
        elif case == "w-header":
            lines = ["t,agent,coord,x,w\r\n"] + [f"{t},{a},{c},{x},\r\n"
                                                  for t, a, c, x in long_rows]
        elif case == "long-layout":
            lines = ["t,agent,coord,x_bits\r\n"] + [f"{t},{a},{c},{x}\r\n"
                                                     for t, a, c, x in long_rows]
        elif case == "decimal-header":
            lines = ["t,agent,coord,x\r\n"] + [
                f"{t},{a},{c},{struct.unpack('>d', bytes.fromhex(x))[0]!r}\r\n"
                for t, a, c, x in long_rows]
        elif case == "short-row":
            lines[mid] = ",".join(cells[:3]) + "\r\n"
        elif case == "missing-cell":
            lines[mid] = ",".join(cells[:-1]) + "\r\n"
        elif case == "extra-cell":
            lines[mid] = ",".join(cells + ["0.0"]) + "\r\n"
        elif case == "agent-beyond-m":
            lines[mid] = ",".join(cells + cells[1:1 + n]) + "\r\n"
        elif case == "coord-beyond-n":
            lines[mid] = ",".join(cells[:1] + [x for agent in range(m) for x in (
                *cells[1 + agent * n:1 + (agent + 1) * n], cells[1 + agent * n])]) + "\r\n"
        elif case == "duplicate-row":
            lines[mid] = lines[mid - 1]
        elif case == "blank-line":
            lines.insert(mid, "\r\n")
        elif case == "swapped-rows":
            lines[mid - 1], lines[mid] = lines[mid], lines[mid - 1]
        elif case == "mixed-line-ends":
            lines[mid] = lines[mid].replace("\r\n", "\n")
        elif case == "trailing-bytes":
            lines.append("0")
        else:
            col, value = edits[case]
            cells[col] = value
            lines[mid] = ",".join(cells) + "\r\n"
        bad = tmp_path / "bad.csv"
        bad.write_bytes("".join(lines).encode("latin-1"))
        assert cli.main(["verify", "--report", str(out / "report.json"),
                         "--trajectory", str(bad)]) == 2

    @pytest.mark.parametrize("case", ["object", "number-list", "no-floor", "verdict-not-witnessed",
                                      "moved-lhs", "swapped-pair", "extra-key", "wrong-t",
                                      "wrong-k", "renamed-check", "moved-floor", "dropped-last"])
    def test_bad_certificates_exit_config(self, tmp_path, case):
        """Stored records must equal the replayed ones, field for field and in order.

        ``verdict-not-witnessed`` raises one record's ``lhs`` past
        ``rhs * slack + floor`` and leaves its ``pass``; ``moved-lhs`` changes
        an ``lhs`` by one ulp with the verdict still following from it;
        ``swapped-pair`` swaps step-identity(0) with decrement-bound(0), which
        follows it.
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
        elif case == "swapped-pair":
            i = next(i for i, rec in enumerate(records) if rec["check"] == "step-identity")
            assert records[i + 1]["check"] == "decrement-bound" and records[i + 1]["t"] == 0
            records[i], records[i + 1] = records[i + 1], records[i]
        elif case == "extra-key":
            r["note"] = None
        elif case == "wrong-t":
            r["t"] += 1
        elif case == "wrong-k":
            r["k"] = 0
        elif case == "renamed-check":
            r["check"] += "x"
        elif case == "moved-floor":
            r["floor"] = float(np.nextafter(r["floor"], 1.0))
        elif case == "dropped-last":
            records.pop()
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
        ("initial", {"kind": "uniform-box", "low": "low", "high": 3}),
        ("initial", {"kind": "uniform-box", "low": -3, "high": None}),
        ("initial", 5), ("graph", ["static"]), ("weights", "laplacian"), ("adjoint", 0),
        ("constraints", "abc"), ("constraints", [None, 1, "ball"]),
        ("regularity", {"method": "fixed", "r": -1}),
        ("regularity", {"method": "fixed", "r": -3}),
        ("regularity", {"method": "fixed", "r": 0.5}),
        ("regularity", {"method": "interior", "theta": 0.0, "x_bar": [0.0, 0.0]}),
        ("regularity", {"method": "interior", "theta": -0.5, "x_bar": [0.0, 0.0]}),
        ("regularity", {"method": "sampling", "samples": 0}),
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
        ("graph", {"kind": "static", "regular_tree_d": 2.5}),
        ("graph", {"kind": "random-rooted", "extra_edge_prob": "0.5"}),
        ("graph", {"kind": "periodic", "graphs": [5]}),
        ("graph", {"kind": "static", "graph": [3]}),
        ("weights", {"scheme": ["equal-neighbor"]}),
        ("weights", {"scheme": "bogus"}),
        ("weights", {"scheme": "laplacian", "gamma": "20"}),
        ("weights", {"scheme": "laplacian", "gamma": True}),
        ("weights", {"scheme": "laplacian"}),
        ("weights", {"scheme": "laplacian", "gamma": 3}),
        ("weights", {"scheme": "laplacian", "gamma": 2.5}),
    ], ids=["initial-kind", "regularity-method", "adjoint-method", "regularity-not-object",
            "fractional-m", "fractional-horizon", "fractional-seed", "bool-n",
            "unknown-key", "no-theta", "string-theta", "no-x_bar",
            "string-x_bar", "short-x_bar", "no-r", "string-r", "fractional-samples",
            "string-low", "null-high", "number-initial", "list-graph", "string-weights",
            "number-adjoint", "string-constraints", "non-object-constraint", "r-minus-one",
            "negative-r", "r-below-one", "zero-theta", "negative-theta", "zero-samples",
            "one-coordinate-box", "three-coordinate-ball",
            "nan-halfspace-normal", "nan-halfspace-offset", "nan-hyperplane-normal",
            "nan-hyperplane-offset", "nan-ball-center", "nan-ball-radius",
            "ball-polyhedron-facet", "ball-without-keys", "fractional-regular_tree_d",
            "string-extra_edge_prob", "number-in-graphs", "list-graph-graph", "list-scheme",
            "unknown-scheme", "string-gamma", "bool-gamma", "no-gamma", "gamma-equal-m",
            "gamma-below-m"])
    def test_unknown_method_exits_before_compliance(self, tmp_path, monkeypatch, stored_run,
                                                    key, value):
        self.exits_before_compliance(tmp_path, monkeypatch, stored_run, key, value)

    @pytest.mark.parametrize("key,value,name", [
        ("adjoint", {"method": "backward-product", "spread_tol": "tiny"}, "adjoint.spread_tol"),
        ("adjoint", {"method": "backward-product", "max_window": 1024.5}, "adjoint.max_window"),
        ("adjoint", {"method": "backward-product", "max_window": 4}, "adjoint.max_window"),
        ("adjoint", {"method": "backward-product", "spread_tol": 0.0}, "adjoint.spread_tol"),
        ("adjoint", {"method": "backward-product", "spread_tol": -1e-10}, "adjoint.spread_tol"),
        ("rate_ks", 5, "rate_ks"), ("y_point", 5, "y_point"),
        ("y_point", [1, "a"], "y_point"), ("y_point", [0.0], "y_point"),
        ("initial", {"kind": "uniform-box", "lo": -5, "hi": 5}, "initial.lo"),
        ("adjoint", {"methd": "backward-product"}, "adjoint.methd"),
        ("graph", {"kind": "random-rooted", "extra_edge_probability": 0.5},
         "graph.extra_edge_probability"),
        ("weights", {"scheme": "equal-neighbor", "gama": 20}, "weights.gama"),
        ("regularity", {"method": "sampling", "theta": 0.5}, "regularity.theta"),
        ("regularity", {"method": "sampling", "x_bar": [0.0, 0.0]}, "regularity.x_bar"),
        ("regularity", {"method": "interior", "theta": 0.5, "x_bar": [0.0, 0.0],
                        "samples": 500}, "regularity.samples"),
        ("regularity", {"method": "fixed", "r": 2.0, "theta": 0.5}, "regularity.theta"),
    ], ids=["removed-spread_tol-string", "removed-max_window-fractional",
            "removed-max_window-small", "removed-spread_tol-zero", "removed-spread_tol-negative",
            "removed-rate_ks-number", "removed-y_point-number", "removed-y_point-string",
            "removed-y_point-short", "initial-lo-hi", "adjoint-methd",
            "graph-extra_edge_probability", "weights-gama", "sampling-theta", "sampling-x_bar",
            "interior-samples", "fixed-theta"])
    def test_unknown_key_refused(self, tmp_path, monkeypatch, caplog, stored_run, key, value,
                                 name):
        """A key no run reads, a removed one or a misspelt one, at the top level or
        inside a section (regularity's keys follow its method), is refused by name."""
        self.exits_before_compliance(tmp_path, monkeypatch, stored_run, key, value)
        assert caplog.text.count(f"unknown config keys [{name!r}") == 2

    @pytest.mark.parametrize("key,value,message", [
        ("constraints", [HALFSPACE, BOX, dict(BALL, centre=[0.0, 0.0])],
         "unknown ball keys ['centre']"),
        ("constraints", [HALFSPACE, dict(BOX, lowr=[-2.0, -2.0]), BALL],
         "unknown box keys ['lowr']"),
        ("graph", {"kind": "static",
                   "graph": {"m": 3, "edges": [[1, 2], [2, 3], [3, 1]], "weight": 1.0}},
         "unknown graph keys ['weight']"),
        ("weights", {"scheme": "custom",
                     "matrices": [{"rows": np.full((3, 3), 1 / 3).tolist(), "row": [1.0]}]},
         "unknown config keys ['weights.matrices[0].row']"),
    ], ids=["ball-centre", "box-lowr", "graph-weight", "matrices-row"])
    def test_unknown_nested_key_refused(self, tmp_path, monkeypatch, caplog, stored_run, key,
                                        value, message):
        """A key that a set spec, a graph's JSON or a custom matrix does not read
        is refused by name, by simulate and by verify."""
        self.exits_before_compliance(tmp_path, monkeypatch, stored_run, key, value)
        assert caplog.text.count(message) == 2

    @pytest.mark.parametrize("key,value,message", [
        ("graph", {"kind": "static", "regular_tree_d": 3, "extra_edge_prob": 0.1},
         "unknown config keys ['graph.extra_edge_prob']"),
        ("graph", {"kind": "static", "regular_tree_d": 3,
                   "graph": {"m": 8, "edges": [[1, 2], [2, 1]]}},
         "graph.kind 'static' needs exactly one of graph.regular_tree_d and graph.graph"),
        ("graph", {"kind": "periodic", "regular_tree_d": 3,
                   "graphs": [{"m": 8, "edges": [[1, 2], [2, 1]]}]},
         "unknown config keys ['graph.regular_tree_d']"),
        ("weights", {"scheme": "quarter", "gamma": 20},
         "unknown config keys ['weights.gamma']"),
        ("weights", {"scheme": "quarter", "matrices": [{"rows": np.eye(8).tolist()}]},
         "unknown config keys ['weights.matrices']"),
        ("initial", {"kind": "uniform-box", "states": [[0.5]] * 8},
         "unknown config keys ['initial.states']"),
        ("initial", {"kind": "explicit", "states": [[0.5]] * 8, "low": -1.0},
         "unknown config keys ['initial.low']"),
        ("regularity", {"method": "sampling"}, "mode 'unconstrained' reads no regularity"),
        ("constraints", [{"type": "ball", "center": [0.0], "radius": 1.0}],
         "mode 'unconstrained' reads no constraints"),
    ], ids=["static-extra_edge_prob", "static-graph-beside-regular_tree_d",
            "periodic-regular_tree_d", "quarter-gamma", "quarter-matrices",
            "uniform-box-states", "explicit-low", "unconstrained-regularity",
            "unconstrained-constraints"])
    def test_key_the_run_does_not_read_refused(self, tmp_path, monkeypatch, caplog,
                                               stored_unconstrained_run, key, value, message):
        """A key of another graph kind, weights scheme, initial kind or mode is
        refused by name, by simulate and by verify, though some run reads it."""
        self.exits_before_compliance(tmp_path, monkeypatch, stored_unconstrained_run, key,
                                     value)
        assert caplog.text.count(message) == 2

    def test_stored_unconstrained_config_loads(self, tmp_path, stored_unconstrained_run):
        """The empty constraints and null regularity that a report stores for an
        unconstrained run are not keys the run fails to read."""
        report, trajectory = stored_unconstrained_run
        assert report["config"]["constraints"] == [] and report["config"]["regularity"] is None
        assert cli.main(["verify", "--report", str(trajectory.parent / "report.json"),
                         "--trajectory", str(trajectory)]) == 0

    @pytest.fixture(scope="class")
    def stored_unconstrained_run(self, tmp_path_factory):
        """``(report, trajectory path)`` of regular_tree_d3's ``simulate``."""
        out = tmp_path_factory.mktemp("stored_unconstrained_run") / "out"
        assert cli.main(["simulate", "--scenario", str(SCENARIOS / "regular_tree_d3.json"),
                         "--out", str(out)]) == 0
        return json.loads((out / "report.json").read_text()), out / "trajectory.csv"

    @pytest.fixture(scope="class")
    def stored_run(self, tmp_path_factory):
        """``(report, trajectory path)`` of one constrained ``simulate``, shared by
        every case; each case edits a deep copy of the report."""
        tmp = tmp_path_factory.mktemp("stored_run")
        out = tmp / "out"
        assert cli.main(["simulate", "--scenario", str(constrained_scenario(tmp)),
                         "--out", str(out)]) == 0
        return json.loads((out / "report.json").read_text()), out / "trajectory.csv"

    @staticmethod
    def exits_before_compliance(tmp_path, monkeypatch, stored_run, key, value):
        """With ``config[key] = value``, simulate and verify exit 2 before compliance."""
        report, trajectory = copy.deepcopy(stored_run[0]), stored_run[1]
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
                         "--trajectory", str(trajectory)]) == 2

    @pytest.mark.parametrize("overrides,message", [
        ({"graph": {"kind": "static", "regular_tree_d": [3]}},
         "graph.regular_tree_d must be an integer, not [3]"),
        ({"weights": {"scheme": "laplacian", "gamma": [20]}},
         "weights.gamma must be a number, not [20]"),
        ({"graph": {"kind": "random-rooted", "extra_edge_prob": [0.1]},
          "weights": {"scheme": "equal-neighbor"}},
         "graph.extra_edge_prob must be a finite number, not [0.1]"),
        ({"graph": {"kind": "periodic", "graphs": 5}}, "graph.graphs must be a list of objects"),
        ({"graph": {"kind": "static", "graph": {"m": 8, "edges": 5}}},
         "graph.graph.edges must be a list of two-integer lists, not 5"),
        ({"graph": {"kind": "periodic", "graphs": [{"m": 8, "edges": [[1, 2], [2, 1]]},
                                                   {"m": 8, "edges": [[1, 2], [2, 1, 3]]}]}},
         "graph.graphs[1].edges must be a list of two-integer lists, not a list holding [2, 1, 3]"),
        ({"weights": {"scheme": "custom", "matrices": 5}},
         "weights.matrices must be a list of objects"),
        ({"weights": {"scheme": 5}}, "weights.scheme must be one of"),
        ({"graph": {"kind": "static", "graph": {"m": 3.7, "edges": [[1, 2]]}}},
         "graph.graph.m must be an integer, not 3.7"),
        ({"graph": {"kind": "static", "graph": {"m": "3", "edges": [[1, 2]]}}},
         "graph.graph.m must be an integer, not '3'"),
        ({"graph": {"kind": "periodic", "graphs": [{"m": True, "edges": [[1, 2]]}]}},
         "graph.graphs[0].m must be an integer, not True"),
        ({"weights": {"scheme": "custom", "matrices": [{"rows": [[1.0, "0.5"]]}]}},
         "weights.matrices[0].rows must be a list of lists of numbers, "
         "not a list holding [1.0, '0.5']"),
        ({"weights": {"scheme": "custom", "matrices": [{"m": 3, "rows": np.eye(8).tolist()}]}},
         "weights.matrices[0].m must equal its row count 8, not 3"),
        ({"initial": {"kind": "explicit", "states": [[0.0]] * 7 + [["1"]]}},
         "initial.states must be a list of lists of numbers, not a list holding ['1']"),
        ({"initial": {"kind": "explicit", "states": [[True]] + [[0.0]] * 7}},
         "initial.states must be a list of lists of numbers, not a list holding [True]"),
        ({"initial": {"kind": "explicit", "states": [[0.0]] * 7}},
         "initial.states must be 8 rows of 1 finite numbers"),
        ({"initial": {"kind": "explicit", "states": [[0.0]] * 7 + [[0.0, 0.0]]}},
         "initial.states must be 8 rows of 1 finite numbers"),
        ({"initial": {"kind": "explicit", "states": [[0.0]] * 7 + [[math.inf]]}},
         "initial.states must be 8 rows of 1 finite numbers"),
    ], ids=["list-regular_tree_d", "list-gamma", "list-extra_edge_prob",
            "number-periodic-graphs", "number-static-edges", "triple-periodic-edges",
            "number-custom-matrices", "number-scheme", "fractional-graph-m", "string-graph-m",
            "bool-periodic-graph-m", "string-weight", "wrong-matrix-m", "string-state",
            "bool-state",
            "short-states", "long-state-row", "inf-state"])
    def test_wrong_type_value_exit_2_without_output(self, tmp_path, monkeypatch, caplog, capsys,
                                                    overrides, message):
        """A value of the wrong JSON type is bad input, not a crash, and is named
        before compliance starts."""
        def refuse(*args, **kwargs):
            pytest.fail("compliance ran before the config was validated")

        monkeypatch.setattr(engine, "verify_compliance", refuse)
        path = quarter_scenario(tmp_path, horizon=20, **overrides)
        assert cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        assert message in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_wrong_type_value_in_report_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(SCENARIOS / "regular_tree_d3.json"),
                         "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        report["config"]["graph"]["regular_tree_d"] = [3]
        bad = write_json(tmp_path / "bad_report.json", report)
        assert cli.main(["verify", "--report", str(bad),
                         "--trajectory", str(out / "trajectory.csv")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("error", cli._NUMERICAL_ERRORS, ids=lambda e: e.__name__)
    def test_numerical_errors_exit_4_without_output(self, tmp_path, monkeypatch, error):
        def fail(config):
            raise error("stalled")

        monkeypatch.setattr(engine, "run", fail)
        assert cli.main(["simulate", "--scenario", str(quarter_scenario(tmp_path)),
                         "--out", str(tmp_path / "out")]) == 4
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("m,graph,weights,message", [
        (8, {"kind": "static", "regular_tree_d": 3},
         {"scheme": "custom", "matrices": [{"rows": np.full((3, 3), 1 / 3).tolist()}]},
         "custom matrices are 3x3, but the graph has m=8"),
        (8, {"kind": "static", "regular_tree_d": 3}, {"scheme": "laplacian", "gamma": math.inf},
         "gamma=inf must exceed m=8"),
        (8, {"kind": "static", "regular_tree_d": 3}, {"scheme": "laplacian", "gamma": math.nan},
         "gamma=nan must exceed m=8"),
        (12, {"kind": "random-rooted", "extra_edge_prob": 1.0},
         {"scheme": "laplacian", "gamma": 5}, "gamma=5.0 must exceed m=12"),
        # Only a complete draw is sure to be symmetric at every step.
        (12, {"kind": "random-rooted", "extra_edge_prob": 0.5},
         {"scheme": "laplacian", "gamma": 50},
         "graph.kind 'random-rooted' with weights.scheme 'laplacian' needs "
         "graph.extra_edge_prob 1 (symmetric draws), not 0.5"),
        (4, {"kind": "random-rooted"}, {"scheme": "lazy-metropolis"},
         "weights.scheme 'lazy-metropolis' needs graph.extra_edge_prob 1"),
        (4, {"kind": "random-rooted", "extra_edge_prob": 0.99}, {"scheme": "quarter"},
         "weights.scheme 'quarter' needs graph.extra_edge_prob 1"),
    ], ids=["custom-matrix-size", "infinite-gamma", "nan-gamma", "random-rooted-small-gamma",
            "random-rooted-asymmetric-draw", "random-rooted-lazy-default-prob",
            "random-rooted-quarter"])
    def test_bad_weights_exit_2_without_output(self, tmp_path, monkeypatch, caplog, m, graph,
                                               weights, message):
        scenario = {"m": m, "n": 1, "horizon": 20, "seed": 3, "mode": "unconstrained",
                    "graph": graph, "weights": weights,
                    "initial": {"kind": "uniform-box", "low": -1.0, "high": 1.0}}

        def refuse(*args, **kwargs):
            pytest.fail("compliance ran before the weights were validated")

        monkeypatch.setattr(engine, "verify_compliance", refuse)
        path = write_json(tmp_path / "scenario.json", scenario)
        assert cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        assert message in caplog.text
        assert not (tmp_path / "out").exists()
