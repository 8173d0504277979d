"""Tests for the scenario runner."""

import json

import pytest

from conelab import cli
from conelab.errors import ConfigError


def _scenario(name="quick", seed=7, checks=("dimshift",), params=None):
    return {
        "schema_version": 1,
        "name": name,
        "seed": seed,
        "checks": [{"check": c, "params": dict(params or {})} for c in checks],
    }


class TestScenarioSchema:
    def test_valid_scenario_loads(self):
        data = cli.load_scenario(_scenario())
        assert data["name"] == "quick"

    @pytest.mark.parametrize(
        "mutation",
        [
            {"schema_version": 2},
            {"seed": None},
            {"seed": "42"},
            {"name": ""},
            {"checks": "dimshift"},
            {"name": "../../evil"},
            {"seed": True},
        ],
    )
    def test_malformed_scenarios_rejected(self, mutation):
        data = _scenario()
        data.update(mutation)
        with pytest.raises(ConfigError):
            cli.load_scenario(data)

    @pytest.mark.parametrize(
        "check, params",
        [
            ("theta-scaling", {"n": 8}),
            ("conformal-consistency", {"factors": 2, "counts": [9, 17, 33]}),
            ("covering-random", {"instances": 1, "balls": 10}),
            ("bending-sphere", {"theta0": 1, "delta": 0.15}),
        ],
    )
    def test_declared_params_accepted(self, check, params):
        cli.load_scenario(_scenario(checks=(check,), params=params))

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError):
            cli.load_scenario(_scenario(checks=("no-such-check",)))

    def test_invalid_json_text_rejected(self):
        with pytest.raises(ConfigError):
            cli.load_scenario("{not json")

    def test_no_partial_artifacts_on_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "name": "x", "checks": []}))
        out = tmp_path / "artifacts"
        with pytest.raises(ConfigError):
            cli.run_scenario(str(bad), output_root=out)
        assert not out.exists()


class TestRun:
    def test_run_writes_deterministic_artifacts(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        rep1 = cli.run_scenario(_scenario(), output_root=out1)
        rep2 = cli.run_scenario(_scenario(), output_root=out2)
        assert rep1.status == "pass"
        for fname in ("quick.report.json", "quick.checks.csv"):
            assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()

    def test_artifacts_carry_no_wall_times(self, tmp_path):
        cli.run_scenario(_scenario(), output_root=tmp_path)
        data = json.loads((tmp_path / "quick.report.json").read_text())
        assert all("wall_time" not in c for c in data["checks"])
        # but the in-memory report measures them
        rep = cli.run_scenario(_scenario(), output_root=tmp_path)
        assert all(c["wall_time"] >= 0 for c in rep.checks)

    def test_module_error_recorded_as_failure(self, tmp_path):
        # a core radius inside the tube depth is valid input the library
        # rejects: the DomainError becomes a failed check, not a crash, and
        # artifacts are still written
        scen = _scenario(name="boom", checks=("bending-sphere",), params={"theta0": 0.3})
        rep = cli.run_scenario(scen, output_root=tmp_path)
        assert rep.status == "fail"
        assert "DomainError" in rep.checks[0]["details"]
        assert (tmp_path / "boom.report.json").exists()

    def test_empty_checks_is_skip(self, tmp_path):
        rep = cli.run_scenario(_scenario(name="empty", checks=()), output_root=tmp_path)
        assert rep.status == "skip"

    def test_ops_recorded(self, tmp_path):
        rep = cli.run_scenario(_scenario(), output_root=tmp_path)
        assert rep.ops == ["barrier.dimshift_scal_sign"]


class TestReportTable:
    def test_stable_columns_and_determinism(self, tmp_path):
        rep = cli.run_scenario(_scenario(), output_root=tmp_path)
        csv1, summary, ok = cli.report_table([rep])
        csv2, _, _ = cli.report_table([rep])
        assert csv1 == csv2
        assert csv1.splitlines()[0] == "scenario,check,status,measured,tolerance"
        assert "quick: PASS (1/1 checks)" in summary
        assert ok

    def test_skip_marked(self):
        rep = cli.RunReport(scenario="s", seed=0, checks=[], ops=[])
        _, summary, ok = cli.report_table([rep])
        assert "SKIP" in summary
        assert ok  # vacuous

    def test_failure_propagates(self):
        bad = cli.RunReport(
            scenario="s", seed=0, ops=[],
            checks=[{"name": "x", "status": "fail", "measured": {}, "tolerance": {}}],
        )
        _, _, ok = cli.report_table([bad])
        assert not ok

    def test_needs_reports(self):
        with pytest.raises(ConfigError):
            cli.report_table([])

    def test_artifact_round_trip(self, tmp_path):
        rep = cli.run_scenario(_scenario(), output_root=tmp_path)
        again = cli.report_from_artifact(tmp_path / "quick.report.json")
        assert again.scenario == rep.scenario
        assert again.status == rep.status


class TestBundledSuite:
    def test_required_scenarios_shipped(self):
        names = set(cli.bundled_scenarios())
        assert {"lambda0-simons", "theta-scaling"} <= names

    def test_every_op_covered(self):
        # the shipped suite must exercise every operation of every module
        paths = [str(p) for p in cli.bundled_scenarios().values()]
        coverage = cli.scenario_coverage(paths)
        for module, cov in coverage.items():
            assert not cov["missing"], f"{module} ops not exercised: {cov['missing']}"

    def test_bundled_scenarios_validate(self):
        for path in cli.bundled_scenarios().values():
            data = cli.load_scenario(str(path))
            assert isinstance(data["seed"], int)


class TestMain:
    def test_list_scenarios(self, capsys):
        assert cli.main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "lambda0-simons" in out

    def test_run_fast_scenario_by_name(self, tmp_path, capsys):
        code = cli.main(["run", "cone-catalog", "--output", str(tmp_path)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_run_malformed_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert cli.main(["run", str(bad), "--output", str(tmp_path)]) == 2

    def test_run_traversal_name_exits_2_and_writes_nothing(self, tmp_path, capsys):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(_scenario(name="../../evil")))
        out = tmp_path / "root" / "artifacts"
        assert cli.main(["run", str(scen), "--output", str(out)]) == 2
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["scenario.json"]

    def test_report_command(self, tmp_path, capsys):
        cli.run_scenario(_scenario(), output_root=tmp_path)
        assert cli.main(["report", str(tmp_path)]) == 0
        assert (tmp_path / "summary.csv").exists()

    def test_report_empty_dir_exits_2(self, tmp_path):
        assert cli.main(["report", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data: json.dumps({k: v for k, v in data.items() if k != "seed"}),
            lambda data: json.dumps({k: v for k, v in data.items() if k != "checks"}),
            lambda data: json.dumps([data]),
            lambda data: json.dumps(dict(data, checks=[{"name": "dimshift"}])),
            lambda data: json.dumps(dict(data, checks=[dict(data["checks"][0], measured=[])])),
            lambda data: "{not json",
        ],
        ids=["no-seed", "no-checks", "not-object", "check-record", "measured-list", "not-json"],
    )
    def test_report_bad_artifact_exits_2_naming_file(self, tmp_path, capsys, corrupt):
        cli.run_scenario(_scenario(), output_root=tmp_path)
        path = tmp_path / "quick.report.json"
        path.write_text(corrupt(json.loads(path.read_text())))
        assert cli.main(["report", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(path) in err
        assert "Traceback" not in err
        assert not (tmp_path / "summary.csv").exists()

    def test_run_directory_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert cli.main(["run", str(tmp_path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(tmp_path) in err
        assert not out.exists()

    def test_run_failure_exits_1(self, tmp_path):
        scen = tmp_path / "boom.json"
        scen.write_text(json.dumps(_scenario(name="boom", checks=("bending-sphere",), params={"theta0": 0.3})))
        assert cli.main(["run", str(scen), "--output", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "check, params",
        [
            ("theta-scaling", {"n": 9}),
            ("theta-scaling", {"n": True}),
            ("conformal-consistency", {"counts": [17]}),
            ("conformal-consistency", {"counts": [33, 17]}),
            ("conformal-consistency", {"counts": [17, 32]}),
            ("conformal-consistency", {"counts": [3, 5]}),
            ("conformal-consistency", {"factors": 0}),
            ("conformal-consistency", {"factors": "5"}),
            ("conformal-consistency", {"order_tolerance": 0}),
            ("covering-random", {"instances": 0}),
            ("covering-random", {"balls": 9}),
            ("bending-sphere", {"theta0": 0.0}),
            ("bending-sphere", {"delta": -0.2}),
            ("theta-scaling", {"m": 7}),
            ("dimshift", {"n": 7}),
            # the grid holds count^3 nodes: an oversized count is refused
            # before anything is allocated
            ("conformal-consistency", {"counts": [17, 1025]}),
            # the order band is the check's own bound, not a param
            ("conformal-consistency", {"order_tolerance": 1e9}),
        ],
    )
    def test_run_bad_params_exit_2_and_write_nothing(self, tmp_path, capsys, check, params):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(_scenario(name="bad", checks=(check,), params=params)))
        out = tmp_path / "artifacts"
        assert cli.main(["run", str(scen), "--output", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["scenario.json"]
