"""Tests for the scenario runner."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conelab
from conelab import barrier, cli
from conelab.errors import ConfigError


def _scenario(name="quick", seed=7, checks=("cone-catalog",), params=None):
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
            {"checks": "cone-catalog"},
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
            ("conformal-consistency", {"factors": 1, "counts": [7, 13, 25]}),
        ],
    )
    def test_declared_params_accepted(self, check, params):
        cli.load_scenario(_scenario(checks=(check,), params=params))

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError):
            cli.load_scenario(_scenario(checks=("no-such-check",)))

    def test_invalid_json_text_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="^scenario is not valid JSON: "):
            cli.load_scenario(str(bad))

    def test_no_partial_artifacts_on_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 1, "name": "x", "checks": []}))
        out = tmp_path / "artifacts"
        with pytest.raises(ConfigError):
            cli.run_scenario(str(bad), output_root=out)
        assert not out.exists()


#: seeds whose centre-node error cancels on the 17-node grid: a centre-only
#: order reads 2.68, 2.43 and 2.30 there
CANCELLING_SEEDS = (721805890, 1298111270, 2054653897)


def test_conformal_order_in_band_over_seeds():
    """The max-norm convergence order of conformal-consistency lies in its
    band at its default params over the cancelling seeds and 47 seeds
    drawn from a fixed generator."""
    drawn = np.random.default_rng(20261018).integers(0, 2**31 - 1, 47)
    params = {key: spec[0] for key, spec in cli.PARAMS["conformal-consistency"].items()}
    for seed in CANCELLING_SEEDS + tuple(int(s) for s in drawn):
        gate = cli.Gate()
        cli.check_conformal_consistency(params, seed, gate)
        assert gate.passed, (seed, gate.measured)


def test_shape_shift_ratio_in_band_over_seeds():
    """The second-order ratio of shape-shift lies in its band, and its
    error under its bound, over 50 seeds drawn from a fixed generator."""
    for seed in np.random.default_rng(20261019).integers(0, 2**31 - 1, 50):
        gate = cli.Gate()
        cli.check_shape_shift({}, int(seed), gate)
        assert gate.passed, (seed, gate.measured)


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

    def test_wall_times_go_to_the_timing_sidecar(self, tmp_path):
        rep = cli.run_scenario(_scenario(checks=("cone-catalog", "deformed-cone")), output_root=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "quick.checks.csv", "quick.report.json", "quick.timing.json"]
        timing = json.loads((tmp_path / "quick.timing.json").read_text())
        assert timing == {"scenario": "quick",
                          "checks": [{"name": c["name"], "wall_time": c["wall_time"]} for c in rep.checks]}
        assert [c["name"] for c in timing["checks"]] == ["cone-catalog", "deformed-cone"]

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
        assert rep.ops == ["cone-catalog.cone_scal", "cone-catalog.make_cone", "cone-catalog.second_form_norm2"]


class TestGate:
    @pytest.mark.parametrize(
        "method, value, tol, passed",
        [
            ("below", 1.0, {"b": 1.0}, False),
            ("below", 0.5, {"b": 1.0}, True),
            ("above", 1.0, {"b": 1.0}, False),
            ("above", 1.5, {"b": 1.0}, True),
            ("at_least", 1.0, {"b": 1.0}, True),
            ("at_least", 0.5, {"b": 1.0}, False),
            ("equals", 0.0, {"b": 0.0}, True),
            ("equals", 1e-300, {"b": 0.0}, False),
            ("between", 3.5, {"b": (3.5, 4.5)}, False),
            ("between", 4.5, {"b": (3.5, 4.5)}, False),
            ("between", 4.0, {"b": (3.5, 4.5)}, True),
            ("near", 2.25, {"c": 2.0, "b": 0.25}, False),
            ("near", 1.75, {"c": 2.0, "b": 0.25}, False),
            ("near", 2.125, {"c": 2.0, "b": 0.25}, True),
            ("near_closed", 2.25, {"c": 2.0, "b": 0.25}, True),
            ("near_closed", 1.75, {"c": 2.0, "b": 0.25}, True),
            ("near_closed", 2.5, {"c": 2.0, "b": 0.25}, False),
        ],
    )
    def test_comparison_at_its_boundary(self, method, value, tol, passed):
        gate = cli.Gate()
        getattr(gate, method)("x", np.float64(value), **tol)
        assert gate.passed is passed
        assert gate.measured == {"x": value}
        # the CSV prints repr, which for a numpy scalar names its type
        assert type(gate.measured["x"]) is float
        assert gate.tolerance == tol

    def test_require_records_its_tolerance_keys(self):
        gate = cli.Gate()
        gate.require(True, lift_rtol=1e-12, radius=1e-15)
        assert gate.passed
        assert gate.tolerance == {"lift_rtol": 1e-12, "radius": 1e-15}
        assert gate.measured == {}
        gate.require(False)
        gate.below("x", 0.0, b=1.0)
        # a later bound that holds does not undo a failed one
        assert not gate.passed

    def test_note_records_without_a_bound(self):
        gate = cli.Gate()
        gate.note(k_star=np.float64(2.0), trial=3)
        assert gate.passed and gate.tolerance == {}
        assert gate.measured == {"k_star": 2.0, "trial": 3.0}

    def test_failed_bound_is_recorded_with_unchanged_tolerance(self, tmp_path, monkeypatch):
        monkeypatch.setattr(barrier, "green_laplacian_residual", lambda d, step=None: 1.0)
        rep = cli.run_scenario(_scenario(name="green", checks=("green-identity",)), output_root=tmp_path)
        (record,) = rep.checks
        assert record["status"] == "fail"
        assert record["measured"]["analytic_residual"] == 1.0
        assert record["tolerance"] == {"analytic": 1e-12, "ratio_band": (3.5, 4.5)}

    def test_checks_get_param_defaults(self, tmp_path, monkeypatch):
        seen = []

        def spy(params, seed, gate):
            seen.append(params)
            return ""

        monkeypatch.setitem(cli.CHECKS, "covering-random", (spy, set()))
        cli.run_scenario(_scenario(checks=("covering-random",), params={"balls": 10}), output_root=tmp_path)
        assert seen == [{"instances": 20, "balls": 10}]


class TestReportTable:
    def test_stable_columns_and_determinism(self, tmp_path):
        rep = cli.run_scenario(_scenario(), output_root=tmp_path)
        csv1, summary = cli.report_table([rep])
        csv2, _ = cli.report_table([rep])
        assert csv1 == csv2
        assert csv1.splitlines()[0] == "scenario,check,status,measured,tolerance"
        assert "quick: PASS (1/1 checks)" in summary
        assert rep.status == "pass"

    def test_skip_marked(self):
        rep = cli.RunReport(scenario="s", seed=0, checks=[], ops=[])
        _, summary = cli.report_table([rep])
        assert "SKIP" in summary
        assert rep.status == "skip"

    def test_failure_propagates(self):
        bad = cli.RunReport(
            scenario="s", seed=0, ops=[],
            checks=[{"name": "x", "status": "fail", "measured": {}, "tolerance": {}}],
        )
        _, summary = cli.report_table([bad])
        assert "s: FAIL (0/1 checks)" in summary
        assert bad.status == "fail"

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

    def test_bundled_scenarios_validate(self):
        for path in cli.bundled_scenarios().values():
            data = cli.load_scenario(str(path))
            assert isinstance(data["seed"], int)


def test_every_op_label_names_a_library_callable():
    # a label is "<area>.<name>": some library module has a callable <name>
    modules = [importlib.import_module(f"conelab.{info.name}") for info in pkgutil.iter_modules(conelab.__path__)]
    labels = sorted({op for _, ops in cli.CHECKS.values() for op in ops})
    stale = [op for op in labels
             if not any(callable(getattr(m, op.split(".", 1)[1], None)) for m in modules if m is not cli)]
    assert labels and not stale


def _scale_everywhere(monkeypatch, target, factor):
    """Multiply the result of conelab `target` ("module.function" or
    "module.Class.property") by `factor`; a function is replaced in every
    namespace that binds it, since the runner binds names at import."""
    module, name = target.split(".", 1)
    owner = importlib.import_module(f"conelab.{module}")
    if "." in name:
        cls_name, name = name.split(".")
        owner = getattr(owner, cls_name)
        fget = vars(owner)[name].fget
        monkeypatch.setattr(owner, name, property(lambda self: fget(self) * factor))
        return
    original = getattr(owner, name)
    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "conelab":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, lambda *a, **k: original(*a, **k) * factor)


@pytest.mark.parametrize(
    "target, scenario, check",
    [
        ("cones.cone_scal", "cone-catalog", "cone-catalog"),
        ("cones.second_form_norm2", "cone-catalog", "cone-catalog"),
        ("cones.ConeSpec.link_scal", "cone-catalog", "cone-catalog"),
        ("grids.conformal_shape_shift", "metric-core", "shape-shift"),
        ("cones.deformed_distance", "cone-catalog", "deformed-cone"),
    ],
)
def test_result_off_by_1e_6_fails_its_bundled_check(target, scenario, check, tmp_path, monkeypatch):
    # each gate compares with an oracle that shares no formula with the
    # code it checks, so at the bundled seed a relative error of 1e-6 fails
    data = cli.load_scenario(str(cli.bundled_scenarios()[scenario]))
    data["checks"] = [entry for entry in data["checks"] if entry["check"] == check]
    _scale_everywhere(monkeypatch, target, 1.0 + 1e-6)
    (record,) = cli.run_scenario(data, output_root=tmp_path).checks
    assert record["status"] == "fail", record["measured"]


#: bundled scenarios whose checks call no scipy routine: all but perron
SCIPY_FREE = ("bending", "cone-catalog", "covering", "green-truncation", "lambda0-simons", "metric-core",
              "superposition", "theta-scaling")


def test_import_loads_no_scipy(tmp_path):
    # scipy subpackages load on first use: importing the runner (and with it
    # every library module) loads none, and neither does running a scenario
    # whose checks need numpy only, nor a deflection radius on its own
    # (scipy.optimize and what it pulls in are about 48 MB of peak RSS)
    code = (
        "import json, sys\n"
        "import conelab.cli as cli\n"
        "from conelab import barrier, cones, perron\n"
        "def scipy():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "loaded = {'import conelab.cli': scipy()}\n"
        "cone = cones.catalog_cones()[-1]\n"
        "spec = barrier.BarrierSpec(deformed=cones.DeformedCone(cone, alpha=-1.0), mu=1e-4,\n"
        "                           cutoff=perron.make_cutoff(4.0, 1.0))\n"
        "barrier.deflection_radius(spec)\n"
        "loaded['deflection_radius'] = scipy()\n"
        f"for name in {SCIPY_FREE!r}:\n"
        f"    cli.run_scenario(cli.bundled_scenarios()[name], {str(tmp_path)!r})\n"
        "    loaded[name] = scipy()\n"
        "print(json.dumps(loaded))\n"
    )
    path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    loaded = json.loads(out.stdout)
    assert list(loaded) == ["import conelab.cli", "deflection_radius", *SCIPY_FREE]
    assert loaded == dict.fromkeys(loaded, [])


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

    def test_report_reads_only_report_artifacts(self, tmp_path, capsys):
        cli.run_scenario(_scenario(), output_root=tmp_path)
        expected = (tmp_path / "quick.checks.csv").read_text()
        # a sidecar, even an unreadable one, is neither read nor summarized
        (tmp_path / "quick.timing.json").write_text("{not json")
        (tmp_path / "other.timing.json").write_text(json.dumps({"scenario": "other", "checks": []}))
        assert cli.main(["report", str(tmp_path)]) == 0
        assert (tmp_path / "summary.csv").read_text() == expected
        assert capsys.readouterr().out == "quick: PASS (1/1 checks)\n"

    def test_report_of_sidecars_alone_exits_2(self, tmp_path):
        cli.run_scenario(_scenario(), output_root=tmp_path)
        for path in tmp_path.glob("*"):
            if not path.name.endswith(".timing.json"):
                path.unlink()
        assert cli.main(["report", str(tmp_path)]) == 2

    def test_report_empty_dir_exits_2(self, tmp_path):
        assert cli.main(["report", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data: json.dumps({k: v for k, v in data.items() if k != "seed"}),
            lambda data: json.dumps({k: v for k, v in data.items() if k != "checks"}),
            lambda data: json.dumps([data]),
            lambda data: json.dumps(dict(data, checks=[{"name": "cone-catalog"}])),
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

    def test_run_missing_file_exits_2_naming_it(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "nosuch.json", "--output", "out"]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot read scenario nosuch.json: ")
        assert not any(tmp_path.iterdir())

    def test_run_directory_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert cli.main(["run", str(tmp_path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(tmp_path) in err
        assert not out.exists()

    def test_untyped_exception_exits_3(self, tmp_path, monkeypatch, capsys):
        def broken(params, seed, gate):
            return [][0]

        monkeypatch.setitem(cli.CHECKS, "cone-catalog", (broken, set()))
        scen = tmp_path / "broken.json"
        scen.write_text(json.dumps(_scenario(name="broken")))
        assert cli.main(["run", str(scen), "--output", str(tmp_path)]) == 3
        data = json.loads((tmp_path / "broken.report.json").read_text())
        assert data["status"] == "error"
        assert data["checks"][0]["status"] == "error"
        assert data["checks"][0]["details"].startswith("IndexError")
        assert "ERROR" in capsys.readouterr().out
        # an internal error outranks a failed check in a consolidated report
        cli.run_scenario(_scenario(name="boom", checks=("bending-sphere",), params={"theta0": 0.3}),
                         output_root=tmp_path)
        assert cli.main(["report", str(tmp_path)]) == 3

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
            ("cone-catalog", {"n": 7}),
            # the grid holds count^3 nodes: an oversized count is refused
            # before anything is allocated
            ("conformal-consistency", {"counts": [17, 1025]}),
            # the order band is the check's own bound, not a param
            ("conformal-consistency", {"order_tolerance": 1e9}),
            # a 5-node grid has no node 3 nodes inside its boundary
            ("conformal-consistency", {"counts": [5, 9]}),
            # 31 does not nest in 17: the grids share no coarse nodes
            ("conformal-consistency", {"counts": [17, 31]}),
        ],
    )
    def test_run_bad_params_exit_2_and_write_nothing(self, tmp_path, capsys, check, params):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(_scenario(name="bad", checks=(check,), params=params)))
        out = tmp_path / "artifacts"
        assert cli.main(["run", str(scen), "--output", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["scenario.json"]
