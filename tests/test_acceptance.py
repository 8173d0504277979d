"""Acceptance gate: every registered check passes through the scenario runner.

`cli.CHECKS` is the single implementation of the headline properties; each
check carries its own pinned bounds.  This file only drives it through
`cli.run_scenario` (bundled scenarios at their shipped seeds, heavier inputs
from the declared `cli.PARAMS` keys, and five properties under their own test
names) and asserts that every check reports pass.
"""

import pytest

from conelab import cli

BUNDLED = cli.bundled_scenarios()

#: (check, params, seed): heavier or non-default inputs than the bundled suite
HEAVIER = [
    pytest.param("conformal-consistency", {"factors": 50}, 0, id="conformal-factors50"),
    # the order comes from the actual step ratio, not an assumed halving
    pytest.param("conformal-consistency", {"counts": [17, 65]}, 11, id="conformal-counts17-65"),
    pytest.param("conformal-consistency", {"counts": [9, 17, 33]}, 11, id="conformal-counts9-17-33"),
    # the centre-node error cancels on the coarse grid at this seed
    pytest.param("conformal-consistency", {}, 721805890, id="conformal-seed721805890"),
    pytest.param("theta-scaling", {"n": 8}, 16, id="theta-scaling-n8"),  # cone (4, 3)
    pytest.param("covering-random", {"instances": 200, "balls": 150}, 18, id="covering-200x150"),
    pytest.param("covering-random", {"instances": 2, "balls": 1000}, 18, id="covering-2x1000"),
]


def _assert_all_pass(report):
    assert report.checks, f"{report.scenario} ran no checks"
    failed = [c for c in report.checks if c["status"] != "pass"]
    assert not failed, failed


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_bundled_scenario_passes(name, tmp_path):
    _assert_all_pass(cli.run_scenario(str(BUNDLED[name]), output_root=tmp_path))


@pytest.mark.parametrize("check, params, seed", HEAVIER)
def test_heavier_case_passes(check, params, seed, tmp_path):
    scenario = {"schema_version": cli.SCHEMA_VERSION, "name": "heavier", "seed": seed,
                "checks": [{"check": check, "params": params}]}
    _assert_all_pass(cli.run_scenario(scenario, output_root=tmp_path))


def _bundled_check_passes(scenario, check, tmp_path):
    data = cli.load_scenario(str(BUNDLED[scenario]))
    data["checks"] = [e for e in data["checks"] if e["check"] == check]
    _assert_all_pass(cli.run_scenario(data, output_root=tmp_path))


def test_perron_minimal_power_law_and_minimality(tmp_path):
    _bundled_check_passes("perron", "perron-minimal", tmp_path)


def test_crease_smoothing_margin_and_locality(tmp_path):
    _bundled_check_passes("perron", "crease", tmp_path)


def test_green_identity_analytic_and_stencil_order(tmp_path):
    _bundled_check_passes("green-truncation", "green-identity", tmp_path)


def test_truncation_penalty_slope_and_curvature_margin(tmp_path):
    _bundled_check_passes("green-truncation", "truncation-penalty", tmp_path)


def test_superposition_first_order_and_tube_margins(tmp_path):
    _bundled_check_passes("superposition", "line-superposition", tmp_path)


def test_every_check_in_a_bundled_scenario():
    shipped = {entry["check"] for path in BUNDLED.values()
               for entry in cli.load_scenario(str(path))["checks"]}
    assert shipped == set(cli.CHECKS)
