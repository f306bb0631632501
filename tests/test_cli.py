"""Scenario I/O and command-line behavior (exit codes, determinism)."""

from __future__ import annotations

from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from solarnav.cli import main
from solarnav.scenario_io import (ParseError, ValidationError, load_scenario,
                                  load_scenario_file, save_scenario,
                                  scenario_digest, scenario_from_dict, section4_preset)

MINIMAL = """
name: minimal
world:
  bounds: {min: [0, 0, 0], max: [200, 200, 120]}
mission:
  start: [20, 100, 60]
  goal: [180, 100, 60]
"""


def write(tmp_path: Path, text: str, name: str = "scenario.yaml") -> str:
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ------------------------------------------------------------------- loading

def test_minimal_file_gets_defaults(tmp_path):
    sc = load_scenario_file(write(tmp_path, MINIMAL))
    assert sc.name == "minimal"
    assert sc.dt == 0.05
    assert sc.battery.capacity == 670.0
    assert sc.energy.consumption.p_level == 30.0
    assert sc.limits.cruise == 12.0


def test_invalid_privacy_region_is_located(tmp_path):
    bad = MINIMAL + """
  privacy_regions: []
"""
    # c1 >= c2 must fail validation with the offending field named.
    doc = yaml.safe_load(MINIMAL)
    doc["world"]["privacy_regions"] = [{"center": [50, 50, 50], "c1": 40, "c2": 10}]
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert "privacy_regions[0]" in str(err.value)


def test_yaml_syntax_error_reports_line(tmp_path):
    path = write(tmp_path, "world: {bounds: [unclosed")
    with pytest.raises(ParseError) as err:
        load_scenario_file(path)
    assert err.value.line is not None


def test_roundtrip_preserves_digest(tmp_path):
    sc = load_scenario("section4")
    out = tmp_path / "rt.yaml"
    save_scenario(sc, str(out))
    again = load_scenario_file(str(out))
    assert scenario_digest(sc) == scenario_digest(again)


def test_presets_resolve_by_name():
    assert load_scenario("section4").name == "section4"
    assert load_scenario("section5").name == "section5"


def test_unknown_scenario_is_usage_error():
    result = CliRunner().invoke(main, ["plan", "-s", "no-such-thing"])
    assert result.exit_code == 2


# ----------------------------------------------------------------------- plan

def test_plan_shortest_empty_world_straight_csv(tmp_path):
    path = write(tmp_path, MINIMAL)
    out = tmp_path / "path.csv"
    result = CliRunner().invoke(main, ["plan", "-s", path, "-p", "shortest",
                                       "-o", str(out)])
    assert result.exit_code == 0, result.output
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "t,x,y,z,theta,v,u,battery,shadow,mode,min_dist"
    ys = [float(r.split(",")[2]) for r in rows[1:]]
    assert all(y == 100.0 for y in ys)


def test_plan_unknown_planner_usage_error(tmp_path):
    path = write(tmp_path, MINIMAL)
    result = CliRunner().invoke(main, ["plan", "-s", path, "-p", "warp"])
    assert result.exit_code == 2


@pytest.mark.parametrize("field, value", [
    ("mission.grid_resolution", 0), ("mission.grid_resolution", -5.0),
    ("mission.grid_resolution", float("nan")), ("mission.grid_margin", -1.0),
    ("mission.grid_margin", float("inf")), ("mission.grid_margin", float("nan")),
    ("mission.grid_resolution", 1e-310), ("mission.lookahead", float("nan")),
    ("sim.dt", float("nan")), ("sim.dt", 1e-6), ("sim.max_duration", float("inf")),
    ("battery.capacity", "abc"), ("world", []), ("world.prisms", [5]), ("sim", [])],
    ids=lambda v: v.removeprefix("mission.") if isinstance(v, str) else None)
def test_plan_rejects_bad_grid_parameters(tmp_path, field, value):
    """A malformed or over-budget field exits 2 and names its path."""
    doc = yaml.safe_load(MINIMAL)
    *sections, key = field.split(".")
    node = doc
    for name in sections:
        node = node.setdefault(name, {})
    node[key] = value
    path = write(tmp_path, yaml.safe_dump(doc))
    result = CliRunner().invoke(main, ["plan", "-s", path])
    assert result.exit_code == 2, result.output
    assert field in result.output


def test_oversized_lattice_rejected_before_any_grid(tmp_path, monkeypatch):
    """section4 at 1 cm would need 3e13 lattice nodes: the loader rejects it
    before any grid array is allocated."""
    def no_grid(*_args, **_kwargs):
        raise AssertionError("build_grid called")
    monkeypatch.setattr("solarnav.simulate.build_grid", no_grid)
    doc = section4_preset()
    doc["mission"]["grid_resolution"] = 0.01
    path = write(tmp_path, yaml.safe_dump(doc))
    result = CliRunner().invoke(main, ["plan", "-s", path])
    assert result.exit_code == 2, result.output
    assert "mission.grid_resolution" in result.output


def test_plan_failure_exits_one(tmp_path):
    doc = yaml.safe_load(MINIMAL)
    doc["world"]["prisms"] = [{"center": [100, 100, 60], "semi_axes": [30, 99, 59],
                               "exponents": [8, 8, 8]}]
    doc["mission"]["planar_z"] = 60.0
    path = write(tmp_path, yaml.safe_dump(doc))
    result = CliRunner().invoke(main, ["plan", "-s", path, "-p", "shortest"])
    assert result.exit_code == 1
    assert "planning failed" in result.output


def test_plan_privacy_planner(tmp_path):
    doc = yaml.safe_load(MINIMAL)
    doc["world"]["privacy_regions"] = [{"center": [100, 112, 60],
                                        "c1": 6.0, "c2": 35.0}]
    doc["mission"]["planar_z"] = 60.0
    doc["privacy"] = {"m_layers": 12, "t_max": 32.0}
    path = write(tmp_path, yaml.safe_dump(doc))
    out = tmp_path / "dp.csv"
    result = CliRunner().invoke(main, ["plan", "-s", path, "-p", "privacy",
                                       "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert "risk" in result.output
    assert out.read_text().startswith("t,x,y,z")


def test_plan_energy_cheaper_than_shortest_reports(tmp_path):
    runner = CliRunner()
    reports = {}
    for planner in ("energy", "shortest"):
        rep = tmp_path / f"{planner}.yaml"
        result = runner.invoke(main, ["plan", "-s", "section4", "-p", planner,
                                      "-r", str(rep)])
        assert result.exit_code == 0, result.output
        reports[planner] = yaml.safe_load(rep.read_text())
    assert (reports["energy"]["metrics"]["net_cost_J"]
            < reports["shortest"]["metrics"]["net_cost_J"])


# ------------------------------------------------------------------- simulate

def test_simulate_hybrid_writes_log_and_report(tmp_path):
    out = tmp_path / "log.csv"
    rep = tmp_path / "rep.yaml"
    result = CliRunner().invoke(main, ["simulate", "-s", "section5", "-m", "hybrid",
                                       "-o", str(out), "-r", str(rep)])
    assert result.exit_code == 0, result.output
    report = yaml.safe_load(rep.read_text())
    assert report["metrics"]["collision"] is False
    assert report["metrics"]["reached_goal"] is True
    first = out.read_text().split("\n", 1)[0]
    assert first == "t,x,y,z,theta,v,u,battery,shadow,mode,min_dist"


def test_simulate_collision_exits_one(tmp_path):
    doc = yaml.safe_load(MINIMAL)
    doc["mission"]["planar_z"] = 60.0
    doc["unknown_obstacles"] = [{"center": [100, 100, 60], "radius": 10.0,
                                 "velocity": [0, 0, 0]}]
    path = write(tmp_path, yaml.safe_dump(doc))
    result = CliRunner().invoke(main, ["simulate", "-s", path, "-m", "track-only"])
    assert result.exit_code == 1


# -------------------------------------------------------------------- compare

def test_compare_requires_two_planners():
    result = CliRunner().invoke(main, ["compare", "-s", "section4",
                                       "-p", "energy"])
    assert result.exit_code == 2


def test_compare_report_deterministic(tmp_path):
    out1 = tmp_path / "a.yaml"
    out2 = tmp_path / "b.yaml"
    runner = CliRunner()
    r1 = runner.invoke(main, ["compare", "-s", "section4",
                              "-p", "energy,time,shortest", "-o", str(out1)])
    r2 = runner.invoke(main, ["compare", "-s", "section4",
                              "-p", "energy,time,shortest", "-o", str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert r1.output == r2.output


def test_compare_partial_failure_records_error(tmp_path):
    doc = yaml.safe_load(MINIMAL)
    doc["battery"] = {"capacity": 30.0, "initial": 30.0, "floor": 29.0}
    path = write(tmp_path, yaml.safe_dump(doc))
    out = tmp_path / "cmp.yaml"
    result = CliRunner().invoke(main, ["compare", "-s", path,
                                       "-p", "energy,shortest", "-o", str(out)])
    report = yaml.safe_load(out.read_text())
    assert "error" in report["planners"]["energy"]
    assert "error" not in report["planners"]["shortest"]
    assert result.exit_code == 0  # one planner still succeeded
