"""Scenario I/O and command-line behavior (exit codes, determinism)."""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solarnav import MovingObstacle, Vec3, min_separation
from solarnav import cli, reporting, scenario_io
from solarnav.cli import main
from solarnav.reporting import contact_entry
from solarnav.scenario_io import (SPEC, ParseError, ValidationError, load_scenario,
                                  load_scenario_file, save_scenario, scenario_digest,
                                  scenario_from_dict, scenario_to_dict, section4_preset,
                                  section5_preset)

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


LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


@pytest.mark.skipif(len(LOADERS) < 2, reason="PyYAML was built without libyaml")
def test_libyaml_and_python_loaders_agree(tmp_path, monkeypatch):
    """The scenario loader parses with libyaml when PyYAML has it. Both
    loaders give the same Scenario for the saved presets and a hand-written
    file, and the same ParseError line for an unclosed flow sequence, also
    at the end of a text without a final newline (the message text may
    differ)."""
    paths = [write(tmp_path, MINIMAL)]
    for name in ("section4", "section5"):
        paths.append(str(tmp_path / f"{name}.yaml"))
        save_scenario(load_scenario(name), paths[-1])
    broken = [write(tmp_path, MINIMAL.replace("[180, 100, 60]", "[180, 100, 60\n  x: 1"),
                    "broken.yaml"),
              write(tmp_path, MINIMAL.rstrip().replace("[180, 100, 60]", "[180, 100, 60"),
                    "unended.yaml")]
    loaded, lines = [], []
    for loader in LOADERS:
        monkeypatch.setattr(scenario_io, "_YAML_LOADER", loader)
        loaded.append([scenario_to_dict(load_scenario_file(p)) for p in paths])
        lines.append([])
        for path in broken:
            with pytest.raises(ParseError) as err:
                load_scenario_file(path)
            lines[-1].append(err.value.line)
    assert loaded[0] == loaded[1]
    assert lines[0] == lines[1] == [8, 7]


DUMPERS = [yaml.SafeDumper] + ([yaml.CSafeDumper] if hasattr(yaml, "CSafeDumper") else [])


@pytest.mark.skipif(len(DUMPERS) < 2, reason="PyYAML was built without libyaml")
def test_libyaml_and_python_dumpers_agree(tmp_path, monkeypatch):
    """Reports are dumped with libyaml when PyYAML has it. Both dumpers give
    the same bytes for the preset plan, simulate and compare reports."""
    runs = [["plan", "-s", "section4", "-p", "privacy"],
            ["simulate", "-s", "section5", "-m", "hybrid"],
            ["compare", "-s", "section4", "-p", "energy,privacy"]]
    reports = []
    for dumper in DUMPERS:
        monkeypatch.setattr(reporting, "_YAML_DUMPER", dumper)
        reports.append([])
        for i, args in enumerate(runs):
            out = tmp_path / f"{dumper.__name__}-{i}.yaml"
            flag = "-o" if args[0] == "compare" else "-r"
            result = CliRunner().invoke(main, [*args, flag, str(out)])
            assert result.exit_code == 0, result.output
            assert out.read_text() == result.output
            reports[-1].append(out.read_bytes())
    assert reports[0] == reports[1]


def test_report_is_dumped_once(tmp_path, monkeypatch):
    """`plan -r` dumps its report once, for the file and the echo."""
    calls = []
    dump = cli.report_text
    monkeypatch.setattr(cli, "report_text", lambda data: calls.append(data) or dump(data))
    out = tmp_path / "plan.yaml"
    result = CliRunner().invoke(main, ["plan", "-s", "section4", "-p", "privacy",
                                       "-r", str(out)])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1 and out.read_text() == result.output


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -0.0, 5e-324,
                                   np.float64(1.0 / 3.0), 7, True])
@pytest.mark.parametrize("shadow", [False, True])
def test_csv_row_formats_each_number_as_before(value, shadow):
    """One format string per CSV row gives the old per-field `format(float(x),
    ".9g")` text for each number, in each float column."""
    for column in range(9):
        nums = [0.5 * i for i in range(9)]
        nums[column] = value
        old = ",".join([*(format(float(x), ".9g") for x in nums[:8]),
                        "1" if shadow else "0", "plan", format(float(nums[8]), ".9g")])
        assert reporting._row(*nums[:8], shadow, "plan", nums[8]) == old


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
    ("battery.capacity", "abc"), ("world", []), ("world.prisms", [5]), ("sim", []),
    ("world.prisms", 5), ("world.privacy_regions", 5), ("unknown_obstacles", 5),
    ("mission.planar_z", float("nan")), ("sim.arrival_radius", float("inf")),
    ("world.altitude.min", "abc"),
    ("privacy.m_layers", 0), ("privacy.m_layers", 2.7), ("privacy.m_layers", None),
    ("privacy.t_max", float("nan")), ("privacy.t_max", 0), ("privacy.pitch", float("nan")),
    ("privacy.pitch", 0), ("privacy.pitch", 1e-300),
    ("world.sun.azimuth", "abc"), ("world.sun.elevation", None),
    ("world.sun.azimuth", float("nan")), ("avoidance.alpha_safe_deg", "abc"),
    ("avoidance.threshold_deg", []), ("avoidance.threshold_deg", float("nan")),
    ("limits.u_max", float("nan")), ("limits.u_max", float("inf")),
    ("limits.v_max", float("inf")), ("energy.harvest.g", float("inf")),
    ("energy.consumption.v", float("nan")),
    ("world.prisms", [{"center": [100, 40, 60], "semi_axes": [20, 20, 60],
                       "exponents": [4, 1e308, 4]}]),
    ("world.prisms", [{"center": [100, 40, 60], "semi_axes": [20, 20, 60],
                       "exponents": [4, 200, 4]}]),
    ("world.bounds.max", [200, 10 ** 400, 120]), ("world.sun.position", [10 ** 400, 0, 9000]),
    ("energy.harvest.delta_c", 0), ("energy.harvest.eta", 2), ("energy.harvest.beta_c", -1),
    ("limits.u_max", 0), ("avoidance.r_sensor", -1), ("mission.planner", "warp"),
    ("avoidance.alpha_safe_deg", 95)],
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


@pytest.mark.parametrize("field, value, rule", [
    ("avoidance.alpha_safe_deg", 95, "must lie in (0, 90) degrees, got 95"),
    ("avoidance.alpha_safe_deg", 0, "must lie in (0, 90) degrees, got 0"),
    ("avoidance.alpha_safe", 2, "must lie in (0, pi/2)")])
def test_angle_bound_is_stated_in_the_unit_given(tmp_path, field, value, rule):
    """The degree alias states its bound in degrees, the radian field in
    radians."""
    doc = yaml.safe_load(MINIMAL)
    doc["avoidance"] = {field.split(".")[1]: value}
    result = CliRunner().invoke(main, ["plan", "-s", write(tmp_path, yaml.safe_dump(doc))])
    assert result.exit_code == 2, result.output
    assert f"{field}: {rule}" in result.output


@pytest.mark.parametrize("field, value", [
    ("world.privacy_regions[0].c2", float("inf")), ("world.privacy_regions[0].c1", "abc"),
    ("world.privacy_regions[0].c1", float("nan")), ("world.prisms[0].semi_axes", 5),
    ("world.prisms[0].semi_axes", [float("nan"), 28, 90]),
    ("world.prisms[0].exponents", [2.5, 2, 2]), ("unknown_obstacles[0].radius", "abc"),
    ("world.prisms[0].semi_axes", [20]), ("world.prisms[0].semi_axes", [20, 20, 60, 5]),
    ("world.prisms[0].exponents", [4, 4]), ("world.prisms[0].center", [100, 10 ** 400, 60])])
def test_plan_rejects_bad_list_entries(tmp_path, field, value):
    """A malformed field of a prism, privacy region or obstacle exits 2 and
    names its path, index included."""
    doc = yaml.safe_load(MINIMAL)
    doc["world"]["prisms"] = [{"center": [100, 40, 60], "semi_axes": [20, 20, 60]}]
    doc["world"]["privacy_regions"] = [{"center": [100, 160, 60], "c1": 5, "c2": 30}]
    doc["unknown_obstacles"] = [{"center": [100, 100, 60], "radius": 5}]
    section, rest = field.split("[0].")
    node = doc
    for name in section.split("."):
        node = node[name]
    node[0][rest] = value
    path = write(tmp_path, yaml.safe_dump(doc))
    result = CliRunner().invoke(main, ["plan", "-s", path])
    assert result.exit_code == 2, result.output
    assert field in result.output


@pytest.mark.parametrize("preset, index, exponents, field, given", [
    (section4_preset, 1, [4, 1e308, 4], "world.prisms[1].exponents[1]", "1e+308"),
    (section5_preset, 0, [200, 200, 200], "world.prisms[0].exponents[0]", "200"),
    (section4_preset, 1, [4, 200, 4], "world.prisms[1].exponents[1]", "200")],
    ids=("section4-1e308", "section5-200", "section4-200"))
def test_prism_exponent_overflow_is_named(tmp_path, preset, index, exponents, field, given):
    """An exponent whose gamma term overflows on the bounds face farthest from
    the prism center exits 2 and names the exponent and its value."""
    doc = preset()
    doc["world"]["prisms"][index]["exponents"] = exponents
    result = CliRunner().invoke(main, ["plan", "-s", write(tmp_path, yaml.safe_dump(doc))])
    assert result.exit_code == 2, result.output
    assert f"{field}: overflows gamma within the world bounds, got {given}" in result.output


def test_altitude_model_rejects_a_nonpositive_scale_height(tmp_path):
    """delta_c <= 0 exits 2 at load instead of failing the altitude-model plan."""
    doc = yaml.safe_load(MINIMAL)
    doc["energy"] = {"model": "altitude", "harvest": {"delta_c": 0}}
    result = CliRunner().invoke(main, ["plan", "-s", write(tmp_path, yaml.safe_dump(doc))])
    assert result.exit_code == 2, result.output
    assert "energy.harvest.delta_c: must be positive" in result.output


def _with_optional_fields(doc):
    doc["world"]["sun"].update(azimuth=1.2, elevation=0.9)
    doc["energy"]["harvest"]["delta_c"] = 8000.0
    doc["sim"]["arrival_radius"] = 15.0
    doc["privacy"] = {"m_layers": 12, "t_max": 60.0, "pitch": 20.0}
    doc.setdefault("avoidance", {})["align_tolerance_deg"] = 5.0
    return doc


def _leaves(node, path=()):
    """Paths to every scalar of a nested mapping and its lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,)


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for value in node:
            yield from _numbers(value)
    elif isinstance(node, (int, float)):
        yield node


PRESET_DOCS = {"section4": lambda: _with_optional_fields(section4_preset()),
               "section5": lambda: _with_optional_fields(section5_preset())}
PRESET_LEAVES = [(name, path) for name, doc in PRESET_DOCS.items() for path in _leaves(doc())]
# Every list of numbers (vectors, semi_axes, exponents) as one node.
PRESET_LISTS = list(dict.fromkeys((name, path[:-1]) for name, path in PRESET_LEAVES
                                  if isinstance(path[-1], int)))


@settings(max_examples=400, deadline=None)
@given(leaf=st.sampled_from(PRESET_LEAVES + PRESET_LISTS),
       value=st.sampled_from([float("nan"), float("inf"), -float("inf"), "abc", None, [], {},
                              -1, 0, 1e308, 10 ** 400, [1], [1, 2], [1, 2, 3, 4]]))
@example(leaf=("section5", ("avoidance", "threshold_deg")), value=float("nan"))
@example(leaf=("section5", ("limits", "u_max")), value=float("inf"))
@example(leaf=("section4", ("energy", "harvest", "g")), value=float("inf"))
@example(leaf=("section4", ("energy", "consumption", "v")), value=float("nan"))
@example(leaf=("section4", ("world", "sun", "azimuth")), value=float("nan"))
@example(leaf=("section4", ("world", "prisms", 0, "exponents", 1)), value=1e308)
@example(leaf=("section4", ("privacy", "m_layers")), value=1e308)
@example(leaf=("section5", ("sim", "arrival_radius")), value=-1)
@example(leaf=("section4", ("world", "bounds", "max", 1)), value=10 ** 400)
@example(leaf=("section5", ("world", "prisms", 0, "semi_axes")), value=[1])
def test_loader_rejects_or_keeps_every_number_finite(leaf, value):
    """One leaf or list of numbers of a preset set to a bad value: the loader
    raises ParseError or ValidationError, or returns a scenario whose numbers
    are all finite."""
    name, path = leaf
    doc = PRESET_DOCS[name]()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        sc = scenario_from_dict(doc)
    except (ParseError, ValidationError):
        return
    assert all(math.isfinite(x) for x in _numbers(scenario_to_dict(sc)))


def _mappings(node, path=()):
    """Every mapping of a nested document, with its path."""
    if isinstance(node, dict):
        yield path, node
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        if isinstance(value, (dict, list)):
            yield from _mappings(value, path + (key,))


def _dotted(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _swapped(key):
    """`key` with the first two distinct adjacent letters from its middle swapped."""
    for i in sorted(range(1, len(key)), key=lambda i: abs(i - len(key) // 2)):
        if key[i - 1] != key[i]:
            return key[:i - 1] + key[i] + key[i - 1] + key[i + 1:]


MISSPELT = [("section4", ("mission",), "grid_resolutoin", "grid_resolution"),
            ("section4", ("sim",), "dtt", "dt"),
            ("section4", ("privacy",), "m_layer", "m_layers"),
            ("section4", ("world",), "prism", "prisms"),
            ("section4", ("battery",), "capacty", "capacity"),
            ("section4", (), "missoin", "mission"),
            ("section4", ("world", "prisms", 0), "exponent", "exponents"),
            ("section4", ("world", "sun"), "positon", "position")]
# One misspelt copy of the longest key of every mapping of both presets.
MISSPELT += [(name, path, _swapped(key), key) for name, doc in PRESET_DOCS.items()
             for path, node in _mappings(doc()) for key in [max(node, key=len)]]


@pytest.mark.parametrize("name, path, bad, key", MISSPELT,
                         ids=[f"{n}:{_dotted(p + (b,))}" for n, p, b, _ in MISSPELT])
def test_misspelt_key_is_named_with_the_closest_known_key(tmp_path, name, path, bad, key):
    """A key outside the loader's spec exits 2 at its full path and suggests
    the key it misspells."""
    doc = PRESET_DOCS[name]()
    node = doc
    for k in path:
        node = node[k]
    node[bad] = node.get(key, 1.0)
    result = CliRunner().invoke(main, ["plan", "-s", write(tmp_path, yaml.safe_dump(doc))])
    assert result.exit_code == 2, result.output
    assert f"{_dotted(path + (bad,))}: unknown key; did you mean {key!r}?" in result.output


def test_sun_drift_is_an_unknown_key(tmp_path):
    """The sun stands still: a drift is rejected at its path, not ignored."""
    doc = PRESET_DOCS["section5"]()
    doc["world"]["sun"]["drift"] = [1.0, 0.0, 0.0]
    result = CliRunner().invoke(main, ["plan", "-s", write(tmp_path, yaml.safe_dump(doc))])
    assert result.exit_code == 2, result.output
    assert "world.sun.drift: unknown key" in result.output


_KEYS = st.sampled_from(sorted({k for _, doc in PRESET_DOCS.items()
                                for _, node in _mappings(doc()) for k in node}))
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
            | st.sampled_from(["energy", "clear", "altitude"]))
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                       | st.dictionaries(_KEYS | _SCALARS, inner, max_size=4), max_leaves=12)
PRESET_NODES = [(name, path) for name, doc in PRESET_DOCS.items()
                for path in [()] + [p[:i] for p in _leaves(doc()) for i in range(1, len(p) + 1)]]


def _merge(node, value):
    """`value` merged into `node`: mappings key by key, anything else replaced."""
    if not (isinstance(node, dict) and isinstance(value, dict)):
        return value
    return {**node, **{k: _merge(node[k], v) if k in node else v for k, v in value.items()}}


@settings(max_examples=300, deadline=None)
@given(node=st.sampled_from(PRESET_NODES), value=_VALUES)
@example(node=("section4", ()),  # the sun's direction from the bounds center overflows
         value={"world": {"prisms": [], "bounds": {"max": [1.7e308, 1.7e308, 1.7e308]},
                          "sun": {"position": [-1.7e308, 0, 1e300]}}})
def test_loader_takes_any_nested_value_or_raises_a_scenario_error(node, value):
    """An arbitrary mapping, list or scalar merged into a preset at any path:
    the loader raises ParseError or ValidationError, or returns a Scenario
    whose saved form keeps every key given, the degree aliases aside."""
    name, path = node
    doc = PRESET_DOCS[name]()
    if not path:
        doc = _merge(doc, value)
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = _merge(parent[path[-1]], value)
    try:
        sc = scenario_from_dict(doc)
    except (ParseError, ValidationError):
        return
    saved = {path + (k,) for path, node in _mappings(scenario_to_dict(sc)) for k in node}
    assert {path + (k,) for path, node in _mappings(doc) for k in node
            if not str(k).endswith("_deg")} <= saved


def test_saved_keys_are_the_keys_the_loader_reads():
    """scenario_to_dict writes every key of the loader's spec, the degree
    aliases aside, and no other, at every level of both presets."""
    def walk(node, spec, where):
        assert set(node) == {k for k in spec if not k.endswith("_deg")}, where
        for key, value in node.items():
            reader = spec[key][0]
            if isinstance(reader, dict):
                walk(value, reader, f"{where}.{key}")
            elif isinstance(reader, list):
                assert value, f"{where}.{key} is empty, so its items go unchecked"
                for i, item in enumerate(value):
                    walk(item, reader[0], f"{where}.{key}[{i}]")
    for name, make in PRESET_DOCS.items():
        doc = make()
        doc["world"]["privacy_regions"] = [{"center": [100, 60, 100], "c1": 5, "c2": 30}]
        doc.setdefault("unknown_obstacles", [{"center": [100, 60, 100], "radius": 5}])
        walk(scenario_to_dict(scenario_from_dict(doc)), SPEC, name)


def test_readme_scenario_example_loads():
    """The YAML example under README's "Scenario files" uses only keys the
    loader knows."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("### Scenario files", 1)[1].split("```yaml\n", 1)[1]
    sc = scenario_from_dict(yaml.safe_load(example.split("```", 1)[0]))
    assert sc.name == "demo" and len(sc.env.known_obstacles) == 1


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


def test_dp_budget_is_checked_where_the_dp_runs(tmp_path, monkeypatch):
    """A 50 m section4 mission with 40 layers has a default DP lattice far
    over the state budget. Commands without the DP load and run it; the
    privacy planner exits 2 naming privacy.pitch before testing any node. An
    explicit pitch is checked at load."""
    doc = section4_preset()
    doc["mission"]["goal"] = [90, 180, 40]
    doc["privacy"] = {"m_layers": 40}
    path = write(tmp_path, yaml.safe_dump(doc))
    for args in (["simulate"], ["plan", "-p", "energy"], ["compare", "-p", "energy,time"]):
        result = CliRunner().invoke(main, args + ["-s", path])
        assert result.exit_code == 0, result.output
    monkeypatch.setattr("solarnav.privacy.clear_of_prisms",
                        lambda *_args: pytest.fail("node tested"))
    for args in (["plan", "-p", "privacy"], ["compare", "-p", "energy,privacy"]):
        result = CliRunner().invoke(main, args + ["-s", path])
        assert result.exit_code == 2, result.output
        assert "privacy.pitch" in result.output and "budget" in result.output
    doc["privacy"]["pitch"] = 1.0
    result = CliRunner().invoke(main, ["plan", "-s", write(tmp_path, yaml.safe_dump(doc))])
    assert result.exit_code == 2, result.output
    assert "privacy.pitch" in result.output and "budget" in result.output


def test_plan_failure_exits_one(tmp_path):
    doc = yaml.safe_load(MINIMAL)
    doc["world"]["prisms"] = [{"center": [100, 100, 60], "semi_axes": [30, 99, 59],
                               "exponents": [8, 8, 8]}]
    doc["mission"]["planar_z"] = 60.0
    path = write(tmp_path, yaml.safe_dump(doc))
    result = CliRunner().invoke(main, ["plan", "-s", path, "-p", "shortest"])
    assert result.exit_code == 1
    assert "planning failed" in result.output


def private_city(tmp_path) -> str:
    """MINIMAL, planar at 60 m, with a tower and a privacy region beside the
    straight line."""
    doc = yaml.safe_load(MINIMAL)
    doc["world"]["prisms"] = [{"center": [100, 65, 60], "semi_axes": [20, 20, 60],
                               "exponents": [4, 4, 4]}]
    doc["world"]["privacy_regions"] = [{"center": [100, 112, 60], "c1": 6.0, "c2": 35.0}]
    doc["mission"]["planar_z"] = 60.0
    doc["privacy"] = {"m_layers": 12, "t_max": 32.0}
    return write(tmp_path, yaml.safe_dump(doc))


def test_compare_row_equals_plan_metrics(tmp_path):
    """Each planner's compare row is its `plan` metrics, privacy included."""
    path = private_city(tmp_path)
    names = ["energy", "time", "shortest", "privacy"]
    runner = CliRunner()
    result = runner.invoke(main, ["compare", "-s", path, "-p", ",".join(names)])
    assert result.exit_code == 0, result.output
    rows = yaml.safe_load(result.output)["planners"]
    assert list(rows) == sorted(names) and not any("error" in r for r in rows.values())
    for name in names:
        result = runner.invoke(main, ["plan", "-s", path, "-p", name])
        assert result.exit_code == 0, result.output
        assert rows[name] == yaml.safe_load(result.output)["metrics"], name


def test_plan_flags_unknown_obstacle_contact(tmp_path):
    """section5's unknown spheres are hidden from the planners. The report
    flags a path with a waypoint inside one, where the CSV's `min_dist`
    goes negative (only the energy path does), and compare carries the flag."""
    names = ["energy", "time", "shortest", "privacy"]
    runner = CliRunner()
    result = runner.invoke(main, ["compare", "-s", "section5", "-p", ",".join(names)])
    assert result.exit_code == 0, result.output
    rows = yaml.safe_load(result.output)["planners"]
    for name in names:
        out = tmp_path / f"{name}.csv"
        result = runner.invoke(main, ["plan", "-s", "section5", "-p", name, "-o", str(out)])
        assert result.exit_code == 0, result.output
        flag = yaml.safe_load(result.output)["metrics"]["unknown_obstacle_contact"]
        min_dist = [float(row.split(",")[10]) for row in out.read_text().splitlines()[1:]]
        assert flag == any(d <= 0.0 for d in min_dist) == (name == "energy"), name
        assert rows[name]["unknown_obstacle_contact"] == flag, name


def test_contact_places_spheres_at_the_waypoint_time():
    """A waypoint on the surface of a moving sphere counts only at the time
    the sphere is there; a scenario without spheres gets no entry."""
    sc = load_scenario("section4")
    assert contact_entry(sc, [(0.0, sc.start)]) == {}
    sphere = MovingObstacle(Vec3(100.0, 180.0, 40.0), 5.0, Vec3(2.0, 0.0, 0.0))
    sc = dataclasses.replace(sc, unknown_obstacles=(sphere,))
    surface = Vec3(115.0, 180.0, 40.0)
    assert contact_entry(sc, [(5.0, surface)]) == {"unknown_obstacle_contact": True}
    assert contact_entry(sc, [(0.0, surface), (4.0, surface)]) == \
        {"unknown_obstacle_contact": False}


def test_plan_privacy_planner(tmp_path):
    """The DP's CSV holds the initial charge, as a plan without a battery
    profile does, and each waypoint's clearance, as a plan CSV does."""
    path = private_city(tmp_path)
    out = tmp_path / "dp.csv"
    result = CliRunner().invoke(main, ["plan", "-s", path, "-p", "privacy",
                                       "-o", str(out)])
    assert result.exit_code == 0, result.output
    assert "risk" in result.output
    sc = load_scenario_file(path)
    header, *rows = out.read_text().splitlines()
    assert header == "t,x,y,z,theta,v,u,battery,shadow,mode,min_dist"
    for row in rows:
        cells = row.split(",")
        battery, min_dist = float(cells[7]), float(cells[10])
        want = min_separation(sc.env, sc.unknown_obstacles, Vec3(*map(float, cells[1:4])))
        assert battery == sc.battery.energy
        assert 0.0 < min_dist < math.inf and min_dist == pytest.approx(want, rel=1e-8)


def test_plan_csv_places_the_spheres_at_each_row_time(tmp_path):
    """A plan CSV row's `min_dist` is measured with the unknown spheres moved
    to the row's `t`, the time its `shadow` column is taken at."""
    out = tmp_path / "plan.csv"
    result = CliRunner().invoke(main, ["plan", "-s", "section5", "-p", "energy",
                                       "-o", str(out)])
    assert result.exit_code == 0, result.output
    sc = load_scenario("section5")
    assert any(o.speed > 0 for o in sc.unknown_obstacles)
    _, *rows = out.read_text().splitlines()
    for row in rows:
        cells = row.split(",")
        t, min_dist = float(cells[0]), float(cells[10])
        want = min_separation(sc.env, [o.at(t) for o in sc.unknown_obstacles],
                              Vec3(*map(float, cells[1:4])))
        assert min_dist == pytest.approx(want, abs=1e-5), row


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


@pytest.mark.parametrize("planners", ["energy,energy", "privacy,time,privacy"])
def test_compare_rejects_repeated_planner(planners):
    result = CliRunner().invoke(main, ["compare", "-s", "section4", "-p", planners])
    assert result.exit_code == 2
    repeated = planners.split(",")[0]
    assert f"planner {repeated!r} is named twice" in result.output


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


def test_reports_flag_a_battery_profile_below_the_floor(tmp_path):
    """section4's shortest path ignores energy and ends near -173 J, under
    the 50 J floor; the energy and time plans respect it."""
    runner = CliRunner()
    out = tmp_path / "cmp.yaml"
    result = runner.invoke(main, ["compare", "-s", "section4", "-o", str(out)])
    assert result.exit_code == 0, result.output
    rows = yaml.safe_load(out.read_text())["planners"]
    assert {n: row["battery_feasible"] for n, row in rows.items()} == \
        {"energy": True, "time": True, "shortest": False}
    assert rows["shortest"]["final_battery_J"] < 50.0 <= rows["time"]["final_battery_J"]
    result = runner.invoke(main, ["plan", "-s", "section4", "-p", "shortest"])
    assert result.exit_code == 0, result.output
    assert yaml.safe_load(result.output)["metrics"]["battery_feasible"] is False


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
