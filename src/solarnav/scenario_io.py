"""Scenario file loading/saving, validation and the named parameter presets."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, fields
from functools import partial
from typing import Any, Callable, Dict, Optional

import yaml

from .control import AvoidanceParams, ControlLimits
from .energy import BatteryState, ConsumptionParams, EnergyModel, HarvestModel, \
    HarvestParams
from .grid import lattice_dims
from .privacy import dp_lattice_dims
from .simulate import MAX_SIM_STEPS, PLANNER_NAMES, MovingObstacle, Scenario
from .world import Box, Environment, Prism, PrivacyRegion, SunModel, ValidationError, Vec3


# libyaml's parser when PyYAML was built with it: the constructor and the
# resolver are the pure-Python loader's, so the documents load the same.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ParseError(Exception):
    """Scenario file could not be parsed; carries the offending line."""

    def __init__(self, line: Optional[int], message: str):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def _real(raw: Any, where: str) -> float:
    """`raw` as a finite float."""
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: a huge int
        raise ValidationError(where, str(exc)) from exc
    if not math.isfinite(value):
        raise ValidationError(where, f"must be finite, got {raw!r}")
    return value


def _nonnegative(raw: Any, where: str, positive: bool = False) -> float:
    """`raw` as a finite float that is positive, or else nonnegative."""
    value = _real(raw, where)
    if not (value > 0 if positive else value >= 0):
        rule = "positive" if positive else "nonnegative"
        raise ValidationError(where, f"must be finite and {rule}, got {raw!r}")
    return value


_positive = partial(_nonnegative, positive=True)


def _integer(raw: Any, where: str) -> int:
    """`raw` as an integer of at least 1."""
    value = _real(raw, where)
    if not (value.is_integer() and value >= 1):
        raise ValidationError(where, f"must be an integer >= 1, got {raw!r}")
    return int(value)


def _reals(raw: Any, where: str, convert: Callable[[Any, str], Any] = _real) -> tuple:
    """`raw` as three items, item j converted by `convert` under `where[j]`."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ValidationError(where, f"expected a list of 3 numbers, got {raw!r}")
    return tuple(convert(v, f"{where}[{j}]") for j, v in enumerate(raw))


def _vec(raw: Any, where: str) -> Vec3:
    return Vec3(*_reals(raw, where))


def _text(raw: Any, where: str) -> str:
    if isinstance(raw, (dict, list, tuple)):  # its keys or items would go unread
        raise ValidationError(where, f"expected a scalar, got {raw!r}")
    return str(raw)


def _closest(name: str, known) -> str:
    """A hint naming the item of `known` closest to `name`, or ''."""
    from difflib import get_close_matches  # here, off the import-time path
    close = get_close_matches(name, list(known), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _planner(raw: Any, where: str) -> str:
    """`raw` as one of the planner names the CLI and the simulator accept."""
    name = _text(raw, where)
    if name not in PLANNER_NAMES:
        raise ValidationError(where, f"unknown planner {name!r}" + _closest(name, PLANNER_NAMES))
    return name


def _optional(convert: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    """`convert` that reads null as None."""
    return lambda raw, where: None if raw is None else convert(raw, where)


def _fields(cls) -> Dict[str, tuple]:
    """The spec of a dataclass section: every field a finite float."""
    return {f.name: (_real, f.default) for f in fields(cls)}


def _degrees(raw: Any, where: str, below: Optional[float] = None) -> float:
    """`raw` degrees as radians; with `below`, they must lie in (0, below)."""
    value = math.radians(_real(raw, where))
    if below is not None and not 0 < value < math.radians(below):
        raise ValidationError(where, f"must lie in (0, {below:g}) degrees, got {raw!r}")
    return value


# Fields also given in degrees as `<name>_deg`: {field: the upper end of the
# open degree range its dataclass check allows, or None without a check}.
_DEGREES = {"alpha_safe": 90.0, "threshold": None, "align_tolerance": None}
_ORIGIN = [0, 0, 0]

# Each mapping's keys as {key: (reader, default)}. A reader is a converter
# `(raw, path) -> value`, a nested spec, or a one-item list holding the spec
# every item of a list shares. A default of None leaves an absent key None;
# a default of () fails its reader, so the key is required.
SPEC = {
    "name": (_text, "scenario"),
    "world": ({
        "bounds": ({"min": (_vec, ()), "max": (_vec, ())},
                   {"min": _ORIGIN, "max": [1000, 1000, 500]}),
        "altitude": ({"min": (_real, None), "max": (_real, None)}, {}),  # absent: bounds z
        "prisms": ([{"center": (_vec, ()), "semi_axes": (_reals, ()),
                     "exponents": (partial(_reals, convert=_integer), [1, 1, 1])}], []),
        "privacy_regions": ([{"center": (_vec, ()), "c1": (_nonnegative, 0.0),
                              "c2": (_nonnegative, 0.0)}], []),
        # Either angle given replaces both derived from the position; an
        # absent one then takes SunModel's default.
        "sun": ({"position": (_vec, [0, 0, 10000]), "azimuth": (_real, None),
                 "elevation": (_real, None)}, {}),
    }, {}),
    "energy": ({"model": (_text, "clear"),
                "consumption": (_fields(ConsumptionParams), {}),
                "harvest": (_fields(HarvestParams), {})}, {}),
    "battery": ({"capacity": (_nonnegative, 670.0), "initial": (_nonnegative, None),
                 "floor": (_nonnegative, 50.0)}, {}),
    "limits": (_fields(ControlLimits), {}),
    "avoidance": ({**_fields(AvoidanceParams), **{
        key + "_deg": (_optional(partial(_degrees, below=below)), None)
        for key, below in _DEGREES.items()}}, {}),
    "unknown_obstacles": ([{"center": (_vec, ()), "radius": (_nonnegative, 0.0),
                            "velocity": (_vec, _ORIGIN)}], []),
    "mission": ({"start": (_vec, ()), "goal": (_vec, ()), "planner": (_planner, "energy"),
                 "grid_resolution": (_positive, 20.0), "grid_margin": (_nonnegative, 2.0),
                 "planar_z": (_optional(_real), None), "lookahead": (_positive, 20.0)}, {}),
    "sim": ({"dt": (_positive, 0.05), "max_duration": (_nonnegative, 200.0),
             "arrival_radius": (_optional(_nonnegative), None)}, {}),
    "privacy": ({"m_layers": (_integer, 12), "t_max": (_optional(_positive), None),
                 "pitch": (_optional(_positive), None)}, {}),
}


def _section(raw: Any, where: str, spec: Dict[str, tuple]) -> Dict[str, Any]:
    """The mapping `raw` at path `where` read through `spec`: each key's value,
    or its default when absent, through its reader. A key outside the spec
    raises ValidationError at its path, naming the closest known key."""
    if not isinstance(raw, dict):
        raise ValidationError(where or "scenario", f"expected a mapping, got {raw!r}")
    prefix = f"{where}." if where else ""
    for key in raw:
        if key not in spec:
            raise ValidationError(f"{prefix}{key}", "unknown key" + _closest(str(key), spec))
    out = {}
    for key, (reader, default) in spec.items():
        path, value = prefix + key, raw.get(key, default)
        if key not in raw and default is None:
            out[key] = None
        elif isinstance(reader, dict):
            out[key] = _section(value, path, reader)
        elif isinstance(reader, list):
            if not isinstance(value, (list, tuple)):
                raise ValidationError(path, f"expected a list, got {value!r}")
            out[key] = [_section(item, f"{path}[{i}]", reader[0])
                        for i, item in enumerate(value)]
        else:
            out[key] = reader(value, path)
    return out


def _build(cls, where: str, **kwargs):
    """`cls(**kwargs)`, its errors at `where`, or at the field they name."""
    try:
        return cls(**kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{where}.{exc.field}", exc.reason) from exc
    except (ValueError, OverflowError) as exc:  # OverflowError: a huge prism exponent
        raise ValidationError(where, str(exc)) from exc


def scenario_from_dict(data: Dict[str, Any]) -> Scenario:
    """Construct and validate a Scenario from its plain-dict form."""
    doc = _section(data, "", SPEC)
    world = doc["world"]
    bounds = _build(Box, "world.bounds", lo=world["bounds"]["min"],
                    hi=world["bounds"]["max"])
    prisms = []
    for i, p in enumerate(world["prisms"]):
        where = f"world.prisms[{i}]"
        prism = _build(Prism, where, **p)
        # Gamma's term on the bounds face farthest from the center is each
        # axis's largest inside the world: if it is finite, every level value is.
        for j, (c, lo, hi, a, e) in enumerate(zip(
                prism.center.as_tuple(), bounds.lo.as_tuple(), bounds.hi.as_tuple(),
                prism.semi_axes, prism.exponents)):
            try:
                ((max(c - lo, hi - c) / a) ** 2) ** e
            except OverflowError:
                raise ValidationError(f"{where}.exponents[{j}]",
                                      f"overflows gamma within the world bounds, "
                                      f"got {e:.6g}") from None
        prisms.append(prism)
    regions = [_build(PrivacyRegion, f"world.privacy_regions[{i}]", **r)
               for i, r in enumerate(world["privacy_regions"])]
    sun = world["sun"]
    angles = {k: v for k, v in sun.items() if k in ("azimuth", "elevation") and v is not None}
    make = SunModel if angles else partial(SunModel.from_position, reference=bounds.center())
    sun = _build(make, "world.sun", position=sun["position"], **angles)
    altitude = world["altitude"]
    env = _build(Environment, "world", bounds=bounds, known_obstacles=tuple(prisms),
                 privacy_regions=tuple(regions), sun=sun,
                 z_min=bounds.lo.z if altitude["min"] is None else altitude["min"],
                 z_max=bounds.hi.z if altitude["max"] is None else altitude["max"])

    energy = doc["energy"]
    energy = EnergyModel(_build(ConsumptionParams, "energy.consumption",
                                **energy["consumption"]),
                         _build(HarvestParams, "energy.harvest", **energy["harvest"]),
                         _build(HarvestModel, "energy.model", value=energy["model"]))
    battery = doc["battery"]
    initial = battery["capacity"] if battery["initial"] is None else battery["initial"]
    battery = _build(BatteryState, "battery", capacity=battery["capacity"], energy=initial,
                     floor=battery["floor"])
    avoidance = doc["avoidance"]
    aliases = {key: avoidance.pop(key + "_deg") for key in _DEGREES}
    avoidance.update({key: v for key, v in aliases.items() if v is not None})
    obstacles = [_build(MovingObstacle, f"unknown_obstacles[{i}]", **o)
                 for i, o in enumerate(doc["unknown_obstacles"])]

    mission, sim, privacy = doc["mission"], doc["sim"], doc["privacy"]
    if sim["max_duration"] / sim["dt"] > MAX_SIM_STEPS:
        raise ValidationError("sim.dt", f"{sim['max_duration'] / sim['dt']:.6g} steps exceed "
                                        f"the budget of {MAX_SIM_STEPS}")
    sc = _build(Scenario, "scenario", env=env, energy=energy, battery=battery,
                limits=_build(ControlLimits, "limits", **doc["limits"]),
                avoidance=_build(AvoidanceParams, "avoidance", **avoidance),
                unknown_obstacles=tuple(obstacles), dt=sim["dt"],
                max_duration=sim["max_duration"], arrival_radius=sim["arrival_radius"],
                name=doc["name"], privacy_m_layers=privacy["m_layers"],
                privacy_t_max=privacy["t_max"], privacy_pitch=privacy["pitch"], **mission)
    try:
        lattice_dims(env, sc.grid_resolution, sc.planar_z)
    except (ValueError, OverflowError) as exc:  # OverflowError: an axis past float range
        raise ValidationError("mission.grid_resolution", str(exc)) from exc
    # The default lattice follows the mission length, so only the DP checks it.
    # A start on the goal has no default horizon and no lattice.
    if (sc.privacy_t_max is not None or sc.privacy_pitch is not None) \
            and sc.privacy_horizon > 0:
        try:
            dp_lattice_dims(env, sc.goal, sc.privacy_m_layers, sc.privacy_horizon,
                            sc.limits.cruise, sc.privacy_pitch, sc.planar_z is not None)
        except ValueError as exc:
            raise ValidationError("privacy.pitch", str(exc)) from exc
    return sc


def scenario_to_dict(sc: Scenario) -> Dict[str, Any]:
    """Canonical plain-dict form; round-trips through scenario_from_dict."""
    env = sc.env
    return {
        "name": sc.name,
        "world": {
            "bounds": {"min": list(env.bounds.lo.as_tuple()),
                       "max": list(env.bounds.hi.as_tuple())},
            "altitude": {"min": env.z_min, "max": env.z_max},
            "prisms": [{"center": list(p.center.as_tuple()),
                        "semi_axes": list(p.semi_axes),
                        "exponents": list(p.exponents)}
                       for p in env.known_obstacles],
            "privacy_regions": [{"center": list(r.center.as_tuple()),
                                 "c1": r.c1, "c2": r.c2}
                                for r in env.privacy_regions],
            "sun": {"position": list(env.sun.position.as_tuple()),
                    "azimuth": env.sun.azimuth, "elevation": env.sun.elevation},
        },
        "energy": {
            "model": sc.energy.mode.value,
            "consumption": asdict(sc.energy.consumption),
            "harvest": asdict(sc.energy.harvest),
        },
        "battery": {"initial": sc.battery.energy, "capacity": sc.battery.capacity,
                    "floor": sc.battery.floor},
        "limits": asdict(sc.limits),
        "avoidance": asdict(sc.avoidance),
        "unknown_obstacles": [{"center": list(o.center.as_tuple()),
                               "radius": o.radius,
                               "velocity": list(o.velocity.as_tuple())}
                              for o in sc.unknown_obstacles],
        "mission": {"start": list(sc.start.as_tuple()), "goal": list(sc.goal.as_tuple()),
                    "planner": sc.planner, "grid_resolution": sc.grid_resolution,
                    "grid_margin": sc.grid_margin, "planar_z": sc.planar_z,
                    "lookahead": sc.lookahead},
        "sim": {"dt": sc.dt, "max_duration": sc.max_duration,
                "arrival_radius": sc.arrival_radius},
        "privacy": {"m_layers": sc.privacy_m_layers, "t_max": sc.privacy_t_max,
                    "pitch": sc.privacy_pitch},
    }


def scenario_digest(sc: Scenario) -> str:
    """Stable hash of the canonical scenario form, for reproducibility stamps."""
    blob = json.dumps(scenario_to_dict(sc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        # libyaml marks the end of a text without a final newline on the line
        # after its last; the pure-Python loader marks the last line.
        line = min(mark.line + 1, text.count("\n") + 1) if mark else None
        raise ParseError(line, str(exc)) from exc
    if data is None:
        data = {}
    return scenario_from_dict(data)


def save_scenario(sc: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario_to_dict(sc), fh, sort_keys=True)


def section4_preset() -> Dict[str, Any]:
    """Static 3D urban benchmark: 12 m/s cruise at 30 W, 22.8 W peak harvest,
    670 J battery with a 50 J floor, shaded direct corridor."""
    return {
        "name": "section4",
        "world": {
            "bounds": {"min": [0, 0, 0], "max": [560, 360, 220]},
            "altitude": {"min": 40, "max": 200},
            "prisms": [
                {"center": [280, 230, 90], "semi_axes": [130, 28, 90],
                 "exponents": [4, 4, 4]},
                {"center": [280, 150, 85], "semi_axes": [40, 20, 85],
                 "exponents": [4, 4, 4]},
            ],
            "sun": {"position": [250, 800, 1800]},
        },
        "energy": {
            "model": "clear",
            "consumption": {"p_level": 30.0, "p_up": 34.0, "p_down": 26.0,
                            "v": 12.0, "v_up": 3.0, "v_down": 3.0},
            "harvest": {"eta": 0.2, "g": 380.0, "s": 0.3},
        },
        "battery": {"capacity": 670.0, "initial": 670.0, "floor": 50.0},
        "limits": {"v_min": 0.0, "v_max": 20.0, "cruise": 12.0},
        "mission": {"start": [40, 180, 40], "goal": [520, 180, 40],
                    "planner": "energy", "grid_resolution": 20.0},
        "sim": {"dt": 0.05, "max_duration": 120.0},
    }


def section5_preset() -> Dict[str, Any]:
    """Dynamic planar scenario at a fixed 100 m altitude: 20 m/s top speed,
    20 m lookahead, 40 degree safe angle, 750 J battery, and one static plus
    two moving unknown spheres."""
    return {
        "name": "section5",
        "world": {
            "bounds": {"min": [0, 0, 0], "max": [500, 400, 220]},
            "altitude": {"min": 40, "max": 200},
            "prisms": [
                {"center": [160, 260, 100], "semi_axes": [40, 30, 100],
                 "exponents": [4, 4, 4]},
                {"center": [300, 260, 100], "semi_axes": [40, 30, 100],
                 "exponents": [4, 4, 4]},
                {"center": [120, 60, 75], "semi_axes": [35, 30, 75],
                 "exponents": [4, 4, 4]},
                {"center": [380, 60, 75], "semi_axes": [30, 30, 75],
                 "exponents": [4, 4, 4]},
            ],
            "sun": {"position": [250, 1100, 1800]},
        },
        "energy": {
            "model": "clear",
            "consumption": {"p_level": 30.0, "p_up": 34.0, "p_down": 26.0,
                            "v": 12.0, "v_up": 3.0, "v_down": 3.0},
            "harvest": {"eta": 0.2, "g": 380.0, "s": 0.3},
        },
        "battery": {"capacity": 750.0, "initial": 750.0, "floor": 20.0},
        "limits": {"v_min": 0.0, "v_max": 20.0, "cruise": 12.0,
                   "u_max": 2.0943951023931953},
        "avoidance": {"alpha_safe_deg": 40.0, "threshold_deg": 10.0,
                      "r_sensor": 50.0, "trigger_distance": 30.0},
        "unknown_obstacles": [
            {"center": [210, 180, 100], "radius": 12.0, "velocity": [0, 0, 0]},
            {"center": [330, 130, 100], "radius": 8.0, "velocity": [0, 1.5, 0]},
            {"center": [460, 80, 100], "radius": 8.0, "velocity": [-1.2, 1.3, 0]},
        ],
        "mission": {"start": [60, 200, 100], "goal": [420, 200, 100],
                    "planner": "energy", "grid_resolution": 20.0,
                    "planar_z": 100.0, "lookahead": 20.0},
        "sim": {"dt": 0.05, "max_duration": 120.0},
    }


PRESETS = {
    "section4": section4_preset,
    "section5": section5_preset,
}


def load_scenario(source: str) -> Scenario:
    """Resolve a preset name or a scenario file path into a Scenario."""
    if source in PRESETS:
        return scenario_from_dict(PRESETS[source]())
    return load_scenario_file(source)
