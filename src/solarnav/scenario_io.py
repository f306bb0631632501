"""Scenario file loading/saving, validation and the named parameter presets."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict
from typing import Any, Callable, Dict, Optional

import yaml

from .control import AvoidanceParams, ControlLimits
from .energy import BatteryState, ConsumptionParams, EnergyModel, HarvestModel, \
    HarvestParams
from .grid import lattice_dims
from .privacy import default_t_max, dp_lattice_dims
from .simulate import MAX_SIM_STEPS, MovingObstacle, Scenario
from .world import Box, Environment, Prism, PrivacyRegion, SunModel, Vec3


class ParseError(Exception):
    """Scenario file could not be parsed; carries the offending line."""

    def __init__(self, line: Optional[int], message: str):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class ValidationError(Exception):
    """A parsed field violates a scenario invariant."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


def _mapping(raw: Any, where: str) -> Dict[str, Any]:
    if not isinstance(raw, dict):
        raise ValidationError(where, f"expected a mapping, got {raw!r}")
    return raw


def _list(raw: Any, where: str) -> list:
    if not isinstance(raw, (list, tuple)):
        raise ValidationError(where, f"expected a list, got {raw!r}")
    return list(raw)


def _real(raw: Any, where: str) -> float:
    """`raw` as a finite float."""
    try:
        value = float(raw)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: a huge int
        raise ValidationError(where, str(exc)) from exc
    if not math.isfinite(value):
        raise ValidationError(where, f"must be finite, got {raw!r}")
    return value


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


def _finite(section: Dict[str, Any], where: str, default: Any,
            positive: bool = False) -> float:
    """The field of `section` named by the last part of `where`, as a finite
    float that is positive, or else nonnegative."""
    raw = section.get(where.rpartition(".")[2], default)
    value = _real(raw, where)
    if not (value > 0 if positive else value >= 0):
        rule = "positive" if positive else "nonnegative"
        raise ValidationError(where, f"must be finite and {rule}, got {raw!r}")
    return value


def _optional(section: Dict[str, Any], where: str, positive: bool = False) -> Optional[float]:
    """Like `_finite`, but an absent or null field stays None."""
    if section.get(where.rpartition(".")[2]) is None:
        return None
    return _finite(section, where, None, positive)


def _build(cls, raw: Any, where: str, **converted):
    """`cls` from the mapping `raw`, each of whose fields must be a finite
    float, and from the fields already `converted`."""
    fields = {k: _real(v, f"{where}.{k}") for k, v in _mapping(raw, where).items()}
    try:
        return cls(**{**fields, **converted})
    except (TypeError, ValueError) as exc:
        raise ValidationError(where, str(exc)) from exc


def scenario_from_dict(data: Dict[str, Any]) -> Scenario:
    """Construct and validate a Scenario from its plain-dict form."""
    data = _mapping(data, "scenario")
    world = _mapping(data.get("world", {}), "world")
    bounds_raw = _mapping(world.get("bounds", {"min": [0, 0, 0], "max": [1000, 1000, 500]}),
                          "world.bounds")
    bounds = _build(Box, {}, "world.bounds",
                    lo=_vec(bounds_raw.get("min"), "world.bounds.min"),
                    hi=_vec(bounds_raw.get("max"), "world.bounds.max"))
    altitude = _mapping(world.get("altitude", {}), "world.altitude")
    z_min = _real(altitude.get("min", bounds.lo.z), "world.altitude.min")
    z_max = _real(altitude.get("max", bounds.hi.z), "world.altitude.max")

    prisms = []
    for i, p in enumerate(_list(world.get("prisms", []), "world.prisms")):
        where = f"world.prisms[{i}]"
        p = _mapping(p, where)
        exps = p.get("exponents", (1, 1, 1))
        prism = _build(
            Prism, {}, where,
            center=_vec(p.get("center"), where + ".center"),
            semi_axes=_reals(p.get("semi_axes", ()), where + ".semi_axes"),
            exponents=_reals(exps, where + ".exponents", _integer))
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
                                      f"got {exps[j]!r}") from None
        prisms.append(prism)

    regions = []
    for i, r in enumerate(_list(world.get("privacy_regions", []), "world.privacy_regions")):
        where = f"world.privacy_regions[{i}]"
        r = _mapping(r, where)
        regions.append(_build(
            PrivacyRegion, {}, where,
            center=_vec(r.get("center"), where + ".center"),
            c1=_finite(r, where + ".c1", 0.0), c2=_finite(r, where + ".c2", 0.0)))

    sun_raw = _mapping(world.get("sun", {}), "world.sun")
    sun_pos = _vec(sun_raw.get("position", [0, 0, 10000]), "world.sun.position")
    drift = _vec(sun_raw.get("drift", [0, 0, 0]), "world.sun.drift")
    if "azimuth" in sun_raw or "elevation" in sun_raw:
        sun = _build(SunModel, {}, "world.sun", position=sun_pos,
                     azimuth=_real(sun_raw.get("azimuth", 0.0), "world.sun.azimuth"),
                     elevation=_real(sun_raw.get("elevation", math.pi / 2),
                                     "world.sun.elevation"),
                     drift=drift)
    else:
        sun = SunModel.from_position(sun_pos, bounds.center(), drift)

    env = _build(Environment, {}, "world", bounds=bounds,
                 known_obstacles=tuple(prisms), privacy_regions=tuple(regions),
                 sun=sun, z_min=z_min, z_max=z_max)

    energy_raw = _mapping(data.get("energy", {}), "energy")
    consumption = _build(ConsumptionParams, energy_raw.get("consumption", {}),
                         "energy.consumption")
    harvest = _build(HarvestParams, energy_raw.get("harvest", {}), "energy.harvest")
    mode_name = energy_raw.get("model", "clear")
    try:
        mode = HarvestModel(mode_name)
    except ValueError as exc:
        raise ValidationError("energy.model", f"unknown model {mode_name!r}") from exc
    energy = EnergyModel(consumption, harvest, mode)

    battery_raw = _mapping(data.get("battery", {}), "battery")
    capacity = _finite(battery_raw, "battery.capacity", 670.0)
    battery = _build(BatteryState, {}, "battery", capacity=capacity,
                     energy=_finite(battery_raw, "battery.initial", capacity),
                     floor=_finite(battery_raw, "battery.floor", 50.0))

    limits = _build(ControlLimits, data.get("limits", {}), "limits")
    avoid_raw = dict(_mapping(data.get("avoidance", {}), "avoidance"))
    for key in ("alpha_safe", "threshold", "align_tolerance"):
        deg = avoid_raw.pop(key + "_deg", None)
        if deg is not None:
            avoid_raw[key] = math.radians(_real(deg, f"avoidance.{key}_deg"))
    avoidance = _build(AvoidanceParams, avoid_raw, "avoidance")

    obstacles = []
    for i, o in enumerate(_list(data.get("unknown_obstacles", []), "unknown_obstacles")):
        where = f"unknown_obstacles[{i}]"
        o = _mapping(o, where)
        obstacles.append(_build(
            MovingObstacle, {}, where,
            center=_vec(o.get("center"), where + ".center"),
            radius=_finite(o, where + ".radius", 0.0),
            velocity=_vec(o.get("velocity", [0, 0, 0]), where + ".velocity")))

    mission = _mapping(data.get("mission", {}), "mission")
    grid_resolution = _finite(mission, "mission.grid_resolution", 20.0, positive=True)
    grid_margin = _finite(mission, "mission.grid_margin", 2.0)
    lookahead = _finite(mission, "mission.lookahead", 20.0, positive=True)
    sim_raw = _mapping(data.get("sim", {}), "sim")
    dt = _finite(sim_raw, "sim.dt", 0.05, positive=True)
    max_duration = _finite(sim_raw, "sim.max_duration", 200.0)
    if max_duration / dt > MAX_SIM_STEPS:
        raise ValidationError("sim.dt", f"{max_duration / dt:.6g} steps exceed the budget "
                                        f"of {MAX_SIM_STEPS}")
    privacy_raw = _mapping(data.get("privacy", {}), "privacy")
    m_layers = _integer(privacy_raw.get("m_layers", 12), "privacy.m_layers")
    t_max = _optional(privacy_raw, "privacy.t_max", positive=True)
    pitch = _optional(privacy_raw, "privacy.pitch", positive=True)
    try:
        sc = Scenario(
            env=env,
            start=_vec(mission.get("start"), "mission.start"),
            goal=_vec(mission.get("goal"), "mission.goal"),
            energy=energy,
            battery=battery,
            limits=limits,
            avoidance=avoidance,
            unknown_obstacles=tuple(obstacles),
            dt=dt,
            max_duration=max_duration,
            planner=str(mission.get("planner", "energy")),
            grid_resolution=grid_resolution,
            grid_margin=grid_margin,
            planar_z=(None if mission.get("planar_z") is None
                      else _real(mission["planar_z"], "mission.planar_z")),
            arrival_radius=_optional(sim_raw, "sim.arrival_radius"),
            lookahead=lookahead,
            name=str(data.get("name", "scenario")),
            privacy_m_layers=m_layers,
            privacy_t_max=t_max,
            privacy_pitch=pitch,
        )
    except (ValueError, OverflowError) as exc:  # OverflowError: a huge prism exponent
        raise ValidationError("scenario", str(exc)) from exc
    try:
        lattice_dims(env, grid_resolution, sc.planar_z)
    except (ValueError, OverflowError) as exc:  # OverflowError: an axis past float range
        raise ValidationError("mission.grid_resolution", str(exc)) from exc
    # The default lattice follows the mission length, so only the DP checks it.
    if t_max is not None or pitch is not None:
        horizon = t_max if t_max is not None else default_t_max(sc.start, sc.goal,
                                                                sc.limits.cruise)
        if horizon > 0:  # a start on the goal has no default horizon and no lattice
            try:
                dp_lattice_dims(env, sc.goal, m_layers, horizon, sc.limits.cruise, pitch,
                                sc.planar_z is not None)
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
                    "azimuth": env.sun.azimuth, "elevation": env.sun.elevation,
                    "drift": list(env.sun.drift.as_tuple())},
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
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        raise ParseError(mark.line + 1 if mark else None, str(exc)) from exc
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
