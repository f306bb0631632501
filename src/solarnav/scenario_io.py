"""Scenario file loading/saving, validation and the named parameter presets."""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, Optional

import yaml

from .control import AvoidanceParams, ControlLimits
from .energy import BatteryState, ConsumptionParams, EnergyModel, HarvestModel, \
    HarvestParams
from .grid import lattice_dims
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


def _vec(raw: Any, where: str) -> Vec3:
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ValidationError(where, f"expected [x, y, z], got {raw!r}")
    try:
        return Vec3(float(raw[0]), float(raw[1]), float(raw[2]))
    except (TypeError, ValueError) as exc:
        raise ValidationError(where, str(exc)) from exc


def _mapping(raw: Any, where: str) -> Dict[str, Any]:
    if not isinstance(raw, dict):
        raise ValidationError(where, f"expected a mapping, got {raw!r}")
    return raw


def _finite(section: Dict[str, Any], where: str, default: float,
            positive: bool = False) -> float:
    """The field of `section` named by the last part of `where`, as a finite
    float that is positive, or else nonnegative."""
    raw = section.get(where.rpartition(".")[2], default)
    try:
        value = float(raw)
    except (TypeError, ValueError) as exc:
        raise ValidationError(where, str(exc)) from exc
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        rule = "positive" if positive else "nonnegative"
        raise ValidationError(where, f"must be finite and {rule}, got {raw!r}")
    return value


def _build(cls, raw: Dict[str, Any], where: str, **converted):
    try:
        return cls(**{**raw, **converted})
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
    z_min = float(altitude.get("min", bounds.lo.z))
    z_max = float(altitude.get("max", bounds.hi.z))

    prisms = []
    for i, p in enumerate(world.get("prisms", [])):
        where = f"world.prisms[{i}]"
        p = _mapping(p, where)
        prisms.append(_build(
            Prism, {}, where,
            center=_vec(p.get("center"), where + ".center"),
            semi_axes=tuple(float(v) for v in p.get("semi_axes", ())),
            exponents=tuple(int(v) for v in p.get("exponents", (1, 1, 1)))))

    regions = []
    for i, r in enumerate(world.get("privacy_regions", [])):
        where = f"world.privacy_regions[{i}]"
        r = _mapping(r, where)
        regions.append(_build(
            PrivacyRegion, {}, where,
            center=_vec(r.get("center"), where + ".center"),
            c1=float(r.get("c1", 0.0)), c2=float(r.get("c2", 0.0))))

    sun_raw = _mapping(world.get("sun", {}), "world.sun")
    sun_pos = _vec(sun_raw.get("position", [0, 0, 10000]), "world.sun.position")
    drift = _vec(sun_raw.get("drift", [0, 0, 0]), "world.sun.drift")
    if "azimuth" in sun_raw or "elevation" in sun_raw:
        sun = _build(SunModel, {}, "world.sun", position=sun_pos,
                     azimuth=float(sun_raw.get("azimuth", 0.0)),
                     elevation=float(sun_raw.get("elevation", math.pi / 2)),
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
            avoid_raw[key] = math.radians(float(deg))
    avoidance = _build(AvoidanceParams, avoid_raw, "avoidance")

    obstacles = []
    for i, o in enumerate(data.get("unknown_obstacles", [])):
        where = f"unknown_obstacles[{i}]"
        o = _mapping(o, where)
        obstacles.append(_build(
            MovingObstacle, {}, where,
            center=_vec(o.get("center"), where + ".center"),
            radius=float(o.get("radius", 0.0)),
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
                      else float(mission["planar_z"])),
            arrival_radius=(None if sim_raw.get("arrival_radius") is None
                            else float(sim_raw["arrival_radius"])),
            lookahead=lookahead,
            name=str(data.get("name", "scenario")),
            privacy_m_layers=int(privacy_raw.get("m_layers", 12)),
            privacy_t_max=(None if privacy_raw.get("t_max") is None
                           else float(privacy_raw["t_max"])),
            privacy_pitch=(None if privacy_raw.get("pitch") is None
                           else float(privacy_raw["pitch"])),
        )
    except ValueError as exc:
        raise ValidationError("scenario", str(exc)) from exc
    try:
        lattice_dims(env, grid_resolution, sc.planar_z)
    except (ValueError, OverflowError) as exc:  # OverflowError: an axis past float range
        raise ValidationError("mission.grid_resolution", str(exc)) from exc
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
            "consumption": {k: getattr(sc.energy.consumption, k)
                            for k in ("p_level", "p_up", "p_down", "v", "v_up", "v_down")},
            "harvest": {k: getattr(sc.energy.harvest, k)
                        for k in ("eta", "g", "s", "h_up", "h_down",
                                  "beta_c", "alpha_c", "delta_c")},
        },
        "battery": {"initial": sc.battery.energy, "capacity": sc.battery.capacity,
                    "floor": sc.battery.floor},
        "limits": {k: getattr(sc.limits, k)
                   for k in ("v_min", "v_max", "u_max", "cruise", "climb_rate")},
        "avoidance": {k: getattr(sc.avoidance, k)
                      for k in ("alpha_safe", "threshold", "r_sensor",
                                "trigger_distance", "align_tolerance")},
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
