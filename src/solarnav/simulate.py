"""Deterministic fixed-step scenario runner: hybrid tracking/avoidance control,
moving unknown obstacles, energy accounting and full trace logging."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .control import (AvoidanceParams, ControlLimits, Detection, Mode, UavState,
                      avoidance_command, pursuit_command, pursuit_lookahead,
                      realign_command, sense_obstacles, step_kinematics_3d,
                      step_kinematics_planar, supervisor_step)
from .energy import (BatteryDepleted, BatteryState, EnergyModel, battery_step,
                     consumption_energy, incidence_cosine, motion_segment)
from .grid import EmptyGrid, NavGrid, build_grid
from .planning import NoPath, NodeInObstacle, Path, attach_battery_profile, \
    plan_energy_efficient, plan_shortest, plan_time_efficient
from .world import Environment, Vec3, in_shadow, is_collision, prism_clearance

CONTROL_MODES = ("hybrid", "reactive-only", "track-only")
SIM_PLANNERS = ("energy", "time", "shortest")
MAX_SIM_STEPS = 100_000  # max_duration / dt; 5,000 s at the default 0.05 s step


class PlanningFailed(Exception):
    """The global planner could not produce a reference path."""


@dataclass(frozen=True)
class MovingObstacle:
    """Unknown sphere moving in a straight line at constant speed."""

    center: Vec3
    radius: float
    velocity: Vec3 = field(default_factory=lambda: Vec3(0.0, 0.0, 0.0))
    known_to_planner: bool = False

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("obstacle radius must be positive")

    def at(self, t: float) -> "MovingObstacle":
        return replace(self, center=self.center + self.velocity.scaled(t))

    @property
    def speed(self) -> float:
        return self.velocity.norm()


def step_obstacles(obstacles: Sequence[MovingObstacle], dt: float) -> List[MovingObstacle]:
    """Advance centers by velocity * dt along straight lines."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return [o.at(dt) for o in obstacles]


@dataclass
class Scenario:
    """One fully specified run: world, models, mission and timing."""

    env: Environment
    start: Vec3
    goal: Vec3
    energy: EnergyModel = field(default_factory=EnergyModel)
    battery: BatteryState = BatteryState(670.0, 670.0, 50.0)
    limits: ControlLimits = ControlLimits()
    avoidance: AvoidanceParams = AvoidanceParams()
    unknown_obstacles: Tuple[MovingObstacle, ...] = ()
    dt: float = 0.05
    max_duration: float = 200.0
    planner: str = "energy"
    grid_resolution: float = 20.0
    grid_margin: float = 2.0
    planar_z: Optional[float] = None
    arrival_radius: Optional[float] = None
    lookahead: float = 20.0
    name: str = "scenario"
    privacy_m_layers: int = 12
    privacy_t_max: Optional[float] = None
    privacy_pitch: Optional[float] = None

    def __post_init__(self):
        self.unknown_obstacles = tuple(self.unknown_obstacles)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.planner not in SIM_PLANNERS + ("privacy",):
            raise ValueError(f"unknown planner {self.planner!r}")
        for p in (self.start, self.goal):
            if is_collision(p, self.env):
                raise ValueError(f"mission endpoint {p.as_tuple()} is in collision")
        for o in self.unknown_obstacles:
            if o.speed >= self.limits.cruise:
                raise ValueError("unknown obstacles must be slower than the cruise speed")

    @property
    def goal_radius(self) -> float:
        return self.arrival_radius if self.arrival_radius is not None else self.grid_resolution


@dataclass(frozen=True)
class StepRecord:
    """One log row; v/u are the commands applied over the step ending at t."""

    t: float
    x: float
    y: float
    z: float
    theta: float
    v: float
    u: float
    battery: float
    shadow: bool
    mode: Mode
    min_dist: float

    @property
    def position(self) -> Vec3:
        return Vec3(self.x, self.y, self.z)


@dataclass(frozen=True)
class SimEvent:
    t: float
    kind: str
    detail: str = ""


@dataclass
class SimLog:
    records: List[StepRecord] = field(default_factory=list)
    events: List[SimEvent] = field(default_factory=list)

    @property
    def terminal(self) -> str:
        for e in reversed(self.events):
            if e.kind in ("goal", "collision", "battery_depleted", "timeout"):
                return e.kind
        return "timeout"


@dataclass(frozen=True)
class Metrics:
    """Aggregates recomputed from a SimLog (see compute_metrics)."""

    total_time: float
    e_out: float
    e_gain: float
    net_cost: float
    final_battery: float
    path_length: float
    shadow_time: float
    min_separation: float
    collision: bool
    reached_goal: bool
    terminal: str

    def as_dict(self) -> dict:
        return {
            "total_time_s": self.total_time,
            "consumption_J": self.e_out,
            "harvest_J": self.e_gain,
            "net_cost_J": self.net_cost,
            "final_battery_J": self.final_battery,
            "path_length_m": self.path_length,
            "shadow_time_s": self.shadow_time,
            "min_separation_m": self.min_separation,
            "collision": self.collision,
            "reached_goal": self.reached_goal,
            "terminal": self.terminal,
        }


def _sphere_blocks_segment(a: Vec3, b: Vec3, center: Vec3, radius: float) -> bool:
    av = a.as_array()
    ab = b.as_array() - av
    denom = float(ab @ ab)
    if denom == 0.0:
        return a.dist_to(center) <= radius
    t = float(np.clip((center.as_array() - av) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(center.as_array() - (av + t * ab))) <= radius


def shadowed_at(env: Environment, p: Vec3, t: float,
                obstacles: Sequence[MovingObstacle]) -> bool:
    """Shadow test including unknown spheres at their time-t positions."""
    if in_shadow(env, p, t):
        return True
    sun = env.sun.position_at(t)
    return any(_sphere_blocks_segment(sun, p, o.at(t).center, o.radius)
               for o in obstacles)


def min_separation(env: Environment, obstacles: Sequence[MovingObstacle],
                   p: Vec3) -> float:
    """Smallest clearance to any prism or sphere surface or the world limits.

    Positive exactly when the position is collision-free, matching the
    collision flag for every terminal cause including a bounds exit."""
    lo, hi = env.bounds.lo, env.bounds.hi
    # An unbounded altitude band leaves infinite margins, which never win.
    margins = [p.x - lo.x, hi.x - p.x, p.y - lo.y, hi.y - p.y, p.z - lo.z, hi.z - p.z,
               p.z - env.z_min, env.z_max - p.z]
    margins += [prism_clearance(p, prism) for prism in env.known_obstacles]
    margins += [p.dist_to(o.center) - o.radius for o in obstacles]
    return min(margins)


def scenario_grid(sc: Scenario) -> NavGrid:
    """The planning lattice of the scenario's known world."""
    return build_grid(sc.env, sc.grid_resolution, margin=sc.grid_margin,
                      planar_z=sc.planar_z, energy=sc.energy)


def run_planner(sc: Scenario, name: str, grid: NavGrid, start: Vec3,
                battery: BatteryState) -> Path:
    """Plan from `start` to the goal on `grid` with the named grid planner.

    The shortest path ignores energy; its battery trace is attached after
    the search. Any other name, including `privacy`, which has no grid form,
    plans the shortest path."""
    if name == "energy":
        return plan_energy_efficient(grid, battery, start, sc.goal)
    if name == "time":
        return plan_time_efficient(grid, battery, start, sc.goal)
    return attach_battery_profile(plan_shortest(grid, start, sc.goal), battery)


def _plan_reference(sc: Scenario, mode: str):
    if mode == "reactive-only":
        # Straight reference toward the goal, resampled so the nearest-waypoint
        # lookup in the pursuit controller stays local.
        dist = sc.start.dist_to(sc.goal)
        n = max(1, int(math.ceil(dist / sc.grid_resolution)))
        pts = [Vec3(sc.start.x + (sc.goal.x - sc.start.x) * i / n,
                    sc.start.y + (sc.goal.y - sc.start.y) * i / n,
                    sc.start.z + (sc.goal.z - sc.start.z) * i / n)
               for i in range(n + 1)]
        return Path(pts, [], 0.0), None
    try:
        grid = scenario_grid(sc)
        return run_planner(sc, sc.planner, grid, sc.start, sc.battery), grid
    except (NoPath, NodeInObstacle, EmptyGrid, ValueError) as exc:
        raise PlanningFailed(str(exc)) from exc


def run_scenario(sc: Scenario, mode: str = "hybrid",
                 replan: bool = False) -> Tuple[SimLog, Metrics]:
    """Advance the scenario until goal arrival, collision, battery floor or
    timeout. Identical inputs produce bit-identical logs.

    With `replan` enabled the global planner reruns from the current position
    each time an avoidance episode hands control back to tracking; by default
    the supervisor returns to the original reference path."""
    if mode not in CONTROL_MODES:
        raise ValueError(f"unknown control mode {mode!r}")
    path, grid = _plan_reference(sc, mode)
    waypoints = path.waypoints

    log = SimLog()
    cons = sc.energy.consumption
    sun = sc.env.sun
    sun_dir = (math.cos(sun.azimuth), math.sin(sun.azimuth))
    band = (max(sc.env.bounds.lo.z, sc.env.z_min), min(sc.env.bounds.hi.z, sc.env.z_max))

    target0 = pursuit_lookahead(waypoints, sc.start, sc.lookahead)
    heading0 = (math.atan2(target0.y - sc.start.y, target0.x - sc.start.x)
                if target0.horizontal_dist_to(sc.start) > 0 else 0.0)
    state = UavState(sc.start, heading0, 0.0, sc.battery, Mode.TRACKING)
    obstacles = list(sc.unknown_obstacles)

    log.records.append(StepRecord(
        0.0, sc.start.x, sc.start.y, sc.start.z, state.heading, 0.0, 0.0,
        sc.battery.energy, shadowed_at(sc.env, sc.start, 0.0, obstacles),
        state.mode, min_separation(sc.env, obstacles, sc.start)))

    n_steps = int(round(sc.max_duration / sc.dt))
    t = 0.0
    for _ in range(n_steps):
        detections: List[Detection] = []
        if mode in ("hybrid", "reactive-only"):
            detections = sense_obstacles(obstacles, state, sc.avoidance)
        target = pursuit_lookahead(waypoints, state.position, sc.lookahead)

        if mode == "track-only":
            new_mode = Mode.TRACKING
        else:
            new_mode = supervisor_step(state, detections, target, sc.avoidance)
        if new_mode is not state.mode:
            log.events.append(SimEvent(t, "mode_switch", new_mode.value))
            if (replan and grid is not None and new_mode is Mode.TRACKING):
                waypoints = _replanned_waypoints(sc, grid, state, waypoints, log, t)
                target = pursuit_lookahead(waypoints, state.position, sc.lookahead)
            state = replace(state, mode=new_mode)

        if state.mode is Mode.AVOIDING:
            if detections:
                nearest = min(detections, key=lambda d: (d.clearance, d.obstacle_id))
                v_cmd, u_cmd = avoidance_command(state, nearest, sun_dir,
                                                 sc.avoidance, sc.limits)
            else:
                v_cmd, u_cmd = realign_command(state, target, sc.limits)
        else:
            v_cmd, u_cmd = pursuit_command(state, target, sc.lookahead, sc.limits)

        v_cmd = min(max(v_cmd, sc.limits.v_min), sc.limits.v_max)
        u_cmd = min(max(u_cmd, -sc.limits.u_max), sc.limits.u_max)
        if sc.planar_z is None:
            w_raw = (target.z - state.position.z) / sc.dt
            w_cmd = min(max(w_raw, -sc.limits.climb_rate), sc.limits.climb_rate)
            w_cmd = min(max(w_cmd, (band[0] - state.position.z) / sc.dt),
                        (band[1] - state.position.z) / sc.dt)
            state = step_kinematics_3d(state, v_cmd, w_cmd, u_cmd, sc.dt, sc.limits)
        else:
            state = step_kinematics_planar(state, v_cmd, u_cmd, sc.dt, sc.limits)

        obstacles = step_obstacles(obstacles, sc.dt)
        t += sc.dt

        dz = state.position.z - log.records[-1].z
        seg = motion_segment(v_cmd * sc.dt, dz, cons)
        e_out = consumption_energy(seg, cons)
        shadow = shadowed_at(sc.env, state.position, t, sc.unknown_obstacles)
        cos_theta = incidence_cosine(0.0, state.heading, sun.azimuth, sun.elevation)
        e_gain = sc.energy.harvest_power(cos_theta, shadow, state.position.z) * sc.dt
        try:
            battery = battery_step(state.battery, e_out, e_gain)
        except BatteryDepleted as exc:
            log.events.append(SimEvent(t, "battery_depleted", str(exc)))
            break
        state = replace(state, battery=battery)

        sep = min_separation(sc.env, obstacles, state.position)
        log.records.append(StepRecord(
            t, state.position.x, state.position.y, state.position.z, state.heading,
            v_cmd, u_cmd, battery.energy, shadow, state.mode, sep))

        collided = (is_collision(state.position, sc.env)
                    or any(state.position.dist_to(o.center) <= o.radius
                           for o in obstacles))
        if collided:
            log.events.append(SimEvent(t, "collision"))
            break
        if state.position.dist_to(sc.goal) <= sc.goal_radius:
            log.events.append(SimEvent(t, "goal"))
            break
    else:
        log.events.append(SimEvent(t, "timeout"))

    return log, compute_metrics(log, sc)


def _replanned_waypoints(sc: Scenario, grid, state: UavState, waypoints, log: SimLog,
                         t: float):
    """Refresh the reference path from the current position on the known map.

    Falls back to the existing reference when no free node is nearby or the
    planner finds no battery-feasible route from here."""
    try:
        anchor = grid.node_point(grid.index_of_point(state.position))
        if is_collision(anchor, sc.env, margin=grid.margin):
            return waypoints
        fresh = run_planner(sc, sc.planner, grid, anchor, state.battery)
    except (NoPath, NodeInObstacle, ValueError):
        return waypoints
    log.events.append(SimEvent(t, "replan", f"{len(fresh.waypoints)} waypoints"))
    return fresh.waypoints


def compute_metrics(log: SimLog, sc: Scenario) -> Metrics:
    """Aggregate a log; energy totals are recomputed from the trace rather
    than taken from controller bookkeeping."""
    if not log.records:
        raise ValueError("log must contain at least one record")
    recs = log.records
    cons = sc.energy.consumption
    sun = sc.env.sun
    e_out_total = 0.0
    e_gain_total = 0.0
    applied_total = 0.0
    length = 0.0
    shadow_time = 0.0
    level = recs[0].battery
    cap = sc.battery.capacity
    for prev, cur in zip(recs, recs[1:]):
        dt = cur.t - prev.t
        seg = motion_segment(cur.v * dt, cur.z - prev.z, cons)
        e_out = consumption_energy(seg, cons)
        cos_theta = incidence_cosine(0.0, cur.theta, sun.azimuth, sun.elevation)
        e_gain = sc.energy.harvest_power(cos_theta, cur.shadow, cur.z) * dt
        new_level = min(cap, level - e_out + e_gain)
        applied_total += new_level - level + e_out
        level = new_level
        e_out_total += e_out
        e_gain_total += e_gain
        length += math.dist((prev.x, prev.y, prev.z), (cur.x, cur.y, cur.z))
        if cur.shadow:
            shadow_time += dt
    reached = any(e.kind == "goal" for e in log.events)
    collided = any(e.kind == "collision" for e in log.events)
    return Metrics(
        total_time=recs[-1].t,
        e_out=e_out_total,
        e_gain=e_gain_total,
        net_cost=e_out_total - applied_total,
        final_battery=recs[-1].battery,
        path_length=length,
        shadow_time=shadow_time,
        min_separation=min(r.min_dist for r in recs),
        collision=collided,
        reached_goal=reached,
        terminal=log.terminal,
    )


def energy_audit(log: SimLog, sc: Scenario) -> float:
    """Double-entry residual: recomputed flows vs the logged battery trace."""
    recs = log.records
    cons = sc.energy.consumption
    sun = sc.env.sun
    level = recs[0].battery
    worst = 0.0
    for prev, cur in zip(recs, recs[1:]):
        dt = cur.t - prev.t
        seg = motion_segment(cur.v * dt, cur.z - prev.z, cons)
        e_out = consumption_energy(seg, cons)
        cos_theta = incidence_cosine(0.0, cur.theta, sun.azimuth, sun.elevation)
        e_gain = sc.energy.harvest_power(cos_theta, cur.shadow, cur.z) * dt
        level = min(sc.battery.capacity, level - e_out + e_gain)
        worst = max(worst, abs(level - cur.battery))
    return worst
