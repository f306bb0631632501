"""Deterministic fixed-step scenario runner: hybrid tracking/avoidance control,
moving unknown obstacles, energy accounting and full trace logging."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .control import (AvoidanceParams, ControlLimits, Detection, Mode, avoidance_command,
                      pursuit_command, pursuit_lookahead, realign_command,
                      sense_obstacles, step_kinematics_3d, step_kinematics_planar,
                      supervisor_step, wrap_angle)
from .energy import BatteryDepleted, BatteryState, EnergyModel, battery_step
from .grid import EmptyGrid, NavGrid, build_grid
from .planning import NoPath, NodeInObstacle, Path, attach_battery_profile, \
    plan_energy_efficient, plan_shortest, plan_time_efficient
from .world import Environment, ValidationError, Vec3, in_shadow, is_collision, prism_clearance

CONTROL_MODES = ("hybrid", "reactive-only", "track-only")
SIM_PLANNERS = ("energy", "time", "shortest")
PLANNER_NAMES = SIM_PLANNERS + ("privacy",)
_TERMINAL_EVENTS = ("goal", "collision", "battery_depleted", "timeout")
MAX_SIM_STEPS = 100_000  # max_duration / dt; 5,000 s at the default 0.05 s step


class PlanningFailed(Exception):
    """The global planner could not produce a reference path."""


@dataclass(frozen=True)
class MovingObstacle:
    """Unknown sphere moving in a straight line at constant speed."""

    center: Vec3
    radius: float
    velocity: Vec3 = field(default_factory=lambda: Vec3(0.0, 0.0, 0.0))

    def __post_init__(self):
        if self.radius <= 0:
            raise ValidationError("radius", "must be positive")

    def at(self, t: float) -> "MovingObstacle":
        c, v = self.center, self.velocity
        return MovingObstacle(Vec3(c.x + v.x * t, c.y + v.y * t, c.z + v.z * t),
                              self.radius, v)

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
        if self.planner not in PLANNER_NAMES:
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

    @property
    def privacy_horizon(self) -> float:
        """`privacy_t_max`, or else twice the straight-line time at cruise."""
        if self.privacy_t_max is not None:
            return self.privacy_t_max
        return 2.0 * self.start.dist_to(self.goal) / self.limits.cruise


# One log row, its fields in the CSV's column order; v and u are the commands
# applied over the step ending at t. A view only: SimLog keeps the columns.
StepRecord = NamedTuple("StepRecord", [
    ("t", float), ("x", float), ("y", float), ("z", float), ("theta", float),
    ("v", float), ("u", float), ("battery", float), ("shadow", bool), ("mode", Mode),
    ("min_dist", float)])


@dataclass(frozen=True)
class SimEvent:
    t: float
    kind: str
    detail: str = ""


@dataclass
class SimLog:
    """The trace as columns, one list per `StepRecord` field: entry i of each
    column is row i, the start for i = 0 and else the state after step i."""

    t: List[float] = field(default_factory=list)
    x: List[float] = field(default_factory=list)
    y: List[float] = field(default_factory=list)
    z: List[float] = field(default_factory=list)
    theta: List[float] = field(default_factory=list)
    v: List[float] = field(default_factory=list)
    u: List[float] = field(default_factory=list)
    battery: List[float] = field(default_factory=list)
    shadow: List[bool] = field(default_factory=list)
    mode: List[Mode] = field(default_factory=list)
    min_dist: List[float] = field(default_factory=list)
    events: List[SimEvent] = field(default_factory=list)

    @property
    def columns(self) -> Tuple[list, ...]:
        """The column lists themselves, in `StepRecord` field order."""
        return tuple(getattr(self, name) for name in StepRecord._fields)

    @property
    def records(self) -> List[StepRecord]:
        """The rows, built on each call (for the benchmark tracer)."""
        return [StepRecord(*row) for row in zip(*self.columns)]


# The report key of each Metrics field that carries a unit.
_REPORT_KEYS = {"total_time": "total_time_s", "e_out": "consumption_J",
                "e_gain": "harvest_J", "net_cost": "net_cost_J",
                "final_battery": "final_battery_J", "path_length": "path_length_m",
                "shadow_time": "shadow_time_s", "min_separation": "min_separation_m"}


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
        """The report's metrics, every field under its name with its unit."""
        return {_REPORT_KEYS.get(k, k): v for k, v in asdict(self).items()}


def _sphere_blocks_segment(a: Vec3, b: Vec3, center: Vec3, radius: float) -> bool:
    abx, aby, abz = b.x - a.x, b.y - a.y, b.z - a.z
    denom = abx * abx + aby * aby + abz * abz
    if denom == 0.0:
        return a.dist_to(center) <= radius
    t = ((center.x - a.x) * abx + (center.y - a.y) * aby + (center.z - a.z) * abz) / denom
    t = min(max(t, 0.0), 1.0)
    dx = center.x - (a.x + t * abx)
    dy = center.y - (a.y + t * aby)
    dz = center.z - (a.z + t * abz)
    return math.sqrt(dx * dx + dy * dy + dz * dz) <= radius


def shadowed_at(env: Environment, p: Vec3, obstacles: Sequence[MovingObstacle]) -> bool:
    """Shadow test including the unknown spheres where they are now."""
    if in_shadow(env, p):
        return True
    return any(_sphere_blocks_segment(env.sun.position, p, o.center, o.radius)
               for o in obstacles)


def min_separation(env: Environment, obstacles: Sequence[MovingObstacle],
                   p: Vec3) -> float:
    """Smallest clearance to any prism or sphere surface, or inf without any.

    The bounds and the altitude band are closed: a margin to them counts only
    when negative, outside them. Positive exactly when the position is
    collision-free, matching the collision flag for every terminal cause."""
    lo, hi = env.bounds.lo, env.bounds.hi
    wall = min(p.x - lo.x, hi.x - p.x, p.y - lo.y, hi.y - p.y, p.z - lo.z, hi.z - p.z,
               p.z - env.z_min, env.z_max - p.z)
    margins = [wall] if wall < 0 else []
    margins += [prism_clearance(p, prism) for prism in env.known_obstacles]
    margins += [p.dist_to(o.center) - o.radius for o in obstacles]
    return min(margins, default=math.inf)


def scenario_grid(sc: Scenario) -> NavGrid:
    """The planning lattice of the scenario's known world."""
    return build_grid(sc.env, sc.grid_resolution, margin=sc.grid_margin,
                      planar_z=sc.planar_z, energy=sc.energy)


def run_planner(sc: Scenario, name: str, grid: NavGrid, start: Vec3,
                battery: BatteryState) -> Path:
    """Plan from `start` to the goal on `grid` with the grid planner `name`,
    one of SIM_PLANNERS; any other, `privacy` too, raises ValueError. The
    shortest path ignores energy; its battery trace is attached after the search."""
    if name == "energy":
        return plan_energy_efficient(grid, battery, start, sc.goal)
    if name == "time":
        return plan_time_efficient(grid, battery, start, sc.goal)
    if name == "shortest":
        return attach_battery_profile(plan_shortest(grid, start, sc.goal), battery)
    raise ValueError(f"simulate flies only {'/'.join(SIM_PLANNERS)}, not {name!r}")


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
    stack = mode  # the control stack's name; `mode` is the controller's Mode below
    path, grid = _plan_reference(sc, stack)
    waypoints = path.waypoints

    cons = sc.energy.consumption
    sun = sc.env.sun
    sun_dir = (math.cos(sun.azimuth), math.sin(sun.azimuth))
    band = (max(sc.env.bounds.lo.z, sc.env.z_min), min(sc.env.bounds.hi.z, sc.env.z_max))

    # The pose lives in floats; `p` is the one Vec3 of the position per step.
    p, battery, mode = sc.start, sc.battery, Mode.TRACKING
    x, y, z = p.x, p.y, p.z
    target0 = pursuit_lookahead(waypoints, x, y, z, sc.lookahead)
    heading = (wrap_angle(math.atan2(target0.y - y, target0.x - x))
               if target0.horizontal_dist_to(p) > 0 else 0.0)
    obstacles = list(sc.unknown_obstacles)

    log = SimLog(t=[0.0], x=[x], y=[y], z=[z], theta=[heading], v=[0.0], u=[0.0],
                 battery=[battery.energy], shadow=[shadowed_at(sc.env, p, obstacles)],
                 mode=[mode], min_dist=[min_separation(sc.env, obstacles, p)])
    # Each step appends its floats to the columns: no row object per step.
    (add_t, add_x, add_y, add_z, add_theta, add_v, add_u, add_battery, add_shadow,
     add_mode, add_min_dist) = (column.append for column in log.columns)

    n_steps = int(round(sc.max_duration / sc.dt))
    t = 0.0
    for _ in range(n_steps):
        detections: List[Detection] = []
        if stack in ("hybrid", "reactive-only"):
            detections = sense_obstacles(obstacles, x, y, heading, sc.avoidance)
        target = pursuit_lookahead(waypoints, x, y, z, sc.lookahead)

        if stack == "track-only":
            new_mode = Mode.TRACKING
        else:
            new_mode = supervisor_step(mode, x, y, heading, detections, target,
                                       sc.avoidance)
        if new_mode is not mode:
            log.events.append(SimEvent(t, "mode_switch", new_mode.value))
            if (replan and grid is not None and new_mode is Mode.TRACKING):
                waypoints = _replanned_waypoints(sc, grid, p, battery, waypoints, log, t)
                target = pursuit_lookahead(waypoints, x, y, z, sc.lookahead)
            mode = new_mode

        if mode is Mode.AVOIDING:
            if detections:
                nearest = min(detections, key=lambda d: (d.clearance, d.obstacle_id))
                v_cmd, u_cmd = avoidance_command(heading, nearest, sun_dir,
                                                 sc.avoidance, sc.limits)
            else:
                v_cmd, u_cmd = realign_command(x, y, heading, target, sc.limits)
        else:
            v_cmd, u_cmd = pursuit_command(x, y, heading, target, sc.lookahead, sc.limits)

        z_prev = z
        if sc.planar_z is None:
            w_raw = (target.z - z) / sc.dt
            w_cmd = min(max(w_raw, -sc.limits.climb_rate), sc.limits.climb_rate)
            w_cmd = min(max(w_cmd, (band[0] - z) / sc.dt), (band[1] - z) / sc.dt)
            x, y, z, heading = step_kinematics_3d(x, y, z, heading, v_cmd, w_cmd, u_cmd,
                                                  sc.dt, sc.limits)
        else:
            x, y, heading = step_kinematics_planar(x, y, heading, v_cmd, u_cmd, sc.dt,
                                                   sc.limits)
        p = Vec3(x, y, z)

        obstacles = step_obstacles(obstacles, sc.dt)
        t += sc.dt

        e_out, _ = cons.move(v_cmd * sc.dt, z - z_prev)
        shadow = shadowed_at(sc.env, p, obstacles)
        e_gain = sc.energy.gain(sun.elevation, shadow, z, sc.dt)
        try:
            battery = battery_step(battery, e_out, e_gain)
        except BatteryDepleted as exc:
            log.events.append(SimEvent(t, "battery_depleted", str(exc)))
            break

        add_t(t)
        add_x(x)
        add_y(y)
        add_z(z)
        add_theta(heading)
        add_v(v_cmd)
        add_u(u_cmd)
        add_battery(battery.energy)
        add_shadow(shadow)
        add_mode(mode)
        add_min_dist(min_separation(sc.env, obstacles, p))

        if is_collision(p, sc.env) or any(p.dist_to(o.center) <= o.radius
                                          for o in obstacles):
            log.events.append(SimEvent(t, "collision"))
            break
        if p.dist_to(sc.goal) <= sc.goal_radius:
            log.events.append(SimEvent(t, "goal"))
            break
    else:
        log.events.append(SimEvent(t, "timeout"))

    return log, compute_metrics(log, sc)


def _replanned_waypoints(sc: Scenario, grid, position: Vec3, battery: BatteryState,
                         waypoints, log: SimLog, t: float):
    """Refresh the reference path from the current position on the known map.

    Falls back to the existing reference when no free node is nearby or the
    planner finds no battery-feasible route from here."""
    try:
        anchor = grid.node_point(grid.index_of_point(position))
        if is_collision(anchor, sc.env, margin=grid.margin):
            return waypoints
        fresh = run_planner(sc, sc.planner, grid, anchor, battery)
    except (NoPath, NodeInObstacle, ValueError):
        return waypoints
    log.events.append(SimEvent(t, "replan", f"{len(fresh.waypoints)} waypoints"))
    return fresh.waypoints


def compute_metrics(log: SimLog, sc: Scenario) -> Metrics:
    """Aggregate a log; energy totals are recomputed from the trace rather
    than taken from controller bookkeeping. The terminal cause is the last
    terminal event, or `timeout` without one."""
    if not log.t:
        raise ValueError("log must contain at least one record")
    cons, elevation = sc.energy.consumption, sc.env.sun.elevation
    e_out_total = e_gain_total = applied_total = length = shadow_time = 0.0
    level, cap = log.battery[0], sc.battery.capacity
    points = list(zip(log.x, log.y, log.z))
    rows = zip(log.t, log.t[1:], log.v[1:], points, points[1:], log.shadow[1:])
    for t0, t1, v, a, b, shadow in rows:
        dt = t1 - t0
        e_out, _ = cons.move(v * dt, b[2] - a[2])
        e_gain = sc.energy.gain(elevation, shadow, b[2], dt)
        new_level = min(cap, level - e_out + e_gain)
        applied_total += new_level - level + e_out
        level = new_level
        e_out_total += e_out
        e_gain_total += e_gain
        length += math.dist(a, b)
        if shadow:
            shadow_time += dt
    kinds = [e.kind for e in log.events]
    return Metrics(
        total_time=log.t[-1],
        e_out=e_out_total,
        e_gain=e_gain_total,
        net_cost=e_out_total - applied_total,
        final_battery=log.battery[-1],
        path_length=length,
        shadow_time=shadow_time,
        min_separation=min(log.min_dist),
        collision="collision" in kinds,
        reached_goal="goal" in kinds,
        terminal=next((k for k in reversed(kinds) if k in _TERMINAL_EVENTS), "timeout"),
    )


def energy_audit(log: SimLog, sc: Scenario) -> float:
    """Double-entry residual: recomputed flows vs the logged battery trace.
    Its own replay of the columns, kept apart from compute_metrics."""
    cons, elevation = sc.energy.consumption, sc.env.sun.elevation
    level, worst = log.battery[0], 0.0
    rows = zip(log.t, log.t[1:], log.v[1:], log.z, log.z[1:], log.shadow[1:], log.battery[1:])
    for t0, t1, v, z0, z1, shadow, logged in rows:
        dt = t1 - t0
        e_out, _ = cons.move(v * dt, z1 - z0)
        e_gain = sc.energy.gain(elevation, shadow, z1, dt)
        level = min(sc.battery.capacity, level - e_out + e_gain)
        worst = max(worst, abs(level - logged))
    return worst
