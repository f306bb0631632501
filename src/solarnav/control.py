"""Kinematic integration, pure-pursuit tracking, vision-cone reactive
avoidance and the mode-switching supervisor of the hybrid controller."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import List, Sequence, Tuple, TYPE_CHECKING

from .world import ValidationError, Vec3

if TYPE_CHECKING:  # pragma: no cover
    from .simulate import MovingObstacle


class LimitClamped(UserWarning):
    """Commanded inputs exceeded the control limits and were clamped."""


class Mode(Enum):
    TRACKING = "tracking"
    AVOIDING = "avoiding"


def wrap_angle(a: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    elif a > math.pi:
        a -= 2.0 * math.pi
    return a


def signed_angle(from_angle: float, to_angle: float) -> float:
    """Rotation taking `from_angle` onto `to_angle`, positive counter-clockwise."""
    return wrap_angle(to_angle - from_angle)


def turn_sign(vec_angle: float, vel_angle: float) -> int:
    """Bang-bang selector: 0 when aligned, +1 for a counter-clockwise offset of
    the velocity relative to the vector, -1 otherwise."""
    a = signed_angle(vec_angle, vel_angle)
    if a == 0.0:
        return 0
    return 1 if 0.0 < a <= math.pi else -1


@dataclass(frozen=True)
class ControlLimits:
    """Speed and turn-rate envelope; cruise speed used while tracking."""

    v_min: float = 0.0
    v_max: float = 20.0
    u_max: float = math.radians(120.0)  # rad/s
    cruise: float = 12.0
    climb_rate: float = 3.0             # m/s vertical command bound

    def __post_init__(self):
        if not 0 <= self.v_min < self.cruise < self.v_max:
            raise ValueError("require 0 <= v_min < cruise < v_max")
        for name in ("u_max", "climb_rate"):
            if getattr(self, name) <= 0:
                raise ValidationError(name, "must be positive")


@dataclass(frozen=True)
class AvoidanceParams:
    """Reactive-avoidance constants: safety cone margin, candidate-selection
    threshold, sensor range and the supervisor trigger distance."""

    alpha_safe: float = math.radians(40.0)
    threshold: float = math.radians(10.0)
    r_sensor: float = 50.0
    trigger_distance: float = 30.0
    align_tolerance: float = math.radians(5.0)

    def __post_init__(self):
        if not 0 < self.alpha_safe < math.pi / 2:
            raise ValidationError("alpha_safe", "must lie in (0, pi/2)")
        for name in ("r_sensor", "trigger_distance"):
            if getattr(self, name) <= 0:
                raise ValidationError(name, "must be positive")
        if not self.trigger_distance <= self.r_sensor:
            raise ValueError("require trigger_distance <= r_sensor")


@dataclass(frozen=True)
class Detection:
    """One sensed sphere: extreme vision-cone angles in the body frame
    (alpha_low <= alpha_high), its planar velocity and center range."""

    obstacle_id: int
    alpha_high: float
    alpha_low: float
    velocity: Tuple[float, float]
    range: float

    def __post_init__(self):
        if self.alpha_low > self.alpha_high:
            raise ValueError("cone angles must satisfy alpha_low <= alpha_high")
        if self.range <= 0:
            raise ValueError("detection range must be positive")

    @property
    def radius(self) -> float:
        return self.range * math.sin((self.alpha_high - self.alpha_low) / 2.0)

    @property
    def clearance(self) -> float:
        """Distance from the vehicle to the sphere surface."""
        return self.range - self.radius


def _clamp_inputs(v: float, omega: float, limits: ControlLimits,
                  w: float = 0.0) -> Tuple[float, float, float, bool]:
    cv = min(max(v, limits.v_min), limits.v_max)
    co = min(max(omega, -limits.u_max), limits.u_max)
    cw = min(max(w, -limits.climb_rate), limits.climb_rate)
    return cv, co, cw, (cv != v or co != omega or cw != w)


def _rk4(x: float, y: float, z: float, theta: float, v: float, w: float,
         omega: float, dt: float) -> Tuple[float, float, float, float]:
    # State derivative is (v cos th, v sin th, w, omega) with constant inputs.
    def deriv(th: float) -> Tuple[float, float]:
        return v * math.cos(th), v * math.sin(th)

    k1x, k1y = deriv(theta)
    k2x, k2y = deriv(theta + 0.5 * dt * omega)
    k3x, k3y = k2x, k2y  # theta' is input-only, so k3 == k2 for x/y
    k4x, k4y = deriv(theta + dt * omega)
    x += dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
    y += dt / 6.0 * (k1y + 2 * k2y + 2 * k3y + k4y)
    z += dt * w
    theta = wrap_angle(theta + dt * omega)
    return x, y, z, theta


def step_kinematics_3d(x: float, y: float, z: float, heading: float, v: float,
                       w: float, omega: float, dt: float,
                       limits: ControlLimits) -> Tuple[float, float, float, float]:
    """Fourth-order Runge-Kutta advance of the 3D unicycle pose over dt.

    Inputs outside the limits are clamped and a LimitClamped warning is
    emitted."""
    cv, co, cw, clamped = _clamp_inputs(v, omega, limits, w)
    if clamped:
        warnings.warn("inputs clamped", LimitClamped, stacklevel=2)
    return _rk4(x, y, z, heading, cv, cw, co, dt)


def step_kinematics_planar(x: float, y: float, heading: float, v: float, omega: float,
                           dt: float, limits: ControlLimits) -> Tuple[float, float, float]:
    """Planar variant of the kinematic step: (x, y, heading), altitude held."""
    cv, co, _, clamped = _clamp_inputs(v, omega, limits)
    if clamped:
        warnings.warn("inputs clamped", LimitClamped, stacklevel=2)
    x, y, _, heading = _rk4(x, y, 0.0, heading, cv, 0.0, co, dt)
    return x, y, heading


def pursuit_lookahead(waypoints: Sequence[Vec3], x: float, y: float, z: float,
                      lookahead: float) -> Vec3:
    """Virtual target: the path point at arc-distance `lookahead` beyond the
    waypoint nearest to (x, y, z) (the final waypoint when the path runs out)."""
    if not waypoints:
        raise ValueError("path must be non-empty")
    # The strict < keeps the lowest index among ties.
    nearest, best = 0, math.inf
    for i, w in enumerate(waypoints):
        dx, dy, dz = x - w.x, y - w.y, z - w.z
        d = math.sqrt(dx * dx + dy * dy + dz * dz)
        if d < best:
            nearest, best = i, d
    remaining = lookahead
    for i in range(nearest, len(waypoints) - 1):
        a, b = waypoints[i], waypoints[i + 1]
        seg = a.dist_to(b)
        if 0.0 < seg and remaining <= seg:
            u = remaining / seg
            return Vec3(a.x + u * (b.x - a.x), a.y + u * (b.y - a.y),
                        a.z + u * (b.z - a.z))
        remaining -= seg
    return waypoints[-1]


def pursuit_command(x: float, y: float, heading: float, target: Vec3, lookahead: float,
                    limits: ControlLimits) -> Tuple[float, float]:
    """Pure-pursuit steering: curvature k = 2 sin(alpha) / L toward the target.

    The arc fit is only defined for targets in the frontal half-plane; a
    target astern gets a full-rate turn instead (sin(alpha) would otherwise
    command less steering the further behind the target falls)."""
    dx = target.x - x
    dy = target.y - y
    if dx == 0.0 and dy == 0.0:
        return limits.cruise, 0.0
    alpha = wrap_angle(math.atan2(dy, dx) - heading)
    if abs(alpha) > math.pi / 2:
        return limits.cruise, math.copysign(limits.u_max, alpha)
    k = 2.0 * math.sin(alpha) / lookahead
    u = min(max(limits.cruise * k, -limits.u_max), limits.u_max)
    return limits.cruise, u


def sense_obstacles(unknown: Sequence["MovingObstacle"], x: float, y: float,
                    heading: float, params: AvoidanceParams) -> List[Detection]:
    """Detections of spheres within sensor range in the frontal half-plane.

    Cone angles are the tangent-line extremes of each sphere in the body frame."""
    out: List[Detection] = []
    for idx, obs in enumerate(unknown):
        dx = obs.center.x - x
        dy = obs.center.y - y
        rng = math.hypot(dx, dy)
        if rng <= 0.0 or rng > params.r_sensor:
            continue
        bearing = wrap_angle(math.atan2(dy, dx) - heading)
        if abs(bearing) > math.pi / 2:
            continue
        half = math.asin(min(1.0, obs.radius / rng))
        out.append(Detection(obstacle_id=idx,
                             alpha_high=bearing + half,
                             alpha_low=bearing - half,
                             velocity=(obs.velocity.x, obs.velocity.y),
                             range=rng))
    return out


def avoidance_command(heading: float, det: Detection, sun_dir: Tuple[float, float],
                      params: AvoidanceParams,
                      limits: ControlLimits) -> Tuple[float, float]:
    """Sliding-mode escape along a boundary ray of the enlarged vision cone.

    Two candidate velocities sit alpha_safe outside the cone extremes, riding
    on the obstacle velocity; the pick prefers the one closer to the current
    velocity unless they are nearly tied, in which case the sun side wins.
    The turn command is bang-bang toward the chosen candidate."""
    beta_high = det.alpha_high + params.alpha_safe
    beta_low = det.alpha_low - params.alpha_safe
    mag = limits.v_max - limits.cruise
    vox, voy = det.velocity
    candidates = []
    for beta in (beta_high, beta_low):
        ang = heading + beta
        candidates.append((vox + mag * math.cos(ang), voy + mag * math.sin(ang)))
    cand_angles = [math.atan2(cy, cx) for cx, cy in candidates]
    eps = [signed_angle(heading, a) for a in cand_angles]
    if abs(wrap_angle(cand_angles[0] - cand_angles[1])) >= params.threshold:
        pick = 0 if abs(eps[0]) <= abs(eps[1]) else 1
    else:
        sun_angle = math.atan2(sun_dir[1], sun_dir[0])
        off = [abs(signed_angle(a, sun_angle)) for a in cand_angles]
        pick = 0 if off[0] <= off[1] else 1
    cx, cy = candidates[pick]
    u = -limits.u_max * turn_sign(cand_angles[pick], heading)
    v = min(max(math.hypot(cx, cy), limits.v_min), limits.v_max)
    return v, u


def realign_command(x: float, y: float, heading: float, target: Vec3,
                    limits: ControlLimits) -> Tuple[float, float]:
    """Maximum-rate turn toward the virtual target, used while in avoidance
    mode with nothing left in the sensor cone; keeps the turn bang-bang until
    the alignment condition of the switching law releases the mode."""
    bearing = math.atan2(target.y - y, target.x - x)
    u = -limits.u_max * turn_sign(bearing, heading)
    return limits.cruise, u


def supervisor_step(mode: Mode, x: float, y: float, heading: float,
                    detections: Sequence[Detection], target: Vec3,
                    params: AvoidanceParams) -> Mode:
    """Apply the two switching laws and return the next controller mode."""
    d_min = min((d.clearance for d in detections), default=math.inf)
    if mode is Mode.TRACKING:
        return Mode.AVOIDING if d_min <= params.trigger_distance else Mode.TRACKING
    bearing = math.atan2(target.y - y, target.x - x)
    aligned = abs(signed_angle(heading, bearing)) <= params.align_tolerance
    if aligned and d_min > params.trigger_distance:
        return Mode.TRACKING
    return Mode.AVOIDING
