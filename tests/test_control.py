"""Kinematics, pure pursuit, sensing, reactive avoidance and mode switching."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solarnav import (AvoidanceParams, ControlLimits, Detection, LimitClamped, Mode,
                      MovingObstacle, Vec3, avoidance_command, pursuit_command,
                      pursuit_lookahead, sense_obstacles, step_kinematics_3d,
                      step_kinematics_planar, supervisor_step, wrap_angle)
from solarnav.control import _rk4, realign_command

LIMITS = ControlLimits(v_min=0.0, v_max=20.0, cruise=12.0,
                       u_max=2.0943951023931953, climb_rate=3.0)
AVOID = AvoidanceParams()


# ------------------------------------------------------------------ kinematics

def test_zero_inputs_fix_the_state():
    pose = (3.0, -4.0, 100.0, 0.7)
    assert step_kinematics_3d(*pose, 0.0, 0.0, 0.0, 0.5, LIMITS) == pose


def test_straight_motion_advances_exactly():
    x, y, _, _ = step_kinematics_3d(0.0, 0.0, 100.0, 0.0, 12.0, 0.0, 0.0, 1.0, LIMITS)
    assert x == pytest.approx(12.0, abs=1e-12)
    assert y == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("v,omega,theta0", [(12.0, 1.2, 0.0), (8.0, -0.7, 1.1),
                                            (15.0, 2.0, -2.5)])
def test_circular_arc_matches_closed_form(v, omega, theta0):
    px, py, pz, heading = 0.0, 0.0, 100.0, theta0
    dt, steps = 1e-3, 1000
    for _ in range(steps):
        px, py, pz, heading = step_kinematics_3d(px, py, pz, heading, v, 0.0, omega, dt,
                                                 LIMITS)
    t = dt * steps
    x = (v / omega) * (math.sin(theta0 + omega * t) - math.sin(theta0))
    y = -(v / omega) * (math.cos(theta0 + omega * t) - math.cos(theta0))
    err = math.hypot(px - x, py - y)
    assert err < 1e-6
    assert heading == pytest.approx(wrap_angle(theta0 + omega * t), abs=1e-9)


def test_planar_step_keeps_altitude():
    """The 3D step without a climb command holds the altitude exactly; the
    planar step, which has none, agrees with it on the rest of the pose."""
    x, y, z, heading = step_kinematics_3d(1.0, 2.0, 77.0, 0.4, 12.0, 0.0, 0.5, 0.3, LIMITS)
    assert z == 77.0
    assert step_kinematics_planar(1.0, 2.0, 0.4, 12.0, 0.5, 0.3, LIMITS) == (x, y, heading)


@given(x=st.floats(-1e4, 1e4), y=st.floats(-1e4, 1e4), z=st.floats(-1e3, 1e3),
       heading=st.floats(-math.pi, math.pi), v=st.floats(-5.0, 30.0),
       omega=st.floats(-5.0, 5.0), dt=st.floats(1e-3, 2.0))
@settings(max_examples=300)
def test_planar_step_equals_3d_step_without_climb(x, y, z, heading, v, omega, dt):
    """Bit for bit on (x, y, heading), clamped inputs included."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LimitClamped)
        x3, y3, _, h3 = step_kinematics_3d(x, y, z, heading, v, 0.0, omega, dt, LIMITS)
        assert step_kinematics_planar(x, y, heading, v, omega, dt, LIMITS) == (x3, y3, h3)


def test_planar_circle_closed_form():
    px, py, heading = 0.0, 0.0, 0.0
    v, omega, dt = 12.0, 1.2, 1e-3
    for _ in range(1000):
        px, py, heading = step_kinematics_planar(px, py, heading, v, omega, dt, LIMITS)
    x = (v / omega) * math.sin(omega * 1.0)
    y = -(v / omega) * (math.cos(omega * 1.0) - 1.0)
    assert math.hypot(px - x, py - y) < 1e-6


def test_clamping_warns_and_limits():
    """Each input beyond its bound moves the pose exactly as the bound does."""
    pose = (5.0, -2.0, 100.0, 0.3)
    for sign, v_bound in ((1.0, LIMITS.v_max), (-1.0, LIMITS.v_min)):
        w, omega = sign * LIMITS.climb_rate, sign * LIMITS.u_max
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = step_kinematics_3d(*pose, sign * 50.0, sign * 9.0, sign * 10.0, 0.1,
                                     LIMITS)
            planar = step_kinematics_planar(5.0, -2.0, 0.3, sign * 50.0, sign * 10.0, 0.1,
                                            LIMITS)
        assert [c.category for c in caught] == [LimitClamped, LimitClamped]
        assert out == _rk4(*pose, v_bound, w, omega, 0.1)
        x, y, _, heading = _rk4(*pose, v_bound, 0.0, omega, 0.1)
        assert planar == (x, y, heading)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert step_kinematics_3d(*pose, v_bound, w, omega, 0.1, LIMITS) == out


# ---------------------------------------------------------------- pure pursuit

STRAIGHT = [Vec3(20.0 * i, 0.0, 100.0) for i in range(11)]


def test_lookahead_point_on_straight_path():
    target = pursuit_lookahead(STRAIGHT, 40.0, 0.0, 100.0, 20.0)
    assert target == Vec3(60.0, 0.0, 100.0)


def test_lookahead_saturates_at_final_waypoint():
    target = pursuit_lookahead(STRAIGHT, 250.0, 5.0, 100.0, 20.0)
    assert target == STRAIGHT[-1]


def test_lookahead_ties_go_to_the_lowest_index():
    """Two waypoints equidistant from p: the arc starts at the first."""
    path = [Vec3(100.0, 0.0, 0.0), Vec3(0.0, 5.0, 0.0), Vec3(0.0, -5.0, 0.0)]
    assert pursuit_lookahead(path, 0.0, 0.0, 0.0, 1.0) == Vec3(0.0, 4.0, 0.0)


def test_lookahead_skips_zero_length_segments():
    """A zero lookahead from a repeated nearest waypoint passes over the
    zero-length segment instead of dividing 0 by 0."""
    assert pursuit_lookahead([Vec3(0, 0, 0)] * 2, 0.0, 0.0, 0.0, 0.0) == Vec3(0, 0, 0)
    path = [Vec3(0, 0, 0), Vec3(0, 0, 0), Vec3(4, 0, 0)]
    assert pursuit_lookahead(path, 0.0, 0.0, 0.0, 0.0) == Vec3(0, 0, 0)


def _lookahead_by_min_key(waypoints, p, lookahead):
    """The nearest waypoint by `min(key=(dist, i))`, then the arc walk."""
    nearest = min(range(len(waypoints)), key=lambda i: ((p - waypoints[i]).norm(), i))
    remaining = lookahead
    for a, b in zip(waypoints[nearest:], waypoints[nearest + 1:]):
        seg = (a - b).norm()
        if remaining <= seg:
            u = remaining / seg
            return Vec3(a.x + u * (b.x - a.x), a.y + u * (b.y - a.y), a.z + u * (b.z - a.z))
        remaining -= seg
    return waypoints[-1]


@given(st.lists(st.tuples(*[st.integers(-3, 3).map(float)] * 3), min_size=1, max_size=8),
       st.tuples(*[st.integers(-3, 3).map(float)] * 3), st.floats(0.5, 10.0))
@settings(max_examples=200)
def test_lookahead_equals_min_key_scan(points, p, lookahead):
    """On a small integer lattice, where equal distances are common."""
    waypoints = [Vec3(*q) for q in points]
    assert pursuit_lookahead(waypoints, *p, lookahead) == \
        _lookahead_by_min_key(waypoints, Vec3(*p), lookahead)


def test_lookahead_matches_resampling_oracle_on_zigzag():
    from oracles import resampled_lookahead
    rng = np.random.default_rng(5)
    zigzag = [Vec3(15.0 * i, 12.0 * (i % 2) - 6.0, 100.0) for i in range(14)]
    for _ in range(40):
        p = Vec3(rng.uniform(0, 200), rng.uniform(-20, 20), 100.0)
        got = pursuit_lookahead(zigzag, p.x, p.y, p.z, 25.0)
        want = resampled_lookahead(zigzag, p, 25.0)
        assert got.dist_to(want) < 2.0, (p, got, want)  # resolution/10 of 20 m grid


def test_pursuit_zero_steer_dead_ahead():
    v, u = pursuit_command(0.0, 0.0, 0.0, Vec3(50.0, 0.0, 100.0), 20.0, LIMITS)
    assert v == LIMITS.cruise
    assert u == 0.0


def test_pursuit_right_angle_curvature():
    v, u = pursuit_command(0.0, 0.0, 0.0, Vec3(0.0, 30.0, 100.0), 20.0, LIMITS)
    assert u == pytest.approx(12.0 * 2.0 * 1.0 / 20.0)


def test_pursuit_full_rate_for_target_astern():
    _, u = pursuit_command(0.0, 0.0, 0.0, Vec3(-50.0, 1.0, 100.0), 20.0, LIMITS)
    assert u == LIMITS.u_max


def test_pursuit_converges_from_lateral_offset():
    """5 m offset onto a straight path: cross-track < 0.5 m within 10 s."""
    path = [Vec3(20.0 * i, 0.0, 100.0) for i in range(40)]
    x, y, heading = 0.0, 5.0, 0.0
    dt = 0.05
    for k in range(int(10.0 / dt)):
        target = pursuit_lookahead(path, x, y, 100.0, 20.0)
        v, u = pursuit_command(x, y, heading, target, 20.0, LIMITS)
        x, y, heading = step_kinematics_planar(x, y, heading, v, u, dt, LIMITS)
    assert abs(y) < 0.5


def test_pursuit_stays_on_path_from_zero_offset():
    path = [Vec3(20.0 * i, 0.0, 100.0) for i in range(40)]
    x, y, heading = 0.0, 0.0, 0.0
    for _ in range(200):
        target = pursuit_lookahead(path, x, y, 100.0, 20.0)
        v, u = pursuit_command(x, y, heading, target, 20.0, LIMITS)
        assert u == 0.0
        x, y, heading = step_kinematics_planar(x, y, heading, v, u, 0.05, LIMITS)
    assert abs(y) < 1e-9


# -------------------------------------------------------------------- sensing

def test_sensing_empty_beyond_range():
    obs = [MovingObstacle(Vec3(200.0, 0.0, 100.0), 5.0)]
    assert sense_obstacles(obs, 0.0, 0.0, 0.0, AVOID) == []


def test_sensing_ignores_rear_half_plane():
    obs = [MovingObstacle(Vec3(-30.0, 0.0, 100.0), 5.0)]
    assert sense_obstacles(obs, 0.0, 0.0, 0.0, AVOID) == []


def test_sensing_dead_ahead_tangents():
    obs = [MovingObstacle(Vec3(30.0, 0.0, 100.0), 6.0)]
    det = sense_obstacles(obs, 0.0, 0.0, 0.0, AVOID)[0]
    rho = math.asin(6.0 / 30.0)
    assert det.alpha_high == pytest.approx(rho, abs=1e-12)
    assert det.alpha_low == pytest.approx(-rho, abs=1e-12)
    assert det.range == pytest.approx(30.0)
    assert det.clearance == pytest.approx(24.0)


def test_sensing_matches_boundary_sampling_oracle():
    from oracles import cone_angles_by_sampling
    rng = np.random.default_rng(9)
    for _ in range(60):
        heading = rng.uniform(-math.pi, math.pi)
        rel = rng.uniform(10.0, 45.0)
        bearing = rng.uniform(-1.2, 1.2)
        cx = rel * math.cos(heading + bearing)
        cy = rel * math.sin(heading + bearing)
        radius = rng.uniform(2.0, 8.0)
        obs = [MovingObstacle(Vec3(cx, cy, 100.0), radius)]
        dets = sense_obstacles(obs, 0.0, 0.0, heading, AVOID)
        if not dets:
            continue
        hi, lo = cone_angles_by_sampling(Vec3(0.0, 0.0, 100.0), heading,
                                         obs[0].center, radius)
        assert dets[0].alpha_high == pytest.approx(hi, abs=1e-3)
        assert dets[0].alpha_low == pytest.approx(lo, abs=1e-3)


def test_detection_invariants_random():
    rng = np.random.default_rng(31)
    for _ in range(200):
        obs = [MovingObstacle(Vec3(rng.uniform(-60, 60), rng.uniform(-60, 60),
                                   100.0), rng.uniform(1.0, 8.0))]
        for det in sense_obstacles(obs, 0.0, 0.0, 0.0, AVOID):
            assert det.alpha_low <= det.alpha_high
            assert 0.0 < det.range <= AVOID.r_sensor


# ------------------------------------------------------------------- avoidance

def bearing_detection(alpha_high, alpha_low, vel=(0.0, 0.0), rng_=28.0):
    return Detection(0, alpha_high, alpha_low, vel, rng_)


def test_avoidance_aligned_candidate_zero_turn():
    # Enlarged lower tangent exactly along the heading: tau = 0, u = 0.
    det = bearing_detection(alpha_high=1.2,
                            alpha_low=AVOID.alpha_safe)
    v, u = avoidance_command(0.0, det, (0.0, 1.0), AVOID, LIMITS)
    assert u == 0.0


def test_avoidance_turns_toward_chosen_candidate():
    """Candidate counter-clockwise of the velocity: turn counter-clockwise.

    The enlarged upper tangent lands 0.2 rad left of the heading while the
    lower one points far right; the bang-bang turn is +u_max."""
    det = bearing_detection(alpha_high=0.2 - AVOID.alpha_safe, alpha_low=-1.4)
    v, u = avoidance_command(0.0, det, (0.0, 1.0), AVOID, LIMITS)
    assert u == LIMITS.u_max


def test_avoidance_speed_is_candidate_norm_clamped():
    det = bearing_detection(alpha_high=0.9, alpha_low=-0.9)
    v, u = avoidance_command(0.0, det, (0.0, 1.0), AVOID, LIMITS)
    assert LIMITS.v_min <= v <= LIMITS.v_max
    assert v == pytest.approx(LIMITS.v_max - LIMITS.cruise)


def test_avoidance_sun_side_tiebreak():
    """Near-tied candidates pick the sun side (+y here)."""
    # A fast obstacle makes both escape candidates nearly parallel.
    det = bearing_detection(0.35, 0.25, vel=(80.0, 0.5))
    params = AvoidanceParams(threshold=math.radians(60.0))
    v, u = avoidance_command(0.0, det, (0.0, 1.0), params, LIMITS)
    beta_high = det.alpha_high + params.alpha_safe
    beta_low = det.alpha_low - params.alpha_safe
    mag = LIMITS.v_max - LIMITS.cruise
    c_high = (80.0 + mag * math.cos(beta_high), 0.5 + mag * math.sin(beta_high))
    c_low = (80.0 + mag * math.cos(beta_low), 0.5 + mag * math.sin(beta_low))
    # Verify the premise (candidates within the widened threshold) and that
    # the +y-leaning candidate won: it sits counter-clockwise of the velocity,
    # so the bang-bang command turns counter-clockwise.
    spread = abs(math.atan2(c_high[1], c_high[0]) - math.atan2(c_low[1], c_low[0]))
    assert spread < params.threshold
    assert math.atan2(c_high[1], c_high[0]) > 0 > math.atan2(c_low[1], c_low[0])
    assert u == LIMITS.u_max


def test_avoidance_bang_bang_output():
    rng = np.random.default_rng(17)
    for _ in range(300):
        heading = rng.uniform(-math.pi, math.pi)
        a2 = rng.uniform(-1.0, 0.5)
        a1 = a2 + rng.uniform(0.05, 0.8)
        det = bearing_detection(a1, a2, vel=(rng.uniform(-3, 3), rng.uniform(-3, 3)))
        _, u = avoidance_command(heading, det, (0.0, 1.0), AVOID, LIMITS)
        assert u in (-LIMITS.u_max, 0.0, LIMITS.u_max)


_coord = st.floats(-500.0, 500.0)
_angle = st.floats(-math.pi, math.pi)


@st.composite
def _limits(draw):
    v_min = draw(st.floats(0.0, 10.0))
    cruise = v_min + draw(st.floats(0.1, 10.0))
    return ControlLimits(v_min=v_min, v_max=cruise + draw(st.floats(0.1, 20.0)),
                         cruise=cruise, u_max=draw(st.floats(0.01, 5.0)))


@st.composite
def _detections(draw):
    alpha_low = draw(st.floats(-math.pi / 2, math.pi / 2))
    return Detection(0, alpha_low + draw(st.floats(0.0, math.pi / 2)), alpha_low,
                     (draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0))),
                     draw(st.floats(0.1, 100.0)))


@settings(max_examples=300, deadline=None)
@given(limits=_limits(), x=_coord, y=_coord, heading=_angle, tx=_coord, ty=_coord,
       lookahead=st.floats(1.0, 100.0), det=_detections(), sun=_angle,
       alpha_safe=st.floats(0.01, 1.5), threshold=st.floats(0.0, math.pi))
def test_command_laws_stay_within_limits(limits, x, y, heading, tx, ty, lookahead, det,
                                         sun, alpha_safe, threshold):
    """Every command law returns a speed in [v_min, v_max] and a turn rate
    within +-u_max, so the simulator applies them without a re-clamp."""
    target = Vec3(tx, ty, 100.0)
    params = AvoidanceParams(alpha_safe=alpha_safe, threshold=threshold)
    sun_dir = (math.cos(sun), math.sin(sun))
    for v, u in (pursuit_command(x, y, heading, target, lookahead, limits),
                 avoidance_command(heading, det, sun_dir, params, limits),
                 realign_command(x, y, heading, target, limits)):
        assert limits.v_min <= v <= limits.v_max
        assert abs(u) <= limits.u_max


# ------------------------------------------------------------------ supervisor

TARGET = Vec3(100.0, 0.0, 100.0)


def test_switch_to_avoiding_at_trigger_distance():
    det = Detection(0, 0.3, -0.3, (0.0, 0.0), 30.0 / (1 - math.sin(0.3)))
    det = Detection(0, 0.3, -0.3, (0.0, 0.0), 40.0)
    # Clearance exactly at the trigger distance D.
    d = Detection(0, 0.2, -0.2, (0.0, 0.0), AVOID.trigger_distance
                  / (1.0 - math.sin(0.2)))
    assert d.clearance == pytest.approx(AVOID.trigger_distance)
    assert supervisor_step(Mode.TRACKING, 0.0, 0.0, 0.0, [d], TARGET, AVOID) \
        is Mode.AVOIDING


def test_release_when_aligned_and_clear():
    far = Detection(0, 0.05, -0.05, (0.0, 0.0),
                    2.0 * AVOID.trigger_distance / (1.0 - math.sin(0.05)))
    assert far.clearance > AVOID.trigger_distance
    assert supervisor_step(Mode.AVOIDING, 0.0, 0.0, 0.0, [far], TARGET, AVOID) \
        is Mode.TRACKING


def test_hold_avoiding_when_still_close():
    near = Detection(0, 0.4, -0.4, (0.0, 0.0),
                     0.5 * AVOID.trigger_distance / (1.0 - math.sin(0.4)))
    assert near.clearance < AVOID.trigger_distance
    assert supervisor_step(Mode.AVOIDING, 0.0, 0.0, 0.0, [near], TARGET, AVOID) \
        is Mode.AVOIDING


def test_hold_avoiding_when_misaligned():
    assert supervisor_step(Mode.AVOIDING, 0.0, 0.0, 2.0, [], TARGET, AVOID) is Mode.AVOIDING


def test_keep_tracking_when_clear():
    assert supervisor_step(Mode.TRACKING, 0.0, 0.0, 0.0, [], TARGET, AVOID) is Mode.TRACKING
