"""Kinematics, pure pursuit, sensing, reactive avoidance and mode switching."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solarnav import (AvoidanceParams, BatteryState, ControlLimits, Detection,
                      LimitClamped, Mode, MovingObstacle, UavState, Vec3,
                      avoidance_command, pursuit_command, pursuit_lookahead,
                      sense_obstacles, step_kinematics_3d, step_kinematics_planar,
                      supervisor_step, wrap_angle)
from solarnav.control import realign_command

LIMITS = ControlLimits(v_min=0.0, v_max=20.0, cruise=12.0,
                       u_max=2.0943951023931953, climb_rate=3.0)
AVOID = AvoidanceParams()
BATT = BatteryState(670.0, 670.0, 50.0)


def make_state(x=0.0, y=0.0, z=100.0, heading=0.0, speed=12.0,
               mode=Mode.TRACKING) -> UavState:
    return UavState(Vec3(x, y, z), heading, speed, BATT, mode)


# ------------------------------------------------------------------ kinematics

def test_zero_inputs_fix_the_state():
    s = make_state()
    out = step_kinematics_3d(s, 0.0, 0.0, 0.0, 0.5, LIMITS)
    assert out.position == s.position
    assert out.heading == s.heading


def test_straight_motion_advances_exactly():
    s = make_state()
    out = step_kinematics_3d(s, 12.0, 0.0, 0.0, 1.0, LIMITS)
    assert out.position.x == pytest.approx(12.0, abs=1e-12)
    assert out.position.y == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("v,omega,theta0", [(12.0, 1.2, 0.0), (8.0, -0.7, 1.1),
                                            (15.0, 2.0, -2.5)])
def test_circular_arc_matches_closed_form(v, omega, theta0):
    s = make_state(heading=theta0, speed=v)
    dt, steps = 1e-3, 1000
    for _ in range(steps):
        s = step_kinematics_3d(s, v, 0.0, omega, dt, LIMITS)
    t = dt * steps
    x = (v / omega) * (math.sin(theta0 + omega * t) - math.sin(theta0))
    y = -(v / omega) * (math.cos(theta0 + omega * t) - math.cos(theta0))
    err = math.hypot(s.position.x - x, s.position.y - y)
    assert err < 1e-6
    assert s.heading == pytest.approx(wrap_angle(theta0 + omega * t), abs=1e-9)


def test_planar_step_keeps_altitude():
    s = make_state(z=77.0)
    out = step_kinematics_planar(s, 12.0, 0.5, 0.3, LIMITS)
    assert out.position.z == 77.0


def test_planar_circle_closed_form():
    s = make_state(z=50.0)
    v, omega, dt = 12.0, 1.2, 1e-3
    for _ in range(1000):
        s = step_kinematics_planar(s, v, omega, dt, LIMITS)
    x = (v / omega) * math.sin(omega * 1.0)
    y = -(v / omega) * (math.cos(omega * 1.0) - 1.0)
    assert math.hypot(s.position.x - x, s.position.y - y) < 1e-6


def test_clamping_warns_and_limits():
    s = make_state()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = step_kinematics_3d(s, 50.0, 9.0, 10.0, 0.1, LIMITS)
    assert any(issubclass(w.category, LimitClamped) for w in caught)
    assert out.speed == LIMITS.v_max


# ---------------------------------------------------------------- pure pursuit

STRAIGHT = [Vec3(20.0 * i, 0.0, 100.0) for i in range(11)]


def test_lookahead_point_on_straight_path():
    target = pursuit_lookahead(STRAIGHT, Vec3(40.0, 0.0, 100.0), 20.0)
    assert target == Vec3(60.0, 0.0, 100.0)


def test_lookahead_saturates_at_final_waypoint():
    target = pursuit_lookahead(STRAIGHT, Vec3(250.0, 5.0, 100.0), 20.0)
    assert target == STRAIGHT[-1]


def test_lookahead_ties_go_to_the_lowest_index():
    """Two waypoints equidistant from p: the arc starts at the first."""
    path = [Vec3(100.0, 0.0, 0.0), Vec3(0.0, 5.0, 0.0), Vec3(0.0, -5.0, 0.0)]
    assert pursuit_lookahead(path, Vec3(0.0, 0.0, 0.0), 1.0) == Vec3(0.0, 4.0, 0.0)


def test_lookahead_skips_zero_length_segments():
    """A zero lookahead from a repeated nearest waypoint passes over the
    zero-length segment instead of dividing 0 by 0."""
    assert pursuit_lookahead([Vec3(0, 0, 0)] * 2, Vec3(0, 0, 0), 0.0) == Vec3(0, 0, 0)
    path = [Vec3(0, 0, 0), Vec3(0, 0, 0), Vec3(4, 0, 0)]
    assert pursuit_lookahead(path, Vec3(0, 0, 0), 0.0) == Vec3(0, 0, 0)


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
    assert pursuit_lookahead(waypoints, Vec3(*p), lookahead) == \
        _lookahead_by_min_key(waypoints, Vec3(*p), lookahead)


def test_lookahead_matches_resampling_oracle_on_zigzag():
    from oracles import resampled_lookahead
    rng = np.random.default_rng(5)
    zigzag = [Vec3(15.0 * i, 12.0 * (i % 2) - 6.0, 100.0) for i in range(14)]
    for _ in range(40):
        p = Vec3(rng.uniform(0, 200), rng.uniform(-20, 20), 100.0)
        got = pursuit_lookahead(zigzag, p, 25.0)
        want = resampled_lookahead(zigzag, p, 25.0)
        assert got.dist_to(want) < 2.0, (p, got, want)  # resolution/10 of 20 m grid


def test_pursuit_zero_steer_dead_ahead():
    s = make_state()
    v, u = pursuit_command(s, Vec3(50.0, 0.0, 100.0), 20.0, LIMITS)
    assert v == LIMITS.cruise
    assert u == 0.0


def test_pursuit_right_angle_curvature():
    s = make_state()
    v, u = pursuit_command(s, Vec3(0.0, 30.0, 100.0), 20.0, LIMITS)
    assert u == pytest.approx(12.0 * 2.0 * 1.0 / 20.0)


def test_pursuit_full_rate_for_target_astern():
    s = make_state()
    _, u = pursuit_command(s, Vec3(-50.0, 1.0, 100.0), 20.0, LIMITS)
    assert u == LIMITS.u_max


def test_pursuit_converges_from_lateral_offset():
    """5 m offset onto a straight path: cross-track < 0.5 m within 10 s."""
    path = [Vec3(20.0 * i, 0.0, 100.0) for i in range(40)]
    s = make_state(x=0.0, y=5.0)
    dt = 0.05
    worst_tail = 0.0
    for k in range(int(10.0 / dt)):
        target = pursuit_lookahead(path, s.position, 20.0)
        v, u = pursuit_command(s, target, 20.0, LIMITS)
        s = step_kinematics_planar(s, v, u, dt, LIMITS)
    assert abs(s.position.y) < 0.5


def test_pursuit_stays_on_path_from_zero_offset():
    path = [Vec3(20.0 * i, 0.0, 100.0) for i in range(40)]
    s = make_state()
    for _ in range(200):
        target = pursuit_lookahead(path, s.position, 20.0)
        v, u = pursuit_command(s, target, 20.0, LIMITS)
        assert u == 0.0
        s = step_kinematics_planar(s, v, u, 0.05, LIMITS)
    assert abs(s.position.y) < 1e-9


# -------------------------------------------------------------------- sensing

def test_sensing_empty_beyond_range():
    obs = [MovingObstacle(Vec3(200.0, 0.0, 100.0), 5.0)]
    assert sense_obstacles(obs, make_state(), AVOID) == []


def test_sensing_ignores_rear_half_plane():
    obs = [MovingObstacle(Vec3(-30.0, 0.0, 100.0), 5.0)]
    assert sense_obstacles(obs, make_state(), AVOID) == []


def test_sensing_dead_ahead_tangents():
    obs = [MovingObstacle(Vec3(30.0, 0.0, 100.0), 6.0)]
    det = sense_obstacles(obs, make_state(), AVOID)[0]
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
        state = make_state(heading=heading)
        obs = [MovingObstacle(Vec3(cx, cy, 100.0), radius)]
        dets = sense_obstacles(obs, state, AVOID)
        if not dets:
            continue
        hi, lo = cone_angles_by_sampling(state.position, heading,
                                         obs[0].center, radius)
        assert dets[0].alpha_high == pytest.approx(hi, abs=1e-3)
        assert dets[0].alpha_low == pytest.approx(lo, abs=1e-3)


def test_detection_invariants_random():
    rng = np.random.default_rng(31)
    for _ in range(200):
        obs = [MovingObstacle(Vec3(rng.uniform(-60, 60), rng.uniform(-60, 60),
                                   100.0), rng.uniform(1.0, 8.0))]
        for det in sense_obstacles(obs, make_state(), AVOID):
            assert det.alpha_low <= det.alpha_high
            assert 0.0 < det.range <= AVOID.r_sensor


# ------------------------------------------------------------------- avoidance

def bearing_detection(alpha_high, alpha_low, vel=(0.0, 0.0), rng_=28.0):
    return Detection(0, alpha_high, alpha_low, vel, rng_)


def test_avoidance_aligned_candidate_zero_turn():
    # Enlarged lower tangent exactly along the heading: tau = 0, u = 0.
    s = make_state()
    det = bearing_detection(alpha_high=1.2,
                            alpha_low=AVOID.alpha_safe)
    v, u = avoidance_command(s, det, (0.0, 1.0), AVOID, LIMITS)
    assert u == 0.0


def test_avoidance_turns_toward_chosen_candidate():
    """Candidate counter-clockwise of the velocity: turn counter-clockwise.

    The enlarged upper tangent lands 0.2 rad left of the heading while the
    lower one points far right; the bang-bang turn is +u_max."""
    s = make_state()
    det = bearing_detection(alpha_high=0.2 - AVOID.alpha_safe, alpha_low=-1.4)
    v, u = avoidance_command(s, det, (0.0, 1.0), AVOID, LIMITS)
    assert u == LIMITS.u_max


def test_avoidance_speed_is_candidate_norm_clamped():
    s = make_state()
    det = bearing_detection(alpha_high=0.9, alpha_low=-0.9)
    v, u = avoidance_command(s, det, (0.0, 1.0), AVOID, LIMITS)
    assert LIMITS.v_min <= v <= LIMITS.v_max
    assert v == pytest.approx(LIMITS.v_max - LIMITS.cruise)


def test_avoidance_sun_side_tiebreak():
    """Near-tied candidates pick the sun side (+y here)."""
    s = make_state()
    # A fast obstacle makes both escape candidates nearly parallel.
    det = bearing_detection(0.35, 0.25, vel=(80.0, 0.5))
    params = AvoidanceParams(threshold=math.radians(60.0))
    v, u = avoidance_command(s, det, (0.0, 1.0), params, LIMITS)
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
        s = make_state(heading=rng.uniform(-math.pi, math.pi))
        a2 = rng.uniform(-1.0, 0.5)
        a1 = a2 + rng.uniform(0.05, 0.8)
        det = bearing_detection(a1, a2, vel=(rng.uniform(-3, 3), rng.uniform(-3, 3)))
        _, u = avoidance_command(s, det, (0.0, 1.0), AVOID, LIMITS)
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
    s = make_state(x, y, heading=heading)
    target = Vec3(tx, ty, 100.0)
    params = AvoidanceParams(alpha_safe=alpha_safe, threshold=threshold)
    for v, u in (pursuit_command(s, target, lookahead, limits),
                 avoidance_command(s, det, (math.cos(sun), math.sin(sun)), params, limits),
                 realign_command(s, target, limits)):
        assert limits.v_min <= v <= limits.v_max
        assert abs(u) <= limits.u_max


# ------------------------------------------------------------------ supervisor

def test_switch_to_avoiding_at_trigger_distance():
    s = make_state()
    det = Detection(0, 0.3, -0.3, (0.0, 0.0), 30.0 / (1 - math.sin(0.3)))
    det = Detection(0, 0.3, -0.3, (0.0, 0.0), 40.0)
    # Clearance exactly at the trigger distance D.
    d = Detection(0, 0.2, -0.2, (0.0, 0.0), AVOID.trigger_distance
                  / (1.0 - math.sin(0.2)))
    assert d.clearance == pytest.approx(AVOID.trigger_distance)
    assert supervisor_step(s, [d], Vec3(100, 0, 100), AVOID) is Mode.AVOIDING


def test_release_when_aligned_and_clear():
    s = make_state(mode=Mode.AVOIDING)
    far = Detection(0, 0.05, -0.05, (0.0, 0.0),
                    2.0 * AVOID.trigger_distance / (1.0 - math.sin(0.05)))
    assert far.clearance > AVOID.trigger_distance
    assert supervisor_step(s, [far], Vec3(100, 0, 100), AVOID) is Mode.TRACKING


def test_hold_avoiding_when_still_close():
    s = make_state(mode=Mode.AVOIDING)
    near = Detection(0, 0.4, -0.4, (0.0, 0.0),
                     0.5 * AVOID.trigger_distance / (1.0 - math.sin(0.4)))
    assert near.clearance < AVOID.trigger_distance
    assert supervisor_step(s, [near], Vec3(100, 0, 100), AVOID) is Mode.AVOIDING


def test_hold_avoiding_when_misaligned():
    s = make_state(heading=2.0, mode=Mode.AVOIDING)
    assert supervisor_step(s, [], Vec3(100, 0, 100), AVOID) is Mode.AVOIDING


def test_keep_tracking_when_clear():
    s = make_state()
    assert supervisor_step(s, [], Vec3(100, 0, 100), AVOID) is Mode.TRACKING
