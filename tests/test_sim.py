"""Deterministic scenario runner: termination, energy audit, logging."""

from __future__ import annotations

import math

import numpy as np
import pytest

from solarnav import (BatteryState, Box, Environment, Mode, MovingObstacle,
                      PlanningFailed, Prism, Scenario, SimLog, StepRecord,
                      SunModel, Vec3, compute_metrics, energy_audit,
                      run_scenario, shadowed_at, step_obstacles)
from solarnav.reporting import trajectory_csv_rows
from solarnav.scenario_io import load_scenario


def open_world_scenario(length=400.0, obstacles=(), max_duration=80.0,
                        battery=None, sun_overhead=True, planar=True):
    size_y = 240.0
    bounds = Box(Vec3(0, 0, 0), Vec3(length + 40.0, size_y, 200.0))
    sun = (SunModel(Vec3(length / 2, size_y / 2, 5000.0))
           if sun_overhead else
           SunModel.from_position(Vec3(length / 2, 1500.0, 1800.0), bounds.center()))
    env = Environment(bounds=bounds, sun=sun, z_min=40.0, z_max=200.0)
    return Scenario(
        env=env,
        start=Vec3(20.0, size_y / 2, 100.0),
        goal=Vec3(length + 20.0, size_y / 2, 100.0),
        battery=battery or BatteryState(670.0, 670.0, 50.0),
        unknown_obstacles=tuple(obstacles),
        dt=0.05,
        max_duration=max_duration,
        planner="energy",
        grid_resolution=20.0,
        planar_z=100.0 if planar else None,
    )


# ----------------------------------------------------------------- obstacles

def test_obstacle_zero_velocity_unchanged():
    obs = [MovingObstacle(Vec3(10, 10, 10), 3.0)]
    assert step_obstacles(obs, 1.0)[0].center == Vec3(10, 10, 10)


def test_obstacle_straight_advance():
    obs = [MovingObstacle(Vec3(0, 0, 0), 3.0, Vec3(1.0, 0, 0))]
    assert step_obstacles(obs, 2.0)[0].center == Vec3(2.0, 0, 0)


def test_obstacle_stepping_linear():
    obs = [MovingObstacle(Vec3(0, 0, 0), 3.0, Vec3(1.0, -0.5, 0))]
    many = obs
    for _ in range(100):
        many = step_obstacles(many, 2.0)
    once = [o.at(200.0) for o in obs]
    assert many[0].center == once[0].center


def test_obstacle_requires_positive_radius_and_dt():
    with pytest.raises(ValueError):
        MovingObstacle(Vec3(0, 0, 0), 0.0)
    with pytest.raises(ValueError):
        step_obstacles([], 0.0)


# ------------------------------------------------------------------ scenarios

def test_scenario_rejects_fast_obstacles():
    with pytest.raises(ValueError):
        open_world_scenario(obstacles=[
            MovingObstacle(Vec3(100, 120, 100), 5.0, Vec3(15.0, 0, 0))])


def test_scenario_rejects_colliding_endpoints():
    env = Environment(bounds=Box(Vec3(0, 0, 0), Vec3(100, 100, 100)),
                      known_obstacles=(Prism(Vec3(50, 50, 50), (20, 20, 20)),),
                      sun=SunModel(Vec3(50, 50, 2000.0)), z_min=0, z_max=100)
    with pytest.raises(ValueError):
        Scenario(env=env, start=Vec3(50, 50, 50), goal=Vec3(10, 10, 10))


def test_planning_failed_when_goal_walled_off():
    env = Environment(bounds=Box(Vec3(0, 0, 0), Vec3(200, 100, 100)),
                      known_obstacles=(Prism(Vec3(100, 50, 50), (15, 49.9, 49.9),
                                             (8, 8, 8)),),
                      sun=SunModel(Vec3(100, 50, 2000.0)), z_min=0, z_max=100)
    sc = Scenario(env=env, start=Vec3(10, 50, 50), goal=Vec3(190, 50, 50),
                  grid_resolution=10.0, planar_z=50.0)
    with pytest.raises(PlanningFailed):
        run_scenario(sc)


# ----------------------------------------------------------------------- runs

def test_empty_world_straight_run_reaches_goal():
    sc = open_world_scenario()
    log, m = run_scenario(sc, mode="hybrid")
    assert m.reached_goal and not m.collision
    assert not any(e.kind == "mode_switch" for e in log.events)
    assert m.path_length == pytest.approx(400.0, abs=25.0)


def test_sixty_second_full_sun_energy_totals():
    """Full sun overhead at cruise: 30 W out, 22.8 W in, for 60 s."""
    sc = open_world_scenario(length=900.0, max_duration=60.0)
    log, m = run_scenario(sc, mode="track-only")
    assert m.terminal == "timeout"
    assert len(log.records) == 1201
    assert m.e_out == pytest.approx(1800.0, rel=1e-9)
    assert m.e_gain == pytest.approx(1368.0, rel=1e-9)


def test_determinism_bit_identical_logs():
    sc1 = load_scenario("section5")
    sc2 = load_scenario("section5")
    log1, m1 = run_scenario(sc1, mode="hybrid")
    log2, m2 = run_scenario(sc2, mode="hybrid")
    assert trajectory_csv_rows(log1) == trajectory_csv_rows(log2)
    assert m1 == m2


def test_energy_double_entry_audit():
    sc = load_scenario("section5")
    log, _ = run_scenario(sc, mode="hybrid")
    assert energy_audit(log, sc) < 1e-6


def test_battery_trace_within_bounds():
    sc = load_scenario("section5")
    log, _ = run_scenario(sc, mode="hybrid")
    for rec in log.records:
        assert sc.battery.floor <= rec.battery <= sc.battery.capacity


def test_shadow_flags_match_posthoc_recomputation():
    sc = load_scenario("section5")
    log, _ = run_scenario(sc, mode="hybrid")
    for rec in log.records:
        assert rec.shadow == shadowed_at(sc.env, rec.position, rec.t,
                                         sc.unknown_obstacles)


def test_logged_positions_collision_free_when_flag_clear():
    sc = load_scenario("section5")
    log, m = run_scenario(sc, mode="hybrid")
    assert not m.collision
    assert all(r.min_dist > 0.0 for r in log.records)


def test_battery_depletion_is_terminal_event_not_exception():
    tiny = BatteryState(60.0, 670.0, 50.0)
    sc = open_world_scenario(battery=tiny, sun_overhead=False)
    sc.planner = "shortest"  # battery-blind reference plan; the run depletes
    log, m = run_scenario(sc, mode="track-only")
    assert m.terminal == "battery_depleted"
    assert not m.reached_goal


def test_track_only_collides_with_blocking_obstacle():
    block = MovingObstacle(Vec3(220.0, 120.0, 100.0), 10.0)
    sc = open_world_scenario(obstacles=[block])
    log, m = run_scenario(sc, mode="track-only")
    assert m.collision and m.terminal == "collision"
    assert m.min_separation <= 0.0


def test_hybrid_avoids_the_same_blocking_obstacle():
    block = MovingObstacle(Vec3(220.0, 120.0, 100.0), 10.0)
    sc = open_world_scenario(obstacles=[block])
    log, m = run_scenario(sc, mode="hybrid")
    assert m.reached_goal and not m.collision
    assert m.min_separation > 0.0
    assert any(e.kind == "mode_switch" for e in log.events)


def test_replan_after_avoidance_still_reaches_goal():
    sc = load_scenario("section5")
    log, m = run_scenario(sc, mode="hybrid", replan=True)
    assert m.reached_goal and not m.collision
    assert any(e.kind == "replan" for e in log.events)
    # Replanning stays deterministic.
    log2, m2 = run_scenario(load_scenario("section5"), mode="hybrid", replan=True)
    assert m == m2


def test_avoiding_mode_commands_are_bang_bang():
    sc = load_scenario("section5")
    log, _ = run_scenario(sc, mode="hybrid")
    u_max = sc.limits.u_max
    for rec in log.records:
        if rec.mode is Mode.AVOIDING:
            assert rec.u in (-u_max, 0.0, u_max)


def test_commands_always_within_limits():
    sc = load_scenario("section5")
    for mode in ("hybrid", "reactive-only", "track-only"):
        log, _ = run_scenario(sc, mode=mode)
        for rec in log.records[1:]:
            assert sc.limits.v_min <= rec.v <= sc.limits.v_max
            assert abs(rec.u) <= sc.limits.u_max


def test_mode_transitions_only_via_switching_laws():
    """Consecutive records change mode only at logged switch events."""
    sc = load_scenario("section5")
    log, _ = run_scenario(sc, mode="hybrid")
    switch_times = {e.t for e in log.events if e.kind == "mode_switch"}
    for prev, cur in zip(log.records, log.records[1:]):
        if prev.mode is not cur.mode:
            assert prev.t in switch_times


def test_three_dimensional_tracking_follows_altitude():
    sc = open_world_scenario(planar=False)
    sc = Scenario(env=sc.env, start=Vec3(20.0, 120.0, 60.0),
                  goal=Vec3(420.0, 120.0, 80.0), battery=sc.battery,
                  dt=0.05, max_duration=120.0, planner="energy",
                  grid_resolution=20.0)
    log, m = run_scenario(sc, mode="track-only")
    assert m.reached_goal
    assert log.records[-1].z == pytest.approx(80.0, abs=20.0)
    assert max(r.z for r in log.records) <= 200.0


# -------------------------------------------------------------------- metrics

def test_metrics_single_record_log():
    sc = open_world_scenario()
    log = SimLog(records=[StepRecord(0.0, 20.0, 120.0, 100.0, 0.0, 0.0, 0.0,
                                     670.0, False, Mode.TRACKING, math.inf)])
    m = compute_metrics(log, sc)
    assert m.e_out == 0.0 and m.e_gain == 0.0 and m.net_cost == 0.0
    assert m.final_battery == 670.0
    assert m.path_length == 0.0 and m.shadow_time == 0.0


def test_min_separation_sign_matches_collision_flag():
    """Separation is positive exactly where no collision is declared,
    including positions outside the bounds or altitude band."""
    sc = open_world_scenario(obstacles=[MovingObstacle(Vec3(220, 120, 100), 10.0)])
    from solarnav import is_collision, min_separation
    probes = [Vec3(220, 120, 100), Vec3(100, 120, 100), Vec3(-5, 120, 100),
              Vec3(100, 120, 10), Vec3(227, 120, 100), Vec3(235, 120, 100)]
    for p in probes:
        sep = min_separation(sc.env, sc.unknown_obstacles, p)
        collided = (is_collision(p, sc.env)
                    or any(p.dist_to(o.center) <= o.radius
                           for o in sc.unknown_obstacles))
        assert (sep > 0.0) == (not collided), (p, sep, collided)


def test_min_separation_negative_inside_near_prism_center():
    """A point a hair off a tower's center is deep inside it: the separation
    is about minus the half-width, and it is never positive where the
    position collides."""
    tower = Prism(Vec3(100, 100, 100), (30, 30, 30), (4, 4, 4))
    env = Environment(bounds=Box(Vec3(0, 0, 0), Vec3(200, 200, 200)),
                      known_obstacles=(tower,), sun=SunModel(Vec3(100, 100, 5000)))
    from solarnav import is_collision, min_separation
    for offset in (0.0, 1e-12, 1e-5, 1e-3, 1.0):
        p = Vec3(100 + offset, 100, 100)
        assert is_collision(p, env)
        assert min_separation(env, (), p) == pytest.approx(offset - 30.0, abs=1e-9)
    rng = np.random.default_rng(5)
    for xyz in rng.uniform(60, 140, (2000, 3)):
        p = Vec3(*xyz)
        assert (min_separation(env, (), p) > 0.0) == (not is_collision(p, env)), p


def test_metrics_recomputation_matches_battery_deltas():
    sc = load_scenario("section5")
    log, m = run_scenario(sc, mode="hybrid")
    delta = log.records[0].battery - log.records[-1].battery
    # net cost == consumption - applied harvest == battery drop (no clamping
    # events after leaving a full battery under these parameters).
    assert m.net_cost == pytest.approx(delta, abs=1e-6)
