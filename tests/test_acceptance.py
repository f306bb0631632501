"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every tolerance here is pinned; none defer to later calibration:
  1. planner costs == Dijkstra oracle within 1e-9 on 25 random grids, < 1 s each
  2. section4 preset cost/time orderings, time-planner cost <= 620 J, < 10 s
  3. fork scenario: energy plan logs exactly zero shadow time
  4. 100 random scenarios: battery in [floor, cap], audit closes within 1e-6 J
  5. privacy DP == enumeration optimum exactly; >= 10% below baseline risk, < 30 s
  6. section5 hybrid: safe arrival, bang-bang avoidance, cheaper than reactive, < 10 s
  7. harvest model point values (22.8 W, boundary continuity 1e-12, monotone)
  8. integrator vs circle closed form 1e-6 m; pursuit offset recovery < 0.5 m / 10 s
  9. byte-identical compare reports on both presets
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

import solarnav as sn
from solarnav import (BatteryState, Box, ControlLimits, Environment, HarvestParams,
                      Mode, MovingObstacle, NoPath, Prism, PrivacyRegion, Scenario,
                      SunModel, Vec3, build_grid, energy_audit,
                      harvest_power_altitude, harvest_power_clear, harvest_power_cloud,
                      plan_energy_efficient, plan_privacy_dp, plan_shortest,
                      plan_time_efficient, pursuit_command, pursuit_lookahead,
                      run_scenario, step_kinematics_planar)
from solarnav.cli import main as cli_main
from solarnav.privacy import STAGE_SAMPLES
from solarnav.reporting import plan_summary
from solarnav.scenario_io import load_scenario

from conftest import fork_env
from oracles import (ReferenceDpProblem, dijkstra_oracle, dp_value_by_recursion,
                     energy_edge_cost, length_edge_cost)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -------------------------------------------------------------- criterion 1

def test_criterion_1_oracle_optimality():
    rng = np.random.default_rng(20240817)
    checked = 0
    worst_gap = 0.0
    worst_time = 0.0
    for trial in range(25):
        res = 10.0
        dims = rng.integers(8, 16, 3)  # up to 15^3 nodes
        size = (dims - 1) * res
        prisms = []
        for _ in range(int(rng.integers(1, 4))):
            center = Vec3(*(rng.uniform(0.25, 0.75, 3) * size))
            axes = tuple(rng.uniform(10.0, 0.25 * size.max(), 3))
            exps = tuple(int(e) for e in rng.integers(1, 4, 3))
            prisms.append(Prism(center, axes, exps))
        env = Environment(
            bounds=Box(Vec3(0, 0, 0), Vec3(*size)),
            known_obstacles=tuple(prisms),
            sun=SunModel(Vec3(size[0] / 2 + rng.uniform(-200, 200),
                              size[1] / 2 + rng.uniform(-200, 200),
                              rng.uniform(1500, 3000))),
            z_min=0.0, z_max=float(size[2]))
        grid = build_grid(env, res)
        free = [f for f in range(grid.node_count) if grid.is_free(f)]
        start = grid.node_point(free[int(rng.integers(0, len(free)))])
        goal = grid.node_point(free[int(rng.integers(0, len(free)))])
        t0 = time.perf_counter()
        try:
            fast_len = plan_shortest(grid, start, goal)
            fast_energy = plan_energy_efficient(grid, None, start, goal)
        except NoPath:
            with pytest.raises(NoPath):
                dijkstra_oracle(grid, length_edge_cost(grid), start, goal)
            continue
        elapsed = time.perf_counter() - t0
        worst_time = max(worst_time, elapsed)
        oracle_len = dijkstra_oracle(grid, length_edge_cost(grid), start, goal)
        oracle_energy = dijkstra_oracle(grid, energy_edge_cost(grid), start, goal)
        worst_gap = max(worst_gap,
                        abs(fast_len.search_cost - oracle_len.search_cost),
                        abs(fast_energy.search_cost - oracle_energy.search_cost))
        checked += 1
    ok = checked >= 15 and worst_gap < 1e-9 and worst_time < 1.0
    report(1, ok, f"{checked} solvable instances, worst cost gap "
                  f"{worst_gap:.2e} J, worst planner time {worst_time:.3f} s")


# -------------------------------------------------------------- criterion 2

def test_criterion_2_section4_orderings():
    sc = load_scenario("section4")
    t0 = time.perf_counter()
    grid = build_grid(sc.env, sc.grid_resolution, margin=sc.grid_margin,
                      energy=sc.energy)
    energy = plan_energy_efficient(grid, sc.battery, sc.start, sc.goal)
    timed = plan_time_efficient(grid, sc.battery, sc.start, sc.goal)
    short = sn.attach_battery_profile(plan_shortest(grid, sc.start, sc.goal),
                                      sc.battery)
    elapsed = time.perf_counter() - t0
    budget = sc.battery.capacity - sc.battery.floor  # 670 - 50 = 620 J
    cost_ok = energy.net_cost < timed.net_cost <= short.net_cost
    time_ok = (short.total_duration <= timed.total_duration
               <= energy.total_duration)
    ok = cost_ok and time_ok and timed.net_cost <= budget and elapsed < 10.0
    report(2, ok,
           f"costs {energy.net_cost:.1f} < {timed.net_cost:.1f} <= "
           f"{short.net_cost:.1f} J (budget {budget:.0f}); times "
           f"{short.total_duration:.2f} <= {timed.total_duration:.2f} <= "
           f"{energy.total_duration:.2f} s; {elapsed:.2f} s")


# -------------------------------------------------------------- criterion 3

def test_criterion_3_shadow_avoidance_exact_zero():
    env = fork_env()
    sc = Scenario(env=env, start=Vec3(20, 100, 60), goal=Vec3(380, 100, 60),
                  battery=BatteryState(670.0, 670.0, 50.0),
                  grid_resolution=20.0, planar_z=60.0)
    grid = build_grid(env, 20.0, planar_z=60.0, energy=sc.energy)
    plan = plan_energy_efficient(grid, sc.battery, sc.start, sc.goal)
    short = plan_shortest(grid, sc.start, sc.goal)
    summary = plan_summary(plan, sc)
    shadowed_wps = [w for w in plan.waypoints if sn.in_shadow(env, w)]
    # The sunlit detour really is of equal grid length (symmetric fork).
    equal_length = abs(plan.length - short.length) < 1e-9
    ok = summary["shadow_time_s"] == 0.0 and not shadowed_wps and equal_length
    report(3, ok, f"energy plan shadow time {summary['shadow_time_s']!r} s over "
                  f"{len(plan.waypoints)} waypoints; detour length "
                  f"{plan.length:.1f} m == shortest {short.length:.1f} m")


# -------------------------------------------------------------- criterion 4

def _random_feasible_scenario(rng: np.random.Generator) -> Scenario:
    # 20 s ceiling keeps even a fully shadowed run within the 620 J budget.
    width = 200.0
    length = rng.uniform(260.0, 330.0)
    side = 1.0 if rng.random() < 0.5 else -1.0
    prisms = []
    for _ in range(int(rng.integers(0, 3))):
        cx = rng.uniform(0.3, 0.7) * length
        cy = width / 2 + side * rng.uniform(60.0, 80.0)
        prisms.append(Prism(Vec3(cx, cy, 75.0),
                            (rng.uniform(20, 30), rng.uniform(20, 26), 75.0),
                            (4, 4, 4)))
    env = Environment(
        bounds=Box(Vec3(0, 0, 0), Vec3(length + 40.0, width, 220.0)),
        known_obstacles=tuple(prisms),
        sun=SunModel(Vec3(length / 2, width / 2 + rng.uniform(-600, 600),
                          rng.uniform(1800.0, 4000.0))),
        z_min=40.0, z_max=200.0)
    obstacles = []
    for _ in range(int(rng.integers(0, 3))):
        ox = rng.uniform(120.0, length - 40.0)
        oy = width / 2 + rng.uniform(-30.0, 30.0)
        speed = rng.uniform(0.0, 2.5)
        ang = rng.uniform(0, 2 * math.pi)
        obstacles.append(MovingObstacle(
            Vec3(ox, oy, 100.0), rng.uniform(4.0, 9.0),
            Vec3(speed * math.cos(ang), speed * math.sin(ang), 0.0)))
    return Scenario(env=env, start=Vec3(20.0, width / 2, 100.0),
                    goal=Vec3(length + 20.0, width / 2, 100.0),
                    battery=BatteryState(670.0, 670.0, 50.0),
                    unknown_obstacles=tuple(obstacles),
                    dt=0.05, max_duration=20.0, planner="energy",
                    grid_resolution=20.0, planar_z=100.0)


def test_criterion_4_battery_invariants_and_audit():
    rng = np.random.default_rng(7)
    worst_audit = 0.0
    runs = 0
    for trial in range(100):
        sc = _random_feasible_scenario(rng)
        mode = "hybrid" if trial % 2 == 0 else "track-only"
        log, metrics = run_scenario(sc, mode=mode)
        assert metrics.terminal != "battery_depleted", "scenario not feasible"
        for t, level in zip(log.t, log.battery):
            assert sc.battery.floor <= level <= sc.battery.capacity, (trial, t, level)
        worst_audit = max(worst_audit, energy_audit(log, sc))
        runs += 1
    ok = runs == 100 and worst_audit < 1e-6
    report(4, ok, f"{runs} runs, worst double-entry residual {worst_audit:.2e} J")


# -------------------------------------------------------------- criterion 5

def test_criterion_5_privacy_dp():
    t0 = time.perf_counter()

    # Exact equality with the exhaustive (layer, node) enumeration on 9x9x3.
    # The wide shell cannot be fully escaped within the horizon, so the
    # optimum is strictly positive and the value arithmetic is exercised.
    region = PrivacyRegion(Vec3(80, 90, 20), 8.0, 90.0)
    env = Environment(bounds=Box(Vec3(0, 0, 0), Vec3(160, 160, 40)),
                      privacy_regions=(region,),
                      sun=SunModel(Vec3(80, 80, 5000.0)), z_min=0.0, z_max=40.0)
    m = 12
    plan = plan_privacy_dp(env, Vec3(0, 0, 0), Vec3(160, 160, 40), m, m * 2.0,
                           20.0, pitch=20.0)
    lat = plan.lattice
    assert lat.dims == (9, 9, 3)
    prob = ReferenceDpProblem(env, lat, 20.0, STAGE_SAMPLES)
    oracle = dp_value_by_recursion(prob, lat, lat.flat_of(8, 8, 2))
    p0 = lat.flat_of(0, 0, 0)
    best = min(oracle[(i, p0)] for i in range(m) if (i, p0) in oracle)
    exact = plan.risk == best and plan.risk > 0.0

    # Non-convex no-fly zone: DP risk at least 10% below the shortest baseline.
    bars = (Prism(Vec3(80, 120, 20), (20, 60, 20), (6, 6, 6)),
            Prism(Vec3(160, 120, 20), (20, 60, 20), (6, 6, 6)),
            Prism(Vec3(120, 160, 20), (60, 20, 20), (6, 6, 6)))
    shell = PrivacyRegion(Vec3(200, 100, 20), 6.0, 60.0)
    env2 = Environment(bounds=Box(Vec3(0, 0, 0), Vec3(240, 240, 40)),
                       known_obstacles=bars, privacy_regions=(shell,),
                       sun=SunModel(Vec3(120, 120, 5000.0)), z_min=0, z_max=40)
    m2, delta = 16, 2.0 * math.sqrt(2.0)
    plan2 = plan_privacy_dp(env2, Vec3(120, 100, 20), Vec3(140, 220, 20),
                            m2, m2 * delta, 10.0, pitch=20.0, planar=True)
    baseline_risk = _lattice_shortest_risk(env2, plan2, Vec3(120, 100, 20),
                                           Vec3(140, 220, 20))
    elapsed = time.perf_counter() - t0
    improvement = 1.0 - plan2.risk / baseline_risk
    ok = exact and baseline_risk > 0 and improvement >= 0.10 and elapsed < 30.0
    report(5, ok, f"table optimum exact ({plan.risk:.6f}); detour risk "
                  f"{plan2.risk:.4f} vs baseline {baseline_risk:.4f} "
                  f"({improvement:.0%} lower); {elapsed:.1f} s")


def _lattice_shortest_risk(env, plan, p0: Vec3, pf: Vec3) -> float:
    """Minimum-distance route on the same DP lattice, risk-scored the same way."""
    lat = plan.lattice
    prob = ReferenceDpProblem(env, lat, 10.0, STAGE_SAMPLES)
    s, g = lat.index_of_point(p0), lat.index_of_point(pf)
    dist = {s: 0.0}
    parent = {}
    heap = [(0.0, s)]
    while heap:
        d, n = heapq.heappop(heap)
        if n == g:
            break
        if d > dist.get(n, math.inf):
            continue
        ix, iy, iz = lat.unflatten(n)
        for k in prob.move_indices:
            dx, dy, dz = lat.offsets[k]
            if dx == dy == dz == 0:
                continue
            jx, jy, jz = ix + dx, iy + dy, iz + dz
            if not (0 <= jx < lat.dims[0] and 0 <= jy < lat.dims[1]
                    and 0 <= jz < lat.dims[2]):
                continue
            nxt = lat.flat_of(jx, jy, jz)
            if not prob.node_feasible(nxt) or not prob.move_feasible(n, nxt):
                continue
            cand = d + lat.spacing * math.sqrt(dx * dx + dy * dy + dz * dz)
            if cand < dist.get(nxt, math.inf):
                dist[nxt] = cand
                parent[nxt] = n
                heapq.heappush(heap, (cand, nxt))
    route = [g]
    while route[-1] != s:
        route.append(parent[route[-1]])
    route.reverse()
    return sum(prob.stage_cost(a, b) for a, b in zip(route, route[1:]))


# -------------------------------------------------------------- criterion 6

def test_criterion_6_hybrid_safety_and_benefit():
    sc = load_scenario("section5")
    t0 = time.perf_counter()
    hybrid_log, hybrid = run_scenario(sc, mode="hybrid")
    elapsed = time.perf_counter() - t0
    reactive_log, reactive = run_scenario(sc, mode="reactive-only")

    u_max = sc.limits.u_max
    bang_bang = all(u in (-u_max, 0.0, u_max)
                    for mode, u in zip(hybrid_log.mode, hybrid_log.u) if mode is Mode.AVOIDING)
    separation_ok = all(d > 0.0 for d in hybrid_log.min_dist)
    ok = (hybrid.reached_goal and not hybrid.collision and separation_ok
          and bang_bang and hybrid.net_cost < reactive.net_cost
          and elapsed < 10.0)
    report(6, ok,
           f"goal={hybrid.reached_goal} collision={hybrid.collision} "
           f"min sep {hybrid.min_separation:.2f} m; net {hybrid.net_cost:.1f} J "
           f"< reactive {reactive.net_cost:.1f} J; bang-bang={bang_bang}; "
           f"{elapsed:.2f} s")


# -------------------------------------------------------------- criterion 7

def test_criterion_7_harvest_point_checks():
    hp = HarvestParams(eta=0.2, g=380.0, s=0.3, h_up=1000.0, h_down=700.0,
                       beta_c=0.01, alpha_c=0.9, delta_c=8000.0)
    peak_ok = harvest_power_clear(1.0, False, hp) == 22.8
    mid_at_up = hp.peak_power * math.exp(-hp.beta_c * (hp.h_up - hp.h_up))
    low_at_down = hp.peak_power * math.exp(-hp.beta_c * (hp.h_up - hp.h_down))
    cont_ok = (abs(harvest_power_cloud(hp.h_up, hp) - mid_at_up) < 1e-12
               and abs(harvest_power_cloud(hp.h_down, hp) - low_at_down) < 1e-12)
    zs = np.linspace(0.0, 10000.0, 2001)
    powers = [harvest_power_altitude(z, hp) for z in zs]
    mono_ok = all(b >= a for a, b in zip(powers, powers[1:]))
    ok = peak_ok and cont_ok and mono_ok
    report(7, ok, f"peak 22.8 W exact={peak_ok}, cloud boundaries continuous="
                  f"{cont_ok}, altitude monotone over [0, 10 km]={mono_ok}")


# -------------------------------------------------------------- criterion 8

def test_criterion_8_controller_numerics():
    limits = ControlLimits(v_min=0.0, v_max=20.0, cruise=12.0,
                           u_max=2.0943951023931953)
    v, omega, dt = 12.0, 1.2, 1e-3
    x, y, heading = 0.0, 0.0, 0.0
    for _ in range(1000):
        x, y, heading = step_kinematics_planar(x, y, heading, v, omega, dt, limits)
    t = 1.0
    cx = (v / omega) * math.sin(omega * t)
    cy = -(v / omega) * (math.cos(omega * t) - 1.0)
    circle_err = math.hypot(x - cx, y - cy)

    path = [Vec3(20.0 * i, 0.0, 100.0) for i in range(40)]
    x, y, heading = 0.0, 5.0, 0.0
    sim_dt = 0.05
    for _ in range(int(10.0 / sim_dt)):
        target = pursuit_lookahead(path, x, y, 100.0, 20.0)
        v_cmd, u_cmd = pursuit_command(x, y, heading, target, 20.0, limits)
        x, y, heading = step_kinematics_planar(x, y, heading, v_cmd, u_cmd, sim_dt, limits)
    cross_track = abs(y)
    ok = circle_err < 1e-6 and cross_track < 0.5
    report(8, ok, f"circle endpoint error {circle_err:.2e} m; cross-track "
                  f"after 10 s {cross_track:.3f} m")


# -------------------------------------------------------------- criterion 9

def test_criterion_9_compare_determinism(tmp_path):
    runner = CliRunner()
    identical = True
    for preset in ("section4", "section5"):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{preset}_{tag}.yaml"
            result = runner.invoke(cli_main, [
                "compare", "-s", preset, "-p", "energy,time,shortest",
                "-o", str(out)])
            assert result.exit_code == 0, result.output
            outs.append((out.read_bytes(), result.output))
        identical &= outs[0] == outs[1]
    report(9, identical, "compare outputs byte-identical on section4/section5")
