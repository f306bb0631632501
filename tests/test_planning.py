"""Global planners versus brute-force oracles and battery feasibility."""

from __future__ import annotations

import heapq
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solarnav import (BatteryState, Box, EmptyGrid, EnergyModel, Environment,
                      HarvestModel, NavGrid, NoPath, NodeInObstacle, Prism, SunModel,
                      Vec3, build_grid, plan_energy_efficient, plan_shortest,
                      plan_time_efficient)
from solarnav import planning
from solarnav.planning import (_astar, _energy_rate, _energy_tables, _euclid_heuristic,
                               _max_edge_speed, _per_offset)
from solarnav.scenario_io import load_scenario

from conftest import empty_env, env_with, fork_env, random_env
import oracles
from oracles import (dijkstra_oracle, energy_edge_cost, length_edge_cost,
                     reference_battery_search, reference_plain_astar, time_edge_cost)

BIG_BATTERY = BatteryState(1e9, 1e9, 0.0)


@pytest.mark.parametrize("planar_z", [None, 60.3])
def test_euclid_heuristic_equals_scalar_expression(planar_z):
    """The tabulated heuristic equals rate * math.sqrt(dx*dx + dy*dy + dz*dz)
    on node coordinates bit for bit, at every node, for several goals."""
    grid = build_grid(random_env(np.random.default_rng(5)), 6.7, planar_z=planar_z)
    coords = [grid.node_xyz(n) for n in range(grid.node_count)]
    for goal, rate in ((0, 1.0), (grid.node_count // 3, 1.0 / _max_edge_speed(grid)),
                       (grid.node_count - 1, 0.37)):
        h = _euclid_heuristic(grid, goal, rate)
        gx, gy, gz = coords[goal]
        for n, (x, y, z) in enumerate(coords):
            dx, dy, dz = x - gx, y - gy, z - gz
            assert h(n) == rate * math.sqrt(dx * dx + dy * dy + dz * dz)


def distances_to_goal(grid, goal_flat, cost_fn):
    """Test-local Dijkstra over the reversed graph: exact cost-to-goal table."""
    dist = {goal_flat: 0.0}
    heap = [(0.0, goal_flat)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, math.inf):
            continue
        for nbr, k in grid.neighbors(node):
            # Forward traversal nbr -> node seen from the reverse side.
            c = cost_fn(nbr, node, k)
            cand = d + c
            if cand < dist.get(nbr, math.inf):
                dist[nbr] = cand
                heapq.heappush(heap, (cand, nbr))
    return dist


@pytest.mark.parametrize("planner, battery", [
    ("shortest", None), ("energy", None), ("energy", BatteryState(600, 670, 50)),
    ("time", None), ("time", BatteryState(600, 670, 50))],
    ids=("shortest", "energy-plain", "energy-battery", "time-plain", "time-battery"))
def test_zero_length_plan_when_start_equals_goal(planner, battery):
    """A start on the goal's node gives one waypoint, no edges and cost 0 from
    every planner, with the one-entry battery profile when a battery is given."""
    grid = build_grid(empty_env(100.0), 20.0)
    p = Vec3(40.0, 40.0, 40.0)
    if planner == "shortest":
        path = plan_shortest(grid, p, p)
    else:
        plan = plan_energy_efficient if planner == "energy" else plan_time_efficient
        path = plan(grid, battery, p, p)
    assert path.waypoints == [p]
    assert path.edges == []
    assert path.search_cost == 0.0
    assert path.net_cost == 0.0
    assert path.battery_profile == (None if battery is None else [battery.energy])


def test_start_in_obstacle_rejected():
    env = env_with([Prism(Vec3(50, 50, 50), (15, 15, 15), (2, 2, 2))])
    grid = build_grid(env, 10.0)
    with pytest.raises(NodeInObstacle):
        plan_shortest(grid, Vec3(50, 50, 50), Vec3(10, 10, 10))


def test_blocked_goal_raises_nopath():
    # Goal chamber walled off by a full-height, full-width slab.
    env = env_with([Prism(Vec3(50, 50, 50), (12, 58, 58), (6, 6, 6))], size=100.0)
    grid = build_grid(env, 10.0)
    with pytest.raises(NoPath):
        plan_shortest(grid, Vec3(10, 50, 50), Vec3(90, 50, 50))


def test_shortest_on_empty_world_is_straight():
    grid = build_grid(empty_env(100.0), 10.0)
    path = plan_shortest(grid, Vec3(0, 50, 50), Vec3(100, 50, 50))
    assert path.search_cost == pytest.approx(100.0)
    assert all(w.y == 50.0 and w.z == 50.0 for w in path.waypoints)


def test_shortest_matches_dijkstra_on_random_grids():
    rng = np.random.default_rng(123)
    for trial in range(10):
        size = float(rng.integers(100, 150))
        env = random_env(rng, size=size, n_prisms=int(rng.integers(1, 4)))
        grid = build_grid(env, 10.0)
        free = [f for f in range(grid.node_count) if grid.is_free(f)]
        start = grid.node_point(free[int(rng.integers(0, len(free)))])
        goal = grid.node_point(free[int(rng.integers(0, len(free)))])
        try:
            fast = plan_shortest(grid, start, goal)
        except NoPath:
            with pytest.raises(NoPath):
                dijkstra_oracle(grid, length_edge_cost(grid), start, goal)
            continue
        slow = dijkstra_oracle(grid, length_edge_cost(grid), start, goal)
        assert abs(fast.search_cost - slow.search_cost) < 1e-9


def test_unconstrained_energy_matches_dijkstra(default_battery):
    rng = np.random.default_rng(77)
    for trial in range(5):
        env = random_env(rng, size=120.0, n_prisms=2, min_axis=12.0)
        grid = build_grid(env, 12.0)
        free = [f for f in range(grid.node_count) if grid.is_free(f)]
        start = grid.node_point(free[0])
        goal = grid.node_point(free[-1])
        try:
            fast = plan_energy_efficient(grid, None, start, goal)
        except NoPath:
            continue
        slow = dijkstra_oracle(grid, energy_edge_cost(grid), start, goal)
        assert abs(fast.search_cost - slow.search_cost) < 1e-9


def test_dijkstra_rejects_negative_costs():
    grid = build_grid(empty_env(60.0), 20.0)
    with pytest.raises(ValueError):
        dijkstra_oracle(grid, lambda a, b, k: -1.0, Vec3(0, 0, 0), Vec3(60, 60, 60))


def test_dijkstra_single_edge():
    grid = build_grid(empty_env(40.0), 20.0)
    path = dijkstra_oracle(grid, length_edge_cost(grid),
                           Vec3(0, 0, 0), Vec3(20, 0, 0))
    assert len(path.waypoints) == 2
    assert path.search_cost == pytest.approx(20.0)


def test_heuristic_admissibility_against_oracle(default_battery):
    """h(n) <= true remaining cost for every free node, both objectives."""
    rng = np.random.default_rng(5)
    env = random_env(rng, size=110.0, n_prisms=2, min_axis=11.0)
    grid = build_grid(env, 11.0)
    free = [f for f in range(grid.node_count) if grid.is_free(f)]
    goal_flat = free[-1]
    gx, gy, gz = grid.node_xyz(goal_flat)

    rate = _energy_rate(grid)
    energy_d = distances_to_goal(grid, goal_flat, energy_edge_cost(grid))
    for node, true_cost in energy_d.items():
        x, y, z = grid.node_xyz(node)
        h = rate * math.dist((x, y, z), (gx, gy, gz))
        assert h <= true_cost + 1e-9

    v_eff = _max_edge_speed(grid)
    time_d = distances_to_goal(grid, goal_flat, time_edge_cost(grid))
    for node, true_cost in time_d.items():
        x, y, z = grid.node_xyz(node)
        h = math.dist((x, y, z), (gx, gy, gz)) / v_eff
        assert h <= true_cost + 1e-9


def _objectives(grid, goal_flat):
    """(edge cost, heuristic) of the energy and the time planner."""
    return [(energy_edge_cost(grid), _euclid_heuristic(grid, goal_flat, _energy_rate(grid))),
            (time_edge_cost(grid), _euclid_heuristic(grid, goal_flat,
                                                     1.0 / _max_edge_speed(grid)))]


def _planner_tables(grid, goal_flat):
    """(dark, lit, heuristic) of the energy, the time and the shortest planner."""
    return [(*_energy_tables(grid), _euclid_heuristic(grid, goal_flat, _energy_rate(grid))),
            (*_per_offset(grid, grid.duration),
             _euclid_heuristic(grid, goal_flat, 1.0 / _max_edge_speed(grid))),
            (*_per_offset(grid, grid.length), _euclid_heuristic(grid, goal_flat, 1.0))]


def _table_cost(grid, dark, lit):
    """The search tables `dark`, `lit` as an (a, b, k) edge cost."""
    n, nz = grid.node_count, grid.dims[2]
    shadow = grid.search_tables()[0]
    return lambda a, _b, k: dark[k] if shadow[k * n + a] else lit[k * nz + a % nz]


@pytest.mark.parametrize("mode", list(HarvestModel))
def test_heuristics_are_consistent(mode):
    """h(a) <= c(a, b) + h(b) on every edge, for both objectives, on a 3D grid
    and a planar grid with a prism. The battery search prunes with the best
    energy expanded per node, which is exact only for consistent heuristics."""
    rng = np.random.default_rng(5)
    energy = EnergyModel(mode=mode)
    grids = [build_grid(random_env(rng, size=110.0, n_prisms=2, min_axis=11.0), 11.0,
                        energy=energy),
             build_grid(fork_env(), 20.0, planar_z=60.0, energy=energy)]
    for grid in grids:
        free = np.flatnonzero(grid.free.ravel()).tolist()
        for goal_flat in (free[0], free[len(free) // 2], free[-1]):
            for cost, h in _objectives(grid, goal_flat):
                for a in free:
                    for b, k in grid.neighbors(a):
                        assert h(a) <= cost(a, b, k) + h(b) + 1e-9


def _expansions(search, grid, *args):
    """(flats, cost), or None on NoPath, and the nodes expanded in order: one
    entry per `grid.neighbors` call."""
    expanded = []
    grid.neighbors = lambda flat: expanded.append(flat) or NavGrid.neighbors(grid, flat)
    try:
        return search(grid, *args), expanded
    except NoPath:
        return None, expanded
    finally:
        del grid.neighbors


_unit = st.tuples(*[st.floats(0.0, 1.0)] * 3)  # a point as a fraction of the bounds
_prism = st.tuples(_unit, st.tuples(*[st.floats(10.0, 25.0)] * 3),
                   st.sampled_from([(1, 1, 1), (2, 2, 2), (4, 4, 4), (2, 1, 3)]))


def _random_grid(dims, prisms, mode, sun):
    """A 10 m grid of `dims` nodes with up to two prisms placed by unit
    fractions of the bounds, or None when no node is free. Low suns cast long
    prism shadows."""
    res = 10.0
    nx, ny, nz = dims
    planar = nz == 1
    hi = (res * (nx - 1), res * (ny - 1), 40.0 if planar else res * (nz - 1))

    def at(unit):
        return Vec3(*(u * h for u, h in zip(unit, hi)))

    sun_at = Vec3(hi[0] * (5.0 * sun[0] - 2.0), hi[1] * (5.0 * sun[1] - 2.0),
                  hi[2] + 30.0 + 300.0 * sun[2])
    env = Environment(bounds=Box(Vec3(0, 0, 0), Vec3(*hi)),
                      known_obstacles=tuple(Prism(at(c), a, e) for c, a, e in prisms),
                      sun=SunModel.from_position(sun_at, at((0.5, 0.5, 0.5))),
                      z_min=0.0, z_max=hi[2])
    try:
        return build_grid(env, res, planar_z=20.0 if planar else None,
                          energy=EnergyModel(mode=mode))
    except EmptyGrid:
        return None


_dims = st.tuples(st.integers(2, 9), st.integers(2, 9), st.integers(1, 4))
_prisms = st.lists(_prism, max_size=2)
_modes = st.sampled_from(list(HarvestModel))
_ends = st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))


def _endpoints(grid, ends):
    free = np.flatnonzero(grid.free.ravel()).tolist()
    return free[ends[0] % len(free)], free[ends[1] % len(free)]


@settings(max_examples=100, deadline=None)
@given(dims=_dims, prisms=_prisms, mode=_modes, sun=_unit, capacity=st.floats(50.0, 1500.0),
       levels=st.tuples(st.floats(0.0, 0.8), st.floats(0.0, 1.0)), ends=_ends)
def test_battery_search_matches_pareto_reference(dims, prisms, mode, sun, capacity,
                                                 levels, ends):
    """The best-energy-per-node search returns the same node sequence and the
    exact cost as the Pareto-bucket reference, or NoPath with it, after the
    same expansions in the same order, for the energy and the time objective.
    Small batteries make the floor bind.

    Edge costs are rounded up, and heuristics down, to multiples of 1/1024,
    so every cost sum is exact and the heuristics stay consistent. With the
    unrounded costs, two labels at a node can carry costs a few ulps apart
    that are equal in exact arithmetic: the reference compares those floats
    as distinct costs, this search takes costs at a node as settled in pop
    order, and the two can then break such a tie differently."""
    grid = _random_grid(dims, prisms, mode, sun)
    if grid is None:
        return
    start, goal = _endpoints(grid, ends)
    floor = levels[0] * capacity
    battery = BatteryState(floor + levels[1] * (capacity - floor), capacity, floor)
    for dark, lit, h in _planner_tables(grid, goal)[:2]:
        dark, lit = ([math.ceil(c * 1024) / 1024 for c in t] for t in (dark, lit))
        h = lambda n, h=h: math.floor(h(n) * 1024) / 1024
        assert _expansions(_astar, grid, start, goal, battery, dark, lit, h) == \
            _expansions(reference_battery_search, grid, start, goal, battery,
                        _table_cost(grid, dark, lit), h)


def _pushes(module, search, grid, *args):
    """`_expansions` of `search`, and the number of heappush calls `module`
    made during it."""
    real, pushes = module.heapq, []
    module.heapq = SimpleNamespace(heappop=real.heappop,
                                   heappush=lambda h, x: pushes.append(x) or real.heappush(h, x))
    try:
        return _expansions(search, grid, *args), len(pushes)
    finally:
        module.heapq = real


@settings(max_examples=300, deadline=None)
@given(dims=_dims, prisms=_prisms, mode=_modes, sun=_unit, ends=_ends)
def test_battery_free_search_matches_plain_astar(dims, prisms, mode, sun, ends):
    """Without a battery the label search returns plain A*'s node sequence and
    cost, as the same float, or NoPath with it, after the same expansions in
    the same order, and pushes as many heap entries, for the energy, time and
    length costs: with infinite energy the last-push check is plain A*'s
    `cand < g_best` test."""
    grid = _random_grid(dims, prisms, mode, sun)
    if grid is None:
        return
    start, goal = _endpoints(grid, ends)
    for dark, lit, h in _planner_tables(grid, goal):
        assert _pushes(planning, _astar, grid, start, goal, None, dark, lit, h) == \
            _pushes(oracles, reference_plain_astar, grid, start, goal,
                    _table_cost(grid, dark, lit), h)


@pytest.mark.parametrize("resolution", [20.0, 10.0])
def test_battery_search_matches_pareto_reference_on_section4(resolution):
    """On section4 with the planners' own costs, both objectives give the
    reference's node sequence and exact cost, and expand the same nodes as
    often. At 10 m some expansions come in another order: a label whose cost
    is a few ulps below an expanded one at its node may pop later."""
    sc = load_scenario("section4")
    grid = build_grid(sc.env, resolution, margin=sc.grid_margin, energy=sc.energy)
    start, goal = grid.index_of_point(sc.start), grid.index_of_point(sc.goal)
    for dark, lit, h in _planner_tables(grid, goal)[:2]:
        got, got_nodes = _expansions(_astar, grid, start, goal, sc.battery, dark, lit, h)
        want, want_nodes = _expansions(reference_battery_search, grid, start, goal,
                                       sc.battery, _table_cost(grid, dark, lit), h)
        assert got == want
        assert sorted(got_nodes) == sorted(want_nodes)


def test_fork_prefers_sunlit_corridor(default_battery):
    """Equal-length fork: net-energy search must pick the sunlit side, and the
    node sequence must match the Dijkstra oracle over the same edge costs."""
    env = fork_env()
    grid = build_grid(env, 20.0, planar_z=60.0)
    start, goal = Vec3(20, 100, 60), Vec3(380, 100, 60)
    path = plan_energy_efficient(grid, default_battery, start, goal)
    oracle = dijkstra_oracle(grid, energy_edge_cost(grid), start, goal)
    assert abs(path.search_cost - oracle.search_cost) < 1e-9
    # The sunlit corridor runs south of the slab (y < 60).
    mid = [w for w in path.waypoints if 160 <= w.x <= 240]
    assert mid and all(w.y < 60.0 for w in mid)


def test_battery_feasibility_of_returned_paths():
    env = fork_env()
    grid = build_grid(env, 20.0, planar_z=60.0)
    battery = BatteryState(670.0, 670.0, 50.0)
    for plan_fn in (plan_energy_efficient, plan_time_efficient):
        path = plan_fn(grid, battery, Vec3(20, 100, 60), Vec3(380, 100, 60))
        profile = path.battery_profile
        assert profile is not None
        assert all(battery.floor - 1e-9 <= b <= battery.capacity + 1e-9
                   for b in profile)
        # Recompute independently from the edge records.
        level = battery.energy
        for e in path.edges:
            level = min(battery.capacity, level - e.e_out + e.e_gain)
            assert level >= battery.floor - 1e-9
        assert level == pytest.approx(profile[-1])


def test_time_planner_matches_shortest_nodes_with_big_battery():
    """At constant speed on a planar grid, time is length scaled by 1/v, so
    both searches must return the same node sequence. A power-of-two cruise
    speed keeps the scaling exact in floating point, so even cost ties break
    identically."""
    from solarnav import ConsumptionParams
    env = fork_env()
    model = EnergyModel(ConsumptionParams(v=16.0, v_up=2.0, v_down=4.0))
    grid = build_grid(env, 20.0, planar_z=60.0, energy=model)
    start, goal = Vec3(20, 40, 60), Vec3(380, 160, 60)
    t_path = plan_time_efficient(grid, BIG_BATTERY, start, goal)
    s_path = plan_shortest(grid, start, goal)
    assert [w.as_tuple() for w in t_path.waypoints] == \
        [w.as_tuple() for w in s_path.waypoints]
    assert t_path.search_cost == pytest.approx(s_path.search_cost / 16.0)


def test_tight_battery_forces_sunlit_detour():
    """Shaded direct corridor becomes infeasible on a small battery; the time
    planner must detour and stay above the floor; duration is cross-checked
    against the product-graph oracle."""
    from oracles import constrained_time_dijkstra
    env = fork_env()
    grid = build_grid(env, 20.0, planar_z=60.0)
    start, goal = Vec3(20, 100, 60), Vec3(380, 100, 60)

    # Feasible on a huge battery: straight-ish through either corridor.
    fast = plan_time_efficient(grid, BIG_BATTERY, start, goal)

    # Budget of 420 J: enough for the sunlit corridor (~334 J) but not the
    # shaded one (~536 J).
    tight = BatteryState(450.0, 450.0, 30.0)
    path = plan_time_efficient(grid, tight, start, goal)
    assert min(path.battery_profile) >= tight.floor - 1e-9
    assert path.total_duration >= fast.total_duration - 1e-9
    mid = [w for w in path.waypoints if 160 <= w.x <= 240]
    assert mid and all(w.y < 60.0 for w in mid)

    oracle = constrained_time_dijkstra(grid, tight.capacity, tight.floor,
                                       tight.energy, start, goal, quantum=0.05)
    assert oracle is not None
    assert path.search_cost <= oracle + 1e-6


def test_planner_determinism():
    env = fork_env()
    grid1 = build_grid(env, 20.0, planar_z=60.0)
    grid2 = build_grid(env, 20.0, planar_z=60.0)
    b = BatteryState(670.0, 670.0, 50.0)
    p1 = plan_energy_efficient(grid1, b, Vec3(20, 100, 60), Vec3(380, 100, 60))
    p2 = plan_energy_efficient(grid2, b, Vec3(20, 100, 60), Vec3(380, 100, 60))
    assert [w.as_tuple() for w in p1.waypoints] == [w.as_tuple() for w in p2.waypoints]
    assert p1.search_cost == p2.search_cost
