"""Global planners on a NavGrid: energy-efficient and time-efficient search
under a battery floor, a shortest-path benchmark, and a Dijkstra oracle.

Edge ordering costs are floored at zero so the searches stay on nonnegative
weights; the true signed energy flow is tracked separately in the battery
profile."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .energy import BatteryState
from .grid import EdgeCost, NavGrid
from .world import Vec3


class NoPath(Exception):
    """Goal unreachable under the active constraints."""


class NodeInObstacle(Exception):
    """Start or goal does not map to a free grid node."""


@dataclass
class Path:
    """Waypoint sequence with per-edge energy/time annotations.

    `search_cost` is the value the producing search minimized; `net_cost`
    reports consumption minus the harvest actually banked by the battery.
    """

    waypoints: List[Vec3]
    edges: List[EdgeCost]
    search_cost: float
    battery_profile: Optional[List[float]] = None
    applied_gain: Optional[float] = None

    @property
    def total_e_out(self) -> float:
        return sum(e.e_out for e in self.edges)

    @property
    def total_e_gain(self) -> float:
        return sum(e.e_gain for e in self.edges)

    @property
    def total_duration(self) -> float:
        return sum(e.duration for e in self.edges)

    @property
    def length(self) -> float:
        return sum(e.length for e in self.edges)

    @property
    def net_cost(self) -> float:
        gain = self.applied_gain if self.applied_gain is not None else self.total_e_gain
        return self.total_e_out - gain


def attach_battery_profile(path: Path, battery: BatteryState) -> Path:
    """Recompute the along-path battery trace with capacity clamping.

    The trace is annotated even when infeasible (it may dip below the floor);
    feasible planners guarantee it stays within [floor, capacity]."""
    level = battery.energy
    profile = [level]
    applied = 0.0
    for e in path.edges:
        new_level = min(battery.capacity, level - e.e_out + e.e_gain)
        applied += new_level - level + e.e_out
        level = new_level
        profile.append(level)
    path.battery_profile = profile
    path.applied_gain = applied
    return path


def _map_endpoint(grid: NavGrid, p: Vec3, label: str) -> int:
    try:
        flat = grid.index_of_point(p)
    except ValueError as exc:
        raise NodeInObstacle(f"{label} {p.as_tuple()}: {exc}") from exc
    if not grid.is_free(flat):
        raise NodeInObstacle(f"{label} {p.as_tuple()} maps to an occupied node")
    return flat


def _assemble(grid: NavGrid, flats: List[int], search_cost: float,
              battery: Optional[BatteryState] = None) -> Path:
    waypoints = [grid.node_point(f) for f in flats]
    edges = [grid.edge_cost(a, b) for a, b in zip(flats, flats[1:])]
    path = Path(waypoints, edges, search_cost)
    if battery is not None:
        attach_battery_profile(path, battery)
    return path


def _reconstruct(parent: Dict[int, int], node: int) -> List[int]:
    out = [node]
    while node in parent:
        node = parent[node]
        out.append(node)
    out.reverse()
    return out


def _astar_plain(grid: NavGrid, start: int, goal: int,
                 edge_fn: Callable[[int, int, int], float],
                 h_fn: Callable[[int], float]) -> Tuple[List[int], float]:
    """Plain A* with lexicographic (f, node index) tie-breaking."""
    g_best: Dict[int, float] = {start: 0.0}
    parent: Dict[int, int] = {}
    open_heap: List[Tuple[float, int]] = [(h_fn(start), start)]
    closed = set()
    while open_heap:
        f, node = heapq.heappop(open_heap)
        if node in closed:
            continue
        if node == goal:
            return _reconstruct(parent, node), g_best[node]
        closed.add(node)
        g = g_best[node]
        for nbr, k in grid.neighbors(node):
            if nbr in closed:
                continue
            cand = g + edge_fn(node, nbr, k)
            if cand < g_best.get(nbr, math.inf):
                g_best[nbr] = cand
                parent[nbr] = node
                heapq.heappush(open_heap, (cand + h_fn(nbr), nbr))
    raise NoPath("no route between the requested nodes")


def _astar_battery(grid: NavGrid, start: int, goal: int, battery: BatteryState,
                   edge_fn: Callable[[int, int, int], float],
                   h_fn: Callable[[int], float]) -> Tuple[List[int], float]:
    """Label-setting A* over (node, battery energy) with Pareto dominance.

    A label survives only if no other label at the node has both lower-or-equal
    cost and higher-or-equal energy; this keeps re-expansions that arrive with
    strictly more energy, which the battery floor can later reward."""
    n, nz = grid.node_count, grid.dims[2]
    shadow, e_out, lit_gain = grid.search_tables()
    counter = 0
    frontier: Dict[int, List[Tuple[float, float, int]]] = {start: [(0.0, battery.energy, 0)]}
    parents: Dict[int, Tuple[Optional[int], int]] = {0: (None, start)}
    live = {0}
    open_heap: List[Tuple[float, int, int]] = [(h_fn(start), start, 0)]
    while open_heap:
        f, node, label_id = heapq.heappop(open_heap)
        if label_id not in live:
            continue
        entry = next(e for e in frontier[node] if e[2] == label_id)
        g, energy, _ = entry
        if node == goal:
            flats = []
            cur: Optional[int] = label_id
            while cur is not None:
                par, at = parents[cur]
                flats.append(at)
                cur = par
            flats.reverse()
            return flats, g
        iz = node % nz
        for nbr, k in grid.neighbors(node):
            cost = edge_fn(node, nbr, k)
            gain = 0.0 if shadow[k * n + node] else lit_gain[k * nz + iz]
            new_e = min(battery.capacity, energy - e_out[k] + gain)
            if new_e < battery.floor:
                continue  # CheckBattery fails: hard floor breached
            new_g = g + cost
            bucket = frontier.setdefault(nbr, [])
            if any(bg <= new_g and be >= new_e for bg, be, _ in bucket):
                continue  # dominated
            # Remove entries the new label dominates.
            for bg, be, bid in list(bucket):
                if new_g <= bg and new_e >= be:
                    bucket.remove((bg, be, bid))
                    live.discard(bid)
            counter += 1
            bucket.append((new_g, new_e, counter))
            live.add(counter)
            parents[counter] = (label_id, nbr)
            heapq.heappush(open_heap, (new_g + h_fn(nbr), nbr, counter))
    raise NoPath("no route satisfies the battery constraint")


def _euclid_heuristic(grid: NavGrid, goal: int, rate: float) -> Callable[[int], float]:
    """h(n) = rate * straight-line distance to the goal node."""
    xs, ys, zs = grid.coord_lists()
    gx, gy, gz = xs[goal], ys[goal], zs[goal]
    sqrt = math.sqrt

    def h(n: int) -> float:
        dx = xs[n] - gx
        dy = ys[n] - gy
        dz = zs[n] - gz
        return rate * sqrt(dx * dx + dy * dy + dz * dz)
    return h


def energy_edge_cost(grid: NavGrid) -> Callable[[int, int, int], float]:
    """Nonnegative ordering cost of an edge: net expenditure floored at zero.

    A shadowed edge costs its consumption; a sunlit one its consumption
    minus the lit gain of its offset and source layer."""
    n, nz = grid.node_count, grid.dims[2]
    shadow, e_out, lit_gain = grid.search_tables()
    lit = [max(0.0, e_out[i // nz] - g) for i, g in enumerate(lit_gain)]

    def fn(a: int, _b: int, k: int) -> float:
        if shadow[k * n + a]:
            return e_out[k]  # consumption is never negative
        return lit[k * nz + a % nz]
    return fn


def _offset_cost(table) -> Callable[[int, int, int], float]:
    values = table.tolist()

    def fn(_a: int, _b: int, k: int) -> float:
        return values[k]
    return fn


def time_edge_cost(grid: NavGrid) -> Callable[[int, int, int], float]:
    return _offset_cost(grid.duration)


def length_edge_cost(grid: NavGrid) -> Callable[[int, int, int], float]:
    return _offset_cost(grid.length)


def _energy_rate(grid: NavGrid) -> float:
    """Admissible J-per-meter lower bound assuming full sun on every move."""
    c = grid.energy.consumption
    g_max = grid.energy.max_harvest_power()
    rates = [(c.p_level - g_max) / c.v,
             (c.p_up - g_max) / c.v_up,
             (c.p_down - g_max) / c.v_down]
    return max(0.0, min(rates))


def _max_edge_speed(grid: NavGrid) -> float:
    """Largest length/duration ratio over the grid's motion primitives."""
    c = grid.energy.consumption
    r = grid.resolution
    best = 0.0
    for off in grid.offsets:
        d_h = r * math.hypot(off[0], off[1])
        dz = r * abs(off[2])
        v_vert = c.v_up if off[2] > 0 else c.v_down
        duration = max(d_h / c.v, dz / v_vert if off[2] != 0 else 0.0)
        best = max(best, math.sqrt(d_h * d_h + dz * dz) / duration)
    return best


def plan_shortest(grid: NavGrid, start: Vec3, goal: Vec3) -> Path:
    """Minimum Euclidean-length grid path; ignores energy entirely."""
    s = _map_endpoint(grid, start, "start")
    g = _map_endpoint(grid, goal, "goal")
    if s == g:
        return Path([grid.node_point(s)], [], 0.0)
    h = _euclid_heuristic(grid, g, 1.0)
    flats, cost = _astar_plain(grid, s, g, length_edge_cost(grid), h)
    return _assemble(grid, flats, cost)


def plan_energy_efficient(grid: NavGrid, battery: Optional[BatteryState],
                          start: Vec3, goal: Vec3) -> Path:
    """Minimize net energy expenditure subject to the battery floor.

    Pass battery=None for the unconstrained search (oracle comparisons)."""
    s = _map_endpoint(grid, start, "start")
    g = _map_endpoint(grid, goal, "goal")
    if s == g:
        path = Path([grid.node_point(s)], [], 0.0)
        return attach_battery_profile(path, battery) if battery else path
    h = _euclid_heuristic(grid, g, _energy_rate(grid))
    if battery is None:
        flats, cost = _astar_plain(grid, s, g, energy_edge_cost(grid), h)
        return _assemble(grid, flats, cost)
    flats, cost = _astar_battery(grid, s, g, battery, energy_edge_cost(grid), h)
    return _assemble(grid, flats, cost, battery)


def plan_time_efficient(grid: NavGrid, battery: Optional[BatteryState],
                        start: Vec3, goal: Vec3) -> Path:
    """Minimize total duration subject to the same battery floor/clamp."""
    s = _map_endpoint(grid, start, "start")
    g = _map_endpoint(grid, goal, "goal")
    if s == g:
        path = Path([grid.node_point(s)], [], 0.0)
        return attach_battery_profile(path, battery) if battery else path
    h = _euclid_heuristic(grid, g, 1.0 / _max_edge_speed(grid))
    if battery is None:
        flats, cost = _astar_plain(grid, s, g, time_edge_cost(grid), h)
        return _assemble(grid, flats, cost)
    flats, cost = _astar_battery(grid, s, g, battery, time_edge_cost(grid), h)
    return _assemble(grid, flats, cost, battery)


def dijkstra_oracle(grid: NavGrid, edge_cost: Callable[[int, int, int], float],
                    start: Vec3, goal: Vec3) -> Path:
    """Exact minimum-cost path by uniform-cost search; admits no heuristic.

    Rejects negative edge costs, which would invalidate the relaxation."""
    s = _map_endpoint(grid, start, "start")
    g = _map_endpoint(grid, goal, "goal")
    if s == g:
        return Path([grid.node_point(s)], [], 0.0)

    def checked(a: int, b: int, k: int) -> float:
        c = edge_cost(a, b, k)
        if c < 0:
            raise ValueError(f"negative edge cost {c} on edge {a}->{b}")
        return c

    flats, cost = _astar_plain(grid, s, g, checked, lambda n: 0.0)
    return _assemble(grid, flats, cost)
