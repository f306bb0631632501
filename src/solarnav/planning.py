"""Global planners on a NavGrid: energy-efficient and time-efficient search
under a battery floor, and a shortest-path benchmark.

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


def _astar(grid: NavGrid, start: int, goal: int, battery: Optional[BatteryState],
           dark: List[float], lit: List[float],
           h_fn: Callable[[int], float]) -> Tuple[List[int], float]:
    """Label-setting A* over (node, battery energy), pruned BOA*-style.

    An edge along offset k from layer iz costs `dark[k]` when shadowed and
    `lit[k * nz + iz]` when sunlit; one shadow test picks cost and gain.

    Labels pop in (f, node, g, -energy) order. A label is expanded only if it
    carries more energy than every label expanded at its node before it, so
    one scalar per node, `best_e`, stands in for the Pareto set of the labels
    there (Hernandez et al., BOA*, ICAPS 2020, after Martins' label-setting
    algorithm, 1984). The pruning is exact because:

    - h_fn is consistent (`_energy_rate` and `_max_edge_speed` bound every
      edge's cost per meter), so f never decreases along a path, and every
      label expanded at a node before another costs no more than it;
    - the update min(cap, e - e_out + gain) never decreases as e grows, so a
      label with no more cost and no less energy than another at the same
      node stays so after any common extension.

    Both hold in exact arithmetic. In floating point two labels at a node can
    carry costs a few ulps apart; the one popped later is pruned on energy
    alone, so a tie between paths of equal cost may break otherwise than
    under a full Pareto set.

    A label is not pushed if the last label pushed at its node (`last_g`,
    `last_e`) has no more cost and no less energy: h depends only on the
    node, so it would pop after that label and `best_e` would prune it, and
    expansions and parents stay as they were. Without a battery every label
    carries infinite energy (cap, floor, start energy = inf, -inf, inf):
    `best_e` marks the closed nodes, the check is plain A*'s `g < g_best`,
    and the search pushes and expands what plain A* in (f, node) order does."""
    n, nz = grid.node_count, grid.dims[2]
    shadow, e_out, lit_gain = grid.search_tables()
    cap, floor, e0 = ((math.inf, -math.inf, math.inf) if battery is None
                      else (battery.capacity, battery.floor, battery.energy))
    labels: List[Tuple[int, int]] = [(-1, start)]  # (parent label, node)
    best_e: Dict[int, float] = {}
    last_g: Dict[int, float] = {}
    last_e: Dict[int, float] = {}
    open_heap = [(h_fn(start), start, 0.0, -e0, 0)]
    while open_heap:
        _, node, g, neg_e, label = heapq.heappop(open_heap)
        energy = -neg_e
        if energy <= best_e.get(node, -math.inf):
            continue  # a label expanded here has no more cost and no less energy
        best_e[node] = energy
        if node == goal:
            flats = []
            while label >= 0:
                label, at = labels[label]
                flats.append(at)
            return flats[::-1], g
        iz = node % nz
        for nbr, k in grid.neighbors(node):
            j = k * nz + iz
            if shadow[k * n + node]:
                gain, step = 0.0, dark[k]
            else:
                gain, step = lit_gain[j], lit[j]
            new_e = energy - e_out[k] + gain
            new_e = new_e if new_e < cap else cap  # min(cap, new_e) without the call
            if new_e < floor or new_e <= best_e.get(nbr, -math.inf):
                continue  # CheckBattery fails, or a label expanded at nbr dominates
            new_g = g + step
            if new_g >= last_g.get(nbr, math.inf) and new_e <= last_e[nbr]:
                continue  # the last label pushed at nbr dominates
            last_g[nbr], last_e[nbr] = new_g, new_e
            heapq.heappush(open_heap, (new_g + h_fn(nbr), nbr, new_g, -new_e, len(labels)))
            labels.append((label, nbr))
    raise NoPath("no route between the requested nodes" if battery is None
                 else "no route satisfies the battery constraint")


def _euclid_heuristic(grid: NavGrid, goal: int, rate: float) -> Callable[[int], float]:
    """h(n) = rate * straight-line distance to the goal node, tabulated for
    every node in one pass with the scalar expression's operation order."""
    import numpy as np  # local: importing planning pulls in nothing new

    xyz = grid.node_coords(grid.indices())
    d = xyz - xyz[goal]
    dx, dy, dz = d[:, 0], d[:, 1], d[:, 2]
    return (rate * np.sqrt(dx * dx + dy * dy + dz * dz)).tolist().__getitem__


def _energy_tables(grid: NavGrid) -> Tuple[List[float], List[float]]:
    """`_astar`'s tables of the net expenditure floored at zero: a shadowed
    edge costs its consumption, a sunlit one its consumption minus the lit
    gain of its offset and source layer."""
    nz, e_out = grid.dims[2], grid.e_out.tolist()
    lit_gain = grid.lit_gain.ravel().tolist()
    return e_out, [max(0.0, e_out[j // nz] - g) for j, g in enumerate(lit_gain)]


def _per_offset(grid: NavGrid, table) -> Tuple[List[float], List[float]]:
    """`_astar`'s tables of a cost set by the offset alone, sunlit or not."""
    dark = table.tolist()
    return dark, [c for c in dark for _ in range(grid.dims[2])]


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
    return float((grid.length / grid.duration).max())


def _plan(grid: NavGrid, battery: Optional[BatteryState], start: Vec3, goal: Vec3,
          dark: List[float], lit: List[float], rate: float) -> Path:
    """Search driver of the grid planners: map both endpoints, search with the
    tables `dark`, `lit` and the heuristic `rate` x straight-line distance
    under `battery` (unbounded energy when None) and annotate the path's edges."""
    s = _map_endpoint(grid, start, "start")
    g = _map_endpoint(grid, goal, "goal")
    flats, cost = _astar(grid, s, g, battery, dark, lit, _euclid_heuristic(grid, g, rate))
    path = Path([grid.node_point(f) for f in flats],
                [grid.edge_cost(a, b) for a, b in zip(flats, flats[1:])], cost)
    return path if battery is None else attach_battery_profile(path, battery)


def plan_shortest(grid: NavGrid, start: Vec3, goal: Vec3) -> Path:
    """Minimum Euclidean-length grid path; ignores energy entirely."""
    return _plan(grid, None, start, goal, *_per_offset(grid, grid.length), 1.0)


def plan_energy_efficient(grid: NavGrid, battery: Optional[BatteryState],
                          start: Vec3, goal: Vec3) -> Path:
    """Minimize net energy expenditure subject to the battery floor.

    With battery=None no floor or capacity binds: plain A* on the same cost."""
    return _plan(grid, battery, start, goal, *_energy_tables(grid), _energy_rate(grid))


def plan_time_efficient(grid: NavGrid, battery: Optional[BatteryState],
                        start: Vec3, goal: Vec3) -> Path:
    """Minimize total duration subject to the same battery floor/clamp."""
    return _plan(grid, battery, start, goal, *_per_offset(grid, grid.duration),
                 1.0 / _max_edge_speed(grid))
