"""Independent brute-force oracles used to cross-check the library.

Every oracle here recomputes its answer by a different mechanism than the
code under test: a classify-then-price pass per move instead of one pass,
dense ray-marching instead of analytic minimization, every row clipped
against every prism in one pass instead of a broad phase and row blocks,
array indexing per offset instead of plain-list neighbours, doubling
and bisection on Vec3 points instead of a closed-form bracket, dense
resampling instead of arc-length walking, per-edge scalar evaluation instead
of per-offset tables and a batched shadow mask, every lattice row tested
instead of a broad phase on the lattice, product-graph search instead
of label-setting A*, uniform-cost search with no heuristic instead of A*,
node-keyed A* with a closed set instead of labels of infinite energy,
Pareto buckets instead of one best energy per node, recursion/enumeration
instead of layered DP tables, a scalar per-(layer, node, move) DP instead
of tables built once and backed up over whole layers, and per-edge cost
callables instead of the planners' dark/lit cost tables.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from solarnav import (BatteryState, ConsumptionParams, EdgeCost, Environment, NavGrid,
                      NoPath, Path, Prism, PrivacyRegion, Vec3, gamma, in_shadow,
                      incidence_cosine, is_collision, segment_blocked, segments_blocked)
from solarnav.privacy import DpLattice


def raymarch_segment_blocked(env: Environment, a: Vec3, b: Vec3,
                             step: float = 0.1) -> bool:
    """Dense sampling of the segment at `step` meters against every prism."""
    av, bv = a.as_array(), b.as_array()
    n = max(2, int(math.ceil(np.linalg.norm(bv - av) / step)) + 1)
    ts = np.linspace(0.0, 1.0, n)
    pts = av[None, :] + ts[:, None] * (bv - av)[None, :]
    for prism in env.known_obstacles:
        c = prism.center.as_array()
        s = np.array(prism.semi_axes)
        d = np.array(prism.exponents)
        q = ((pts - c) / s) ** 2
        g = q[:, 0] ** d[0] + q[:, 1] ** d[1] + q[:, 2] ** d[2]
        if (g <= 1.0).any():
            return True
    return False


def reference_segments_blocked(env: Environment, starts: np.ndarray,
                                ends: np.ndarray) -> np.ndarray:
    """`world.segments_blocked` as it was before its broad phase and row
    blocks: every remaining row is slab-clipped against every prism's AABB in
    one pass, then searched with gamma's arrays rebuilt at each evaluation.
    The kernels below are copies, so a change to the library's is caught."""
    starts = np.asarray(starts, dtype=float).reshape(-1, 3)
    ends = np.asarray(ends, dtype=float).reshape(-1, 3)
    dirs = ends - starts
    blocked = np.zeros(starts.shape[0], dtype=bool)
    for prism in env.known_obstacles:
        todo = ~blocked
        if not todo.any():
            break
        lo, hi = prism.aabb()
        t0, t1, valid = _reference_clip(starts[todo], dirs[todo], lo, hi)
        if not valid.any():
            continue
        sub = np.flatnonzero(todo)[valid]
        min_g = _reference_min_gamma(starts[sub], dirs[sub], prism, t0[valid], t1[valid])
        blocked[sub[min_g <= 1.0]] = True
    return blocked


def _reference_gamma_points(points: np.ndarray, prism: Prism) -> np.ndarray:
    c = prism.center.as_array()
    s = np.array(prism.semi_axes, dtype=float)
    d = np.array(prism.exponents, dtype=int)
    q = ((points - c) / s) ** 2
    return q[:, 0] ** d[0] + q[:, 1] ** d[1] + q[:, 2] ** d[2]


def _reference_clip(starts: np.ndarray, dirs: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = starts.shape[0]
    t0 = np.zeros(n)
    t1 = np.ones(n)
    valid = np.ones(n, dtype=bool)
    for axis in range(3):
        s = starts[:, axis]
        d = dirs[:, axis]
        near_zero = np.abs(d) < 1e-303
        miss = near_zero & ((s < lo[axis]) | (s > hi[axis]))
        valid &= ~miss
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (lo[axis] - s) / d
            tb = (hi[axis] - s) / d
        lo_t = np.where(near_zero, 0.0, np.minimum(ta, tb))
        hi_t = np.where(near_zero, 1.0, np.maximum(ta, tb))
        t0 = np.maximum(t0, lo_t)
        t1 = np.minimum(t1, hi_t)
    valid &= t0 <= t1
    return t0, t1, valid


def _reference_min_gamma(starts: np.ndarray, dirs: np.ndarray, prism: Prism,
                         t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    if prism.exponents == (1, 1, 1):
        s = np.array(prism.semi_axes, dtype=float)
        u = (starts - prism.center.as_array()) / s
        w = dirs / s
        qa = np.einsum("ij,ij->i", w, w)
        qb = 2.0 * np.einsum("ij,ij->i", u, w)
        qc = np.einsum("ij,ij->i", u, u)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_star = np.where(qa > 0, -qb / (2.0 * np.maximum(qa, 1e-300)), t0)
        t_star = np.clip(t_star, t0, t1)
        return qa * t_star * t_star + qb * t_star + qc

    def g_at(t: np.ndarray) -> np.ndarray:
        return _reference_gamma_points(starts + t[:, None] * dirs, prism)

    a, b = t0.copy(), t1.copy()
    for _ in range(48):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        left_lower = g_at(m1) < g_at(m2)
        b = np.where(left_lower, m2, b)
        a = np.where(left_lower, a, m1)
    return g_at((a + b) / 2.0)


def reference_prism_clearance(p: Vec3, prism: Prism) -> float:
    """Signed distance to the surface along the center ray, found by doubling
    a bracket from s = 1 and then bisecting it 60 times, each step evaluating
    gamma at a Vec3 point. Points whose bracket passes s = 1e6 return r."""
    d = p - prism.center
    r = d.norm()
    if r == 0.0:
        return -min(prism.semi_axes)
    if gamma(p, prism) == 1.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while gamma(prism.center + d.scaled(hi), prism) < 1.0:
        lo, hi = hi, hi * 2.0
        if hi > 1e6:
            return r
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gamma(prism.center + d.scaled(mid), prism) < 1.0:
            lo = mid
        else:
            hi = mid
    return r * (1.0 - 0.5 * (lo + hi))


def reference_neighbors(grid: NavGrid, flat: int) -> List[Tuple[int, int]]:
    """`NavGrid.neighbors` by array indexing: edge_ok[k, ix, iy, iz] for each
    offset k, and the target from the node's indices plus offsets[k]."""
    ix, iy, iz = grid.unflatten(flat)
    _, ny, nz = grid.dims
    out = []
    for k in range(grid.offsets.shape[0]):
        if grid.edge_ok[k, ix, iy, iz]:
            dx, dy, dz = grid.offsets[k]
            out.append((int(((ix + dx) * ny + iy + dy) * nz + iz + dz), k))
    return out


def reference_grid_masks(grid: NavGrid) -> Tuple[np.ndarray, np.ndarray]:
    """`edge_ok` and `shadow` of `grid` with no broad phase: every pair of
    free nodes one offset apart, and then the midpoint of every edge, goes
    through `segments_blocked`. Offset k < K // 2 and its reverse share the
    verdict of the segment from the source along k, as in `build_grid`."""
    idx = grid.indices()
    starts = grid.node_coords(idx)
    free = grid.free.reshape(-1)
    n_off = grid.offsets.shape[0]
    edge_ok = np.zeros((n_off, grid.node_count), dtype=bool)
    for k in range(n_off // 2):
        off = grid.offsets[k]
        src = np.flatnonzero(np.all((idx + off >= 0) & (idx + off < grid.dims), axis=1))
        dst = grid.flat_of(*(idx[src] + off).T)
        pair = free[src] & free[dst]
        src, dst = src[pair], dst[pair]
        ok = ~segments_blocked(grid.env, starts[src], starts[src] + off * grid.spacing)
        edge_ok[k, src[ok]] = True
        edge_ok[n_off - 1 - k, dst[ok]] = True
    shadow = np.zeros_like(edge_ok)
    sun = grid.env.sun.position.as_array()
    for k, off in enumerate(grid.offsets):
        at = np.flatnonzero(edge_ok[k])
        mids = grid.origin + (2 * idx[at] + off) * (grid.spacing / 2.0)
        shadow[k, at] = segments_blocked(grid.env, np.broadcast_to(sun, mids.shape), mids)
    shape = (n_off,) + tuple(grid.dims)
    return edge_ok.reshape(shape), shadow.reshape(shape)


def reference_edge_cost(grid: NavGrid, a: int, b: int) -> EdgeCost:
    """Annotation of the directed edge a -> b evaluated on its own: motion
    from the node coordinate deltas, a scalar shadow test of the sun at the
    midpoint, and the model's harvest power at the midpoint altitude."""
    pa = np.array(grid.node_xyz(a))
    pb = np.array(grid.node_xyz(b))
    d_h = float(math.hypot(pb[0] - pa[0], pb[1] - pa[1]))
    dz = float(pb[2] - pa[2])
    e_out, duration = grid.energy.consumption.move(d_h, dz)
    mid = Vec3.from_array((pa + pb) / 2.0)
    shadowed = in_shadow(grid.env, mid)
    sun = grid.env.sun
    cos_theta = incidence_cosine(0.0, 0.0, sun.azimuth, sun.elevation)
    power = grid.energy.harvest_power(cos_theta, shadowed, mid.z)
    return EdgeCost(e_out, power * duration, duration,
                    float(np.linalg.norm(pb - pa)), shadowed)


def reference_move(distance: float, dz: float,
                   params: ConsumptionParams) -> Tuple[float, float]:
    """(e_out, duration) of one move in two passes: first classify the move
    as a climb, a descent or level and take the slower of its horizontal and
    vertical components as its duration, then sum the level term and a climb
    or descent term."""
    if dz > 0:
        v_vert = params.v_up
    elif dz < 0:
        v_vert = params.v_down
    else:
        v_vert = 1.0
    duration = max(distance / params.v, abs(dz) / v_vert)
    e = params.p_level * distance / params.v
    if dz > 0:
        e += params.p_up * dz / params.v_up
    elif dz < 0:
        e += params.p_down * (-dz) / params.v_down
    return e, duration


def resampled_lookahead(waypoints: Sequence[Vec3], p: Vec3, lookahead: float,
                        step: float = 0.01) -> Vec3:
    """Lookahead target recomputed by centimeter stepping along the polyline.

    Anchored at the waypoint nearest to p (same anchor as the controller);
    the arc-length walk itself is replaced by dense marching."""
    nearest = min(range(len(waypoints)), key=lambda i: (p.dist_to(waypoints[i]), i))
    pts = [waypoints[nearest].as_array()]
    for a, b in zip(waypoints[nearest:], waypoints[nearest + 1:]):
        av, bv = a.as_array(), b.as_array()
        seg = float(np.linalg.norm(bv - av))
        n = max(1, int(math.ceil(seg / step)))
        for i in range(1, n + 1):
            pts.append(av + (i / n) * (bv - av))
    dense = np.array(pts)
    if len(dense) == 1:
        return Vec3.from_array(dense[0])
    hops = np.linalg.norm(np.diff(dense, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(hops)])
    idx = int(np.searchsorted(arc, lookahead))
    if idx >= len(dense):
        return Vec3.from_array(dense[-1])
    return Vec3.from_array(dense[idx])


def cone_angles_by_sampling(vehicle: Vec3, heading: float, center: Vec3,
                            radius: float, n: int = 10000) -> Tuple[float, float]:
    """Extreme body-frame bearings of a circle found by boundary sampling."""
    phis = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    bx = center.x + radius * np.cos(phis) - vehicle.x
    by = center.y + radius * np.sin(phis) - vehicle.y
    bearings = np.arctan2(by, bx) - heading
    bearings = np.arctan2(np.sin(bearings), np.cos(bearings))
    return float(bearings.max()), float(bearings.min())


def riemann_risk(traj: Sequence[Tuple[float, Vec3]],
                 regions: Sequence[PrivacyRegion], substeps: int = 10000) -> float:
    """Left-Riemann integral of the summed intensities on a dense time grid."""
    t0, t1 = traj[0][0], traj[-1][0]
    times = [t for t, _ in traj]
    pts = np.array([[p.x, p.y, p.z] for _, p in traj])
    grid = np.linspace(t0, t1, substeps + 1)
    xs = np.interp(grid, times, pts[:, 0])
    ys = np.interp(grid, times, pts[:, 1])
    zs = np.interp(grid, times, pts[:, 2])
    total = np.zeros(substeps + 1)
    for r in regions:
        d = np.sqrt((xs - r.center.x) ** 2 + (ys - r.center.y) ** 2
                    + (zs - r.center.z) ** 2)
        f = np.clip((d - r.c2) / (r.c1 - r.c2), 0.0, 1.0)
        total += f
    dt = (t1 - t0) / substeps
    return float(total[:-1].sum() * dt)


def constrained_time_dijkstra(grid: NavGrid, capacity: float, floor: float,
                              initial: float, start: Vec3, goal: Vec3,
                              quantum: float = 0.25) -> Optional[float]:
    """Minimum-duration path on the (node, quantized battery) product graph.

    Battery is rounded DOWN to `quantum` after each edge, which only makes the
    constraint harsher, so any duration found is achievable; with a fine
    quantum it matches the exact optimum on small instances."""
    s = grid.index_of_point(start)
    g = grid.index_of_point(goal)
    init_q = int(initial / quantum)
    heap: List[Tuple[float, int, int]] = [(0.0, s, init_q)]
    best: Dict[Tuple[int, int], float] = {(s, init_q): 0.0}
    while heap:
        dur, node, eq = heapq.heappop(heap)
        if node == g:
            return dur
        if dur > best.get((node, eq), math.inf):
            continue
        energy = eq * quantum
        for nbr, k in grid.neighbors(node):
            e = grid.edge_cost(node, nbr)
            new_energy = min(capacity, energy - e.e_out + e.e_gain)
            if new_energy < floor:
                continue
            new_eq = int(new_energy / quantum)
            cand = dur + e.duration
            key = (nbr, new_eq)
            if cand < best.get(key, math.inf):
                best[key] = cand
                heapq.heappush(heap, (cand, nbr, new_eq))
    return None


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


def dijkstra_oracle(grid: NavGrid, edge_cost: Callable[[int, int, int], float],
                    start: Vec3, goal: Vec3) -> Path:
    """Exact minimum-cost path by uniform-cost search over `grid.neighbors`;
    admits no heuristic and shares no search code with the planners.

    Rejects negative edge costs, which would invalidate the relaxation."""
    s = grid.index_of_point(start)
    g = grid.index_of_point(goal)
    dist: Dict[int, float] = {s: 0.0}
    parent: Dict[int, int] = {}
    done = set()
    heap: List[Tuple[float, int]] = [(0.0, s)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        if node == g:
            flats = [node]
            while flats[-1] in parent:
                flats.append(parent[flats[-1]])
            flats.reverse()
            return Path([grid.node_point(f) for f in flats],
                        [grid.edge_cost(a, b) for a, b in zip(flats, flats[1:])], d)
        done.add(node)
        for nbr, k in grid.neighbors(node):
            c = edge_cost(node, nbr, k)
            if c < 0:
                raise ValueError(f"negative edge cost {c} on edge {node}->{nbr}")
            if d + c < dist.get(nbr, math.inf):
                dist[nbr] = d + c
                parent[nbr] = node
                heapq.heappush(heap, (d + c, nbr))
    raise NoPath("no route between the requested nodes")


def reference_plain_astar(grid: NavGrid, start: int, goal: int,
                          edge_fn: Callable[[int, int, int], float],
                          h_fn: Callable[[int], float]) -> Tuple[List[int], float]:
    """Plain A* over nodes with a closed set and lexicographic (f, node index)
    tie-breaking; `planning._astar` without a battery must push, expand and
    return the same."""
    g_best: Dict[int, float] = {start: 0.0}
    parent: Dict[int, int] = {}
    open_heap: List[Tuple[float, int]] = [(h_fn(start), start)]
    closed = set()
    while open_heap:
        f, node = heapq.heappop(open_heap)
        if node in closed:
            continue
        if node == goal:
            flats = [node]
            while flats[-1] in parent:
                flats.append(parent[flats[-1]])
            flats.reverse()
            return flats, g_best[node]
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


def reference_battery_search(grid: NavGrid, start: int, goal: int, battery: BatteryState,
                             edge_fn: Callable[[int, int, int], float],
                             h_fn: Callable[[int], float]) -> Tuple[List[int], float]:
    """Label-setting A* over (node, battery energy) with full Pareto buckets.

    A label survives only if no other label at the node has both lower-or-equal
    cost and higher-or-equal energy; labels it dominates leave the bucket and
    are skipped when popped. Returns the node sequence and cost of the first
    goal label popped, as `planning._astar` does."""
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
        g, energy, _ = next(e for e in frontier[node] if e[2] == label_id)
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
                continue
            new_g = g + cost
            bucket = frontier.setdefault(nbr, [])
            if any(bg <= new_g and be >= new_e for bg, be, _ in bucket):
                continue
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


def _point_segment_distance(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(c - a))
    t = float(np.clip((c - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(c - (a + t * ab)))


def _scalar_intensity(p: Vec3, region: PrivacyRegion) -> float:
    d = p.dist_to(region.center)
    if d >= region.c2:
        return 0.0
    if d <= region.c1:
        return 1.0
    return (d - region.c2) / (region.c1 - region.c2)


class ReferenceDpProblem:
    """Feasibility and stage cost of the privacy DP, one (node, move) at a
    time on Vec3 points, with its own intensity and point-segment distance.
    Answers are memoized per node and per move; they depend on no layer."""

    def __init__(self, env: Environment, lattice: DpLattice, v_max: float,
                 samples_per_stage: int):
        self.env = env
        self.lattice = lattice
        self.samples = samples_per_stage
        self._node_ok: Dict[int, bool] = {}
        self._move_ok: Dict[Tuple[int, int], bool] = {}
        self._cost: Dict[Tuple[int, int], float] = {}
        move_len = np.linalg.norm(lattice.offsets * lattice.spacing, axis=1)
        speed_ok = move_len <= v_max * lattice.delta * (1 + 1e-9)
        self.move_indices = [k for k in range(lattice.offsets.shape[0]) if speed_ok[k]]

    def node_feasible(self, flat: int) -> bool:
        ok = self._node_ok.get(flat)
        if ok is None:
            p = self.lattice.node_point(flat)
            ok = not is_collision(p, self.env) and all(
                p.dist_to(r.center) > r.c1 for r in self.env.privacy_regions)
            self._node_ok[flat] = ok
        return ok

    def move_feasible(self, a: int, b: int) -> bool:
        """Whole constant-heading segment a -> b must respect hard constraints."""
        if a == b:
            return True
        ok = self._move_ok.get((a, b))
        if ok is None:
            pa = self.lattice.node_point(a)
            pb = self.lattice.node_point(b)
            ok = not (self.env.known_obstacles and segment_blocked(self.env, pa, pb))
            aa, bb = pa.as_array(), pb.as_array()
            ok = ok and all(_point_segment_distance(r.center.as_array(), aa, bb) > r.c1
                            for r in self.env.privacy_regions)
            self._move_ok[(a, b)] = ok
        return ok

    def stage_cost(self, a: int, b: int) -> float:
        """Risk accumulated over one stage of duration delta along a -> b."""
        cost = self._cost.get((a, b))
        if cost is None:
            cost = self._stage_cost(a, b)
            self._cost[(a, b)] = cost
        return cost

    def _stage_cost(self, a: int, b: int) -> float:
        regions = self.env.privacy_regions
        if not regions:
            return 0.0
        pa = self.lattice.node_point(a).as_array()
        pb = self.lattice.node_point(b).as_array()
        n = self.samples
        total = 0.0
        prev = self._intensity_at(pa, regions)
        for s in range(1, n + 1):
            pt = pa + (s / n) * (pb - pa)
            cur = self._intensity_at(pt, regions)
            total += 0.5 * (prev + cur)
            prev = cur
        return total * self.lattice.delta / n

    @staticmethod
    def _intensity_at(p: np.ndarray, regions: Sequence[PrivacyRegion]) -> float:
        v = Vec3(float(p[0]), float(p[1]), float(p[2]))
        return sum(_scalar_intensity(v, r) for r in regions)


def reference_dp_tables(problem: ReferenceDpProblem, lattice: DpLattice, pf_flat: int
                        ) -> Tuple[List[Dict[int, float]], List[Dict[int, int]]]:
    """Layered value and move tables by the per-successor scalar loop: each
    layer visits the reachable successors in ascending index and keeps the
    first strictly cheaper predecessor move."""
    m_layers = lattice.m_layers
    nx, ny, nz = lattice.dims
    values: List[Dict[int, float]] = [dict() for _ in range(m_layers + 1)]
    moves: List[Dict[int, int]] = [dict() for _ in range(m_layers + 1)]
    values[m_layers][pf_flat] = 0.0
    for i in range(m_layers - 1, -1, -1):
        layer = values[i]
        move_layer = moves[i]
        for q in sorted(values[i + 1]):
            v_next = values[i + 1][q]
            qx, qy, qz = lattice.unflatten(q)
            for k in problem.move_indices:
                dx, dy, dz = lattice.offsets[k]
                px, py, pz = qx - dx, qy - dy, qz - dz
                if not (0 <= px < nx and 0 <= py < ny and 0 <= pz < nz):
                    continue
                pred = lattice.flat_of(px, py, pz)
                if not problem.node_feasible(pred) or not problem.move_feasible(pred, q):
                    continue
                cand = v_next + problem.stage_cost(pred, q)
                if cand < layer.get(pred, math.inf):
                    layer[pred] = cand
                    move_layer[pred] = k
    return values, moves


def dp_value_by_recursion(problem: ReferenceDpProblem, lattice: DpLattice,
                          pf_flat: int) -> Dict[Tuple[int, int], float]:
    """Risk-to-go recomputed by top-down memoized recursion over (layer, node)."""
    moves = [tuple(lattice.offsets[k]) for k in problem.move_indices]
    nx, ny, nz = lattice.dims
    m_layers = lattice.m_layers

    @lru_cache(maxsize=None)
    def value(i: int, flat: int) -> float:
        if i == m_layers:
            return 0.0 if flat == pf_flat else math.inf
        ix, iy, iz = lattice.unflatten(flat)
        best = math.inf
        for dx, dy, dz in moves:
            jx, jy, jz = ix + dx, iy + dy, iz + dz
            if not (0 <= jx < nx and 0 <= jy < ny and 0 <= jz < nz):
                continue
            nxt = lattice.flat_of(jx, jy, jz)
            if not problem.node_feasible(nxt) or not problem.move_feasible(flat, nxt):
                continue
            tail = value(i + 1, nxt)
            if tail < math.inf:
                best = min(best, problem.stage_cost(flat, nxt) + tail)
        return best

    out: Dict[Tuple[int, int], float] = {}
    for i in range(m_layers + 1):
        for flat in range(nx * ny * nz):
            if problem.node_feasible(flat):
                v = value(i, flat)
                if v < math.inf:
                    out[(i, flat)] = v
    return out


def dp_optimum_by_path_enumeration(problem: ReferenceDpProblem, lattice: DpLattice,
                                   p0_flat: int, pf_flat: int) -> float:
    """Literal enumeration of every stage-by-stage trajectory (small instances).

    Walks all move sequences of every admissible length up to m_layers and
    returns the cheapest total risk of those ending exactly at the target."""
    moves = [tuple(lattice.offsets[k]) for k in problem.move_indices]
    nx, ny, nz = lattice.dims
    best = [math.inf]

    def recurse(flat: int, stages_left: int, acc: float) -> None:
        if acc >= best[0]:
            return
        if stages_left == 0:
            if flat == pf_flat:
                best[0] = acc
            return
        ix, iy, iz = lattice.unflatten(flat)
        for dx, dy, dz in moves:
            jx, jy, jz = ix + dx, iy + dy, iz + dz
            if not (0 <= jx < nx and 0 <= jy < ny and 0 <= jz < nz):
                continue
            nxt = lattice.flat_of(jx, jy, jz)
            if not problem.node_feasible(nxt) or not problem.move_feasible(flat, nxt):
                continue
            recurse(nxt, stages_left - 1, acc + problem.stage_cost(flat, nxt))

    for start_stages in range(1, lattice.m_layers + 1):
        recurse(p0_flat, start_stages, 0.0)
    return best[0]
