"""Independent brute-force oracles used to cross-check the library.

Every oracle here recomputes its answer by a different mechanism than the
code under test: dense ray-marching instead of analytic minimization, doubling
and bisection on Vec3 points instead of a closed-form bracket, dense
resampling instead of arc-length walking, per-edge scalar evaluation instead
of per-offset tables and a batched shadow mask, product-graph search instead
of label-setting A*, and recursion/enumeration instead of layered DP tables.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from solarnav import (EdgeCost, Environment, NavGrid, Prism, PrivacyRegion, Vec3,
                      consumption_energy, gamma, in_shadow, incidence_cosine,
                      motion_segment)
from solarnav.privacy import DpLattice, _DpProblem


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


def reference_edge_cost(grid: NavGrid, a: int, b: int) -> EdgeCost:
    """Annotation of the directed edge a -> b evaluated on its own: motion
    from the node coordinate deltas, a scalar shadow test of the t = 0 sun at
    the midpoint, and the model's harvest power at the midpoint altitude."""
    pa = np.array(grid.node_xyz(a))
    pb = np.array(grid.node_xyz(b))
    d_h = float(math.hypot(pb[0] - pa[0], pb[1] - pa[1]))
    dz = float(pb[2] - pa[2])
    seg = motion_segment(d_h, dz, grid.energy.consumption)
    e_out = consumption_energy(seg, grid.energy.consumption)
    mid = Vec3.from_array((pa + pb) / 2.0)
    shadowed = in_shadow(grid.env, mid, 0.0)
    sun = grid.env.sun
    cos_theta = incidence_cosine(0.0, 0.0, sun.azimuth, sun.elevation)
    power = grid.energy.harvest_power(cos_theta, shadowed, mid.z)
    return EdgeCost(e_out, power * seg.duration, seg.duration,
                    float(np.linalg.norm(pb - pa)))


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


def dp_value_by_recursion(problem: _DpProblem, lattice: DpLattice,
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


def dp_optimum_by_path_enumeration(problem: _DpProblem, lattice: DpLattice,
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
