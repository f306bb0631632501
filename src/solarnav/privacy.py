"""Privacy-aware planning: intensity fields, trajectory risk integrals, and a
time-layered dynamic-programming planner minimizing accumulated risk."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .grid import Lattice, _offsets
from .world import Environment, PrivacyRegion, Vec3, clear_of_prisms, segment_blocked


MAX_DP_STATES = 1_000_000  # nodes within m_layers steps of pf x (m_layers + 1)
STAGE_SAMPLES = 16  # risk samples per DP stage


class Unreachable(Exception):
    """No feasible trajectory reaches the target within the time horizon."""


class DpBudgetExceeded(ValueError):
    """The DP lattice asks for more states than MAX_DP_STATES."""


def _distances(points: np.ndarray, center: Vec3) -> np.ndarray:
    dx = points[:, 0] - center.x
    dy = points[:, 1] - center.y
    dz = points[:, 2] - center.z
    return np.sqrt(dx * dx + dy * dy + dz * dz)


def privacy_intensities(points: np.ndarray, regions: Sequence[PrivacyRegion]) -> np.ndarray:
    """Summed violation intensity at each of the (N, 3) points. A region
    contributes 1 inside its c1 core, 0 beyond c2 and is linear in distance
    between; regions are added in order, starting from 0.0."""
    total = np.zeros(len(points))
    for r in regions:
        d = _distances(points, r.center)
        total = total + np.where(d >= r.c2, 0.0,
                                 np.where(d <= r.c1, 1.0, (d - r.c2) / (r.c1 - r.c2)))
    return total


def privacy_intensity(p: Vec3, region: PrivacyRegion) -> float:
    """Violation intensity of one region at one point, in [0, 1]."""
    return float(privacy_intensities(p.as_array()[None, :], (region,))[0])


def total_privacy_risk(traj: Sequence[Tuple[float, Vec3]],
                       regions: Sequence[PrivacyRegion]) -> float:
    """Trapezoidal time integral of the summed intensities along a trajectory."""
    if len(traj) < 2:
        return 0.0
    times = [t for t, _ in traj]
    if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
        raise ValueError("trajectory timestamps must be strictly increasing")
    values = privacy_intensities(np.array([p.as_tuple() for _, p in traj]), regions).tolist()
    risk = 0.0
    for i in range(len(traj) - 1):
        risk += 0.5 * (values[i] + values[i + 1]) * (times[i + 1] - times[i])
    return risk


@dataclass
class DpLattice(Lattice):
    """Layered value tables of the privacy DP over a cubic lattice, whose
    node indexing and coordinates come from `Lattice`.

    values[i] maps a flat node index to the minimum risk-to-go from layer i;
    moves[i] stores the offset index realizing it."""

    delta: float
    m_layers: int
    offsets: np.ndarray                      # (K, 3), row 0 is the hold move
    values: List[Dict[int, float]] = field(default_factory=list)
    moves: List[Dict[int, int]] = field(default_factory=list)


@dataclass
class PrivacyPlan:
    """DP result: node trajectory at stage boundaries plus its risk value."""

    trajectory: List[Tuple[float, Vec3]]
    t_f: float
    risk: float
    lattice: DpLattice
    start_layer: int

    def sampled(self, per_stage: int) -> List[Tuple[float, Vec3]]:
        """Trajectory densified to `per_stage` subintervals per DP stage."""
        out: List[Tuple[float, Vec3]] = [self.trajectory[0]]
        for (t0, p0), (t1, p1) in zip(self.trajectory, self.trajectory[1:]):
            for s in range(1, per_stage + 1):
                u = s / per_stage
                out.append((t0 + u * (t1 - t0),
                            Vec3(p0.x + u * (p1.x - p0.x),
                                 p0.y + u * (p1.y - p0.y),
                                 p0.z + u * (p1.z - p0.z))))
        return out


def _lattice_offsets(planar: bool) -> np.ndarray:
    """The hold row (0, 0, 0), then the grid's motion primitives in order."""
    return np.vstack([np.zeros((1, 3), dtype=int), _offsets(planar)])


def _clear_moves(env: Environment, pred: np.ndarray, succ: np.ndarray, points: np.ndarray,
                 verdicts: Dict[Tuple[int, int], bool]) -> np.ndarray:
    """Which moves pred -> succ (distinct rows of `points`) keep their
    segment out of every c1 core and clear of every prism: a vector core
    test, then one scalar segment test per undirected segment that passed
    it. `verdicts` maps a segment's (lower, higher) row pair to whether it
    is blocked, tested from the lower row; one plan shares it across its
    move columns, so a move and its reverse cost one test."""
    pa, pb = points[pred], points[succ]
    ab = pb - pa
    denom = ab[:, 0] * ab[:, 0] + ab[:, 1] * ab[:, 1] + ab[:, 2] * ab[:, 2]
    ok = np.ones(len(pred), dtype=bool)
    for r in env.privacy_regions:
        ca = r.center.as_array() - pa
        t = np.clip((ca[:, 0] * ab[:, 0] + ca[:, 1] * ab[:, 1] + ca[:, 2] * ab[:, 2]) / denom,
                    0.0, 1.0)
        ok &= _distances(pa + t[:, None] * ab, r.center) > r.c1
    if env.known_obstacles:
        ends = np.sort(np.stack((pred, succ), axis=1), axis=1).tolist()
        for row in np.flatnonzero(ok).tolist():
            i, j = ends[row]
            blocked = verdicts.get((i, j))
            if blocked is None:
                blocked = verdicts[i, j] = segment_blocked(env, Vec3.from_array(points[i]),
                                                           Vec3.from_array(points[j]))
            ok[row] = not blocked
    return ok


def _stage_costs(pa: np.ndarray, pb: np.ndarray, regions: Sequence[PrivacyRegion],
                 delta: float) -> np.ndarray:
    """Risk of each stage pa -> pb of duration delta: the trapezoid rule over
    STAGE_SAMPLES + 1 evenly spaced samples, summed sample by sample."""
    total = 0.0
    prev = privacy_intensities(pa, regions)
    for s in range(1, STAGE_SAMPLES + 1):
        cur = privacy_intensities(pa + (s / STAGE_SAMPLES) * (pb - pa), regions)
        total = total + 0.5 * (prev + cur)
        prev = cur
    return total * delta / STAGE_SAMPLES


def _reach_box(center: np.ndarray, dims: np.ndarray,
               m_layers: int) -> Tuple[np.ndarray, np.ndarray]:
    """Index bounds [lo, hi) of the lattice nodes within m_layers Chebyshev
    steps of `center`. A move changes each index by at most one, so no node
    outside them reaches the center within m_layers stages."""
    return np.maximum(center - m_layers, 0), np.minimum(center + m_layers + 1, dims)


def dp_lattice_dims(env: Environment, anchor: Vec3, m_layers: int, t_max: float,
                    v_max: float, pitch: Optional[float] = None,
                    planar: bool = False) -> Tuple[np.ndarray, float, Tuple[int, int, int]]:
    """Origin, pitch and node counts of the DP lattice anchored at `anchor`
    over the bounds (one z layer, at the anchor, when planar). The default
    pitch lets the lattice diagonal take one stage of t_max / m_layers at v_max.

    Raises ValueError when m_layers < 1 or when t_max or the pitch is not
    finite and positive, and DpBudgetExceeded when the nodes within m_layers
    steps of the anchor, times m_layers + 1, exceed MAX_DP_STATES or the
    lattice has too many nodes for int64 flat indices."""
    if m_layers < 1:
        raise ValueError("m_layers must be at least 1")
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be finite and positive, got {t_max}")
    if pitch is None:
        pitch = v_max * (t_max / m_layers) / (math.sqrt(2.0) if planar else math.sqrt(3.0))
    if not (math.isfinite(pitch) and pitch > 0):
        raise ValueError(f"lattice pitch must be finite and positive, got {pitch}")
    lo, hi = env.bounds.lo.as_array(), env.bounds.hi.as_array()
    a = anchor.as_array()
    if planar:
        lo[2] = hi[2] = a[2]  # one z layer, index 0
    # Checked before dividing, which would overflow for a subnormal pitch.
    if not np.abs([lo - a, hi - a]).max() < pitch * 2.0 ** 63:
        raise DpBudgetExceeded(f"pitch {pitch:.6g} gives an axis no int64 flat index spans")
    k_lo = np.ceil((lo - a) / pitch - 1e-9)
    k_hi = np.floor((hi - a) / pitch + 1e-9)
    counts = np.maximum(k_hi - k_lo + 1, 0)
    nodes = math.prod(counts.tolist())
    if not nodes < 2.0 ** 63:
        raise DpBudgetExceeded(f"a lattice of {nodes:.6g} nodes at pitch {pitch:.6g} "
                               f"has no int64 flat index")
    box_lo, box_hi = _reach_box(-k_lo, counts, m_layers)
    states = math.prod(np.maximum(box_hi - box_lo, 0).tolist()) * (m_layers + 1)
    if states > MAX_DP_STATES:
        raise DpBudgetExceeded(f"{states:.6g} DP states (lattice nodes within m_layers steps "
                               f"of the target x layers) exceed the budget of {MAX_DP_STATES}")
    return a + k_lo * pitch, pitch, tuple(int(c) for c in counts)


def _nodes_ok(env: Environment, points: np.ndarray) -> np.ndarray:
    """Which (N, 3) points are collision-free, as `is_collision` decides, and
    outside every c1 core."""
    z = points[:, 2]
    ok = ((points >= env.bounds.lo.as_array()).all(axis=1)
          & (points <= env.bounds.hi.as_array()).all(axis=1)
          & (env.z_min <= z) & (z <= env.z_max) & clear_of_prisms(env, points))
    for r in env.privacy_regions:
        ok &= _distances(points, r.center) > r.c1
    return ok


def plan_privacy_dp(env: Environment, p0: Vec3, pf: Vec3, m_layers: int,
                    t_max: float, v_max: float, pitch: Optional[float] = None,
                    planar: bool = False) -> PrivacyPlan:
    """Backward time-layered DP from the target over a cubic lattice.

    The lattice is anchored at pf; p0 snaps to its nearest node. Each stage
    lasts delta = t_max / m_layers and moves along one of the 26 lattice
    directions (8 when planar) or holds; moves faster than v_max are pruned.
    A node is feasible when it is collision-free and outside every c1 core;
    a move between feasible nodes is feasible when its segment clears every
    prism and every c1 core. Feasibility and stage costs depend on no layer,
    so they are tabulated once per (node, move) before the backup, which then
    takes each layer's minimum over moves in ascending successor index (ties
    go to the smallest successor index). Only nodes within m_layers steps of
    pf, and moves into nodes within m_layers - 1 steps, are tabulated: no
    other node or move lies on a path that reaches pf in time.
    Raises Unreachable when p0 belongs to no reachable layer.
    """
    origin, pitch, dims = dp_lattice_dims(env, pf, m_layers, t_max, v_max, pitch, planar)
    delta = t_max / m_layers
    lattice = DpLattice(origin=origin, spacing=pitch, dims=dims, delta=delta,
                        m_layers=m_layers, offsets=_lattice_offsets(planar))
    pf_flat, p0_flat = lattice.index_of_point(pf), lattice.index_of_point(p0)
    if not _nodes_ok(env, np.array([lattice.node_xyz(pf_flat), lattice.node_xyz(p0_flat)])).all():
        raise ValueError("start or target violates the hard constraints")

    # The reach box around pf, indexed locally in the same (x, y, z) order.
    pf_idx = np.array(lattice.unflatten(pf_flat))
    box_lo, box_hi = _reach_box(pf_idx, np.array(dims), m_layers)
    box = tuple((box_hi - box_lo).tolist())
    n_nodes = math.prod(box)
    idx = box_lo + np.stack(np.unravel_index(np.arange(n_nodes), box), axis=1)
    points = lattice.node_coords(idx)
    node_ok = _nodes_ok(env, points)
    into_ok = node_ok & (np.abs(idx - pf_idx).max(axis=1) < m_layers)
    regions = env.privacy_regions

    # Tables: column j holds move ks[j] from every node. Columns ascend in
    # offset (dx, dy, dz), so each node's successors ascend in flat index.
    offsets = lattice.offsets
    speed_ok = np.linalg.norm(offsets * pitch, axis=1) <= v_max * delta * (1 + 1e-9)
    ks = sorted(np.flatnonzero(speed_ok).tolist(), key=lambda k: tuple(offsets[k]))
    box_delta = offsets @ np.array([box[1] * box[2], box[2], 1])
    succ = np.full((n_nodes, len(ks)), n_nodes)        # n_nodes: no move, V = inf
    cost = np.zeros((n_nodes, len(ks)))
    verdicts: Dict[Tuple[int, int], bool] = {}
    for j, k in enumerate(ks):
        q_idx = idx + offsets[k]
        pred = np.flatnonzero(node_ok & np.all((q_idx >= box_lo) & (q_idx < box_hi), axis=1))
        pred = pred[into_ok[pred + box_delta[k]]]
        if k != 0:
            pred = pred[_clear_moves(env, pred, pred + box_delta[k], points, verdicts)]
        succ[pred, j] = pred + box_delta[k]
        cost[pred, j] = _stage_costs(points[pred], points[pred + box_delta[k]], regions, delta)

    values: List[Dict[int, float]] = [dict() for _ in range(m_layers + 1)]
    moves: List[Dict[int, int]] = [dict() for _ in range(m_layers + 1)]
    values[m_layers][pf_flat] = 0.0
    flat = lattice.flat_of(*idx.T)
    value = np.full(n_nodes + 1, math.inf)
    value[np.ravel_multi_index(pf_idx - box_lo, box)] = 0.0
    nodes = np.arange(n_nodes)
    move_of_column = np.array(ks)
    for i in range(m_layers - 1, -1, -1):
        cand = value[succ] + cost
        col = cand.argmin(axis=1)
        value[:n_nodes] = cand[nodes, col]
        live = np.flatnonzero(value[:n_nodes] < math.inf)
        values[i] = dict(zip(flat[live].tolist(), value[live].tolist()))
        moves[i] = dict(zip(flat[live].tolist(), move_of_column[col[live]].tolist()))
    lattice.values = values
    lattice.moves = moves

    reachable = [i for i in range(m_layers) if p0_flat in values[i]]
    if not reachable:
        raise Unreachable("start point belongs to no reachable DP layer")
    best_v = min(values[i][p0_flat] for i in reachable)
    i0 = max(i for i in reachable if values[i][p0_flat] == best_v)

    node = p0_flat
    trajectory: List[Tuple[float, Vec3]] = [(0.0, lattice.node_point(node))]
    for i in range(i0, m_layers):
        k = moves[i][node]
        ix, iy, iz = lattice.unflatten(node)
        dx, dy, dz = lattice.offsets[k]
        node = lattice.flat_of(ix + dx, iy + dy, iz + dz)
        trajectory.append(((i - i0 + 1) * delta, lattice.node_point(node)))
    t_f = (m_layers - i0) * delta
    return PrivacyPlan(trajectory, t_f, best_v, lattice, i0)
