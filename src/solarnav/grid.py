"""Free-space lattice over an environment with motion primitives and
per-edge energy/time costs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .energy import EnergyModel
from .world import SEGMENT_BLOCK, Environment, Vec3, clear_of_prisms, segments_blocked
# in_shadow stays importable here: bench/tracing.py binds it on this module.
from .world import in_shadow  # noqa: F401

MAX_GRID_NODES = 1_000_000  # build_grid peaks near 0.18 kB per node (173 MB RSS at 960k)


class EmptyGrid(Exception):
    """No collision-free lattice node exists."""


def _offsets(planar: bool) -> np.ndarray:
    out = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in ((0,) if planar else (-1, 0, 1)):
                if dx == dy == dz == 0:
                    continue
                out.append((dx, dy, dz))
    return np.array(out, dtype=int)


@dataclass(frozen=True)
class EdgeCost:
    """Precomputed traversal cost of one motion primitive."""

    e_out: float     # J consumed
    e_gain: float    # J harvestable (before battery clamping)
    duration: float  # s
    length: float    # m
    shadow: bool     # the sun is blocked at the edge midpoint


@dataclass
class Lattice:
    """Cubic lattice of dims nodes, `spacing` apart, from `origin`.

    Node (ix, iy, iz) lies at origin + (ix, iy, iz) * spacing and has flat
    index (ix * ny + iy) * nz + iz."""

    origin: np.ndarray                 # (3,)
    spacing: float
    dims: Tuple[int, int, int]

    @property
    def node_count(self) -> int:
        return math.prod(self.dims)

    def flat_of(self, ix, iy, iz):
        """Flat index of node (ix, iy, iz); elementwise on index arrays."""
        _, ny, nz = self.dims
        return (ix * ny + iy) * nz + iz

    def unflatten(self, flat: int) -> Tuple[int, int, int]:
        _, ny, nz = self.dims
        ix, rem = divmod(flat, ny * nz)
        iy, iz = divmod(rem, nz)
        return ix, iy, iz

    def indices(self) -> np.ndarray:
        """(node_count, 3) lattice indices of every node, in flat order."""
        return np.stack(np.unravel_index(np.arange(self.node_count), self.dims), axis=1)

    def node_coords(self, idx: np.ndarray) -> np.ndarray:
        """Coordinates of the nodes at the (N, 3) lattice indices `idx`."""
        return self.origin + idx * self.spacing

    def node_xyz(self, flat: int) -> Tuple[float, float, float]:
        return tuple(self.node_coords(np.array(self.unflatten(flat))).tolist())

    def node_point(self, flat: int) -> Vec3:
        return Vec3(*self.node_xyz(flat))

    def index_of_point(self, p: Vec3) -> int:
        """Nearest lattice node; raises when p falls outside the lattice."""
        idx = np.rint((p.as_array() - self.origin) / self.spacing).astype(int)
        if not np.all((idx >= 0) & (idx < self.dims)):
            raise ValueError(f"point {p.as_tuple()} outside the lattice")
        return self.flat_of(*idx.tolist())


@dataclass
class NavGrid(Lattice):
    """26-connected lattice (8-connected in planar mode) of free nodes.

    `build_grid` computes every edge annotation once, as arrays indexed by
    the offset k of `offsets`; nothing changes after construction:

    - `e_out[k]`, `duration[k]` and `length[k]`: consumption, traversal time
      and length of motion primitive k under the attached energy model;
    - `shadow[k, ix, iy, iz]`: the sun is blocked at the midpoint of the
      directed edge leaving node (ix, iy, iz) along k;
    - `lit_gain[k, iz]`: harvest of a sunlit edge leaving layer iz along k.

    `edge_cost` and `neighbors` are views over these arrays; node indexing
    and coordinates come from `Lattice`.
    """

    env: Environment
    free: np.ndarray                   # bool (nx, ny, nz)
    offsets: np.ndarray                # (K, 3) int
    edge_ok: np.ndarray                # bool (K, nx, ny, nz)
    margin: float
    energy: EnergyModel
    e_out: np.ndarray                  # (K,) J
    duration: np.ndarray               # (K,) s
    length: np.ndarray                 # (K,) m
    shadow: np.ndarray                 # bool (K, nx, ny, nz)
    lit_gain: np.ndarray               # (K, nz) J

    def __post_init__(self):
        # neighbors reads a snapshot of edge_ok, so no array may change later.
        for table in (self.free, self.edge_ok, self.shadow, self.e_out, self.duration,
                      self.length, self.lit_gain):
            table.setflags(write=False)
        self._offset_index = {tuple(o): k for k, o in enumerate(self.offsets.tolist())}
        self._edge_ok_bytes = self.edge_ok.tobytes()
        n = self.node_count
        self._moves = [(k, k * n, int(delta)) for k, delta in
                       enumerate(self.flat_of(*self.offsets.T).tolist())]

    @property
    def planar(self) -> bool:
        return self.dims[2] == 1

    def free_count(self) -> int:
        return int(self.free.sum())

    def is_free(self, flat: int) -> bool:
        return bool(self.free[self.unflatten(flat)])

    def neighbors(self, flat: int) -> Iterator[Tuple[int, int]]:
        """Yield (neighbor_flat, offset_index) over valid outgoing edges, in
        offset order. Edge (flat, k) is byte k * node_count + flat of edge_ok,
        and its target is flat plus the flat-index delta of offset k."""
        ok = self._edge_ok_bytes
        for k, row, delta in self._moves:
            if ok[row + flat]:
                yield flat + delta, k

    def search_tables(self) -> Tuple[bytes, list, list]:
        """Plain views of the edge arrays for search loops: the shadow flag of
        edge (node, k) at [k * node_count + node], e_out at [k], and the lit
        gain at [k * nz + iz]."""
        return self.shadow.tobytes(), self.e_out.tolist(), self.lit_gain.ravel().tolist()

    def edge_cost(self, a: int, b: int) -> EdgeCost:
        """Energy/time annotation of the directed edge a -> b.

        Raises ValueError when a -> b is not an edge of the grid."""
        n = self.node_count
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"{a} -> {b}: node index outside the grid")
        ia = self.unflatten(a)
        ib = self.unflatten(b)
        k = self._offset_index.get((ib[0] - ia[0], ib[1] - ia[1], ib[2] - ia[2]))
        if k is None or not self.edge_ok[(k,) + ia]:
            raise ValueError(f"{a} -> {b} is not an edge of the grid")
        shadow = bool(self.shadow[(k,) + ia])
        gain = 0.0 if shadow else float(self.lit_gain[k, ia[2]])
        return EdgeCost(float(self.e_out[k]), gain, float(self.duration[k]),
                        float(self.length[k]), shadow)


def lattice_dims(env: Environment, resolution: float,
                 planar_z: Optional[float] = None) -> Tuple[int, int, int]:
    """Node counts along x and y over the bounds and along z over the altitude
    band inside them (one layer when planar).

    Raises ValueError when the lattice would exceed MAX_GRID_NODES nodes."""
    lo, hi = env.bounds.lo, env.bounds.hi
    spans = [hi.x - lo.x, hi.y - lo.y, min(hi.z, env.z_max) - max(lo.z, env.z_min)]
    eps = 1e-9 * max(1.0, resolution)
    nx, ny, nz = (int(math.floor(span / resolution + eps)) + 1 for span in spans)
    dims = (nx, ny, 1 if planar_z is not None else nz)
    if math.prod(dims) > MAX_GRID_NODES:
        raise ValueError(f"{math.prod(dims)} lattice nodes exceed the budget of {MAX_GRID_NODES}")
    return dims


def build_grid(env: Environment, resolution: float, margin: float = 2.0,
               planar_z: Optional[float] = None,
               energy: Optional[EnergyModel] = None) -> NavGrid:
    """Discretize the free space of `env` into a NavGrid.

    Nodes are lattice points inside the bounds and altitude band that clear
    every prism by `margin`; edges whose straight segment intersects a prism
    surface are removed. Every edge annotation is computed here, once.
    Raises EmptyGrid when no free node exists.

    A broad phase on the lattice decides which rows reach `segments_blocked`:
    the edges whose source lies in the index box of the nodes within one
    spacing of a prism's AABB, widened by one index, and the midpoints inside
    a prism's sun window on their layer (`_sun_windows`). In exact
    arithmetic every other edge stays more than a spacing from each AABB
    along one axis, and every other sun ray misses each AABB grown by half a
    step, so it stays at least that far from it at every point. Rounding
    shifts the slab clip's quotients in `_blocked_block` by a few ulps of the
    largest coordinate over the segment's length, far less than those gaps
    unless the coordinates exceed some 1e13 steps, so the clip would reject
    each skipped row. Skipped edges are therefore kept and skipped midpoints
    lit, as the test of every row would find, and `edge_ok` and `shadow` are
    the same bits.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    for prism in env.known_obstacles:
        if resolution > min(prism.semi_axes):
            raise ValueError("resolution must not exceed the smallest prism semi-axis")

    lo, hi = env.bounds.lo, env.bounds.hi
    if planar_z is not None:
        if not (lo.z <= planar_z <= hi.z and env.z_min <= planar_z <= env.z_max):
            raise ValueError("planar_z outside bounds or altitude band")
        z0 = planar_z
    else:
        z0 = max(lo.z, env.z_min)
        if z0 > min(hi.z, env.z_max):
            raise EmptyGrid("altitude band does not intersect the bounds")
    lattice = Lattice(np.array([lo.x, lo.y, z0], dtype=float), resolution,
                      lattice_dims(env, resolution, planar_z))
    nx, ny, nz = lattice.dims
    points = lattice.node_coords(lattice.indices())
    free = clear_of_prisms(env, points, margin).reshape(nx, ny, nz)
    if not free.any():
        raise EmptyGrid("environment has no collision-free lattice node")

    offsets = _offsets(planar=(nz == 1))
    n_off = offsets.shape[0]
    deltas = lattice.flat_of(*offsets.T)
    edge_ok = np.zeros((n_off, nx, ny, nz), dtype=bool)
    # offsets[n_off - 1 - k] == -offsets[k]: each undirected edge is set and
    # tested once, from its source along k < n_off // 2.
    for k in range(n_off // 2):
        src, dst = _pair_slices(free.shape, offsets[k])
        edge_ok[k][src] = edge_ok[n_off - 1 - k][dst] = free[src] & free[dst]
    flat_ok = edge_ok.reshape(n_off, -1)
    near = np.zeros(free.shape, dtype=bool)
    for prism in env.known_obstacles:
        box = zip(*prism.aabb(), lattice.origin, free.shape)
        near[tuple(_index_window(low - resolution, high + resolution, o, resolution, n)
                   for low, high, o, n in box)] = True
    near = near.reshape(-1)
    sources = ((k, np.flatnonzero(flat_ok[k] & near)) for k in range(n_off // 2))
    for block in _row_blocks(sources, SEGMENT_BLOCK):
        starts = points[np.concatenate([src for _, src in block])]
        ends = starts + np.repeat(offsets[[k for k, _ in block]],
                                  [len(src) for _, src in block], axis=0) * resolution
        blocked = segments_blocked(env, starts, ends)
        row = 0
        for k, src in block:
            cut = src[blocked[row:row + len(src)]]
            row += len(src)
            flat_ok[k, cut] = False
            flat_ok[n_off - 1 - k, cut + deltas[k]] = False

    # Edge midpoints lie on the half-step lattice, where node i sits at index
    # 2 * i + 1 and the midpoint of its edge along k at 2 * i + 1 + offsets[k].
    # Up to four edges (the diagonals of a face or a cube) share a midpoint;
    # each midpoint is shadow-tested once, and only inside a sun window.
    mid_views = [tuple(slice(1 + d, 1 + d + 2 * n, 2) for d, n in zip(off, (nx, ny, nz)))
                 for off in offsets.tolist()]
    half = np.zeros((2 * nx + 1, 2 * ny + 1, 2 * nz + 1), dtype=bool)
    for k, view in enumerate(mid_views):
        half[view] |= edge_ok[k]
    half &= _sun_windows(env, lattice.origin, resolution / 2.0, half.shape)
    flat_half = half.reshape(-1)
    marked = np.flatnonzero(flat_half)
    sun = env.sun.position.as_array()
    for i in range(0, len(marked), SEGMENT_BLOCK):
        at = marked[i:i + SEGMENT_BLOCK]
        at3 = np.stack(np.unravel_index(at, half.shape), axis=1)
        mids = lattice.origin + (at3 - 1) * (resolution / 2.0)
        flat_half[at] = segments_blocked(env, np.broadcast_to(sun, mids.shape), mids)
    shadow = np.stack([half[view] & edge_ok[k] for k, view in enumerate(mid_views)])

    energy = energy or EnergyModel()
    # The first nz nodes are (0, 0, iz): their z coordinates are the layers'.
    e_out, duration, length, lit_gain = _offset_tables(env, energy, offsets, resolution,
                                                       points[:nz, 2].tolist())
    return NavGrid(origin=lattice.origin, spacing=resolution, dims=lattice.dims, env=env,
                   free=free, offsets=offsets, edge_ok=edge_ok, margin=margin,
                   energy=energy, e_out=e_out, duration=duration, length=length,
                   shadow=shadow, lit_gain=lit_gain)


def _pair_slices(shape: Tuple[int, int, int], offset: np.ndarray) -> Tuple[tuple, tuple]:
    """Slices of the source and the target nodes of every node pair one
    `offset` apart inside a lattice of `shape`."""
    src, dst = [], []
    for d, n in zip(offset.tolist(), shape):
        src.append(slice(max(0, -d), n - max(0, d)))
        dst.append(slice(max(0, d), n - max(0, -d)))
    return tuple(src), tuple(dst)


def _index_window(lo: float, hi: float, origin: float, step: float, n: int) -> slice:
    """The indices i in [0, n) whose coordinate origin + i * step lies in
    [lo, hi], widened by one index on each side."""
    first = math.ceil((lo - origin) / step) - 1
    last = math.floor((hi - origin) / step) + 1
    return slice(min(max(first, 0), n), min(max(last + 1, 0), n))


def _sun_windows(env: Environment, origin: np.ndarray, step: float,
                 shape: Tuple[int, int, int]) -> np.ndarray:
    """Which points of the half-step lattice of `shape` (point j at origin +
    (j - 1) * step) may have their ray from the sun meet a prism's AABB.

    Each prism's AABB is grown by `step`. On a z-layer the ray S + t (p - S)
    lies in the grown box's z-slab for t in [t0, t1], and there p's x (and y)
    must lie between S + (lo - S) / t and S + (hi - S) / t. Both ends move
    monotonically in 1 / t, so the extremes of the four values at t0 and t1
    bound the window, widened by one index. The window is empty when [t0, t1]
    is, as for a level ray outside the slab. It is not finite when t0 is 0,
    that is when the sun's z lies in the slab, and then covers the layer."""
    reach = np.zeros(shape, dtype=bool)
    sun = env.sun.position.as_array()
    zs = origin[2] + (np.arange(shape[2]) - 1) * step
    for prism in env.known_obstacles:
        lo, hi = prism.aabb()
        lo, hi = lo - step, hi + step
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ta, tb = (lo[2] - sun[2]) / (zs - sun[2]), (hi[2] - sun[2]) / (zs - sun[2])
            ts = np.stack((np.maximum(np.minimum(ta, tb), 0.0),
                           np.minimum(np.maximum(ta, tb), 1.0)))
            ends = [sun[a] + (np.array([[lo[a]], [hi[a]]])[:, :, None] - sun[a]) / ts
                    for a in (0, 1)]
        windows = [(e.min(axis=(0, 1)), e.max(axis=(0, 1))) for e in ends]
        bounded = np.all(np.isfinite(windows), axis=(0, 1))
        for j in np.flatnonzero(~(ts[0] > ts[1])):  # a NaN (0 / 0) range is kept
            if bounded[j]:
                sx, sy = (_index_window(w_lo[j], w_hi[j], o - step, step, n)
                          for (w_lo, w_hi), o, n in zip(windows, origin, shape))
                reach[sx, sy, j] = True
            else:
                reach[:, :, j] = True
    return reach


def _row_blocks(pieces: Iterable[Tuple[int, np.ndarray]],
                size: int) -> Iterator[List[Tuple[int, np.ndarray]]]:
    """Regroup a stream of (key, rows) pieces into blocks of `size` rows, the
    last one shorter, splitting a piece where a block fills. Pieces are drawn
    only as blocks need them."""
    block: List[Tuple[int, np.ndarray]] = []
    room = size
    for key, rows in pieces:
        while len(rows):
            take = rows[:room]
            block.append((key, take))
            rows = rows[len(take):]
            room -= len(take)
            if not room:
                yield block
                block, room = [], size
    if block:
        yield block


def _offset_tables(env: Environment, energy: EnergyModel, offsets: np.ndarray,
                   resolution: float, zs: list) -> Tuple[np.ndarray, ...]:
    """Consumption, duration and length of each motion primitive k, and the
    harvest of a sunlit edge leaving layer iz along k, taken at the edge's
    midpoint altitude (zero where the edge would leave the lattice)."""
    elevation = env.sun.elevation
    nz = len(zs)
    moves = [energy.consumption.move(math.hypot(dx, dy), dz)
             for dx, dy, dz in (offsets * resolution).tolist()]
    lit_gain = np.zeros((offsets.shape[0], nz))
    for k, (_, seconds) in enumerate(moves):
        step = int(offsets[k, 2])
        for iz in range(max(0, -step), min(nz, nz - step)):
            z_mid = (zs[iz] + zs[iz + step]) / 2.0
            lit_gain[k, iz] = energy.gain(elevation, False, z_mid, seconds)
    e_out, duration = np.array(moves).T.copy()
    return (e_out, duration,
            np.linalg.norm(offsets * resolution, axis=1), lit_gain)
