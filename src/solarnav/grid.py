"""Free-space lattice over an environment with motion primitives and
per-edge energy/time costs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .energy import EnergyModel, consumption_energy, incidence_cosine, motion_segment
# in_shadow stays importable here: bench/tracing.py binds it on this module.
from .world import Environment, Vec3, _gamma_points, in_shadow, segments_blocked  # noqa: F401

MAX_GRID_NODES = 1_000_000  # build_grid peaks near 1.2 kB per node (0.41 GB at 272k)


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


@dataclass
class NavGrid:
    """26-connected lattice (8-connected in planar mode) of free nodes.

    `build_grid` computes every edge annotation once, as arrays indexed by
    the offset k of `offsets`; nothing changes after construction:

    - `e_out[k]`, `duration[k]` and `length[k]`: consumption, traversal time
      and length of motion primitive k under the attached energy model;
    - `shadow[k, ix, iy, iz]`: the t = 0 sun is blocked at the midpoint of
      the directed edge leaving node (ix, iy, iz) along k;
    - `lit_gain[k, iz]`: harvest of a sunlit edge leaving layer iz along k.

    `edge_cost` and `neighbors` are views over these arrays.
    """

    env: Environment
    resolution: float
    origin: np.ndarray                 # (3,)
    dims: Tuple[int, int, int]
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
        self._offset_index = {tuple(o): k for k, o in enumerate(self.offsets.tolist())}

    @property
    def planar(self) -> bool:
        return self.dims[2] == 1

    @property
    def node_count(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def free_count(self) -> int:
        return int(self.free.sum())

    def flat_of(self, ix: int, iy: int, iz: int) -> int:
        _, ny, nz = self.dims
        return (ix * ny + iy) * nz + iz

    def unflatten(self, flat: int) -> Tuple[int, int, int]:
        _, ny, nz = self.dims
        ix, rem = divmod(flat, ny * nz)
        iy, iz = divmod(rem, nz)
        return ix, iy, iz

    def node_xyz(self, flat: int) -> Tuple[float, float, float]:
        ix, iy, iz = self.unflatten(flat)
        o = self.origin
        r = self.resolution
        return (float(o[0] + ix * r), float(o[1] + iy * r), float(o[2] + iz * r))

    def node_point(self, flat: int) -> Vec3:
        return Vec3(*self.node_xyz(flat))

    def index_of_point(self, p: Vec3) -> int:
        """Nearest lattice node; raises when p falls outside the lattice."""
        idx = np.rint((p.as_array() - self.origin) / self.resolution).astype(int)
        nx, ny, nz = self.dims
        if not (0 <= idx[0] < nx and 0 <= idx[1] < ny and 0 <= idx[2] < nz):
            raise ValueError(f"point {p.as_tuple()} outside the grid lattice")
        return self.flat_of(int(idx[0]), int(idx[1]), int(idx[2]))

    def is_free(self, flat: int) -> bool:
        return bool(self.free[self.unflatten(flat)])

    def neighbors(self, flat: int) -> Iterator[Tuple[int, int]]:
        """Yield (neighbor_flat, offset_index) over valid outgoing edges."""
        ix, iy, iz = self.unflatten(flat)
        nx, ny, nz = self.dims
        for k in range(self.offsets.shape[0]):
            if not self.edge_ok[k, ix, iy, iz]:
                continue
            dx, dy, dz = self.offsets[k]
            jx, jy, jz = ix + dx, iy + dy, iz + dz
            yield (jx * ny + jy) * nz + jz, k

    def coord_lists(self) -> Tuple[list, list, list]:
        """Per-node x/y/z coordinates as plain lists (search hot path)."""
        axes = [self.origin[i] + np.arange(n) * self.resolution
                for i, n in enumerate(self.dims)]
        return tuple(c.ravel().tolist() for c in np.meshgrid(*axes, indexing="ij"))

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
        gain = 0.0 if self.shadow[(k,) + ia] else float(self.lit_gain[k, ia[2]])
        return EdgeCost(float(self.e_out[k]), gain, float(self.duration[k]),
                        float(self.length[k]))


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
    nx, ny, nz = lattice_dims(env, resolution, planar_z)
    origin = np.array([lo.x, lo.y, z0], dtype=float)

    xs = origin[0] + np.arange(nx) * resolution
    ys = origin[1] + np.arange(ny) * resolution
    zs = origin[2] + np.arange(nz) * resolution
    gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
    points = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)

    free = np.ones(points.shape[0], dtype=bool)
    for prism in env.known_obstacles:
        free &= _gamma_points(points, prism.inflated(margin) if margin > 0 else prism) > 1.0
    free = free.reshape(nx, ny, nz)
    if not free.any():
        raise EmptyGrid("environment has no collision-free lattice node")

    offsets = _offsets(planar=(nz == 1))
    n_off = offsets.shape[0]
    edge_ok = np.zeros((n_off, nx, ny, nz), dtype=bool)
    # offsets[n_off - 1 - k] == -offsets[k]: test each undirected edge once.
    for k in range(n_off // 2):
        dx, dy, dz = offsets[k]
        # Candidate edges: both endpoints free, shifted masks aligned.
        src = np.zeros((nx, ny, nz), dtype=bool)
        sl_src = (slice(max(0, -dx), nx - max(0, dx)),
                  slice(max(0, -dy), ny - max(0, dy)),
                  slice(max(0, -dz), nz - max(0, dz)))
        sl_dst = (slice(max(0, dx), nx - max(0, -dx)),
                  slice(max(0, dy), ny - max(0, -dy)),
                  slice(max(0, dz), nz - max(0, -dz)))
        src[sl_src] = free[sl_src] & free[sl_dst]
        idx = np.argwhere(src)
        if idx.size:
            starts = origin + idx * resolution
            ends = starts + np.array([dx, dy, dz]) * resolution
            clear = ~segments_blocked(env, starts, ends)
            ok = idx[clear]
            edge_ok[k, ok[:, 0], ok[:, 1], ok[:, 2]] = True
            edge_ok[n_off - 1 - k, ok[:, 0] + dx, ok[:, 1] + dy, ok[:, 2] + dz] = True

    # Edge midpoints lie on the half-step lattice, where node i sits at index
    # 2 * i + 1 and the midpoint of its edge along k at 2 * i + 1 + offsets[k].
    # Up to four edges (the diagonals of a face or a cube) share a midpoint;
    # each midpoint is shadow-tested once, against the t = 0 sun.
    mid_views = [tuple(slice(1 + d, 1 + d + 2 * n, 2) for d, n in zip(off, (nx, ny, nz)))
                 for off in offsets.tolist()]
    half = np.zeros((2 * nx + 1, 2 * ny + 1, 2 * nz + 1), dtype=bool)
    for k, view in enumerate(mid_views):
        half[view] |= edge_ok[k]
    at = np.argwhere(half)
    mids = origin + (at - 1) * (resolution / 2.0)
    sun = env.sun.position_at(0.0).as_array()
    half[tuple(at.T)] = segments_blocked(env, np.broadcast_to(sun, mids.shape), mids)
    shadow = np.stack([half[view] & edge_ok[k] for k, view in enumerate(mid_views)])

    energy = energy or EnergyModel()
    e_out, duration, length, lit_gain = _offset_tables(env, energy, offsets, resolution,
                                                       zs.tolist())
    return NavGrid(env=env, resolution=resolution, origin=origin, dims=(nx, ny, nz),
                   free=free, offsets=offsets, edge_ok=edge_ok, margin=margin,
                   energy=energy, e_out=e_out, duration=duration, length=length,
                   shadow=shadow, lit_gain=lit_gain)


def _offset_tables(env: Environment, energy: EnergyModel, offsets: np.ndarray,
                   resolution: float, zs: list) -> Tuple[np.ndarray, ...]:
    """Consumption, duration and length of each motion primitive k, and the
    harvest of a sunlit edge leaving layer iz along k, taken at the edge's
    midpoint altitude (zero where the edge would leave the lattice)."""
    cons = energy.consumption
    sun = env.sun
    cos_theta = incidence_cosine(0.0, 0.0, sun.azimuth, sun.elevation)
    nz = len(zs)
    e_out, duration = [], []
    lit_gain = np.zeros((offsets.shape[0], nz))
    for k, (dx, dy, dz) in enumerate((offsets * resolution).tolist()):
        seg = motion_segment(math.hypot(dx, dy), dz, cons)
        e_out.append(consumption_energy(seg, cons))
        duration.append(seg.duration)
        step = int(offsets[k, 2])
        for iz in range(max(0, -step), min(nz, nz - step)):
            z_mid = (zs[iz] + zs[iz + step]) / 2.0
            lit_gain[k, iz] = energy.harvest_power(cos_theta, False, z_mid) * seg.duration
    return (np.array(e_out), np.array(duration),
            np.linalg.norm(offsets * resolution, axis=1), lit_gain)
