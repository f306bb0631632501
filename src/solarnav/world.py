"""Geometric world model: superellipsoid prism obstacles, line-of-sight and
shadow queries over a bounded 3D urban environment.

Collision convention: a point collides with a prism when Gamma(p) <= 1
(Gamma = 0 at the center, 1 on the surface).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

_SEGMENT_REFINE_ITERS = 48  # ternary-search iterations; (2/3)^48 ~ 3e-9 of the clip span
_EXIT_CHECKS = (1, 2, 4, 8)  # ternary iterations after which decided rows leave the search
_UNIT_ROUNDOFF = 2.0 ** -53
SEGMENT_BLOCK = 65_536  # rows per pass of segments_blocked
_AABB_PAD = 1e-9  # broad-phase pad, relative to a block's largest coordinate


class ValidationError(ValueError):
    """A field violates an invariant. A model's own check names the field;
    the scenario loader prefixes the path to the model."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field, self.reason = field, reason


@dataclass(frozen=True)
class Vec3:
    """Point or displacement in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"Vec3 coordinates must be finite, got {(self.x, self.y, self.z)}")

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def scaled(self, k: float) -> "Vec3":
        return Vec3(self.x * k, self.y * k, self.z * k)

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def dist_to(self, other: "Vec3") -> float:
        """`(self - other).norm()`, bit for bit, without building the difference."""
        dx, dy, dz = self.x - other.x, self.y - other.y, self.z - other.z
        d2 = dx * dx + dy * dy + dz * dz
        if not d2 < math.inf and not (math.isfinite(dx) and math.isfinite(dy)
                                      and math.isfinite(dz)):
            raise ValueError(f"Vec3 coordinates must be finite, got {(dx, dy, dz)}")
        return math.sqrt(d2)

    def horizontal_dist_to(self, other: "Vec3") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(a) -> "Vec3":
        return Vec3(float(a[0]), float(a[1]), float(a[2]))

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class Box:
    """Axis-aligned bounding box (closed)."""

    lo: Vec3
    hi: Vec3

    def __post_init__(self):
        if not (self.lo.x < self.hi.x and self.lo.y < self.hi.y and self.lo.z < self.hi.z):
            raise ValueError("Box must be non-degenerate (lo < hi on every axis)")

    def contains(self, p: Vec3) -> bool:
        return (self.lo.x <= p.x <= self.hi.x
                and self.lo.y <= p.y <= self.hi.y
                and self.lo.z <= p.z <= self.hi.z)

    def center(self) -> Vec3:
        return Vec3((self.lo.x + self.hi.x) / 2, (self.lo.y + self.hi.y) / 2,
                    (self.lo.z + self.hi.z) / 2)


@dataclass(frozen=True)
class Prism:
    """Superellipsoid enclosing one urban construction.

    Gamma(p) = ((x-x0)/a)^(2d) + ((y-y0)/b)^(2e) + ((z-z0)/c)^(2f).
    Exponents (1,1,1) give an ellipsoid; larger exponents approach a box.
    """

    center: Vec3
    semi_axes: Tuple[float, float, float]
    exponents: Tuple[int, int, int] = (1, 1, 1)

    def __post_init__(self):
        if any(s <= 0 for s in self.semi_axes):
            raise ValidationError("semi_axes", f"must be positive, got {self.semi_axes}")
        if any(int(e) != e or e < 1 for e in self.exponents):
            raise ValidationError("exponents", f"must be integers >= 1, got {self.exponents}")

    @property
    def top(self) -> float:
        return self.center.z + self.semi_axes[2]

    def aabb(self) -> Tuple[np.ndarray, np.ndarray]:
        c = self.center.as_array()
        s = np.array(self.semi_axes, dtype=float)
        return c - s, c + s

    def inflated(self, margin: float) -> "Prism":
        """Prism with all semi-axes grown by `margin` (conservative offset)."""
        a, b, c = self.semi_axes
        return Prism(self.center, (a + margin, b + margin, c + margin), self.exponents)


@dataclass(frozen=True)
class SunModel:
    """Sun position for line-of-sight tests plus panel-incidence angles.

    The sun stands still for the whole mission."""

    position: Vec3
    azimuth: float = 0.0          # rad, from +x axis in the horizontal plane
    elevation: float = math.pi / 2  # rad in [0, pi/2]

    def __post_init__(self):
        if not 0.0 <= self.elevation <= math.pi / 2:
            raise ValidationError("elevation", f"must lie in [0, pi/2], got {self.elevation}")

    @staticmethod
    def from_position(position: Vec3, reference: Vec3) -> "SunModel":
        """Derive azimuth/elevation from the direction reference -> position."""
        d = position - reference
        horiz = math.hypot(d.x, d.y)
        elevation = math.atan2(d.z, horiz)
        azimuth = math.atan2(d.y, d.x) if horiz > 0 else 0.0
        return SunModel(position, azimuth, max(0.0, min(math.pi / 2, elevation)))


@dataclass(frozen=True)
class PrivacyRegion:
    """Spherical privacy-sensitive region: a no-fly core of radius c1 inside a
    soft shell that fades to zero intensity at c2."""

    center: Vec3
    c1: float
    c2: float

    def __post_init__(self):
        if not 0 < self.c1 < self.c2:
            raise ValueError(f"require 0 < c1 < c2, got c1={self.c1}, c2={self.c2}")


@dataclass(frozen=True)
class Environment:
    """Bounded 3D world: prisms, privacy regions, sun and an altitude band."""

    bounds: Box
    known_obstacles: Tuple[Prism, ...] = ()
    privacy_regions: Tuple[PrivacyRegion, ...] = ()
    sun: SunModel = field(default_factory=lambda: SunModel(Vec3(0.0, 0.0, 10000.0)))
    z_min: float = -math.inf
    z_max: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "known_obstacles", tuple(self.known_obstacles))
        object.__setattr__(self, "privacy_regions", tuple(self.privacy_regions))
        if not self.z_min < self.z_max:
            raise ValueError(f"require z_min < z_max, got [{self.z_min}, {self.z_max}]")
        blo, bhi = self.bounds.lo.as_array(), self.bounds.hi.as_array()
        for prism in self.known_obstacles:
            plo, phi = prism.aabb()
            if np.any(phi < blo) or np.any(plo > bhi):
                raise ValueError(f"prism at {prism.center.as_tuple()} lies outside bounds")
            if self.sun.position.z <= prism.top:
                raise ValueError("sun position must be above every obstacle top")


def gamma(p: Vec3, prism: Prism) -> float:
    """Superellipsoid level value; 0 at the center, 1 on the surface."""
    a, b, c = prism.semi_axes
    d, e, f = prism.exponents
    gx = ((p.x - prism.center.x) / a) ** 2
    gy = ((p.y - prism.center.y) / b) ** 2
    gz = ((p.z - prism.center.z) / c) ** 2
    return gx ** d + gy ** e + gz ** f


def prism_clearance(p: Vec3, prism: Prism) -> float:
    """Signed distance to the surface along the center ray: positive outside,
    negative inside, zero on the surface (or within a few ulp of it).

    With gamma(p) = g = sum(w_i) over its per-axis terms, gamma(center + s *
    (p - center)) = sum(w_i * s**(2 e_i)) rises with s and crosses 1 between
    g**(-1/(2 e_min)) and g**(-1/(2 e_max)): a single point for equal
    exponents, else a bracket bisected until its midpoint stops moving."""
    d = (p.x - prism.center.x, p.y - prism.center.y, p.z - prism.center.z)
    terms = [(((di / a) ** 2) ** e, 2 * e)
             for di, a, e in zip(d, prism.semi_axes, prism.exponents)]
    g = terms[0][0] + terms[1][0] + terms[2][0]
    if g == 0.0:  # the center, or close enough that every term underflows
        return -min(prism.semi_axes)
    lo, hi = sorted(g ** (-0.5 / e) for e in (min(prism.exponents), max(prism.exponents)))
    s = 0.5 * (lo + hi)
    while lo < s < hi:
        lo, hi = (s, hi) if sum(w * s ** k for w, k in terms) < 1.0 else (lo, s)
        s = 0.5 * (lo + hi)
    return math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]) * (1.0 - s)


def _prism_arrays(prism: Prism) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center, semi-axes and exponents of `prism` as the arrays `_gamma_points` takes."""
    return (prism.center.as_array(), np.array(prism.semi_axes, dtype=float),
            np.array(prism.exponents, dtype=int))


def _gamma_points(axes, c: np.ndarray, s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Vectorized gamma over points given as their x, y and z arrays, for the
    prism given by `_prism_arrays`."""
    q = [((x - ci) / si) ** 2 for x, ci, si in zip(axes, c, s)]
    return q[0] ** d[0] + q[1] ** d[1] + q[2] ** d[2]


def clear_of_prisms(env: Environment, points: np.ndarray, margin: float = 0.0) -> np.ndarray:
    """Which (N, 3) points lie outside every prism grown by `margin`."""
    clear = np.ones(len(points), dtype=bool)
    for prism in env.known_obstacles:
        test = prism.inflated(margin) if margin > 0 else prism
        clear &= _gamma_points(points.T, *_prism_arrays(test)) > 1.0
    return clear


def is_collision(p: Vec3, env: Environment, margin: float = 0.0) -> bool:
    """True if p is outside bounds/altitude band or within margin of a prism."""
    if not env.bounds.contains(p):
        return True
    if not env.z_min <= p.z <= env.z_max:
        return True
    for prism in env.known_obstacles:
        test = prism.inflated(margin) if margin > 0.0 else prism
        if gamma(p, test) <= 1.0:
            return True
    return False


def _clip_to_aabb(starts: np.ndarray, dirs: np.ndarray,
                  lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clip segments p(t) = start + t*dir, t in [0,1], to a box (slab method).

    Returns (t0, t1, valid): the clipped parameter range per segment and a mask
    of segments whose range is non-empty."""
    n = starts.shape[0]
    t0, t1, valid = np.zeros(n), np.ones(n), np.ones(n, dtype=bool)
    for axis in range(3):
        s = starts[:, axis]
        d = dirs[:, axis]
        near_zero = np.abs(d) < 1e-303
        # Parallel to the slab: inside-or-miss decides validity outright.
        miss = near_zero & ((s < lo[axis]) | (s > hi[axis]))
        valid &= ~miss
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ta = (lo[axis] - s) / d
            tb = (hi[axis] - s) / d
        lo_t = np.where(near_zero, 0.0, np.minimum(ta, tb))
        hi_t = np.where(near_zero, 1.0, np.maximum(ta, tb))
        t0 = np.maximum(t0, lo_t)
        t1 = np.minimum(t1, hi_t)
    valid &= t0 <= t1
    return t0, t1, valid


def _sandwich_bound(ga: np.ndarray, g1: np.ndarray, g2: np.ndarray,
                    gb: np.ndarray) -> np.ndarray:
    """Lower bound on [a, b] of a convex function from its values at a, at
    the thirds m1 < m2 and at b (the sandwich bounds of Burkard, Hamacher &
    Rote 1991 and Rote 1992). Outside [m1, m2] the secant through m1 and m2
    lies below the function; inside it both secants a-m1 and m2-b do, and
    the least value of their maximum is the best level mix of the two."""
    outside = np.minimum(2.0 * g1 - g2, 2.0 * g2 - g1)
    # Across [m1, m2] the secant a-m1 runs from u0 to u1, the secant m2-b from w0 to w1.
    u0, u1 = g1, 2.0 * g1 - ga
    w0, w1 = 2.0 * g2 - gb, g2
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.clip((w1 - w0) / ((w1 - w0) - (u1 - u0)), 0.0, 1.0)  # NaN: parallel
    mix = np.minimum(lam * u0 + (1.0 - lam) * w0, lam * u1 + (1.0 - lam) * w1)
    inside = np.fmax(np.fmax(np.minimum(u0, u1), np.minimum(w0, w1)), mix)
    return np.minimum(outside, inside)


def _segments_meet_prism(starts: np.ndarray, dirs: np.ndarray, prism: Prism,
                         t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """Whether each segment, restricted to [t0, t1] within the prism's AABB,
    reaches gamma <= 1.

    Gamma along a line is a sum of even powers of affine functions, hence
    convex in t. Ellipsoids take the closed-form minimum. Otherwise a
    fixed-iteration ternary search (tolerance ~1e-6 m) decides at its final
    midpoint, and after each iteration in `_EXIT_CHECKS` a row leaves it
    early, with the same verdict, when the bracket ends and probes decide:
    clear when `_sandwich_bound` exceeds 1 + margin, met when a probe is at
    most 1 - margin.

    The margin, (1 + g_max) * (2**14 e u (1 + R/s) + 64 u / (b - a)), with u
    the unit roundoff, e the largest exponent, R the largest coordinate, s
    the smallest semi-axis and g_max the largest of the four values, covers
    rounding. Within the AABB every gamma term is at most 1. A computed value
    is within k (1 + g) of gamma at the exact line point, k = 64 e u (1 + R/s):
    rounding the point moves each term by at most about 10 e u R / s, and the
    difference, quotient, square, power and sum add (6 e + 6) u relative.
    The bound triples each value's error, and its own rounding and the uneven
    float spacing of a, m1, m2 and b add at most 64 u g_max / (b - a). So a
    bound above 1 + margin puts gamma above 1 + 2k over the bracket, which
    holds the final midpoint, and the full search would find the row clear.
    A probe at most 1 - margin lies inside; the full search keeps a point no
    higher, up to 4k per iteration, so it ends inside too. So a check after
    any iteration up to 48 is exact: 192k of drift against 256k of margin."""
    if prism.exponents == (1, 1, 1):
        # Quadratic A t^2 + B t + C with the minimum clamped into [t0, t1].
        s = np.array(prism.semi_axes, dtype=float)
        u = (starts - prism.center.as_array()) / s
        w = dirs / s
        qa = np.einsum("ij,ij->i", w, w)
        qb = 2.0 * np.einsum("ij,ij->i", u, w)
        qc = np.einsum("ij,ij->i", u, u)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_star = np.where(qa > 0, -qb / (2.0 * np.maximum(qa, 1e-300)), t0)
        t_star = np.clip(t_star, t0, t1)
        return qa * t_star * t_star + qb * t_star + qc <= 1.0

    c, s, d = _prism_arrays(prism)
    reach = max(np.abs(starts).max(), np.abs(starts + dirs).max())
    shape_eps = 2.0 ** 14 * _UNIT_ROUNDOFF * d.max() * (1.0 + reach / s.min())
    # One contiguous array per axis: operations on (N, 3) rows run far slower.
    p0 = [np.ascontiguousarray(col) for col in starts.T]
    v = [np.ascontiguousarray(col) for col in dirs.T]

    def g_at(t: np.ndarray) -> np.ndarray:
        # t is (N,) or (2, N): both probes of an iteration share one pass.
        return _gamma_points([pi + t * vi for pi, vi in zip(p0, v)], c, s, d)

    meets = np.zeros(len(t0), dtype=bool)
    rows = np.arange(len(t0))  # the rows still searched
    a, b = t0.copy(), t1.copy()
    ga, gb = g_at(np.stack((a, b)))
    for it in range(1, _SEGMENT_REFINE_ITERS + 1):
        third = (b - a) / 3.0
        m = np.stack((a + third, b - third))
        g = g_at(m)
        if it in _EXIT_CHECKS:
            g_max = np.maximum(np.maximum(ga, gb), np.maximum(g[0], g[1]))
            with np.errstate(divide="ignore", over="ignore"):  # b - a zero or subnormal: no exit
                margin = (1.0 + g_max) * (shape_eps + 64.0 * _UNIT_ROUNDOFF / np.abs(b - a))
            inside = np.minimum(g[0], g[1]) <= 1.0 - margin
            meets[rows[inside]] = True
            keep = np.flatnonzero(~inside & ~(_sandwich_bound(ga, g[0], g[1], gb) > 1.0 + margin))
            if not keep.size:
                return meets
            rows, a, b, ga, gb, m, g = (x[..., keep] for x in (rows, a, b, ga, gb, m, g))
            p0, v = [x[keep] for x in p0], [x[keep] for x in v]
        left_lower = g[0] < g[1]
        np.copyto(b, m[1], where=left_lower)
        np.copyto(a, m[0], where=~left_lower)
        if it < _EXIT_CHECKS[-1]:  # the end values feed only the checkpoints
            np.copyto(gb, g[1], where=left_lower)
            np.copyto(ga, g[0], where=~left_lower)
    meets[rows] = g_at((a + b) / 2.0) <= 1.0
    return meets


def _blocked_block(prisms: Tuple[Prism, ...], starts: np.ndarray,
                   ends: np.ndarray) -> np.ndarray:
    """`segments_blocked` over one block of rows.

    Broad phase: a segment is clipped to a prism's AABB and searched only when
    its own AABB, grown by `_AABB_PAD` of the block's largest coordinate,
    overlaps the prism's. The pad covers the rounding of `ends - starts`
    inside the clip, which can let a segment ending within an ulp of a face
    touch it at t = 1, so the clip rejects every row the broad phase skips."""
    dirs = ends - starts
    n = starts.shape[0]
    seg_lo = np.minimum(starts.T, ends.T, out=np.empty((3, n)))
    seg_hi = np.maximum(starts.T, ends.T, out=np.empty((3, n)))
    pad = _AABB_PAD * (1.0 + max(np.fmax.reduce(seg_hi, axis=None),
                                 -np.fmin.reduce(seg_lo, axis=None)))
    seg_lo -= pad
    seg_hi += pad
    # The block's own AABB rules a prism out for all its rows at once.
    block_lo, block_hi = np.fmin.reduce(seg_lo, axis=1), np.fmax.reduce(seg_hi, axis=1)
    blocked = np.zeros(n, dtype=bool)
    for prism in prisms:
        lo, hi = prism.aabb()
        if (block_lo > hi).any() or (block_hi < lo).any():
            continue
        near = ~blocked
        for axis in range(3):
            near &= seg_lo[axis] <= hi[axis]
            near &= seg_hi[axis] >= lo[axis]
        rows = np.flatnonzero(near)
        if not rows.size:
            continue
        t0, t1, valid = _clip_to_aabb(starts[rows], dirs[rows], lo, hi)
        sub = rows[valid]
        if not sub.size:
            continue
        blocked[sub[_segments_meet_prism(starts[sub], dirs[sub], prism,
                                         t0[valid], t1[valid])]] = True
    return blocked


def segments_blocked(env: Environment, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Vectorized prism-intersection test for N segments (closed segments).

    Rows are independent, so they are tested `SEGMENT_BLOCK` at a time,
    which bounds the temporaries of a call whatever N is."""
    starts = np.asarray(starts, dtype=float).reshape(-1, 3)
    ends = np.asarray(ends, dtype=float).reshape(-1, 3)
    blocked = np.zeros(starts.shape[0], dtype=bool)
    prisms = env.known_obstacles
    if prisms:
        for i in range(0, starts.shape[0], SEGMENT_BLOCK):
            rows = slice(i, i + SEGMENT_BLOCK)
            blocked[rows] = _blocked_block(prisms, starts[rows], ends[rows])
    return blocked


def segment_blocked(env: Environment, a: Vec3, b: Vec3) -> bool:
    """True iff the closed segment a-b intersects any prism (symmetric in a, b).

    Runs `_blocked_block`'s broad phase and slab clip on floats, in the same
    IEEE expressions, then the narrow phase on each prism whose box it enters.
    A slab quotient is NaN only as an overflowed inf / inf; both clips reject."""
    if a == b:
        raise ValueError("segment endpoints must differ")
    start, end = tuple(map(float, a.as_tuple())), tuple(map(float, b.as_tuple()))
    (sx, sy, sz), (ex, ey, ez) = start, end
    lo = (min(sx, ex), min(sy, ey), min(sz, ez))
    hi = (max(sx, ex), max(sy, ey), max(sz, ez))
    pad = _AABB_PAD * (1.0 + max(max(hi), -min(lo)))
    d = (ex - sx, ey - sy, ez - sz)
    axes = tuple(zip(start, d, lo, hi))
    for prism in env.known_obstacles:
        t0, t1 = 0.0, 1.0
        for (s, di, l, h), c, r in zip(axes, prism.center.as_tuple(), prism.semi_axes):
            box_lo, box_hi = float(c) - float(r), float(c) + float(r)
            if l - pad > box_hi or h + pad < box_lo:
                break
            if abs(di) < 1e-303:
                if s < box_lo or s > box_hi:
                    break
                continue
            ta, tb = (box_lo - s) / di, (box_hi - s) / di
            t0, t1 = max(t0, min(ta, tb)), min(t1, max(ta, tb))
            if t0 > t1 or ta != ta or tb != tb:
                break
        else:  # the segment enters this prism's box
            if _segments_meet_prism(np.array([start]), np.array([d]), prism,
                                    np.array([t0]), np.array([t1]))[0]:
                return True
    return False


def in_shadow(env: Environment, p: Vec3) -> bool:
    """True (no harvest) iff a prism blocks the sun-to-p segment."""
    return segment_blocked(env, env.sun.position, p)
