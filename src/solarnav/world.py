"""Geometric world model: superellipsoid prism obstacles, line-of-sight and
shadow queries over a bounded 3D urban environment.

Collision convention: a point collides with a prism when Gamma(p) <= 1
(Gamma = 0 at the center, 1 on the surface).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

_SEGMENT_REFINE_ITERS = 48  # ternary-search iterations; (2/3)^48 ~ 3e-9 of the clip span


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
        return (self - other).norm()

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
            raise ValueError(f"semi-axes must be positive, got {self.semi_axes}")
        if any(int(e) != e or e < 1 for e in self.exponents):
            raise ValueError(f"shape exponents must be integers >= 1, got {self.exponents}")

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

    `drift` moves the position linearly with time; azimuth/elevation are held
    fixed (the drift models small apparent motion over a mission).
    """

    position: Vec3
    azimuth: float = 0.0          # rad, from +x axis in the horizontal plane
    elevation: float = math.pi / 2  # rad in [0, pi/2]
    drift: Vec3 = field(default_factory=lambda: Vec3(0.0, 0.0, 0.0))

    def __post_init__(self):
        if not 0.0 <= self.elevation <= math.pi / 2:
            raise ValueError(f"elevation must lie in [0, pi/2], got {self.elevation}")

    def position_at(self, t: float) -> Vec3:
        if self.drift.x == 0.0 and self.drift.y == 0.0 and self.drift.z == 0.0:
            return self.position
        return self.position + self.drift.scaled(t)

    @staticmethod
    def from_position(position: Vec3, reference: Vec3,
                      drift: Optional[Vec3] = None) -> "SunModel":
        """Derive azimuth/elevation from the direction reference -> position."""
        d = position - reference
        horiz = math.hypot(d.x, d.y)
        elevation = math.atan2(d.z, horiz)
        azimuth = math.atan2(d.y, d.x) if horiz > 0 else 0.0
        return SunModel(position, azimuth, max(0.0, min(math.pi / 2, elevation)),
                        drift or Vec3(0.0, 0.0, 0.0))


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


def _gamma_points(points: np.ndarray, prism: Prism) -> np.ndarray:
    """Vectorized gamma over an (N, 3) array of points."""
    c = prism.center.as_array()
    s = np.array(prism.semi_axes, dtype=float)
    d = np.array(prism.exponents, dtype=int)
    q = ((points - c) / s) ** 2
    return q[:, 0] ** d[0] + q[:, 1] ** d[1] + q[:, 2] ** d[2]


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
    of segments whose range is non-empty.
    """
    n = starts.shape[0]
    t0 = np.zeros(n)
    t1 = np.ones(n)
    valid = np.ones(n, dtype=bool)
    for axis in range(3):
        s = starts[:, axis]
        d = dirs[:, axis]
        near_zero = np.abs(d) < 1e-303
        # Parallel to the slab: inside-or-miss decides validity outright.
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


def _min_gamma_on_segments(starts: np.ndarray, dirs: np.ndarray, prism: Prism,
                           t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """Minimum of gamma along each segment restricted to [t0, t1].

    Gamma along a line is a sum of even powers of affine functions, hence
    convex in t; ellipsoids admit a closed form and the general case uses a
    fixed-iteration ternary search (tolerance ~1e-6 m).
    """
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
        return qa * t_star * t_star + qb * t_star + qc

    def g_at(t: np.ndarray) -> np.ndarray:
        return _gamma_points(starts + t[:, None] * dirs, prism)

    a, b = t0.copy(), t1.copy()
    for _ in range(_SEGMENT_REFINE_ITERS):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        left_lower = g_at(m1) < g_at(m2)
        b = np.where(left_lower, m2, b)
        a = np.where(left_lower, a, m1)
    return g_at((a + b) / 2.0)


def segments_blocked(env: Environment, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Vectorized prism-intersection test for N segments (closed segments)."""
    starts = np.asarray(starts, dtype=float).reshape(-1, 3)
    ends = np.asarray(ends, dtype=float).reshape(-1, 3)
    dirs = ends - starts
    blocked = np.zeros(starts.shape[0], dtype=bool)
    for prism in env.known_obstacles:
        todo = ~blocked
        if not todo.any():
            break
        lo, hi = prism.aabb()
        t0, t1, valid = _clip_to_aabb(starts[todo], dirs[todo], lo, hi)
        if not valid.any():
            continue
        sub = np.flatnonzero(todo)[valid]
        min_g = _min_gamma_on_segments(starts[sub], dirs[sub], prism, t0[valid], t1[valid])
        blocked[sub[min_g <= 1.0]] = True
    return blocked


def segment_blocked(env: Environment, a: Vec3, b: Vec3) -> bool:
    """True iff the closed segment a-b intersects any prism (symmetric in a, b)."""
    if a == b:
        raise ValueError("segment endpoints must differ")
    return bool(segments_blocked(env, a.as_array()[None, :], b.as_array()[None, :])[0])


def in_shadow(env: Environment, p: Vec3, t: float = 0.0) -> bool:
    """True (no harvest) iff a prism blocks the sun-to-p segment at time t."""
    return segment_blocked(env, env.sun.position_at(t), p)
