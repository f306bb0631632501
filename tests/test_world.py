"""Geometry: superellipsoid levels, collision, segment and shadow queries."""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from solarnav import (Box, Environment, Prism, SunModel, Vec3, gamma, in_shadow,
                      is_collision, segment_blocked, segments_blocked, world)
from solarnav.world import prism_clearance

from conftest import empty_env, env_with, random_env
from oracles import (raymarch_segment_blocked, reference_prism_clearance,
                     reference_segments_blocked)

CUBE = Prism(Vec3(0, 0, 0), (10, 10, 10), (1, 1, 1))


def test_gamma_center_is_zero():
    assert gamma(Vec3(0, 0, 0), CUBE) == 0.0


def test_gamma_boundary_is_one():
    assert gamma(Vec3(10, 0, 0), CUBE) == 1.0


def test_gamma_outside_scales_quadratically():
    assert gamma(Vec3(20, 0, 0), CUBE) == 4.0


@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
       st.floats(0.1, 5.0), st.floats(1.2, 4.0))
@settings(max_examples=200)
def test_gamma_increases_along_rays(dx, dy, dz, t, scale):
    """Gamma grows strictly along any ray leaving the center."""
    if math.hypot(dx, dy, dz) < 1e-3:
        return
    prism = Prism(Vec3(0, 0, 0), (8, 12, 20), (2, 1, 3))
    near = Vec3(dx * t, dy * t, dz * t)
    far = Vec3(dx * t * scale, dy * t * scale, dz * t * scale)
    assert gamma(far, prism) > gamma(near, prism)


def test_prism_validation():
    with pytest.raises(ValueError):
        Prism(Vec3(0, 0, 0), (0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        Prism(Vec3(0, 0, 0), (1.0, 1.0, 1.0), (0, 1, 1))


def test_vec3_requires_finite():
    with pytest.raises(ValueError):
        Vec3(math.nan, 0, 0)


def test_collision_inside_prism_center():
    env = env_with([Prism(Vec3(50, 50, 50), (10, 10, 10))])
    assert is_collision(Vec3(50, 50, 50), env)


def test_collision_free_far_from_prisms():
    env = env_with([Prism(Vec3(50, 50, 50), (10, 10, 10))])
    assert not is_collision(Vec3(10, 10, 50), env)


def test_collision_below_altitude_floor():
    env = env_with([], z_min=30.0)
    assert is_collision(Vec3(50, 50, 10), env)
    assert not is_collision(Vec3(50, 50, 40), env)


def test_collision_outside_bounds():
    env = empty_env()
    assert is_collision(Vec3(-1, 50, 50), env)


def test_collision_margin_inflates_surface():
    env = env_with([Prism(Vec3(50, 50, 50), (10, 10, 10))])
    p = Vec3(61.0, 50, 50)
    assert not is_collision(p, env)
    assert is_collision(p, env, margin=2.0)


@pytest.mark.parametrize("exponents", [(1, 1, 1), (2, 2, 2), (4, 4, 4),
                                       (2, 1, 3), (1, 2, 4)])
def test_prism_clearance_matches_bisection_reference(exponents):
    """Within 1e-9 m of the Vec3 bisection at the center and on points inside,
    outside and on the surface, along axis-aligned and random rays."""
    rng = np.random.default_rng(17)
    axis_rays = [(1, 0, 0), (0, -1, 0), (0, 0, 1), (1, 1, 0), (0, -1, 1)]
    for i in range(300):
        prism = Prism(Vec3(*rng.uniform(60, 140, 3)), tuple(rng.uniform(5, 60, 3)),
                      exponents)
        ray = Vec3(*(axis_rays[i] if i < len(axis_rays) else rng.normal(size=3)))
        probe = prism.center + ray
        s_surface = 1.0 - reference_prism_clearance(probe, prism) / ray.norm()
        for s in (0.0, rng.uniform(0.05, 0.95), 1.0, 1.0 - 1e-12, 1.0 + 1e-12,
                  rng.uniform(1.05, 4.0)):
            p = prism.center + ray.scaled(s * s_surface)
            assert abs(prism_clearance(p, prism) - reference_prism_clearance(p, prism)) \
                <= 1e-9, (p, prism)


def test_segment_empty_environment_never_blocked():
    env = empty_env()
    assert not segment_blocked(env, Vec3(0, 0, 0), Vec3(100, 100, 100))


def test_segment_through_prism_center_blocked():
    env = env_with([Prism(Vec3(50, 50, 50), (10, 10, 10), (3, 3, 3))])
    assert segment_blocked(env, Vec3(0, 50, 50), Vec3(100, 50, 50))


def test_segment_requires_distinct_endpoints():
    with pytest.raises(ValueError):
        segment_blocked(empty_env(), Vec3(1, 1, 1), Vec3(1, 1, 1))


def test_segment_symmetry_random():
    rng = np.random.default_rng(7)
    env = random_env(rng)
    for _ in range(200):
        a = Vec3(*rng.uniform(0, 140, 3))
        b = Vec3(*rng.uniform(0, 140, 3))
        if a == b:
            continue
        assert segment_blocked(env, a, b) == segment_blocked(env, b, a)


def test_segment_agrees_with_raymarch_oracle():
    """10^4 random segments vs a 0.1 m ray-march across mixed-exponent prisms."""
    rng = np.random.default_rng(42)
    mismatches = 0
    for trial in range(10):
        env = random_env(rng, n_prisms=3)
        for _ in range(1000):
            a = Vec3(*rng.uniform(0, 140, 3))
            b = Vec3(*rng.uniform(0, 140, 3))
            if a == b:
                continue
            got = segment_blocked(env, a, b)
            want = raymarch_segment_blocked(env, a, b, step=0.1)
            if got != want:
                # The ray-march itself can miss sub-0.1 m grazing clips; only
                # analytic-blocked-but-march-clear within tolerance may differ.
                mismatches += 1
    assert mismatches <= 2, f"{mismatches} oracle disagreements out of 10000"


@st.composite
def segment_batches(draw):
    """An environment of 1 to 3 prisms, lattice-aligned or not, and a batch of
    segments: free, lattice-aligned, axis-parallel, ending on or an ulp from a
    prism's AABB face, or starting far away along one axis."""
    integral = draw(st.booleans())
    coord = (st.integers(0, 140).map(float) if integral
             else st.floats(0.0, 140.0, allow_nan=False))
    prisms = []
    for _ in range(draw(st.integers(1, 3))):
        center = [draw(st.integers(30, 110) if integral else st.floats(30.0, 110.0))
                  for _ in range(3)]
        axes = [draw(st.integers(4, 25) if integral else st.floats(4.0, 25.0))
                for _ in range(3)]
        prisms.append(Prism(Vec3(*map(float, center)), tuple(map(float, axes)),
                            draw(st.sampled_from([(1, 1, 1), (2, 2, 2), (4, 4, 4),
                                                  (2, 1, 3)]))))
    env = Environment(bounds=Box(Vec3(0, 0, 0), Vec3(140, 140, 140)),
                      known_obstacles=tuple(prisms), sun=SunModel(Vec3(70, 70, 2000)))

    def point():
        return [draw(coord) for _ in range(3)]

    def on_face(p):
        """p moved onto, or an ulp off, a face of a prism's AABB; half the
        time on the line through the prism's center normal to that face."""
        prism = draw(st.sampled_from(prisms))
        lo, hi = prism.aabb()
        axis = draw(st.integers(0, 2))
        if draw(st.booleans()):
            p = prism.center.as_tuple()
        p = list(p)
        face = draw(st.sampled_from([lo[axis], hi[axis]]))
        p[axis] = float(np.nextafter(face, draw(st.sampled_from([-np.inf, np.inf]))))
        if draw(st.booleans()):
            p[axis] = float(face)
        return p, axis

    starts, ends = [], []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["free", "axis", "face", "far"]))
        a, b = point(), point()
        if kind == "axis":
            axis = draw(st.integers(0, 2))
            b = list(a)
            b[axis] = draw(coord)
        elif kind == "face":
            b, _ = on_face(b if draw(st.booleans()) else a)
        elif kind == "far":
            b, axis = on_face(b)
            a = list(b)
            a[axis] = draw(st.sampled_from([-1e6, 1e6, -3e9, 3e9]))
        if draw(st.booleans()):
            a, b = b, a
        starts.append(a)
        ends.append(b)
    return env, np.array(starts), np.array(ends)


# A segment from x = -1e6 to the face x = 40 of this prism, or an ulp either
# side of it, touches the face once `end - start` rounds: the reference finds
# all three blocked, so the broad phase's pad must keep them.
FAR_FACE = Environment(bounds=Box(Vec3(-2e6, -100, -100), Vec3(100, 100, 100)),
                       known_obstacles=(Prism(Vec3(50, 0, 0), (10, 10, 10), (2, 2, 2)),),
                       sun=SunModel(Vec3(0, 0, 1e4)))


@given(segment_batches())
@example((FAR_FACE, np.array([[-1e6, 0.0, 0.0]] * 3),
          np.array([[x, 0.0, 0.0] for x in (40.0, np.nextafter(40.0, 0.0),
                                             np.nextafter(40.0, 50.0))])))
@settings(max_examples=400, deadline=None)
def test_segments_blocked_equals_reference(batch):
    """The broad phase and the row blocks change no verdict: equal to the
    one-pass reference, with the default block and with blocks of 7 rows."""
    env, starts, ends = batch
    with np.errstate(over="ignore"):  # the slab quotients of near-zero directions
        want = reference_segments_blocked(env, starts, ends)
    assert np.array_equal(segments_blocked(env, starts, ends), want)
    with mock.patch.object(world, "SEGMENT_BLOCK", 7):
        assert np.array_equal(segments_blocked(env, starts, ends), want)


GRAZING_EXPONENTS = [(2, 1, 3), (4, 4, 4), (1, 2, 2)]


@st.composite
def grazing_batches(draw):
    """1 to 3 prisms with exponents (2,1,3), (4,4,4) or (1,2,2), and segments
    tangent to one of their surfaces, or moved up to 1e-6 m along the surface
    normal (outward or inward), through or ending at the tangent point."""
    real = partial(st.floats, allow_nan=False, allow_infinity=False)
    prisms = [Prism(Vec3(*(draw(real(40.0, 100.0)) for _ in range(3))),
                    tuple(draw(real(4.0, 25.0)) for _ in range(3)),
                    draw(st.sampled_from(GRAZING_EXPONENTS)))
              for _ in range(draw(st.integers(1, 3)))]
    env = Environment(bounds=Box(Vec3(0, 0, 0), Vec3(140, 140, 140)),
                      known_obstacles=tuple(prisms), sun=SunModel(Vec3(70, 70, 2000)))
    starts, ends = [], []
    for _ in range(draw(st.integers(1, 20))):
        prism = draw(st.sampled_from(prisms))
        c, axes, exps = (np.array(x) for x in (prism.center.as_tuple(), prism.semi_axes,
                                                 prism.exponents))
        # A surface point: per-axis gamma terms w_i summing to 1.
        w = np.array([draw(real(0.0, 1.0)) for _ in range(3)])
        assume(w.sum() > 1e-3)
        w /= w.sum()
        signs = np.array([draw(st.sampled_from([-1.0, 1.0])) for _ in range(3)])
        p = c + signs * axes * w ** (1.0 / (2.0 * exps))
        r = (p - c) / axes
        grad = 2.0 * exps * r ** (2 * exps - 1) / axes
        assume(np.linalg.norm(grad) > 1e-9)
        normal = grad / np.linalg.norm(grad)
        tangent = np.cross(normal, [draw(real(-1.0, 1.0)) for _ in range(3)])
        assume(np.linalg.norm(tangent) > 1e-3)
        tangent /= np.linalg.norm(tangent)
        p = p + draw(st.sampled_from([0.0, 1e-6, -1e-6]) | real(-1e-6, 1e-6)) * normal
        before, after = draw(st.just(0.0) | real(0.5, 30.0)), draw(real(0.5, 30.0))
        a, b = p - before * tangent, p + after * tangent
        if draw(st.booleans()):
            a, b = b, a
        starts.append(a)
        ends.append(b)
    return env, np.array(starts), np.array(ends)


@given(grazing_batches())
@settings(max_examples=100, deadline=None)
def test_grazing_segments_equal_reference(batch):
    """Segments that touch or nearly touch a superellipsoid keep the exact
    verdict of the full ternary search: the certified exits never decide a
    row that the reference decides otherwise."""
    env, starts, ends = batch
    assert np.array_equal(segments_blocked(env, starts, ends),
                          reference_segments_blocked(env, starts, ends))


@st.composite
def convex_brackets(draw):
    """A convex function sampled on a bracket [a, b] of [0, 1], at least 1e-3
    wide: gamma of a random prism along a random line, or a random kink
    c + max(alpha (t - t_k), beta (t - t_k))."""
    real = partial(st.floats, allow_nan=False, allow_infinity=False)
    a = draw(real(0.0, 0.999))
    b = draw(real(a + 1e-3, 1.0))
    if draw(st.booleans()):
        prism = Prism(Vec3(0.0, 0.0, 0.0), tuple(draw(real(4.0, 25.0)) for _ in range(3)),
                      draw(st.sampled_from(GRAZING_EXPONENTS + [(2, 2, 2)])))
        p0 = np.array([draw(real(-40.0, 40.0)) for _ in range(3)])
        v = np.array([draw(real(-80.0, 80.0)) for _ in range(3)])

        def f(t):
            return world._gamma_points([p + t * d for p, d in zip(p0, v)],
                                       *world._prism_arrays(prism))
    else:
        c, t_k = draw(real(-5.0, 5.0)), draw(real(-0.5, 1.5))
        alpha, beta = sorted((draw(real(-50.0, 50.0)), draw(real(-50.0, 50.0))))

        def f(t):
            return c + np.maximum(alpha * (t - t_k), beta * (t - t_k))
    return f, a, b


@given(convex_brackets())
@settings(max_examples=300, deadline=None)
def test_sandwich_bound_never_exceeds_sampled_minimum(case):
    """The lower bound the certified exits use, from the values at a, the two
    thirds and b, is no more than the minimum of 4001 samples of [a, b], up
    to rounding."""
    f, a, b = case
    third = (b - a) / 3.0
    ga, g1, g2, gb = f(np.array([a, a + third, b - third, b]))
    bound = world._sandwich_bound(*(np.array([g]) for g in (ga, g1, g2, gb)))[0]
    dense = f(np.linspace(a, b, 4001))
    scale = max(abs(ga), abs(g1), abs(g2), abs(gb), 1.0)
    assert bound <= dense.min() + 1e-12 * scale


@given(st.sampled_from([(2, 1, 3), (4, 4, 4), (1, 2, 2), (9, 3, 6)]), st.floats(0.5, 2000.0),
       st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_gamma_rounding_within_exit_margin(exponents, spread, unit):
    """The rounding model behind the exit margin: gamma computed at the
    rounded point p0 + t v, inside the prism's AABB, is within k (1 + g) of
    gamma at the exact line point, computed in rationals, where
    k = 64 e u (1 + R / s)."""
    prism = Prism(Vec3(spread, -spread, 0.5 * spread), (4.0, 25.0, 11.0), exponents)
    lo, hi = prism.aabb()
    p0 = lo - 5.0 + np.array(unit[:3]) * (hi - lo + 10.0)
    v = lo + np.array(unit[3:]) * (hi - lo) - p0
    t0, t1, valid = world._clip_to_aabb(p0[None, :], v[None, :], lo, hi)
    assume(valid[0])
    t = t0 + (t1 - t0) * np.linspace(0.0, 1.0, 9)
    got = world._gamma_points([p + t * d for p, d in zip(p0, v)], *world._prism_arrays(prism))
    reach = max(np.abs(p0).max(), np.abs(p0 + v).max())
    k = Fraction(64 * max(exponents) * 2.0 ** -53 * (1.0 + reach / min(prism.semi_axes)))
    for ti, gi in zip(t.tolist(), got.tolist()):
        exact = sum(((Fraction(p) + Fraction(ti) * Fraction(d) - Fraction(c)) / Fraction(s))
                    ** (2 * e) for p, d, c, s, e in zip(p0.tolist(), v.tolist(),
                                                        prism.center.as_tuple(),
                                                        prism.semi_axes, exponents))
        assert abs(Fraction(gi) - exact) <= k * (1 + exact)


def test_decided_rows_leave_after_the_first_iteration(monkeypatch):
    """A segment far outside or through the middle of a (4,4,4) prism is
    decided at the first checkpoint: gamma is evaluated at the bracket ends
    and at one pair of probes. A tangent segment runs the full search."""
    prism = Prism(Vec3(0.0, 0.0, 0.0), (10.0, 10.0, 10.0), (4, 4, 4))
    calls = []
    gamma_points = world._gamma_points
    monkeypatch.setattr(world, "_gamma_points",
                        lambda *args: calls.append(args) or gamma_points(*args))

    def search(starts, ends):
        calls.clear()
        starts, ends = np.array(starts, dtype=float), np.array(ends, dtype=float)
        t0, t1, valid = world._clip_to_aabb(starts, ends - starts, *prism.aabb())
        assert valid.all()
        return world._segments_meet_prism(starts, ends - starts, prism, t0, t1).tolist()

    decisive = search([[-20.0, 9.9, 9.9], [-20.0, 0.0, 0.0]], [[20.0, 9.9, 9.9], [20.0, 0.0, 1.0]])
    assert decisive == [False, True] and len(calls) == 2
    assert search([[-20.0, 10.0, 0.0]], [[20.0, 10.0, 0.0]]) == [True]
    assert len(calls) == 2 + world._SEGMENT_REFINE_ITERS


def test_clip_to_aabb_quiet_on_overflowing_slab_quotient():
    """A direction component just above the near-zero cutoff overflows the
    slab quotient to inf; the clip still misses, without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t0, t1, valid = world._clip_to_aabb(np.array([[0.0, -1e9, 0.0]]),
                                            np.array([[1.0, 1e-300, 0.0]]),
                                            np.zeros(3), np.full(3, 10.0))
    assert not valid[0] and t0[0] == math.inf and t1[0] == 1.0


# Direction components at and around the parallel cutoff of the slab clip.
NEAR_CUTOFF = [1e-303, float(np.nextafter(1e-303, 0.0)), float(np.nextafter(1e-303, 1.0)),
               5e-304, 2e-303, 1e-300, 5e-324]


@st.composite
def one_segment_worlds(draw):
    """A `random_env` world plus a prism whose box has a face on each
    coordinate plane, half the time 6e5 m long in x and y, and segments for
    the one-row path: free, sun rays, ending on or an ulp off a box face,
    and near a coordinate plane with a direction component just above or
    below the 1e-303 parallel cutoff. On the long prism the slab quotient of
    such a component overflows to inf."""
    env = random_env(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))),
                     n_prisms=draw(st.integers(0, 3)))
    r, half = draw(st.floats(5.0, 20.0)), draw(st.sampled_from([10.0, 3e5]))
    corner = Prism(Vec3(half, half, r), (half, half, r),
                   draw(st.sampled_from([(1, 1, 1), (2, 1, 3), (4, 4, 4)])))
    prisms = env.known_obstacles + (corner,)
    env = Environment(env.bounds, prisms, sun=env.sun, z_min=env.z_min, z_max=env.z_max)
    coord = st.floats(-20.0, 160.0)

    def on_face(p):
        prism = draw(st.sampled_from(prisms))
        lo, hi = prism.aabb()
        axis = draw(st.integers(0, 2))
        face = float(draw(st.sampled_from([lo[axis], hi[axis]])))
        p[axis] = draw(st.sampled_from([face, float(np.nextafter(face, -np.inf)),
                                        float(np.nextafter(face, np.inf))]))
        return p

    rows = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["free", "sun", "face", "cutoff"]))
        a, b = [draw(coord) for _ in range(3)], [draw(coord) for _ in range(3)]
        if kind == "sun":
            a = list(env.sun.position.as_tuple())
            b = on_face(b) if draw(st.booleans()) else b
        elif kind == "face":
            b = on_face(b)
        elif kind == "cutoff":  # inside the corner box on the other axes
            a, b = ([draw(st.floats(-1.0, 2.0 * r + 1.0)) for _ in range(3)]
                    for _ in range(2))
            axis = draw(st.integers(0, 2))
            a[axis] = draw(st.sampled_from([0.0, 5e-304, -5e-304, 1e-303]))
            b[axis] = a[axis] + draw(st.sampled_from([1.0, -1.0])) * draw(
                st.sampled_from(NEAR_CUTOFF))
        if draw(st.booleans()):
            a, b = b, a
        assume(a != b)
        rows.append((Vec3(*a), Vec3(*b)))
    return env, rows


# A direction component of exactly 1e-303 from a start 5e-304 outside the
# corner box: the clip keeps t in [0.5, 1], a parallel test would miss.
CUTOFF_ROW = (env_with([Prism(Vec3(10.0, 10.0, 10.0), (10.0, 10.0, 10.0), (2, 2, 2))]),
              [(Vec3(-5e-304, 5.0, 5.0), Vec3(5e-304, 15.0, 15.0))])


@given(one_segment_worlds())
@example(CUTOFF_ROW)
@settings(max_examples=150, deadline=None)
def test_segment_blocked_equals_one_row_batch(case):
    """The scalar rejection in `segment_blocked` changes no verdict, and a
    segment clear of every prism's box never reaches `segments_blocked`."""
    env, rows = case
    batched = world.segments_blocked
    starts = [np.array([a.as_tuple()]) for a, _ in rows]
    ends = [np.array([b.as_tuple()]) for _, b in rows]
    want = [bool(batched(env, s, e)[0]) for s, e in zip(starts, ends)]
    enters = [any(world._clip_to_aabb(s, e - s, *prism.aabb())[2][0]
                  for prism in env.known_obstacles) for s, e in zip(starts, ends)]
    got, called = [], []
    with mock.patch.object(world, "segments_blocked", wraps=batched) as spy:
        for a, b in rows:
            before = spy.call_count
            got.append(segment_blocked(env, a, b))
            called.append(spy.call_count > before)
    assert got == want
    assert called == enters


@given(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 6))
@example((1.0, -2.0, 3.0, 1.0, -2.0, 3.0))
@example((1e200, 0.0, 0.0, -1e200, 0.0, 0.0))
def test_dist_to_is_norm_of_difference(coords):
    """Bit for bit `(a - b).norm()`, and the same ValueError when a
    coordinate of the difference overflows."""
    a, b = Vec3(*coords[:3]), Vec3(*coords[3:])
    try:
        want = (a - b).norm()
    except ValueError:
        with pytest.raises(ValueError):
            a.dist_to(b)
        return
    assert a.dist_to(b).hex() == want.hex()


def test_dist_to_rejects_an_overflowing_difference():
    with pytest.raises(ValueError):
        Vec3(1e308, 0, 0).dist_to(Vec3(-1e308, 0, 0))


def test_shadow_false_without_obstacles():
    env = empty_env()
    for p in (Vec3(1, 1, 1), Vec3(99, 99, 99), Vec3(50, 50, 0)):
        assert not in_shadow(env, p)


def test_shadow_behind_tower_matches_reference_sun():
    # Sun fixed at (250, 800, 1800) with a 150 m tower between it and p.
    tower = Prism(Vec3(250, 400, 75), (30, 30, 75), (4, 4, 4))
    env = Environment(bounds=Box(Vec3(0, 0, 0), Vec3(500, 500, 200)),
                      known_obstacles=(tower,),
                      sun=SunModel(Vec3(250, 800, 1800)), z_min=0, z_max=200)
    p = Vec3(250, 360, 40)
    assert in_shadow(env, p)
    assert raymarch_segment_blocked(env, env.sun.position, p, step=0.1)


def test_no_shadow_above_roofline():
    tower = Prism(Vec3(250, 400, 75), (30, 30, 75), (4, 4, 4))
    env = Environment(bounds=Box(Vec3(0, 0, 0), Vec3(500, 500, 200)),
                      known_obstacles=(tower,),
                      sun=SunModel(Vec3(250, 800, 1800)), z_min=0, z_max=200)
    assert not in_shadow(env, Vec3(250, 360, 180))


def test_shadow_monotone_under_added_prism():
    rng = np.random.default_rng(3)
    base = random_env(rng, n_prisms=2)
    extra = Prism(Vec3(70, 70, 40), (15, 15, 40), (2, 2, 2))
    bigger = Environment(bounds=base.bounds,
                         known_obstacles=base.known_obstacles + (extra,),
                         sun=base.sun, z_min=base.z_min, z_max=base.z_max)
    for _ in range(200):
        p = Vec3(*rng.uniform(0, 140, 3))
        if in_shadow(base, p):
            assert in_shadow(bigger, p)


def test_sun_below_obstacle_top_rejected():
    with pytest.raises(ValueError):
        Environment(bounds=Box(Vec3(0, 0, 0), Vec3(100, 100, 100)),
                    known_obstacles=(Prism(Vec3(50, 50, 50), (10, 10, 50)),),
                    sun=SunModel(Vec3(50, 50, 80)), z_min=0, z_max=100)


def test_environment_rejects_prism_outside_bounds():
    with pytest.raises(ValueError):
        env_with([Prism(Vec3(500, 500, 500), (10, 10, 10))])


def test_sun_from_position_angles():
    sun = SunModel.from_position(Vec3(0, 0, 1000), Vec3(0, 0, 0))
    assert sun.elevation == pytest.approx(math.pi / 2)
    sun2 = SunModel.from_position(Vec3(100, 0, 100), Vec3(0, 0, 0))
    assert sun2.azimuth == pytest.approx(0.0)
    assert sun2.elevation == pytest.approx(math.pi / 4)


def test_subnormal_bracket_is_searched_without_a_warning():
    """A bracket of subnormal width overflows the exit margin to inf, so the
    row takes no early exit; the search still decides it, without a warning."""
    prism = Prism(Vec3(0.0, 0.0, 0.0), (10.0, 10.0, 10.0), (4, 4, 4))
    starts = np.array([[0.0, 0.0, 0.0], [0.0, 20.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        met = world._segments_meet_prism(starts, np.array([[1.0, 0.0, 0.0]] * 2), prism,
                                         np.zeros(2), np.full(2, 5e-324))
    assert met.tolist() == [True, False]
