"""Geometry: superellipsoid levels, collision, segment and shadow queries."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solarnav import (Box, Environment, Prism, SunModel, Vec3, gamma, in_shadow,
                      is_collision, segment_blocked)
from solarnav.world import prism_clearance

from conftest import empty_env, env_with, random_env
from oracles import raymarch_segment_blocked, reference_prism_clearance

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
