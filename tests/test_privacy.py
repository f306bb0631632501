"""Privacy intensity field, risk integral, and the time-layered DP planner."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import solarnav.privacy as privacy_mod
from solarnav import (Box, DpLattice, Environment, Prism, PrivacyRegion, SunModel, Unreachable,
                      Vec3, is_collision, plan_privacy_dp, privacy_intensity,
                      total_privacy_risk)
from solarnav.privacy import STAGE_SAMPLES
from solarnav.world import clear_of_prisms
from oracles import (ReferenceDpProblem, dp_optimum_by_path_enumeration,
                     dp_value_by_recursion, reference_dp_tables, riemann_risk)

REGION = PrivacyRegion(Vec3(0, 0, 0), 10.0, 40.0)


def flat_env(size=200.0, regions=(), prisms=()):
    return Environment(bounds=Box(Vec3(0, 0, 0), Vec3(size, size, 40.0)),
                       known_obstacles=tuple(prisms),
                       privacy_regions=tuple(regions),
                       sun=SunModel(Vec3(size / 2, size / 2, 5000.0)),
                       z_min=0.0, z_max=40.0)


# ------------------------------------------------------------------ intensity

def test_intensity_outside_shell_zero():
    assert privacy_intensity(Vec3(41.0, 0, 0), REGION) == 0.0


def test_intensity_inner_boundary_one():
    assert privacy_intensity(Vec3(10.0, 0, 0), REGION) == 1.0


def test_intensity_linear_midpoint():
    assert privacy_intensity(Vec3(25.0, 0, 0), REGION) == pytest.approx(0.5)


def test_intensity_range_random():
    rng = np.random.default_rng(2)
    for _ in range(300):
        p = Vec3(*rng.uniform(-60, 60, 3))
        assert 0.0 <= privacy_intensity(p, REGION) <= 1.0


def test_region_validation():
    with pytest.raises(ValueError):
        PrivacyRegion(Vec3(0, 0, 0), 40.0, 10.0)
    with pytest.raises(ValueError):
        PrivacyRegion(Vec3(0, 0, 0), 0.0, 10.0)


# --------------------------------------------------------------- risk integral

def test_risk_zero_outside_all_shells():
    traj = [(float(t), Vec3(100 + t, 300.0, 0.0)) for t in range(10)]
    assert total_privacy_risk(traj, [REGION]) == 0.0


def test_risk_hover_at_full_intensity():
    traj = [(0.0, Vec3(5.0, 0, 0)), (10.0, Vec3(5.0, 0, 0.0))]
    assert total_privacy_risk(traj, [REGION]) == pytest.approx(10.0)


def test_risk_requires_increasing_timestamps():
    with pytest.raises(ValueError):
        total_privacy_risk([(0.0, Vec3(0, 0, 0)), (0.0, Vec3(1, 0, 0))], [REGION])


def test_risk_matches_riemann_oracle():
    rng = np.random.default_rng(8)
    regions = [PrivacyRegion(Vec3(*rng.uniform(-30, 30, 3)), 5.0, 35.0)
               for _ in range(3)]
    t = 0.0
    traj = []
    p = np.array([-50.0, -20.0, 0.0])
    vel = np.array([4.0, 2.5, 0.3])
    for _ in range(2000):
        traj.append((t, Vec3(*p)))
        dt = rng.uniform(0.01, 0.04)
        vel = vel + rng.uniform(-0.5, 0.5, 3)
        t += dt
        p = p + vel * dt
    got = total_privacy_risk(traj, regions)
    want = riemann_risk(traj, regions, substeps=10000)
    assert want > 0.0
    assert got == pytest.approx(want, rel=1e-3)


def test_risk_monotone_under_added_regions():
    rng = np.random.default_rng(12)
    traj = [(float(i), Vec3(float(i * 3), 10.0, 0.0)) for i in range(40)]
    base = [PrivacyRegion(Vec3(30, 0, 0), 5.0, 30.0)]
    more = base + [PrivacyRegion(Vec3(80, 20, 0), 5.0, 30.0)]
    assert total_privacy_risk(traj, more) >= total_privacy_risk(traj, base)


# -------------------------------------------------------------------------- DP

def test_dp_free_space_straight_line():
    env = flat_env()
    v_max, m, t_max = 10.0, 10, 40.0
    delta = t_max / m
    plan = plan_privacy_dp(env, Vec3(20, 100, 20), Vec3(140, 100, 20), m, t_max,
                           v_max, pitch=v_max * delta, planar=True)
    assert plan.risk == 0.0
    dist = 120.0
    assert plan.t_f == pytest.approx(math.ceil(dist / (v_max * delta)) * delta)
    assert all(p.y == 100.0 for _, p in plan.trajectory)


def test_dp_beats_straight_line_with_offset_region():
    region = PrivacyRegion(Vec3(80, 108, 20), 6.0, 40.0)
    env = flat_env(regions=[region])
    plan = plan_privacy_dp(env, Vec3(20, 100, 20), Vec3(140, 100, 20), 12, 48.0,
                           10.0, pitch=20.0, planar=True)
    straight = [(t, Vec3(20 + 10 * t, 100.0, 20.0)) for t in np.linspace(0, 12, 400)]
    straight_risk = total_privacy_risk(straight, [region])
    assert plan.risk < straight_risk


def test_dp_matches_recursive_oracle_9x9x3():
    """All stored (layer, node) values equal a memoized top-down recursion."""
    region = PrivacyRegion(Vec3(80, 90, 20), 8.0, 50.0)
    env = Environment(bounds=Box(Vec3(0, 0, 0), Vec3(160, 160, 40)),
                      privacy_regions=(region,),
                      sun=SunModel(Vec3(80, 80, 5000.0)), z_min=0.0, z_max=40.0)
    m = 12
    plan = plan_privacy_dp(env, Vec3(0, 0, 0), Vec3(160, 160, 40), m,
                           m * 2.0, 20.0, pitch=20.0)
    lat = plan.lattice
    assert lat.dims == (9, 9, 3)
    prob = ReferenceDpProblem(env, lat, 20.0, STAGE_SAMPLES)
    pf_flat = lat.flat_of(8, 8, 2)
    oracle = dp_value_by_recursion(prob, lat, pf_flat)
    stored = {(i, n): v for i in range(m + 1) for n, v in lat.values[i].items()}
    assert set(stored) == set(oracle)
    for key, v in stored.items():
        assert v == oracle[key], key
    p0_flat = lat.flat_of(0, 0, 0)
    best = min(oracle[(i, p0_flat)] for i in range(m) if (i, p0_flat) in oracle)
    assert plan.risk == best


def test_dp_matches_literal_enumeration_small():
    """Every stage-by-stage trajectory enumerated on a 5x5 planar instance."""
    region = PrivacyRegion(Vec3(40, 48, 20), 5.0, 30.0)
    env = Environment(bounds=Box(Vec3(0, 0, 0), Vec3(80, 80, 40)),
                      privacy_regions=(region,),
                      sun=SunModel(Vec3(40, 40, 5000.0)), z_min=0.0, z_max=40.0)
    m = 6
    plan = plan_privacy_dp(env, Vec3(0, 40, 20), Vec3(80, 40, 20), m, m * 2.0,
                           15.0, pitch=20.0, planar=True)
    lat = plan.lattice
    prob = ReferenceDpProblem(env, lat, 15.0, STAGE_SAMPLES)
    p0 = lat.flat_of(0, 2, 0)
    pf = lat.flat_of(4, 2, 0)
    brute = dp_optimum_by_path_enumeration(prob, lat, p0, pf)
    assert plan.risk == pytest.approx(brute, abs=1e-12)


def test_dp_table_self_consistency_audit():
    """Stored V(i, n) equals the min over enumerated successors of
    stage cost + V(i+1, .)."""
    region = PrivacyRegion(Vec3(60, 70, 20), 6.0, 45.0)
    env = flat_env(size=120.0, regions=[region])
    m = 8
    plan = plan_privacy_dp(env, Vec3(0, 60, 20), Vec3(120, 60, 20), m, m * 2.0,
                           15.0, pitch=20.0, planar=True)
    lat = plan.lattice
    prob = ReferenceDpProblem(env, lat, 15.0, STAGE_SAMPLES)
    nx, ny, nz = lat.dims
    for i in range(m):
        for node, value in lat.values[i].items():
            ix, iy, iz = lat.unflatten(node)
            best = math.inf
            for k in prob.move_indices:
                dx, dy, dz = lat.offsets[k]
                jx, jy, jz = ix + dx, iy + dy, iz + dz
                if not (0 <= jx < nx and 0 <= jy < ny and 0 <= jz < nz):
                    continue
                nxt = lat.flat_of(jx, jy, jz)
                if nxt not in lat.values[i + 1]:
                    continue
                if not prob.node_feasible(nxt) or not prob.move_feasible(node, nxt):
                    continue
                best = min(best, lat.values[i + 1][nxt] + prob.stage_cost(node, nxt))
            assert value == best, (i, node)


def test_dp_unreachable_when_horizon_too_short():
    env = flat_env()
    with pytest.raises(Unreachable):
        plan_privacy_dp(env, Vec3(0, 100, 20), Vec3(200, 100, 20), 2, 4.0,
                        10.0, pitch=20.0, planar=True)


def test_dp_scaling_invariance(monkeypatch):
    """Halving every intensity halves the risk but not the chosen nodes. The
    shell reaches further than any detour the horizon allows, so the risk is
    positive and the patch on the one intensity owner shows in it."""
    region = PrivacyRegion(Vec3(80, 108, 20), 6.0, 90.0)
    env = flat_env(regions=[region])
    args = (env, Vec3(20, 100, 20), Vec3(140, 100, 20), 12, 48.0, 10.0)
    base = plan_privacy_dp(*args, pitch=20.0, planar=True)
    assert base.risk > 0.0
    original = privacy_mod.privacy_intensities
    monkeypatch.setattr(privacy_mod, "privacy_intensities",
                        lambda points, regions: 0.5 * original(points, regions))
    scaled = plan_privacy_dp(*args, pitch=20.0, planar=True)
    assert [p.as_tuple() for _, p in base.trajectory] == \
        [p.as_tuple() for _, p in scaled.trajectory]
    assert scaled.risk == pytest.approx(0.5 * base.risk)


def test_dp_hard_constraints_respected():
    """Trajectory keeps F < 1 (outside every c1 core) and inside the bounds."""
    region = PrivacyRegion(Vec3(80, 100, 20), 25.0, 60.0)
    env = flat_env(regions=[region])
    plan = plan_privacy_dp(env, Vec3(20, 100, 20), Vec3(140, 100, 20), 8, 32.0,
                           10.0, pitch=20.0, planar=True)
    for _, p in plan.sampled(16):
        assert p.dist_to(region.center) > region.c1
        assert env.bounds.contains(p)
    assert plan.risk > 0.0  # the wide shell cannot be fully avoided in time


def _reference_plan(values, moves, lat, p0_flat):
    """Risk and node trajectory read off reference tables the way the planner
    reads its own: the cheapest start layer, the latest among equals."""
    reachable = [i for i in range(lat.m_layers) if p0_flat in values[i]]
    if not reachable:
        return None, None
    best = min(values[i][p0_flat] for i in reachable)
    i0 = max(i for i in reachable if values[i][p0_flat] == best)
    node, nodes = p0_flat, [p0_flat]
    for i in range(i0, lat.m_layers):
        ix, iy, iz = lat.unflatten(node)
        dx, dy, dz = lat.offsets[moves[i][node]]
        node = lat.flat_of(ix + dx, iy + dy, iz + dz)
        nodes.append(node)
    return best, [lat.node_point(n).as_tuple() for n in nodes]


_unit = st.tuples(*[st.floats(0.0, 1.0)] * 3)  # a center as a fraction of the bounds
_region = st.tuples(_unit, st.floats(2.0, 15.0), st.floats(5.0, 60.0))
_prism = st.tuples(_unit, st.tuples(*[st.floats(4.0, 25.0)] * 3),
                   st.sampled_from([(1, 1, 1), (2, 2, 2), (2, 1, 3)]))


@settings(max_examples=30, deadline=None)
@given(dims=st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(1, 3)),
       m=st.integers(1, 8), v_max=st.sampled_from([10.0, 15.0, 20.0]),
       stage=st.sampled_from([2.0, 2.3, 3.1]), pitch=st.sampled_from([20.0, 13.7]),
       regions=st.lists(_region, max_size=3), prisms=st.lists(_prism, max_size=2),
       ends=st.tuples(*[st.integers(0, 4)] * 6))
def test_dp_tables_match_scalar_reference(dims, m, v_max, stage, pitch, regions, prisms,
                                          ends):
    """Values, moves, risk and trajectory equal the per-(layer, node, move)
    scalar DP exactly, on planar (nz = 1) and 3D lattices, with horizons
    shorter and longer than the lattice is wide. The stage length
    decides which moves are fast enough; a pitch of 13.7 m puts the samples
    off the dyadic grid that 20 m and 16 samples per stage stay on."""
    t_max = m * stage
    nx, ny, nz = dims
    planar = nz == 1
    z_base = 20.0 if planar else 0.0
    hi = (pitch * (nx - 1), pitch * (ny - 1), 40.0 if planar else pitch * (nz - 1))

    def at(unit):
        return Vec3(*(u * h for u, h in zip(unit, hi)))

    env = Environment(bounds=Box(Vec3(0, 0, 0), Vec3(*hi)),
                      known_obstacles=tuple(Prism(at(c), a, e) for c, a, e in prisms),
                      privacy_regions=tuple(PrivacyRegion(at(c), c1, c1 + w)
                                            for c, c1, w in regions),
                      sun=SunModel(Vec3(40, 40, 5000.0)), z_min=0.0, z_max=hi[2])
    zs = (0, 0) if planar else (ends[2] % nz, ends[5] % nz)
    p0_idx = (ends[0] % nx, ends[1] % ny, zs[0])
    pf_idx = (ends[3] % nx, ends[4] % ny, zs[1])
    p0, pf = (Vec3(pitch * ix, pitch * iy, z_base + pitch * iz)
              for ix, iy, iz in (p0_idx, pf_idx))
    lat = DpLattice(origin=np.array([0.0, 0.0, z_base]), spacing=pitch, dims=dims,
                    delta=t_max / m, m_layers=m, offsets=privacy_mod._lattice_offsets(planar))
    prob = ReferenceDpProblem(env, lat, v_max, STAGE_SAMPLES)
    p0_flat, pf_flat = lat.flat_of(*p0_idx), lat.flat_of(*pf_idx)
    values, moves = reference_dp_tables(prob, lat, pf_flat)
    risk, nodes = _reference_plan(values, moves, lat, p0_flat)
    args = (env, p0, pf, m, t_max, v_max)
    if not (prob.node_feasible(p0_flat) and prob.node_feasible(pf_flat)):
        with pytest.raises(ValueError, match="hard constraints"):
            plan_privacy_dp(*args, pitch=pitch, planar=planar)
        return
    if risk is None:
        with pytest.raises(Unreachable):
            plan_privacy_dp(*args, pitch=pitch, planar=planar)
        return
    plan = plan_privacy_dp(*args, pitch=pitch, planar=planar)
    assert plan.lattice.dims == dims
    assert plan.lattice.origin.tolist() == lat.origin.tolist()
    assert plan.lattice.values == values
    assert plan.lattice.moves == moves
    assert plan.risk == risk
    assert [p.as_tuple() for _, p in plan.trajectory] == nodes


def test_dp_tie_goes_to_smallest_successor_index():
    """A core on the straight line leaves two mirror-image detours whose
    stage costs are bit-identical; the move toward the successor with the
    smaller flat index (y = 0, not y = 40) is kept, as in the reference."""
    region = PrivacyRegion(Vec3(20, 20, 20), 5.0, 30.0)
    env = flat_env(size=40.0, regions=[region])
    plan = plan_privacy_dp(env, Vec3(0, 20, 20), Vec3(40, 20, 20), 2, 4.0, 20.0,
                           pitch=20.0, planar=True)
    lat = plan.lattice
    prob = ReferenceDpProblem(env, lat, 20.0, STAGE_SAMPLES)
    down, up = lat.flat_of(1, 0, 0), lat.flat_of(1, 2, 0)
    start, goal = lat.flat_of(0, 1, 0), lat.flat_of(2, 1, 0)
    assert lat.values[1][down] == lat.values[1][up] > 0.0
    assert prob.stage_cost(start, down) == prob.stage_cost(start, up)
    assert tuple(lat.offsets[lat.moves[0][start]]) == (1, -1, 0)
    assert [p.as_tuple() for _, p in plan.trajectory] == \
        [(0.0, 20.0, 20.0), (20.0, 0.0, 20.0), (40.0, 20.0, 20.0)]
    assert (lat.values, lat.moves) == reference_dp_tables(prob, lat, goal)


def _moves_into_reach(prob, lat, pf_flat, m):
    """Nodes within m steps of pf, and the undirected segments of the non-hold
    moves between feasible nodes into a node within m - 1 steps of pf, by
    brute force."""
    nx, ny, nz = lat.dims
    target = lat.unflatten(pf_flat)
    nodes, segments = 0, set()
    for node in range(nx * ny * nz):
        here = lat.unflatten(node)
        nodes += max(abs(a - b) for a, b in zip(here, target)) <= m
        for k in prob.move_indices[1:]:
            q = tuple(int(a + d) for a, d in zip(here, lat.offsets[k]))
            if (all(0 <= c < n for c, n in zip(q, lat.dims))
                    and max(abs(a - b) for a, b in zip(q, target)) < m
                    and prob.node_feasible(node) and prob.node_feasible(lat.flat_of(*q))):
                segments.add(frozenset((node, lat.flat_of(*q))))
    return nodes, len(segments)


def test_vector_node_test_matches_is_collision():
    """The DP's vector node test and build_grid's prism test decide as the
    scalar is_collision on prism surfaces, inside and outside prisms, 1e-12
    off their surfaces, on the bounds walls and on the altitude band edges."""
    prisms = (Prism(Vec3(40, 50, 20), (20.0, 10.0, 15.0), (2, 2, 2)),
              Prism(Vec3(120, 100, 20), (15.0, 25.0, 10.0), (1, 1, 1)),
              Prism(Vec3(80, 160, 10), (10.0, 12.0, 30.0), (1, 3, 4)))
    env = Environment(bounds=Box(Vec3(0, 0, 0), Vec3(200, 200, 40.0)), known_obstacles=prisms,
                      sun=SunModel(Vec3(100, 100, 5000.0)), z_min=5.0, z_max=35.0)
    points = [(100.0, 100.0, 20.0), (5.0, 195.0, 30.0)]
    for prism in prisms:
        c = prism.center.as_array()
        points.append(tuple(c))
        for axis, a in enumerate(prism.semi_axes):
            for sign in (-1.0, 1.0):
                for off in (0.0, -1e-12, 1e-12, -0.5, 0.5):
                    p = c.copy()
                    p[axis] += sign * (a + off)
                    points.append(tuple(p))
    for axis, (lo, hi) in enumerate(((0.0, 200.0), (0.0, 200.0), (5.0, 35.0))):
        for wall in (lo, hi, lo - 1e-12, hi + 1e-12, lo + 1e-12, hi - 1e-12):
            p = [100.0, 100.0, 20.0]
            p[axis] = wall
            points.append(tuple(p))
    for z in (0.0, 40.0, 0.0 - 1e-12, 40.0 + 1e-12):  # the bounds' z walls, outside the band
        points.append((100.0, 100.0, z))
    pts = np.array(points)
    scalar = [not is_collision(Vec3(*p), env) for p in points]
    assert privacy_mod._nodes_ok(env, pts).tolist() == scalar
    assert 0 < sum(scalar) < len(scalar)
    inside = pts[[env.bounds.contains(Vec3(*p)) and 5.0 <= p[2] <= 35.0 for p in points]]
    for margin in (0.0, 2.0):
        assert clear_of_prisms(env, inside, margin).tolist() == \
            [not is_collision(Vec3(*p), env, margin) for p in inside]


def test_dp_tests_each_move_segment_once(monkeypatch):
    """The prism test runs once per undirected segment of the non-hold moves
    between feasible nodes into the nodes within m_layers - 1 steps of the
    target (a move and its reverse share one test, and no segment is tested
    twice), and the vector node test takes each node within m_layers steps
    once (plus start and target).
    Once the horizon spans the lattice, doubling it adds no test; a short
    horizon on a wide lattice tests only the target's neighbourhood."""
    prisms = (Prism(Vec3(60, 50, 20), (12.0, 25.0, 30.0), (2, 2, 2)),
              Prism(Vec3(20, 90, 20), (8.0, 8.0, 30.0), (1, 1, 1)))
    env = flat_env(size=120.0, prisms=prisms)
    segments, nodes = [], []
    blocked, clear = privacy_mod.segment_blocked, privacy_mod.clear_of_prisms
    monkeypatch.setattr(privacy_mod, "segment_blocked",
                        lambda *args: segments.append(args) or blocked(*args))
    monkeypatch.setattr(privacy_mod, "clear_of_prisms",
                        lambda env, points: nodes.extend(points) or clear(env, points))
    counts = {}
    for m in (14, 7, 2, 1):
        segments.clear()
        nodes.clear()
        try:
            lat = plan_privacy_dp(env, Vec3(0, 60, 20), Vec3(120, 60, 20), m, 2.0 * m,
                                  15.0, pitch=20.0, planar=True).lattice
        except Unreachable:  # the start is 6 steps from the target
            assert m < 6
        counts[m] = (len(nodes), len(segments))
        undirected = {frozenset((a.as_tuple(), b.as_tuple())) for _, a, b in segments}
        assert len(undirected) == len(segments)
    prob = ReferenceDpProblem(env, lat, 15.0, STAGE_SAMPLES)  # every stage lasts 2 s
    expected = {m: _moves_into_reach(prob, lat, lat.flat_of(6, 3, 0), m) for m in counts}
    assert counts == {m: (n + 2, k) for m, (n, k) in expected.items()}
    assert counts[14] == counts[7] == (7 * 7 + 2, counts[7][1])
    assert 0 < counts[1][1] < counts[2][1] < counts[7][1]


def test_dp_state_budget_counts_reachable_nodes(monkeypatch):
    """The budget counts the nodes within m_layers steps of the target, times
    the layers, and raises before any node is tested. A fine pitch on a wide
    lattice passes when the horizon is short."""
    env = flat_env()
    with pytest.raises(Unreachable):  # 25^3 nodes x 13 layers, all in free space
        plan_privacy_dp(env, Vec3(20, 100, 20), Vec3(140, 100, 20), 12, 48.0, 10.0,
                        pitch=0.5)
    monkeypatch.setattr(privacy_mod, "clear_of_prisms",
                        lambda *_args: pytest.fail("node tested"))
    with pytest.raises(privacy_mod.DpBudgetExceeded, match="budget"):  # 81^3 x 41
        plan_privacy_dp(env, Vec3(20, 100, 20), Vec3(140, 100, 20), 40, 48.0, 10.0,
                        pitch=0.5)
    with pytest.raises(privacy_mod.DpBudgetExceeded, match="int64"):
        plan_privacy_dp(env, Vec3(20, 100, 20), Vec3(140, 100, 20), 12, 48.0, 10.0,
                        pitch=1e-300)
    with warnings.catch_warnings():  # a subnormal pitch is rejected before any division
        warnings.simplefilter("error")
        with pytest.raises(privacy_mod.DpBudgetExceeded, match="int64"):
            plan_privacy_dp(env, Vec3(20, 100, 20), Vec3(140, 100, 20), 12, 48.0, 10.0,
                            pitch=1e-320)
    with pytest.raises(ValueError, match="t_max"):
        plan_privacy_dp(env, Vec3(20, 100, 20), Vec3(140, 100, 20), 12, 0.0, 10.0)
