"""Free-space lattice construction and edge validity."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from solarnav import (Box, ConsumptionParams, DpLattice, EmptyGrid, EnergyModel, Environment,
                      HarvestModel, HarvestParams, Prism, SunModel, Vec3, build_grid,
                      segment_blocked, segments_blocked)
from solarnav.planning import _energy_tables, _per_offset
from solarnav.privacy import _lattice_offsets

from conftest import empty_env, env_with, random_env
from oracles import reference_edge_cost, reference_grid_masks, reference_neighbors


def test_empty_world_node_count():
    grid = build_grid(empty_env(100.0), 10.0)
    assert grid.dims == (11, 11, 11)
    assert grid.free_count() == 11 ** 3
    interior = grid.flat_of(5, 5, 5)
    assert len(list(grid.neighbors(interior))) == 26


@pytest.mark.parametrize("planar_z", [None, 50.0])
def test_neighbors_match_array_indexing(planar_z):
    """Every node yields the (flat, k) sequence of the array-indexing version,
    in a 3D grid among mixed-exponent prisms and in a planar grid with a prism."""
    if planar_z is None:
        grid = build_grid(random_env(np.random.default_rng(11)), 7.0, margin=1.0)
    else:
        grid = build_grid(env_with([Prism(Vec3(50, 50, 50), (20, 12, 50), (4, 4, 4))]),
                          5.0, planar_z=planar_z)
    assert 0 < grid.edge_ok.sum() < grid.edge_ok.size
    for flat in range(grid.node_count):
        assert list(grid.neighbors(flat)) == reference_neighbors(grid, flat)


def test_build_grid_is_independent_of_the_block_size(monkeypatch):
    """Blocks of 7 rows split the candidate edges of one offset across calls
    and gather several offsets into one; every array matches the default."""
    env = random_env(np.random.default_rng(4))
    want = build_grid(env, 9.0)
    monkeypatch.setattr("solarnav.grid.SEGMENT_BLOCK", 7)
    got = build_grid(env, 9.0)
    assert 0 < want.shadow.sum() < want.edge_ok.sum() < want.edge_ok.size
    for name in ("free", "edge_ok", "shadow"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("name", ["free", "edge_ok", "shadow", "e_out", "duration",
                                  "length", "lit_gain"])
def test_grid_arrays_are_read_only(name):
    """neighbors reads a snapshot of edge_ok, so a write to any grid array raises."""
    grid = build_grid(env_with([Prism(Vec3(50, 50, 50), (20, 20, 50), (4, 4, 4))]), 10.0)
    table = getattr(grid, name)
    with pytest.raises(ValueError, match="read-only"):
        table.flat[0] = table.flat[0]


def test_fully_occupied_world_raises():
    env = env_with([Prism(Vec3(50, 50, 50), (80, 80, 80), (4, 4, 4))])
    with pytest.raises(EmptyGrid):
        build_grid(env, 20.0)


def test_resolution_validation():
    env = env_with([Prism(Vec3(50, 50, 50), (12, 12, 12))])
    with pytest.raises(ValueError):
        build_grid(env, 15.0)  # exceeds the smallest semi-axis
    with pytest.raises(ValueError):
        build_grid(env, 0.0)


def test_altitude_band_clips_layers():
    env = env_with([], z_min=30.0, z_max=70.0)
    grid = build_grid(env, 10.0)
    assert grid.dims[2] == 5  # z in {30, 40, 50, 60, 70}
    assert grid.origin[2] == 30.0


def test_planar_grid_uses_eight_neighbors():
    grid = build_grid(empty_env(100.0), 10.0, planar_z=50.0)
    assert grid.dims[2] == 1
    assert grid.planar
    interior = grid.flat_of(5, 5, 0)
    assert len(list(grid.neighbors(interior))) == 8


def test_adjacency_matches_segment_oracle_exhaustively():
    """Every node pair at offset distance: edge present iff both endpoints are
    free and segment_blocked is false (5^3 grid, exhaustive)."""
    env = env_with([Prism(Vec3(40, 40, 40), (22, 20, 24), (2, 1, 3))], size=80.0)
    grid = build_grid(env, 20.0, margin=2.0)
    nx, ny, nz = grid.dims
    edges = {}
    for flat in range(grid.node_count):
        if not grid.is_free(flat):
            continue
        for nbr, _ in grid.neighbors(flat):
            edges[(flat, nbr)] = True
    for ix, iy, iz in itertools.product(range(nx), range(ny), range(nz)):
        a = grid.flat_of(ix, iy, iz)
        for dx, dy, dz in grid.offsets:
            jx, jy, jz = ix + dx, iy + dy, iz + dz
            if not (0 <= jx < nx and 0 <= jy < ny and 0 <= jz < nz):
                continue
            b = grid.flat_of(jx, jy, jz)
            expected = (grid.is_free(a) and grid.is_free(b)
                        and not segment_blocked(env, grid.node_point(a),
                                                grid.node_point(b)))
            assert edges.get((a, b), False) == expected, (a, b)


def test_every_edge_clears_prisms():
    rng = np.random.default_rng(11)
    env = random_env(rng, n_prisms=2)
    grid = build_grid(env, 10.0)
    checked = 0
    for flat in range(grid.node_count):
        if not grid.is_free(flat):
            continue
        for nbr, _ in grid.neighbors(flat):
            if checked >= 500:
                return
            assert not segment_blocked(env, grid.node_point(flat),
                                       grid.node_point(nbr))
            checked += 1


def test_free_nodes_clear_margin():
    prism = Prism(Vec3(50, 50, 50), (10, 10, 10))
    env = env_with([prism])
    grid = build_grid(env, 10.0, margin=2.0)
    # Node at (60, 50, 50) sits exactly on the surface; the margin removes it.
    assert not grid.is_free(grid.index_of_point(Vec3(60, 50, 50)))
    assert grid.is_free(grid.index_of_point(Vec3(70, 50, 50)))


def test_edge_costs_level_and_climb(default_energy):
    grid = build_grid(empty_env(100.0), 10.0, energy=default_energy)
    a = grid.flat_of(0, 0, 0)
    level = grid.edge_cost(a, grid.flat_of(1, 0, 0))
    assert level.e_out == pytest.approx(30.0 * 10.0 / 12.0)
    assert level.duration == pytest.approx(10.0 / 12.0)
    climb = grid.edge_cost(a, grid.flat_of(0, 0, 1))
    assert climb.e_out == pytest.approx(34.0 * 10.0 / 3.0)
    descend = grid.edge_cost(grid.flat_of(0, 0, 1), a)
    assert descend.e_out == pytest.approx(26.0 * 10.0 / 3.0)
    diagonal = grid.edge_cost(a, grid.flat_of(1, 0, 1))
    assert diagonal.e_out == pytest.approx(level.e_out + climb.e_out)
    assert diagonal.duration == pytest.approx(max(level.duration, climb.duration))


@pytest.mark.parametrize("mode", list(HarvestModel))
@pytest.mark.parametrize("planar_z", [None, 40.0])
def test_every_edge_matches_the_scalar_reference(mode, planar_z):
    """On an integral lattice the per-offset tables and the batched shadow
    mask reproduce the per-edge scalar evaluation exactly, through edge_cost
    and through the search's dark/lit cost tables of the energy, time and
    shortest planners, for every harvest model."""
    prism = Prism(Vec3(50, 50, 30), (25, 20, 30), (2, 2, 2))
    sun = SunModel.from_position(Vec3(50, -250, 300), Vec3(50, 50, 40))
    # A cloud layer inside the altitude band, so the CLOUD gain varies with z.
    energy = EnergyModel(ConsumptionParams(), HarvestParams(h_down=30.0, h_up=70.0), mode)
    grid = build_grid(env_with([prism], sun=sun), 20.0, energy=energy, planar_z=planar_z)
    n, nz = grid.node_count, grid.dims[2]
    shadow = grid.search_tables()[0]
    tables = (_energy_tables(grid), _per_offset(grid, grid.duration),
              _per_offset(grid, grid.length))
    edges = shadowed = 0
    for a in range(grid.node_count):
        for b, k in grid.neighbors(a):
            ref = reference_edge_cost(grid, a, b)
            assert grid.edge_cost(a, b) == ref, (a, b)
            costs = [dark[k] if shadow[k * n + a] else lit[k * nz + a % nz]
                     for dark, lit in tables]
            assert costs == [max(0.0, ref.e_out - ref.e_gain), ref.duration, ref.length], (a, b)
            edges += 1
            shadowed += ref.e_gain == 0.0
    assert 0 < shadowed < edges


def test_edge_cost_rejects_non_edges():
    env = env_with([Prism(Vec3(50, 50, 50), (20, 20, 20))])
    grid = build_grid(env, 10.0, margin=2.0)
    a = grid.flat_of(0, 0, 0)
    above = grid.index_of_point(Vec3(50, 50, 80))
    occupied = grid.index_of_point(Vec3(50, 50, 70))  # adjacent to `above`
    assert grid.is_free(above) and not grid.is_free(occupied)
    for x, y in ((a, grid.flat_of(2, 0, 0)), (a, a), (a, grid.flat_of(0, 0, 10)),
                 (a, -1), (a, grid.node_count), (above, occupied)):
        with pytest.raises(ValueError):
            grid.edge_cost(x, y)


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(*(st.integers(1, 6),) * 3),
       origin=st.tuples(*(st.floats(-1000.0, 1000.0),) * 3),
       spacing=st.floats(0.5, 50.0))
def test_lattice_indexing_round_trips(dims, origin, spacing):
    """NavGrid and DpLattice index and place nodes through their shared base:
    flat indices round-trip, the array flat_of agrees with the scalar one,
    every node snaps back to itself, and a point one spacing past the first
    or last node along any axis is outside the lattice."""
    lo = Vec3(*origin)
    hi = Vec3(*(o + (n - 0.5) * spacing for o, n in zip(origin, dims)))
    env = Environment(bounds=Box(lo, hi), sun=SunModel(Vec3(*origin[:2], origin[2] + 5000.0)))
    grid = build_grid(env, spacing)
    dp = DpLattice(origin=np.array(origin), spacing=spacing, dims=dims, delta=1.0,
                   m_layers=1, offsets=_lattice_offsets(dims[2] == 1))
    assert grid.dims == dims
    for lat in (grid, dp):
        idx = lat.indices()
        flats = lat.flat_of(*idx.T)
        assert flats.tolist() == list(range(lat.node_count))
        assert flats.tolist() == [lat.flat_of(*map(int, i)) for i in idx]
        coords = lat.node_coords(idx)
        for f in range(lat.node_count):
            assert lat.flat_of(*lat.unflatten(f)) == f
            assert lat.index_of_point(lat.node_point(f)) == f
            assert lat.node_xyz(f) == tuple(coords[f])
        first, last = lat.node_point(0), lat.node_point(lat.node_count - 1)
        for axis in range(3):
            step = np.eye(3)[axis] * spacing
            for p in (last.as_array() + step, first.as_array() - step):
                with pytest.raises(ValueError, match="outside the lattice"):
                    lat.index_of_point(Vec3.from_array(p))


def _sun_at(env: Environment, position: Vec3) -> Environment:
    """`env` with its sun moved to `position`. The Environment check keeps the
    sun above every prism top; the grid's broad phase does not rely on it."""
    object.__setattr__(env, "sun", SunModel(position))
    return env


@st.composite
def broad_phase_worlds(draw):
    """A small lattice with prisms that may cross the bounds, and a sun above,
    level with the top of, inside the z-range of, below or inside the first
    prism, or at the height of a half-step layer."""
    res = draw(st.sampled_from([2.5, 4.0, 7.3]))
    planar = draw(st.booleans())
    dims = (draw(st.integers(2, 8)), draw(st.integers(2, 8)), draw(st.integers(2, 6)))
    lo = np.array([draw(st.sampled_from([0.0, -3.7, 11.31])) for _ in range(3)])
    hi = lo + (np.array(dims) - 0.5) * res
    prisms = []
    for _ in range(draw(st.integers(1, 3))):
        center = [draw(st.floats(float(a), float(b))) for a, b in zip(lo, hi)]
        axes = tuple(draw(st.floats(res, res + 0.6 * float(hi[0] - lo[0]))) for _ in range(3))
        exps = tuple(draw(st.sampled_from([1, 2, 3, 10])) for _ in range(3))
        prisms.append(Prism(Vec3(*center), axes, exps))
    env = Environment(Box(Vec3(*lo), Vec3(*hi)), tuple(prisms),
                      sun=SunModel(Vec3(0.0, 0.0, float(hi[2]) + 1e4)))
    box_lo, box_hi = prisms[0].aabb()
    xy = [draw(st.floats(float(a) - 80.0, float(b) + 80.0)) for a, b in zip(lo[:2], hi[:2])]
    place = draw(st.sampled_from(["above", "level", "z-range", "below", "inside", "layer"]))
    if place == "above":
        z = float(box_hi[2]) + draw(st.floats(0.1, 100.0))
    elif place == "level":
        z = float(box_hi[2])
    elif place == "z-range":
        xy[0] = float(box_hi[0]) + draw(st.floats(0.1, 20.0))
        z = draw(st.floats(float(box_lo[2]), float(box_hi[2])))
    elif place == "below":
        z = float(box_lo[2]) - draw(st.floats(0.1, 40.0))
    elif place == "inside":
        xy = [draw(st.floats(float(a), float(b))) for a, b in zip(box_lo[:2], box_hi[:2])]
        z = float(prisms[0].center.z)
    else:
        z = float(lo[2]) + (draw(st.integers(0, 2 * dims[2])) - 1) * (res / 2.0)
    planar_z = draw(st.floats(float(lo[2]), float(hi[2]))) if planar else None
    margin = draw(st.sampled_from([0.0, 1.5]))
    return _sun_at(env, Vec3(xy[0], xy[1], z)), res, planar_z, margin


@settings(max_examples=80, deadline=None)
@given(world=broad_phase_worlds())
def test_build_grid_equals_the_all_rows_oracle(world):
    """The lattice broad phase changes no bit of edge_ok or shadow against
    testing every free pair and every edge midpoint."""
    env, res, planar_z, margin = world
    try:
        grid = build_grid(env, res, margin=margin, planar_z=planar_z)
    except EmptyGrid:
        assume(False)
    edge_ok, shadow = reference_grid_masks(grid)
    assert np.array_equal(grid.edge_ok, edge_ok)
    assert np.array_equal(grid.shadow, shadow)


def test_build_grid_tests_only_rows_near_a_prism(monkeypatch):
    """With one small prism in a corner, every edge sent to segments_blocked
    starts within two spacings of its box, and fewer rows are sent than 15%
    of the edges (testing every row sends more than one per edge); a world
    without prisms sends none."""
    calls = []

    def record(env, starts, ends):
        calls.append(np.array(starts))
        return segments_blocked(env, starts, ends)

    monkeypatch.setattr("solarnav.grid.segments_blocked", record)
    build_grid(empty_env(100.0), 5.0)
    assert calls == []

    prism = Prism(Vec3(15, 15, 15), (10, 10, 15), (2, 2, 2))
    grid = build_grid(env_with([prism]), 5.0, margin=1.0)
    rows = np.concatenate(calls)
    sun = grid.env.sun.position.as_array()
    edge_starts = rows[~np.all(rows == sun, axis=1)]
    lo, hi = prism.aabb()
    assert len(edge_starts) and np.all((edge_starts >= lo - 10.0) & (edge_starts <= hi + 10.0))
    pairs = int(grid.edge_ok.sum()) // 2
    assert len(rows) < 0.15 * pairs
