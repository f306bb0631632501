"""Free-space lattice construction and edge validity."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from solarnav import (ConsumptionParams, EmptyGrid, EnergyModel, HarvestModel,
                      HarvestParams, Prism, SunModel, Vec3, build_grid,
                      energy_edge_cost, segment_blocked)

from conftest import empty_env, env_with, random_env
from oracles import reference_edge_cost


def test_empty_world_node_count():
    grid = build_grid(empty_env(100.0), 10.0)
    assert grid.dims == (11, 11, 11)
    assert grid.free_count() == 11 ** 3
    interior = grid.flat_of(5, 5, 5)
    assert len(list(grid.neighbors(interior))) == 26


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
    and through the energy search cost, for every harvest model."""
    prism = Prism(Vec3(50, 50, 30), (25, 20, 30), (2, 2, 2))
    sun = SunModel.from_position(Vec3(50, -250, 300), Vec3(50, 50, 40))
    # A cloud layer inside the altitude band, so the CLOUD gain varies with z.
    energy = EnergyModel(ConsumptionParams(), HarvestParams(h_down=30.0, h_up=70.0), mode)
    grid = build_grid(env_with([prism], sun=sun), 20.0, energy=energy, planar_z=planar_z)
    cost = energy_edge_cost(grid)
    edges = shadowed = 0
    for a in range(grid.node_count):
        for b, k in grid.neighbors(a):
            ref = reference_edge_cost(grid, a, b)
            assert grid.edge_cost(a, b) == ref, (a, b)
            assert cost(a, b, k) == max(0.0, ref.e_out - ref.e_gain), (a, b)
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
