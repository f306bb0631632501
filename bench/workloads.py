"""Seeded scenario generators and job pools for the three benchmark workloads.

Every scenario is valid by construction: prisms lie inside the bounds, the
sun stands above every prism top, mission endpoints are collision-free, and
unknown obstacles are slower than the cruise speed. The program under test
only ever sees the YAML files written here.

Each pool is stratified: the structural classes that set a job's cost (grid
resolution, command, lattice shape, layer count, prism and obstacle counts)
follow a fixed schedule, and the seed draws only the geometry and the order.
That keeps the per-run job mix, and so the medians, close across seeds.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional

import numpy as np
import yaml

WORKLOADS = ("city_plan", "privacy_dp", "closed_loop")

# One-line reasons, copied verbatim into BENCHMARK.json.
WHY = {
    "city_plan": "static section4-like 3D cities planned by the energy, time and "
                 "shortest grid planners and compare: grid build, batched "
                 "segments_blocked and battery A* dominate",
    "privacy_dp": "privacy regions on small planar and 3D lattices planned by the "
                  "time-layered DP: stage_cost and per-move scalar segment_blocked "
                  "dominate, with no grid and no simulation",
    "closed_loop": "criterion-4 style planar dynamic worlds simulated in hybrid, "
                   "track-only and reactive-only modes: the per-step world, control "
                   "and simulate path dominates",
}

ENERGY = {
    "model": "clear",
    "consumption": {"p_level": 30.0, "p_up": 34.0, "p_down": 26.0,
                    "v": 12.0, "v_up": 3.0, "v_down": 3.0},
    "harvest": {"eta": 0.2, "g": 380.0, "s": 0.3},
}
CRUISE = 12.0
GRID_MARGIN = 2.0


def _r(x: float) -> float:
    """Round generated coordinates so the YAML stays short and exact."""
    return float(round(float(x), 3))


def _sun(rng: np.random.Generator, center: List[float], horiz: tuple,
         height: tuple, azimuth: Optional[float] = None) -> Dict:
    """Sun position plus the azimuth/elevation SunModel.from_position derives
    for it, written out so checkers can read the incidence angle directly."""
    az = rng.uniform(0.0, 2.0 * math.pi) if azimuth is None else azimuth
    d_h = rng.uniform(*horiz)
    pos = [_r(center[0] + d_h * math.cos(az)), _r(center[1] + d_h * math.sin(az)),
           _r(rng.uniform(*height))]
    dx, dy, dz = (pos[0] - center[0], pos[1] - center[1], pos[2] - center[2])
    elevation = min(math.pi / 2, max(0.0, math.atan2(dz, math.hypot(dx, dy))))
    return {"position": pos, "azimuth": math.atan2(dy, dx), "elevation": elevation}


def _gamma(p, center, axes, exps) -> float:
    return sum(((p[i] - center[i]) / axes[i]) ** (2 * exps[i]) for i in range(3))


def _clear_of(p, prisms, margin: float) -> bool:
    return all(_gamma(p, pr["center"], [a + margin for a in pr["semi_axes"]],
                      pr["exponents"]) > 1.0 for pr in prisms)


# ----------------------------------------------------------------- city_plan

# Eight jobs per block: seven at 20 m and one at 10 m. The 10 m job rotates
# through the three single-planner commands; compare stays at 20 m because it
# builds one grid per planner.
_CITY_BLOCK = [("energy", 20.0), ("time", 20.0), ("compare", 20.0),
               ("shortest", 20.0), ("energy", 20.0), ("compare", 20.0),
               ("time", 20.0), (None, 10.0)]
_CITY_FINE = ("energy", "shortest", "time")
CITY_BLOCKS = 4


def city_scenario(rng: np.random.Generator, name: str, resolution: float,
                  n_prisms: int) -> Dict:
    """section4-shaped city: 2 to 5 ground-standing superellipsoid prisms
    (exponents 1, 2 or 4) in the middle half, endpoints near the x ends."""
    if resolution < 20.0:
        # The 10 m grids set the run's peak memory and most of its time, so
        # they keep section4's extents and only the buildings vary.
        width, depth = 560.0, 360.0
    else:
        width = 20.0 * int(rng.integers(25, 31))    # 500 .. 600 m
        depth = 20.0 * int(rng.integers(16, 21))    # 320 .. 400 m
    start = [40.0, 20.0 * int(rng.integers(4, depth / 20 - 3)), 40.0]
    goal = [width - 40.0, 20.0 * int(rng.integers(4, depth / 20 - 3)), 40.0]
    prisms: List[Dict] = []
    while len(prisms) < n_prisms:
        e = (1, 2, 4)[len(prisms) % 3]
        a, b, c = rng.uniform(30, 60), rng.uniform(24, 40), rng.uniform(60, 95)
        center = [rng.uniform(0.25 * width, 0.75 * width),
                  rng.uniform(b + 10.0, depth - b - 10.0), c]
        prism = {"center": [_r(v) for v in center],
                 "semi_axes": [_r(a), _r(b), _r(c)], "exponents": [e, e, e]}
        if _clear_of(start, [prism], GRID_MARGIN + resolution) and \
                _clear_of(goal, [prism], GRID_MARGIN + resolution):
            prisms.append(prism)
    bounds_center = [width / 2, depth / 2, 110.0]
    return {
        "name": name,
        "world": {"bounds": {"min": [0.0, 0.0, 0.0], "max": [width, depth, 220.0]},
                  "altitude": {"min": 40.0, "max": 200.0},
                  "prisms": prisms,
                  "sun": _sun(rng, bounds_center, (200.0, 900.0), (1800.0, 4000.0))},
        "energy": ENERGY,
        "battery": {"capacity": 670.0, "initial": 670.0, "floor": 50.0},
        "limits": {"v_min": 0.0, "v_max": 20.0, "cruise": CRUISE},
        "mission": {"start": start, "goal": goal, "planner": "energy",
                    "grid_resolution": resolution, "grid_margin": GRID_MARGIN},
        "sim": {"dt": 0.05, "max_duration": 120.0},
    }


def city_pool(seed: int) -> List[Dict]:
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for block in range(CITY_BLOCKS):
        for slot, (command, res) in enumerate(_CITY_BLOCK):
            command = command or _CITY_FINE[block % len(_CITY_FINE)]
            n_prisms = 2 + (block * len(_CITY_BLOCK) + slot) % 4
            name = f"city-{len(jobs):02d}"
            jobs.append({"name": name, "kind": command,
                         "scenario": city_scenario(rng, name, res, n_prisms)})
    return jobs


# ---------------------------------------------------------------- privacy_dp

# (nx, ny, nz, m_layers); nz == 1 is planar. Pitch is 20 m throughout.
_DP_SHAPES = [(7, 6, 1, 12), (3, 4, 2, 12), (6, 6, 1, 14), (7, 5, 1, 12),
              (4, 3, 2, 12), (6, 5, 1, 12)]
DP_PITCH = 20.0
DP_BLOCKS = 5


def privacy_scenario(rng: np.random.Generator, name: str, shape: tuple,
                     n_regions: int, n_prisms: int) -> Dict:
    nx, ny, nz, m = shape
    p = DP_PITCH
    planar = nz == 1
    hi = [(nx - 1) * p, (ny - 1) * p, 40.0 if planar else (nz - 1) * p]
    z_plane = 20.0

    def node(ix, iy, iz):
        return [ix * p, iy * p, z_plane if planar else iz * p]

    # Endpoint pairs 3 or more moves apart with room for 4 spare stages.
    nodes = [(ix, iy, iz) for ix in range(nx) for iy in range(ny) for iz in range(nz)]
    pairs = [(s, g) for s in nodes for g in nodes
             if 3 <= max(abs(a - b) for a, b in zip(s, g)) <= m - 4]
    start_idx, goal_idx = pairs[int(rng.integers(0, len(pairs)))]
    start, goal = node(*start_idx), node(*goal_idx)

    prisms: List[Dict] = []
    while len(prisms) < n_prisms:
        a, b = (rng.uniform(8.0, min(16.0, hi[i] / 2 - 1.0)) for i in (0, 1))
        c = hi[2] / 2
        center = [rng.uniform(a, hi[0] - a), rng.uniform(b, hi[1] - b), c]
        prism = {"center": [_r(v) for v in center],
                 "semi_axes": [_r(a), _r(b), _r(c)],
                 "exponents": [1 + len(prisms) % 2] * 3}
        if _clear_of(start, [prism], p / 2) and _clear_of(goal, [prism], p / 2):
            prisms.append(prism)

    regions: List[Dict] = []
    while len(regions) < n_regions:
        c1, c2 = rng.uniform(4.0, 9.0), rng.uniform(40.0, 90.0)
        center = [rng.uniform(0, hi[0]), rng.uniform(0, hi[1]),
                  z_plane if planar else rng.uniform(0, hi[2])]
        if min(math.dist(center, start), math.dist(center, goal)) > c1 + p:
            regions.append({"center": [_r(v) for v in center], "c1": _r(c1),
                            "c2": _r(c2)})

    max_move = p * (math.sqrt(2.0) if planar else math.sqrt(3.0))
    t_max = math.ceil(m * 1.02 * max_move / CRUISE * 1000.0) / 1000.0
    mission = {"start": start, "goal": goal, "planner": "privacy",
               "grid_resolution": p, "grid_margin": GRID_MARGIN}
    if planar:
        mission["planar_z"] = z_plane
    return {
        "name": name,
        "world": {"bounds": {"min": [0.0, 0.0, 0.0], "max": hi},
                  "altitude": {"min": 0.0, "max": hi[2]},
                  "prisms": prisms, "privacy_regions": regions,
                  "sun": _sun(rng, [hi[0] / 2, hi[1] / 2, hi[2] / 2],
                              (0.0, 300.0), (3000.0, 5000.0))},
        "energy": ENERGY,
        "battery": {"capacity": 670.0, "initial": 670.0, "floor": 50.0},
        "limits": {"v_min": 0.0, "v_max": 20.0, "cruise": CRUISE},
        "mission": mission,
        "privacy": {"m_layers": m, "t_max": t_max, "pitch": p},
        "sim": {"dt": 0.05, "max_duration": 120.0},
    }


def privacy_pool(seed: int) -> List[Dict]:
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for block in range(DP_BLOCKS):
        for slot, shape in enumerate(_DP_SHAPES):
            i = block * len(_DP_SHAPES) + slot
            name = f"dp-{i:02d}"
            sc = privacy_scenario(rng, name, shape, 1 + i % 3, (i + block) % 4)
            jobs.append({"name": name, "kind": "privacy", "scenario": sc})
    return jobs


# --------------------------------------------------------------- closed_loop

# Mode schedule and sphere count per slot of one eight-job block.
_LOOP_BLOCK = [("hybrid", 2), ("track-only", 1), ("reactive-only", 2),
               ("hybrid-replan", 3), ("hybrid", 1), ("track-only", 0),
               ("reactive-only", 3), ("hybrid-replan", 2)]
LOOP_BLOCKS = 4


def loop_scenario(rng: np.random.Generator, name: str, n_prisms: int,
                  n_spheres: int, sun_over_prisms: bool) -> Dict:
    """Criterion-4 construction at section5-like extents: side prisms clear
    of the direct corridor, spheres near it moving slower than cruise.

    Whether the sun stands on the prisms' side sets how often the per-step
    shadow ray reaches a prism's box, which is most of a step's cost, so the
    pool fixes it per slot instead of drawing it."""
    width = rng.uniform(300.0, 400.0)
    length = rng.uniform(360.0, 390.0)
    mid = width / 2
    side = 1.0 if rng.random() < 0.5 else -1.0
    prisms = []
    for _ in range(n_prisms):
        cx = rng.uniform(0.3, 0.7) * length
        cy = mid + side * rng.uniform(60.0, 80.0)
        prisms.append({"center": [_r(cx), _r(cy), 75.0],
                       "semi_axes": [_r(rng.uniform(20, 30)), _r(rng.uniform(20, 26)),
                                     75.0],
                       "exponents": [4, 4, 4]})
    spheres = []
    for _ in range(n_spheres):
        speed = rng.uniform(0.0, 2.5)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        spheres.append({
            "center": [_r(rng.uniform(120.0, length - 40.0)),
                       _r(mid + rng.uniform(-30.0, 30.0)), 100.0],
            "radius": _r(rng.uniform(4.0, 9.0)),
            "velocity": [_r(speed * math.cos(ang)), _r(speed * math.sin(ang)), 0.0]})
    bounds_hi = [_r(length + 40.0), _r(width), 220.0]
    return {
        "name": name,
        "world": {"bounds": {"min": [0.0, 0.0, 0.0], "max": bounds_hi},
                  "altitude": {"min": 40.0, "max": 200.0},
                  "prisms": prisms,
                  "sun": _sun(rng, [bounds_hi[0] / 2, bounds_hi[1] / 2, 110.0],
                              (200.0, 600.0), (1800.0, 4000.0),
                              side * (1 if sun_over_prisms else -1) * math.pi / 2
                              + rng.uniform(-0.3, 0.3))},
        "energy": ENERGY,
        "battery": {"capacity": 750.0, "initial": 750.0, "floor": 20.0},
        "limits": {"v_min": 0.0, "v_max": 20.0, "cruise": CRUISE,
                   "u_max": 2.0943951023931953},
        "avoidance": {"alpha_safe_deg": 40.0, "threshold_deg": 10.0,
                      "r_sensor": 50.0, "trigger_distance": 30.0},
        "unknown_obstacles": spheres,
        "mission": {"start": [20.0, _r(mid), 100.0],
                    "goal": [_r(length + 20.0), _r(mid), 100.0],
                    "planner": "energy", "grid_resolution": 20.0,
                    "grid_margin": GRID_MARGIN, "planar_z": 100.0, "lookahead": 20.0},
        "sim": {"dt": 0.05, "max_duration": _r(1.6 * length / CRUISE + 10.0)},
    }


def loop_pool(seed: int) -> List[Dict]:
    rng = np.random.default_rng([seed, 3])
    jobs = []
    for block in range(LOOP_BLOCKS):
        for slot, (mode, n_spheres) in enumerate(_LOOP_BLOCK):
            i = block * len(_LOOP_BLOCK) + slot
            name = f"loop-{i:02d}"
            sc = loop_scenario(rng, name, i % 3, n_spheres, i % 2 == 0)
            jobs.append({"name": name, "kind": mode, "scenario": sc})
    return jobs


POOLS = {"city_plan": city_pool, "privacy_dp": privacy_pool, "closed_loop": loop_pool}


def job_argv(job: Dict, scenario_path: str, out_stem: str) -> List[str]:
    """CLI arguments of one job; outputs go to `out_stem` + suffix."""
    kind = job["kind"]
    if kind == "compare":
        return ["compare", "-s", scenario_path, "-o", out_stem + ".yaml"]
    if kind in ("energy", "time", "shortest", "privacy"):
        return ["plan", "-s", scenario_path, "-p", kind,
                "-o", out_stem + ".csv", "-r", out_stem + ".yaml"]
    mode, replan = (("hybrid", True) if kind == "hybrid-replan" else (kind, False))
    argv = ["simulate", "-s", scenario_path, "-m", mode,
            "-o", out_stem + ".csv", "-r", out_stem + ".yaml"]
    return argv + (["--replan"] if replan else [])


def write_pool(workload: str, seed: int, directory: str) -> List[Dict]:
    """Write the pool's scenario files into `directory`; return the jobs with
    their scenario paths. Same seed, same bytes."""
    jobs = POOLS[workload](seed)
    os.makedirs(directory, exist_ok=True)
    for job in jobs:
        path = os.path.join(directory, job["name"] + ".yaml")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yaml.safe_dump(job["scenario"], fh, sort_keys=True)
        job["path"] = path
    return jobs
