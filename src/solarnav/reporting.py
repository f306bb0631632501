"""Machine-readable exports: trajectory CSV and nested key-value reports.

All numeric output is SI with a fixed column order; identical inputs yield
byte-identical files."""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Tuple

import yaml

from .planning import Path
from .privacy import PrivacyPlan
from .simulate import Scenario, SimLog, StepRecord, min_separation, shadowed_at
from .world import Vec3

CSV_HEADER = ",".join(StepRecord._fields)
_CSV_ROW = "%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g,%d,%s,%.9g"
# libyaml's emitter when PyYAML was built with it: the representer is the
# pure-Python dumper's, so the reports read the same.
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def _write_rows(rows: List[str], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([CSV_HEADER, *rows]) + "\n")


def trajectory_csv_rows(log: SimLog) -> List[str]:
    return [_CSV_ROW % (t, x, y, z, theta, v, u, battery, shadow, mode.value, min_dist)
            for t, x, y, z, theta, v, u, battery, shadow, mode, min_dist in zip(*log.columns)]


def write_trajectory_csv(log: SimLog, path: str) -> None:
    _write_rows(trajectory_csv_rows(log), path)


def _stamped(plan: Path) -> Iterator[Tuple[float, Vec3]]:
    """(t, waypoint) pairs of a planned path, timed by its edge durations."""
    t = 0.0
    for i, wp in enumerate(plan.waypoints):
        if i > 0:
            t += plan.edges[i - 1].duration
        yield t, wp


def contact_entry(sc: Scenario, stamped: Iterable[Tuple[float, Vec3]]) -> Dict[str, bool]:
    """The report entry `unknown_obstacle_contact`: whether some timed point
    (t, p) lies within or on an unknown sphere placed at t, as the CSV rows
    place them. Empty for a scenario without unknown spheres."""
    if not sc.unknown_obstacles:
        return {}
    return {"unknown_obstacle_contact": any(
        p.dist_to(o.center) <= o.radius
        for t, p in stamped for o in (u.at(t) for u in sc.unknown_obstacles))}


def plan_csv_rows(plan: Path, sc: Scenario) -> List[str]:
    """Waypoint rows for a planned path with static timestamps from durations.
    A row's `shadow` and `min_dist` see the unknown spheres at the row's time."""
    rows = []
    battery = plan.battery_profile
    for i, (t, wp) in enumerate(_stamped(plan)):
        theta, speed = 0.0, 0.0
        if i < len(plan.waypoints) - 1:
            nxt = plan.waypoints[i + 1]
            theta = math.atan2(nxt.y - wp.y, nxt.x - wp.x)
            speed = plan.edges[i].length / plan.edges[i].duration
        elif plan.edges:
            prev = plan.waypoints[i - 1]
            theta = math.atan2(wp.y - prev.y, wp.x - prev.x)
        level = battery[i] if battery else sc.battery.energy
        spheres = [o.at(t) for o in sc.unknown_obstacles]
        rows.append(_CSV_ROW % (t, wp.x, wp.y, wp.z, theta, speed, 0.0, level,
                                shadowed_at(sc.env, wp, spheres), "plan",
                                min_separation(sc.env, spheres, wp)))
    return rows


def write_plan_csv(plan: Path, sc: Scenario, path: str) -> None:
    _write_rows(plan_csv_rows(plan, sc), path)


def write_privacy_csv(plan: PrivacyPlan, sc: Scenario, path: str) -> None:
    """Waypoint rows of a privacy DP trajectory. The DP tracks no heading,
    speed, battery use or shadow: those columns read 0, and battery the
    scenario's initial charge, as for a plan without a battery profile.
    `min_dist` sees the unknown spheres at the row's time."""
    _write_rows([_CSV_ROW % (t, p.x, p.y, p.z, 0.0, 0.0, 0.0, sc.battery.energy, False, "plan",
                             min_separation(sc.env, [o.at(t) for o in sc.unknown_obstacles], p))
                 for t, p in plan.trajectory], path)


def plan_summary(plan: Path, sc: Scenario) -> Dict[str, float]:
    """Planner-level metrics mirroring the simulation Metrics fields.

    `battery_feasible` is false when the battery profile dips below the
    floor, as the shortest path, which ignores energy, may. With unknown
    spheres, `unknown_obstacle_contact` tells whether the path meets one."""
    shadow_time = sum((e.duration for e in plan.edges if e.shadow), 0.0)
    profile = plan.battery_profile or [sc.battery.energy]
    return {
        "total_time_s": plan.total_duration,
        "consumption_J": plan.total_e_out,
        "harvest_J": plan.total_e_gain,
        "net_cost_J": plan.net_cost,
        "search_cost": plan.search_cost,
        "path_length_m": plan.length,
        "shadow_time_s": shadow_time,
        "final_battery_J": profile[-1],
        "battery_feasible": min(profile) >= sc.battery.floor,
        "waypoints": len(plan.waypoints),
        **contact_entry(sc, _stamped(plan)),
    }


def write_report(text: str, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def report_text(data: Dict) -> str:
    return yaml.dump(data, Dumper=_YAML_DUMPER, sort_keys=True, default_flow_style=False)
