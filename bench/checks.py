"""Output checks for one benchmark job, made from outside the program: they
parse the report and CSV the CLI wrote and compare them against the
generated scenario.

Each checker returns (outcome, errors). The outcome names the domain result
(a planned path, a simulation terminal event, a planning failure) and is
counted per workload; any error marks the job as failed.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional, Tuple

import numpy as np
import yaml

CSV_HEADER = "t,x,y,z,theta,v,u,battery,shadow,mode,min_dist"
# Per-step tolerance of the battery replay. The CSV prints 9 significant
# digits, so one row carries about 1e-6 J of rounding at a few hundred J.
STEP_TOL_J = 1e-5
# Whole-run replay from the first row, the rounding of every row summed.
RUN_TOL_J = 1e-3
REL = 1e-6

Check = Tuple[str, List[str]]


def read_csv(path: str) -> Dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad CSV header in {os.path.basename(path)}")
    rows = [ln.split(",") for ln in lines[1:]]
    if not rows or any(len(r) != 11 for r in rows):
        raise ValueError("CSV has no rows or a row without 11 fields")
    cols = CSV_HEADER.split(",")
    out = {c: np.array([float(r[i]) for r in rows])
           for i, c in enumerate(cols) if c != "mode"}
    out["mode"] = np.array([r[9] for r in rows])
    return out


def _close(a: float, b: float, tol: float = REL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _positions(csv: Dict[str, np.ndarray]) -> np.ndarray:
    return np.stack([csv["x"], csv["y"], csv["z"]], axis=1)


def _world(sc: Dict):
    from solarnav.scenario_io import scenario_from_dict
    return scenario_from_dict(sc).env


def _lattice(sc: Dict) -> Tuple[np.ndarray, float]:
    """Origin and pitch of the planner grid, derived as build_grid does."""
    w = sc["world"]
    lo = w["bounds"]["min"]
    res = float(sc["mission"]["grid_resolution"])
    planar_z = sc["mission"].get("planar_z")
    z0 = planar_z if planar_z is not None else max(lo[2], w["altitude"]["min"])
    return np.array([lo[0], lo[1], z0], dtype=float), res


def _read_outputs(report_path: str, stdout: str) -> Tuple[Optional[Dict], List[str]]:
    if not os.path.exists(report_path):
        return None, []
    with open(report_path, encoding="utf-8") as fh:
        text = fh.read()
    errors = []
    if text != stdout:
        errors.append("report file differs from the report echoed on stdout")
    return yaml.safe_load(text), errors


def check_plan(sc: Dict, kind: str, code: int, stdout: str, stderr: str,
               stem: str) -> Check:
    report, errors = _read_outputs(stem + ".yaml", stdout)
    if report is None:
        if code == 1 and "planning failed" in stderr:
            return "planning_failed", []
        return "missing_output", [f"exit {code} without a report"]
    if code != 0:
        errors.append(f"exit {code} with a report")
    csv = read_csv(stem + ".csv")
    m = report["metrics"]
    if m["waypoints"] != len(csv["t"]):
        errors.append("report waypoint count differs from the CSV rows")
    if not _close(m["total_time_s"], float(csv["t"][-1])):
        errors.append("report total time differs from the last CSV timestamp")
    if kind == "privacy":
        errors += _privacy_errors(sc, m, csv)
    else:
        errors += _path_errors(sc, kind, m, csv)
    return "planned", errors


def _path_errors(sc: Dict, kind: str, m: Dict, csv: Dict) -> List[str]:
    errors = []
    pts = _positions(csv)
    origin, res = _lattice(sc)
    for label, p, row in (("start", sc["mission"]["start"], pts[0]),
                          ("goal", sc["mission"]["goal"], pts[-1])):
        nearest = origin + np.rint((np.array(p) - origin) / res) * res
        if np.abs(row - nearest).max() > 1e-6:
            errors.append(f"path {label} is not the nearest lattice node")
    steps = (pts[1:] - pts[:-1]) / res
    if len(steps) and (np.abs(steps - np.rint(steps)).max() > 1e-6
                       or np.abs(np.rint(steps)).max() > 1
                       or (np.abs(np.rint(steps)).sum(axis=1) == 0).any()):
        errors.append("path step is not a single lattice move")
    if len(steps):
        from solarnav.world import segments_blocked
        if segments_blocked(_world(sc), pts[:-1], pts[1:]).any():
            errors.append("path edge intersects a prism")
    length = float(np.linalg.norm(pts[1:] - pts[:-1], axis=1).sum())
    if not _close(m["path_length_m"], length):
        errors.append("report path length differs from the CSV polyline")
    if kind in ("energy", "time"):
        b = sc["battery"]
        if csv["battery"].min() < b["floor"] or csv["battery"].max() > b["capacity"]:
            errors.append("battery column leaves [floor, capacity]")
        if not _close(m["final_battery_J"], float(csv["battery"][-1])):
            errors.append("report final battery differs from the CSV")
    return errors


def _intensity(p: np.ndarray, regions: List[Dict]) -> np.ndarray:
    """Summed privacy intensity at points p (N, 3); linear between c1 and c2."""
    total = np.zeros(len(p))
    for r in regions:
        d = np.linalg.norm(p - np.array(r["center"]), axis=1)
        total += np.clip((d - r["c2"]) / (r["c1"] - r["c2"]), 0.0, 1.0)
    return total


def _stage_risk(a: np.ndarray, b: np.ndarray, regions: List[Dict], n: int,
                dt: np.ndarray) -> float:
    """Trapezoid rule with n subintervals per stage a -> b of duration dt."""
    u = np.linspace(0.0, 1.0, n + 1)
    vals = np.stack([_intensity(a + s * (b - a), regions) for s in u], axis=1)
    per_stage = 0.5 * (vals[:, 1:] + vals[:, :-1]).sum(axis=1) * dt / n
    return float(per_stage.sum())


def _privacy_errors(sc: Dict, m: Dict, csv: Dict) -> List[str]:
    errors = []
    regions = sc["world"]["privacy_regions"]
    pts = _positions(csv)
    t = csv["t"]
    if m["risk"] < 0 or m["risk_integral"] < 0:
        errors.append("negative privacy risk")
    for label, p, row in (("start", sc["mission"]["start"], pts[0]),
                          ("goal", sc["mission"]["goal"], pts[-1])):
        if np.abs(row - np.array(p, dtype=float)).max() > 1e-6:
            errors.append(f"trajectory {label} is not the mission {label}")
    pitch = sc["privacy"]["pitch"]
    steps = (pts[1:] - pts[:-1]) / pitch
    if len(steps) and (np.abs(steps - np.rint(steps)).max() > 1e-6
                       or np.abs(np.rint(steps)).max() > 1):
        errors.append("stage is not a lattice move or hold")
    from solarnav.world import segments_blocked
    # A hold stage is a zero-length segment, which tests its node.
    if len(steps) and segments_blocked(_world(sc), pts[:-1], pts[1:]).any():
        errors.append("stage intersects a prism")
    for r in regions:
        c = np.array(r["center"])
        a, ab = pts[:-1], pts[1:] - pts[:-1]
        denom = np.maximum((ab * ab).sum(axis=1), 1e-300)
        u = np.clip(((c - a) * ab).sum(axis=1) / denom, 0.0, 1.0)
        if len(ab) and (np.linalg.norm(a + u[:, None] * ab - c, axis=1) <= r["c1"]).any():
            errors.append("stage enters a c1 core")
    dt = t[1:] - t[:-1]
    if len(dt):
        risk16 = _stage_risk(pts[:-1], pts[1:], regions, 16, dt)
        risk8 = _stage_risk(pts[:-1], pts[1:], regions, 8, dt)
        if not _close(m["risk"], risk16, 1e-5):
            errors.append(f"DP risk {m['risk']} differs from the replay {risk16}")
        if not _close(m["risk_integral"], risk8, 1e-5):
            errors.append("risk integral differs from the replay")
    return errors


def check_compare(sc: Dict, code: int, stdout: str, stderr: str, stem: str) -> Check:
    report, errors = _read_outputs(stem + ".yaml", stdout)
    if report is None:
        return "missing_output", [f"exit {code} without a report"]
    rows = report["planners"]
    ok = {n: r for n, r in rows.items() if "error" not in r}
    if code != (1 if not ok else 0):
        errors.append(f"exit {code} with {len(ok)} planners succeeding")
    if set(rows) != {"energy", "time", "shortest"}:
        errors.append("compare report lacks a planner row")
    floor = sc["battery"]["floor"]
    for n in ("energy", "time"):
        if n in ok and ok[n]["final_battery_J"] < floor:
            errors.append(f"{n} plan ends below the battery floor")
    if "shortest" in ok:
        for n, r in ok.items():
            if r["path_length_m"] < ok["shortest"]["path_length_m"] - 1e-6:
                errors.append(f"{n} path shorter than the shortest path")
    if "time" in ok and "energy" in ok and \
            ok["time"]["total_time_s"] > ok["energy"]["total_time_s"] + 1e-6:
        errors.append("time plan slower than the energy plan")
    outcome = "compared" if len(ok) == len(rows) else f"compared_{len(ok)}_of_{len(rows)}"
    return outcome, errors


def check_simulation(sc: Dict, kind: str, code: int, stdout: str, stderr: str,
                     stem: str) -> Check:
    report, errors = _read_outputs(stem + ".yaml", stdout)
    if report is None:
        if code == 1 and "planning failed" in stderr:
            return "planning_failed", []
        return "missing_output", [f"exit {code} without a report"]
    m = report["metrics"]
    terminal = m["terminal"]
    if code != (1 if terminal in ("collision", "battery_depleted") else 0):
        errors.append(f"exit {code} for terminal {terminal}")
    csv = read_csv(stem + ".csv")
    b = sc["battery"]
    bat = csv["battery"]
    if bat.min() < b["floor"] or bat.max() > b["capacity"]:
        errors.append("battery column leaves [floor, capacity]")
    errors += _replay_errors(sc, csv)
    if terminal != "collision" and csv["min_dist"].min() <= 0:
        errors.append("min_dist reaches 0 without a collision")
    if not _close(m["final_battery_J"], float(bat[-1])):
        errors.append("report final battery differs from the CSV")
    if abs(m["min_separation_m"] - float(csv["min_dist"].min())) > 1e-6:
        errors.append("report min separation differs from the CSV")
    if not _close(m["total_time_s"], float(csv["t"][-1])):
        errors.append("report total time differs from the CSV")
    if m["reached_goal"]:
        radius = sc["sim"].get("arrival_radius") or sc["mission"]["grid_resolution"]
        last = _positions(csv)[-1]
        if np.linalg.norm(last - np.array(sc["mission"]["goal"])) > radius + 1e-6:
            errors.append("goal reached outside the arrival radius")
    modes = set(csv["mode"])
    if not modes <= {"tracking", "avoiding"} or (kind == "track-only"
                                                 and modes != {"tracking"}):
        errors.append(f"unexpected controller modes {sorted(modes)}")
    return terminal, errors


def _replay_errors(sc: Dict, csv: Dict) -> List[str]:
    """Replay consumption and harvest from the CSV rows (clear-sky model,
    level panel) and compare with the logged battery."""
    e = sc["energy"]
    c, h = e["consumption"], e["harvest"]
    cap = sc["battery"]["capacity"]
    dt = np.diff(csv["t"])
    dz = np.diff(csv["z"])
    v = csv["v"][1:]
    e_out = c["p_level"] * v * dt / c["v"]
    e_out = e_out + np.where(dz > 0, c["p_up"] * dz / c["v_up"], 0.0)
    e_out = e_out + np.where(dz < 0, c["p_down"] * -dz / c["v_down"], 0.0)
    cos_theta = math.sin(sc["world"]["sun"]["elevation"])
    power = h["eta"] * h["g"] * h["s"] * max(cos_theta, 0.0)
    e_gain = np.where(csv["shadow"][1:] > 0, 0.0, power * dt)
    bat = csv["battery"]
    step = np.minimum(cap, bat[:-1] - e_out + e_gain)
    errors = []
    if len(step) and np.abs(step - bat[1:]).max() > STEP_TOL_J:
        errors.append(f"battery replay off by {np.abs(step - bat[1:]).max():.3g} J "
                      "in one step")
    level = bat[0]
    for o, g in zip(e_out, e_gain):
        level = min(cap, level - o + g)
    if abs(level - bat[-1]) > RUN_TOL_J:
        errors.append(f"battery replay does not close: {level - bat[-1]:.3g} J")
    return errors


def check_job(job: Dict, sc: Dict, code: Optional[int], stdout: str, stderr: str,
              stem: str) -> Check:
    """Outcome and errors of one finished job; `code` is None on a crash."""
    if code is None:
        return "crash", ["the CLI raised an exception"]
    if code not in (0, 1):
        return f"exit_{code}", [f"exit code {code}"]
    kind = job["kind"]
    try:
        if kind == "compare":
            return check_compare(sc, code, stdout, stderr, stem)
        if kind in ("energy", "time", "shortest", "privacy"):
            return check_plan(sc, kind, code, stdout, stderr, stem)
        return check_simulation(sc, kind, code, stdout, stderr, stem)
    except (OSError, ValueError, KeyError, TypeError, yaml.YAMLError) as exc:
        return "unreadable_output", [f"{type(exc).__name__}: {exc}"]
