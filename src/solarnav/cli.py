"""Command-line entry points: plan, simulate and compare.

Exit codes: 0 success, 1 domain failure (no path, collision, depletion),
2 usage or scenario-parse errors. Set SOLARNAV_LOG=debug for event traces."""

from __future__ import annotations

import os
import sys
from typing import Optional

import click

from . import __version__
# Unused names below stay importable: bench/tracing.py binds them on this module.
from .grid import EmptyGrid, build_grid  # noqa: F401
from .planning import NoPath, NodeInObstacle, \
    plan_energy_efficient, plan_shortest, plan_time_efficient  # noqa: F401
from .privacy import Unreachable, plan_privacy_dp, total_privacy_risk
from .reporting import plan_summary, report_text, write_plan_csv, write_report, \
    write_trajectory_csv
from .scenario_io import ParseError, ValidationError, load_scenario, scenario_digest
from .simulate import PlanningFailed, run_planner, run_scenario, scenario_grid

PLANNER_NAMES = ("energy", "time", "shortest", "privacy")
PLAN_ERRORS = (NoPath, NodeInObstacle, Unreachable, EmptyGrid, ValueError)


def _debug_enabled() -> bool:
    return os.environ.get("SOLARNAV_LOG", "").lower() in ("debug", "verbose")


def _load(source: str):
    try:
        return load_scenario(source)
    except FileNotFoundError:
        raise click.UsageError(f"scenario {source!r} is neither a preset nor a file")
    except (ParseError, ValidationError) as exc:
        raise click.UsageError(f"invalid scenario {source!r}: {exc}")


def _plan_privacy(sc):
    t_max = sc.privacy_t_max
    if t_max is None:
        t_max = 2.0 * sc.start.dist_to(sc.goal) / sc.limits.cruise
    return plan_privacy_dp(sc.env, sc.start, sc.goal, sc.privacy_m_layers,
                           t_max, sc.limits.cruise, pitch=sc.privacy_pitch,
                           planar=sc.planar_z is not None)


@click.group()
@click.version_option(__version__, prog_name="solarnav")
def main() -> None:
    """Solar-powered UAV navigation toolkit."""


@main.command()
@click.option("--scenario", "-s", required=True,
              help="Preset name (section4, section5) or scenario file path.")
@click.option("--planner", "-p", type=click.Choice(PLANNER_NAMES), default="energy",
              show_default=True)
@click.option("--output", "-o", type=click.Path(), default=None,
              help="Trajectory CSV output path.")
@click.option("--report", "-r", type=click.Path(), default=None,
              help="Metrics report output path (YAML).")
def plan(scenario: str, planner: str, output: Optional[str],
         report: Optional[str]) -> None:
    """Plan a path with the selected planner and export it."""
    sc = _load(scenario)
    try:
        result = (_plan_privacy(sc) if planner == "privacy"
                  else run_planner(sc, planner, scenario_grid(sc), sc.start, sc.battery))
    except PLAN_ERRORS as exc:
        click.echo(f"planning failed: {exc}", err=True)
        sys.exit(1)
    if planner == "privacy":
        summary = {"total_time_s": result.t_f,
                   "risk": result.risk,
                   "risk_integral": total_privacy_risk(
                       result.sampled(8), sc.env.privacy_regions),
                   "waypoints": len(result.trajectory)}
        if output:
            _write_privacy_csv(result, output)
    else:
        summary = plan_summary(result, sc)
        if output:
            write_plan_csv(result, sc, output)
    payload = {"scenario": sc.name, "digest": scenario_digest(sc),
               "planner": planner, "metrics": summary}
    if report:
        write_report(payload, report)
    click.echo(report_text(payload), nl=False)


def _write_privacy_csv(plan_result, path: str) -> None:
    rows = ["t,x,y,z,theta,v,u,battery,shadow,mode,min_dist"]
    for t, p in plan_result.trajectory:
        rows.append(f"{t:.9g},{p.x:.9g},{p.y:.9g},{p.z:.9g},0,0,0,0,0,plan,inf")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


@main.command()
@click.option("--scenario", "-s", required=True)
@click.option("--mode", "-m", type=click.Choice(["hybrid", "reactive-only", "track-only"]),
              default="hybrid", show_default=True)
@click.option("--replan/--no-replan", default=False, show_default=True,
              help="Re-run the global planner after each avoidance episode.")
@click.option("--output", "-o", type=click.Path(), default=None,
              help="Simulation log CSV output path.")
@click.option("--report", "-r", type=click.Path(), default=None)
def simulate(scenario: str, mode: str, replan: bool, output: Optional[str],
             report: Optional[str]) -> None:
    """Run the full closed-loop simulation with the selected controller stack."""
    sc = _load(scenario)
    try:
        log, metrics = run_scenario(sc, mode=mode, replan=replan)
    except PlanningFailed as exc:
        click.echo(f"planning failed: {exc}", err=True)
        sys.exit(1)
    if _debug_enabled():
        for event in log.events:
            click.echo(f"# t={event.t:.2f} {event.kind} {event.detail}".rstrip(),
                       err=True)
    if output:
        write_trajectory_csv(log, output)
    payload = {"scenario": sc.name, "digest": scenario_digest(sc), "mode": mode,
               "metrics": metrics.as_dict()}
    if report:
        write_report(payload, report)
    click.echo(report_text(payload), nl=False)
    if metrics.collision or metrics.terminal == "battery_depleted":
        sys.exit(1)


@main.command()
@click.option("--scenario", "-s", required=True)
@click.option("--planners", "-p", default="energy,time,shortest", show_default=True,
              help="Comma-separated planner list (at least two).")
@click.option("--output", "-o", type=click.Path(), default=None,
              help="Comparison report output path (YAML).")
def compare(scenario: str, planners: str, output: Optional[str]) -> None:
    """Plan with several planners and emit one comparison report."""
    names = [n.strip() for n in planners.split(",") if n.strip()]
    if len(names) < 2:
        raise click.UsageError("compare requires at least two planners")
    for n in names:
        if n not in PLANNER_NAMES:
            raise click.UsageError(f"unknown planner {n!r}")
    sc = _load(scenario)
    grid = grid_error = None
    if any(n != "privacy" for n in names):
        try:
            grid = scenario_grid(sc)
        except (EmptyGrid, ValueError) as exc:
            grid_error = exc
    rows = {}
    failures = 0
    for n in names:
        try:
            if n == "privacy":
                result = _plan_privacy(sc)
            elif grid_error is not None:
                raise grid_error
            else:
                result = run_planner(sc, n, grid, sc.start, sc.battery)
        except PLAN_ERRORS as exc:
            rows[n] = {"error": str(exc)}
            failures += 1
            continue
        if n == "privacy":
            rows[n] = {"total_time_s": result.t_f, "risk": result.risk}
        else:
            rows[n] = plan_summary(result, sc)
    payload = {"scenario": sc.name, "digest": scenario_digest(sc), "planners": rows}
    if output:
        write_report(payload, output)
    click.echo(report_text(payload), nl=False)
    if failures == len(names):
        sys.exit(1)


if __name__ == "__main__":
    main()
