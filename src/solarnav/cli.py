"""Command-line entry points: plan, simulate and compare.

`plan` and `compare` run every planner through `_planned`, so a compare row
is its planner's `plan` metrics; each command builds at most one grid.

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
from .privacy import DpBudgetExceeded, Unreachable, plan_privacy_dp, total_privacy_risk
from .reporting import contact_entry, plan_summary, report_text, write_plan_csv, \
    write_privacy_csv, write_report, write_trajectory_csv
from .scenario_io import ParseError, ValidationError, load_scenario, scenario_digest
from .simulate import CONTROL_MODES, PLANNER_NAMES, PlanningFailed, run_planner, \
    run_scenario, scenario_grid

PLAN_ERRORS = (NoPath, NodeInObstacle, Unreachable, EmptyGrid, ValueError)


def _load(source: str):
    try:
        return load_scenario(source)
    except FileNotFoundError:
        raise click.UsageError(f"scenario {source!r} is neither a preset nor a file")
    except (ParseError, ValidationError) as exc:
        raise click.UsageError(f"invalid scenario {source!r}: {exc}")


def _grid(sc, names):
    """The scenario's grid if `names` holds a grid planner, else None; a
    failed build returns its error, for each grid planner to raise."""
    if all(n == "privacy" for n in names):
        return None
    try:
        return scenario_grid(sc)
    except PLAN_ERRORS as exc:
        return exc


def _planned(sc, name: str, grid):
    """Run planner `name`: (result, report row, CSV writer of the result).
    Raises a PLAN_ERRORS error when the planner, or the grid, failed."""
    if name == "privacy":
        try:
            result = plan_privacy_dp(sc.env, sc.start, sc.goal, sc.privacy_m_layers,
                                     sc.privacy_horizon, sc.limits.cruise,
                                     pitch=sc.privacy_pitch, planar=sc.planar_z is not None)
        except DpBudgetExceeded as exc:  # a scenario error, raised before any table exists
            raise click.UsageError(f"invalid scenario {sc.name!r}: privacy.pitch: {exc}")
        row = {"total_time_s": result.t_f, "risk": result.risk,
               "risk_integral": total_privacy_risk(result.sampled(8), sc.env.privacy_regions),
               "waypoints": len(result.trajectory), **contact_entry(sc, result.trajectory)}
        return result, row, write_privacy_csv
    if isinstance(grid, Exception):
        raise grid
    result = run_planner(sc, name, grid, sc.start, sc.battery)
    return result, plan_summary(result, sc), write_plan_csv


def _emit(sc, path: Optional[str], **body) -> None:
    """Write the scenario's report to `path`, if given, and echo it."""
    text = report_text({"scenario": sc.name, "digest": scenario_digest(sc), **body})
    if path:
        write_report(text, path)
    click.echo(text, nl=False)


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
        result, row, write_csv = _planned(sc, planner, _grid(sc, [planner]))
    except PLAN_ERRORS as exc:
        click.echo(f"planning failed: {exc}", err=True)
        sys.exit(1)
    if output:
        write_csv(result, sc, output)
    _emit(sc, report, planner=planner, metrics=row)


@main.command()
@click.option("--scenario", "-s", required=True)
@click.option("--mode", "-m", type=click.Choice(CONTROL_MODES),
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
    if os.environ.get("SOLARNAV_LOG", "").lower() in ("debug", "verbose"):
        for event in log.events:
            click.echo(f"# t={event.t:.2f} {event.kind} {event.detail}".rstrip(),
                       err=True)
    if output:
        write_trajectory_csv(log, output)
    _emit(sc, report, mode=mode, metrics=metrics.as_dict())
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
    for i, n in enumerate(names):
        if n not in PLANNER_NAMES:
            raise click.UsageError(f"unknown planner {n!r}")
        if n in names[:i]:
            raise click.UsageError(f"planner {n!r} is named twice")
    sc = _load(scenario)
    grid = _grid(sc, names)
    rows = {}
    for n in names:
        try:
            rows[n] = _planned(sc, n, grid)[1]
        except PLAN_ERRORS as exc:
            rows[n] = {"error": str(exc)}
    _emit(sc, output, planners=rows)
    if all("error" in row for row in rows.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
