"""Fast self-tests of the benchmark: seeded generation, the output checkers
and the metric names. Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import filecmp
import json
import os
import sys

import pytest
import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from worker import run_job  # noqa: E402

END_TO_END = ["setup_s", "jobs_per_s", "job_p50_s", "job_tail_s", "failed_frac",
              "peak_rss_mb"]
PER_LAYER = [
    "cli.self_s", "scenario_io.load_s", "scenario_io.loads",
    "world.segments_blocked_s", "world.segments_blocked_calls",
    "world.segments_blocked_rows", "world.rows_per_call", "world.blocked_frac",
    "world.segment_blocked_s", "world.segment_blocked_calls",
    "world.in_shadow_s", "world.in_shadow_calls",
    "grid.build_s", "grid.builds", "grid.nodes", "grid.free_nodes", "grid.edges",
    "grid.edge_cost_s", "grid.edge_cost_calls",
    "planning.energy_s", "planning.time_s", "planning.shortest_s",
    "planning.expansions", "planning.path_edges", "planning.useful_frac",
    "privacy.dp_s", "privacy.plans", "privacy.lattice_nodes", "privacy.layers",
    "privacy.reachable_states", "privacy.reachable_frac",
    "control.s", "control.calls",
    "simulate.run_s", "simulate.steps", "simulate.us_per_step",
    "simulate.min_separation_s", "simulate.shadowed_at_s",
    "simulate.compute_metrics_s", "simulate.mode_switches", "simulate.replans",
    "simulate.avoid_steps_frac",
    "reporting.s", "reporting.bytes",
]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload, tmp_path):
    a = workloads.write_pool(workload, 5, str(tmp_path / "a"))
    b = workloads.write_pool(workload, 5, str(tmp_path / "b"))
    c = workloads.write_pool(workload, 6, str(tmp_path / "c"))
    for ja, jb, jc in zip(a, b, c):
        assert filecmp.cmp(ja["path"], jb["path"], shallow=False)
        assert not filecmp.cmp(ja["path"], jc["path"], shallow=False)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_scenarios_load(workload, tmp_path):
    from solarnav.scenario_io import load_scenario_file
    for job in workloads.write_pool(workload, 11, str(tmp_path)):
        load_scenario_file(job["path"])


def test_metric_names_match_the_design_tables():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    # failed_frac is 0 when the program is correct, so it travels as the
    # result's attempted/failed counts and the detail line, not as a metric.
    assert [m["name"] for m in bench["end_to_end"]] == \
        [n for n in END_TO_END if n != "failed_frac"]
    assert list(END_TO_END_UNITS) == [m["name"] for m in bench["end_to_end"]]
    assert [m["name"] for m in bench["per_layer"]] == PER_LAYER
    assert list(tracing.LAYER_METRICS) == PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY


def _run(job, directory):
    from solarnav.cli import main
    stem = os.path.join(directory, job["name"])
    _, code, out, err = run_job(main, workloads.job_argv(job, job["path"], stem))
    with open(job["path"], encoding="utf-8") as fh:
        sc = yaml.safe_load(fh)
    return sc, code, out, err, stem


def _edit_csv(path, row, column, value):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[checks.CSV_HEADER.split(",").index(column)] = value(cells)
    lines[row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _edit_report(path, edit):
    with open(path, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    edit(data)
    text = yaml.safe_dump(data, sort_keys=True, default_flow_style=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def _pick(workload, kind, tmp_path):
    jobs = workloads.write_pool(workload, 3, str(tmp_path / "sc"))
    return next(j for j in jobs if j["kind"] == kind)


def _flagged(job, sc, code, out, err, stem, needle):
    outcome, errors = checks.check_job(job, sc, code, out, err, stem)
    assert any(needle in e for e in errors), (outcome, errors)


@pytest.mark.parametrize("kind", ["energy", "shortest"])
def test_plan_checker_flags_corrupted_path(kind, tmp_path):
    job = _pick("city_plan", kind, tmp_path)
    sc, code, out, err, stem = _run(job, str(tmp_path))
    assert checks.check_job(job, sc, code, out, err, stem) == ("planned", [])
    _edit_csv(stem + ".csv", 2, "x", lambda c: repr(float(c[1]) + 7.0))
    _flagged(job, sc, code, out, err, stem, "not a single lattice move")


def test_plan_checker_flags_battery_below_floor(tmp_path):
    job = _pick("city_plan", "energy", tmp_path)
    sc, code, out, err, stem = _run(job, str(tmp_path))
    _edit_csv(stem + ".csv", 2, "battery", lambda c: "49.5")
    _flagged(job, sc, code, out, err, stem, "leaves [floor, capacity]")


def test_compare_checker_flags_inconsistent_report(tmp_path):
    job = _pick("city_plan", "compare", tmp_path)
    sc, code, out, err, stem = _run(job, str(tmp_path))
    assert checks.check_job(job, sc, code, out, err, stem) == ("compared", [])

    def stretch(d):
        d["planners"]["shortest"]["path_length_m"] += 1000.0
    out = _edit_report(stem + ".yaml", stretch)
    _flagged(job, sc, code, out, err, stem, "shorter than the shortest path")


def test_privacy_checker_flags_negative_risk_and_bad_stage(tmp_path):
    job = _pick("privacy_dp", "privacy", tmp_path)
    sc, code, out, err, stem = _run(job, str(tmp_path))
    assert checks.check_job(job, sc, code, out, err, stem) == ("planned", [])

    def negate(d):
        d["metrics"]["risk"] = -1.0
    bad_out = _edit_report(stem + ".yaml", negate)
    _flagged(job, sc, code, bad_out, err, stem, "negative privacy risk")
    _edit_report(stem + ".yaml", lambda d: None)
    _edit_csv(stem + ".csv", 1, "y", lambda c: repr(float(c[2]) + 5.0))
    _flagged(job, sc, code, out, err, stem, "not a lattice move or hold")


@pytest.mark.parametrize("column, needle", [("battery", "battery replay"),
                                            ("min_dist", "min_dist reaches 0")])
def test_simulation_checker_flags_corrupted_log(column, needle, tmp_path):
    job = _pick("closed_loop", "hybrid", tmp_path)
    sc, code, out, err, stem = _run(job, str(tmp_path))
    outcome, errors = checks.check_job(job, sc, code, out, err, stem)
    assert errors == [] and outcome != "collision"
    edit = (lambda c: repr(float(c[7]) - 3.0)) if column == "battery" else (lambda c: "-1")
    _edit_csv(stem + ".csv", 5, column, edit)
    _flagged(job, sc, code, out, err, stem, needle)


def test_tracer_spans_nest_and_bindings_restore(tmp_path):
    import solarnav.simulate as simulate
    from solarnav.cli import main
    job = _pick("closed_loop", "hybrid-replan", tmp_path)
    original = simulate.sense_obstacles
    tracer = tracing.Tracer()
    tracer.install()
    try:
        stem = os.path.join(str(tmp_path), "t")
        argv = workloads.job_argv(job, job["path"], stem)
        tracer.run_root(lambda: run_job(main, argv), job["name"])
    finally:
        tracer.uninstall()
    assert simulate.sense_obstacles is original
    m = tracer.layer_metrics()
    assert tracer.violations == 0 and tracer.unbound == []
    assert m["control.calls"] > 0 and m["simulate.steps"] > 0 and m["grid.builds"] == 1
    assert m["privacy.plans"] == 0
    spans = [r for r in tracer.records if r[0] is not None]
    assert all(r[2] == job["name"] for r in tracer.records)
    assert [r for r in spans if r[1] is None][0][3] == "cli"
