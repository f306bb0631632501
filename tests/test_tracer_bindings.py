"""The benchmark tracer still sees the CLI's planner calls.

`bench/tracing.py` wraps each planner at the module binding its caller uses:
the privacy DP at `cli`, the grid build and the grid planners at `simulate`.
A change that moved one of those calls elsewhere would leave its heavy
metrics at zero under `bench/run.py --trace 1`. This traces one `compare`
job of the `city_plan` pool, one `privacy_dp` job with a prism and one
`closed_loop` job that replans, and checks that every binding exists and no
heavy metric of the job's workload reads zero.
"""

from __future__ import annotations

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import run_job  # noqa: E402


def _has_prism(job) -> bool:
    return bool(job["scenario"]["world"]["prisms"])


@pytest.mark.parametrize("workload, pick", [
    ("city_plan", lambda job: job["kind"] == "compare"),
    ("privacy_dp", _has_prism),
    ("closed_loop", lambda job: job["kind"] == "hybrid-replan")],
    ids=["city_plan-compare", "privacy_dp-prism", "closed_loop-hybrid-replan"])
def test_traced_job_reads_on_every_heavy_metric(workload, pick, tmp_path):
    from solarnav.cli import main
    job = next(j for j in workloads.write_pool(workload, 3, str(tmp_path)) if pick(j))
    argv = workloads.job_argv(job, job["path"], str(tmp_path / "out"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, code, _, err = tracer.run_root(lambda: run_job(main, argv), job["name"])
    finally:
        tracer.uninstall()
    assert code == 0, err
    assert tracer.unbound == []
    assert tracing.zero_on_heavy(workload, tracer.layer_metrics()) == []
