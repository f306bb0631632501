"""Benchmark worker: runs one workload's jobs back to back in-process through
the click entry point (a closed loop with one client), then checks every
job's outputs. Started by run.py in a fresh interpreter; prints one JSON
object as its last line.

Usage: python3 bench/worker.py WORKDIR SECONDS TRACE
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from collections import Counter
from time import perf_counter
from typing import Dict, List, Optional

import yaml

import checks
from workloads import job_argv


def run_job(main, argv: List[str]) -> tuple:
    """Run one CLI command in-process: (seconds, exit code, stdout, stderr).
    The exit code is None when the command raised."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args=argv, prog_name="solarnav", standalone_mode=True)
            code: Optional[int] = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # a crash is a measured outcome, not a worker failure
            code = None
            err.write(traceback.format_exc())
    return perf_counter() - t0, code, out.getvalue(), err.getvalue()


def digest(stem: str) -> str:
    """Hash of the bytes of a job's report and CSV (absent files hash empty)."""
    h = hashlib.sha256()
    for suffix in (".yaml", ".csv"):
        path = stem + suffix
        h.update(suffix.encode())
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def tail(times: List[float]) -> Dict[str, float]:
    """The highest percentile with at least 10 jobs beyond it."""
    ordered = sorted(times)
    rank = len(ordered) - 10          # 1-based rank with 10 values above it
    return {"value": ordered[rank - 1], "percentile": 100.0 * rank / len(ordered),
            "jobs": len(ordered)}


class Run:
    """One job execution: pool index, label of its output set, timing."""

    def __init__(self, index: int, label: str, seconds: float, code, stdout, stderr):
        self.index, self.label, self.seconds = index, label, seconds
        self.code, self.stdout, self.stderr = code, stdout, stderr


def timed_phase(main, jobs: List[Dict], workdir: str, seconds: float) -> tuple:
    """Run the pool in order, repeatedly, until `seconds` have passed and
    the first pass is complete."""
    runs: List[Run] = []
    start = perf_counter()
    deadline = start + seconds
    i = 0
    while i < len(jobs) or perf_counter() < deadline:
        index, label = i % len(jobs), f"p{i // len(jobs)}"
        if index == 0:
            os.makedirs(os.path.join(workdir, "out", label), exist_ok=True)
        job = jobs[index]
        stem = os.path.join(workdir, "out", label, job["name"])
        runs.append(Run(index, label, *run_job(main, job_argv(job, job["path"], stem))))
        i += 1
    return runs, perf_counter() - start


def traced_pass(main, jobs: List[Dict], workdir: str) -> tuple:
    """Run every job once untraced and once traced, alternating which goes
    first, so the two medians compare the same jobs."""
    from tracing import Tracer
    tracer = Tracer()
    runs: List[Run] = []
    for label in ("untraced", "traced"):
        os.makedirs(os.path.join(workdir, "out", label), exist_ok=True)
    for index, job in enumerate(jobs):
        order = ("untraced", "traced") if index % 2 == 0 else ("traced", "untraced")
        for label in order:
            stem = os.path.join(workdir, "out", label, job["name"])
            argv = job_argv(job, job["path"], stem)
            if label == "traced":
                tracer.install()
                try:
                    result = tracer.run_root(lambda: run_job(main, argv), job["name"])
                finally:
                    tracer.uninstall()
            else:
                result = run_job(main, argv)
            runs.append(Run(index, label, *result))
    return runs, tracer


def check_runs(jobs: List[Dict], runs: List[Run], workdir: str) -> Dict:
    """Check the first run of each job; later runs must repeat its bytes."""
    first: Dict[int, Dict] = {}
    failed = 0
    errors: List[str] = []
    for run in runs:
        job = jobs[run.index]
        stem = os.path.join(workdir, "out", run.label, job["name"])
        dig = digest(stem)
        ref = first.get(run.index)
        if ref is None:
            with open(job["path"], encoding="utf-8") as fh:
                sc = yaml.safe_load(fh)
            outcome, errs = checks.check_job(job, sc, run.code, run.stdout,
                                             run.stderr, stem)
            if run.code is None:
                errs = errs + [run.stderr.strip().splitlines()[-1]]
            first[run.index] = {"outcome": outcome, "errors": errs, "digest": dig,
                                "code": run.code}
            errors += [f"{job['name']}: {e}" for e in errs]
            failed += bool(errs)
        elif dig != ref["digest"] or run.code != ref["code"]:
            errors.append(f"{job['name']}: output differs between runs ({run.label})")
            failed += 1
        else:
            failed += bool(ref["errors"])
    ordered = [first[i] for i in sorted(first)]
    pool_digest = hashlib.sha256("".join(r["digest"] for r in ordered).encode())
    return {"failed": failed, "errors": errors[:20],
            "outcomes": dict(sorted(Counter(r["outcome"] for r in ordered).items())),
            "digest": pool_digest.hexdigest(),
            "job_digests": {jobs[i]["name"]: r["digest"][:16]
                            for i, r in sorted(first.items())}}


def main() -> int:
    workdir, seconds, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    with open(os.path.join(workdir, "jobs.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)
    from solarnav.cli import main as cli_main

    result: Dict = {}
    if trace:
        runs, tracer = traced_pass(cli_main, jobs, workdir)
        by = {label: {r.index: r.seconds for r in runs if r.label == label}
              for label in ("untraced", "traced")}
        result.update(
            layer_metrics=tracer.layer_metrics(), unbound=tracer.unbound,
            child_exceeds_parent=tracer.violations, spans=len(tracer.records),
            traced_job_p50_s=statistics.median(by["traced"].values()),
            untraced_job_p50_s=statistics.median(by["untraced"].values()),
            paired_overhead_s=statistics.median(by["traced"][i] - by["untraced"][i]
                                                for i in by["traced"]))
        result["overhead_s"] = result["traced_job_p50_s"] - result["untraced_job_p50_s"]
        with open(os.path.join(workdir, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for rec in tracer.records:
                fh.write(json.dumps(rec) + "\n")
    else:
        runs, wall = timed_phase(cli_main, jobs, workdir, seconds)
        times = [r.seconds for r in runs]
        result.update(jobs_per_s=len(runs) / wall, job_p50_s=statistics.median(times),
                      job_tail=tail(times), phase_s=wall)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = len(runs)
    result["passes"] = max(int(r.label[1:]) for r in runs) + 1 if not trace else 1
    result.update(check_runs(jobs, runs, workdir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
