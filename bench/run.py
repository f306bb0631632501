"""solarnav benchmark: one workload run, end-to-end or traced.

    python3 bench/run.py --workload city_plan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the program is imported from
./src). The run writes the workload's seeded scenario files to a scratch
directory under .bench_work/, measures set-up time, starts one fresh worker
process that runs the jobs (bench/worker.py), and prints the result. The
last line of standard output is a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the details:
machine, seed, job and pass counts, tail percentile, outcome counts and
output digests.

--trace 0 reports the end-to-end metrics; --trace 1 runs the pool once
untraced and once traced and reports the per-layer metrics and the tracing
overhead. See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads

# Set-up samples taken before and after the worker each, so the median
# spans the run instead of one moment of a shared machine.
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
                    "job_tail_s": "s", "peak_rss_mb": "MB"}


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": np.__version__}


def measure_setup(env: dict, root: str) -> list:
    """Time from spawning a fresh interpreter until its `import solarnav.cli`
    returns, read on the system-wide monotonic clock by the child itself, so
    process exit and the parent's wake-up are not counted."""
    code = ("import time, solarnav.cli; "
            "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                             check=True, timeout=60, capture_output=True, text=True)
        samples.append(float(out.stdout) - t0)
    return samples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "solarnav", "cli.py")):
        print(f"no solarnav sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]), **ONE_THREAD)

    scratch = os.path.join(root, ".bench_work")
    workdir = os.path.join(scratch, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        jobs = workloads.write_pool(args.workload, args.seed,
                                    os.path.join(workdir, "scenarios"))
        with open(os.path.join(workdir, "jobs.json"), "w", encoding="utf-8") as fh:
            json.dump([{k: j[k] for k in ("name", "kind", "path")} for j in jobs], fh)
        setup = [] if args.trace else measure_setup(env, root)
        proc = subprocess.run(
            [sys.executable, os.path.join(here, "worker.py"), workdir,
             str(args.seconds), str(args.trace)],
            env=env, cwd=root, capture_output=True, text=True,
            timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - started)))
        if proc.returncode != 0:
            print(proc.stderr[-4000:], file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not args.trace:
            setup += measure_setup(env, root)
        if args.trace:
            shutil.copy(os.path.join(workdir, "spans.jsonl"),
                        os.path.join(scratch, f"spans-{args.workload}.jsonl"))
    except subprocess.TimeoutExpired:
        print("worker did not finish in time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = res["failed"]
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "pool_jobs": len(jobs),
              "attempted": res["attempted"], "passes": res["passes"],
              "failed_frac": {"value": failed / res["attempted"], "unit": "ratio"},
              "outcomes": res["outcomes"], "digest": res["digest"],
              "job_digests": res["job_digests"], "errors": res["errors"]}
    correct = failed == 0
    if args.trace:
        from tracing import LAYER_METRICS, zero_on_heavy
        layer = res["layer_metrics"]
        zero = zero_on_heavy(args.workload, layer)
        correct = correct and not zero and res["child_exceeds_parent"] == 0
        metrics = {n: {"value": layer[n], "unit": LAYER_METRICS[n][0]} for n in layer}
        detail.update({k: res[k] for k in ("traced_job_p50_s", "untraced_job_p50_s",
                                           "overhead_s", "paired_overhead_s", "spans",
                                           "unbound", "child_exceeds_parent")},
                      zero_on_heavy=zero)
    else:
        values = {"setup_s": statistics.median(setup), "jobs_per_s": res["jobs_per_s"],
                  "job_p50_s": res["job_p50_s"], "job_tail_s": res["job_tail"]["value"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}
        detail.update(setup_samples_s=setup, job_tail=res["job_tail"],
                      phase_s=res["phase_s"])
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
