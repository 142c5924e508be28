"""The workload process: one client running a workload's jobs in a closed loop.

Started by ``run.py`` with the thread variables set and ``src`` on the path.
It imports phaselab, generates its inputs from the seed, prints ``ready``
and times a calibration kernel (``--setup-only`` prints that time and
stops).  It then runs passes over the workload's jobs until the next pass
would overrun ``--seconds``, timing the kernel again after each pass.  With ``--trace 1`` the passes
alternate between untraced and traced, so the tracing overhead is measured
under the same conditions.  Its last stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from check import check, load_refs
from spans import Tracer
from workloads import Plan, execute, make_fields, output_text

ROOT = Path(__file__).resolve().parent.parent


#: Calibration kernel runs after setup and after every pass.
CAL_RUNS = 5


def kernel_s(values) -> float:
    """Seconds for one run of a fixed calibration kernel.

    The kernel mixes the kinds of work the workloads do: interpreter
    arithmetic, ``math.fsum`` over a 1025-element array, small numpy array
    operations, and float text formatting and parsing.  It never calls
    phaselab, so its time tracks only how fast the host runs.
    """
    start = perf_counter()
    acc = 0.0
    for i in range(40000):
        acc += i * 0.5
    for _ in range(40):
        math.fsum(values)
    x = values[:512]
    for _ in range(400):
        np.where(np.abs(x) >= 0.5, x, 0.5 * x)
    for _ in range(2):
        [float(t) for t in ",".join(repr(float(v)) for v in values).split(",")]
    return perf_counter() - start


def run_pass(jobs, refs, fields, tracer, problems):
    """Run one pass; job times exclude the output checks made after each job."""
    rec = {"traced": tracer is not None, "job_s": [], "failed": 0, "identical": 0,
           "output_bytes": 0}
    if tracer is not None:
        tracer.install()
    try:
        for job in jobs:
            start = perf_counter()
            try:
                code, stdout, stderr = execute(job, fields)
            except Exception:  # a crashing job is a failed job; keep going
                rec["job_s"].append(perf_counter() - start)
                rec["failed"] += 1
                problems.append(f"{job.key}: raised\n{traceback.format_exc()}")
                continue
            rec["job_s"].append(perf_counter() - start)
            if job.field_seed is not None:
                found = [] if os.path.isfile(job.out) else [f"{job.out} was not written"]
            else:
                try:
                    text = output_text(job, stdout)
                except OSError as exc:
                    found = [f"no output: {exc}"]
                else:
                    found, identical = check(refs[job.key], job.command, job.fmt, code, text)
                    rec["identical"] += identical
                    rec["output_bytes"] += len(text.encode())
            if found:
                rec["failed"] += 1
                problems.append(f"{job.key}: {'; '.join(found[:3])} {stderr.strip()[:200]}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    rec["wall_s"] = sum(rec["job_s"])
    if tracer is not None:
        rec["layers"] = {
            "self_s": dict(tracer.self_s),
            "span_s": dict(tracer.span_s),
            "counts": dict(tracer.counts),
        }
        rec["absent"] = tracer.absent
        rec["broken"] = sorted(tracer.broken)
    return rec


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict mode
        return {"name": "unknown"}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="directory for the files jobs write")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import phaselab
    import phaselab.cli  # noqa: F401  (everything a job imports)

    if not Path(phaselab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"phaselab imported from {phaselab.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 1
    plan = Plan(args.workload, args.seed)
    refs = load_refs(args.workload)
    fields = make_fields(plan.field_seeds)
    os.chdir(args.work)
    print("ready", flush=True)
    cal_values = np.random.default_rng(0).standard_normal(1025)
    before = [kernel_s(cal_values) for _ in range(CAL_RUNS)]
    setup_cal_s = statistics.median(before)
    if args.setup_only:
        print(setup_cal_s)
        return 0

    passes, problems, start = [], [], perf_counter()
    while True:
        began = perf_counter()
        tracer = Tracer() if args.trace and len(passes) % 2 == 1 else None
        passes.append(run_pass(plan.next_pass(), refs, fields, tracer, problems))
        after = [kernel_s(cal_values) for _ in range(CAL_RUNS)]
        # the kernel runs just before and just after the pass bracket it
        passes[-1]["cal_s"] = statistics.median(before + after)
        before = after
        passes[-1]["elapsed_s"] = perf_counter() - began
        typical = statistics.median(p["elapsed_s"] for p in passes)
        enough = len(passes) >= (2 if args.trace else 3)
        if enough and perf_counter() - start + typical > args.seconds:
            break

    summary = {
        "passes": passes,
        "problems": problems[:20],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "setup_cal_s": setup_cal_s,
        "meta": {
            "numpy": np.__version__,
            "blas": blas_info(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "jobs": sorted(job.key for job in plan.next_pass()),
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
