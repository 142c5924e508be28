"""phaselab's benchmark: drives the public CLI on fixed workloads and reports
end-to-end metrics (``--trace 0``) or per-layer metrics (``--trace 1``).

    python3 perfbench/run.py --workload sweep-mix --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each

Run from the root of a source checkout; nothing needs installing, the
workload process imports ``phaselab`` from ``src``.  One client runs one
job at a time (a closed loop).  The last stdout line is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it show each metric with its unit and sample count, and the run's
metadata.  See ``perfbench/README.md`` for the workloads and metrics.
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
from pathlib import Path
from time import perf_counter

from check import load_refs, selftest
from spans import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Start-ups timed per run for setup_s (one more, untimed, warms the bytecode cache).
SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 150
#: Reference speed for timings: the speed at which the worker's calibration
#: kernel takes this long.  The host's speed drifts between states up to
#: 1.4x apart for tens of seconds (README, "Steadiness"), so each timing is
#: scaled by NOMINAL_CAL_S / (median kernel time measured around it).
NOMINAL_CAL_S = 0.010
#: Thread variables set for the workload process: one client, one BLAS thread.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END = (
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

SPANS = (("spectral.csum_s", "s"), ("spectral.io_s", "s"), ("multipliers.phase_radii_s", "s"))
COUNTS = (
    ("spectral.csum_calls", "count"),
    ("spectral.csum_terms", "count"),
    ("spectral.io_bytes", "B"),
    ("phase_laws.law_calls", "count"),
    ("phase_laws.law_points", "count"),
    ("phase_laws.invert_calls", "count"),
    ("phase_laws.hypothesis_checks", "count"),
    ("multipliers.phase_radii_calls", "count"),
    ("multipliers.sup_calls", "count"),
    ("multipliers.scan_points", "count"),
    ("propagation.angles_calls", "count"),
    ("propagation.angles_points", "count"),
    ("convergence.trace_terms", "count"),
    ("convergence.trace_bytes_computed", "B"),
    ("convergence.classify_calls", "count"),
)
PER_LAYER = (
    tuple((f"{layer}.self_s", "s") for layer in LAYERS)
    + SPANS
    + COUNTS
    + (
        ("cli.output_bytes", "B"),
        ("cli.identical_outputs", "count"),
        ("trace_overhead_frac", "ratio"),
        ("coverage_ok", "count"),
    )
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def quantile(values, q: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def git_commit() -> str:
    """HEAD of the checkout, read from .git; 'unknown' outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    """CPU model and cache sizes as the kernel reports them (no counters)."""
    info = {"nproc": os.cpu_count(), "cpu": platform.processor() or "unknown"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction" and level in ("2", "3"):
                info[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return info


class Workload:
    """Starts the workload processes of one run and collects what they report."""

    def __init__(self, name: str, seed: int, seconds: float, trace: int, work: Path):
        self.cmd = [
            sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--work", str(work),
        ]
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, **THREAD_ENV,
                    "PYTHONPATH": src + os.pathsep + path if path else src}

    def _start(self, extra=()):
        start = perf_counter()
        proc = subprocess.Popen(self.cmd + list(extra), stdout=subprocess.PIPE, env=self.env,
                                text=True)
        ready = proc.stdout.readline().strip() == "ready"
        return proc, perf_counter() - start, ready

    def _finish(self, proc) -> str:
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"workload process ran past {WORKER_TIMEOUT_S} s")
        if proc.returncode != 0:
            raise RuntimeError(f"workload process failed (exit {proc.returncode})")
        return out

    def setup_times(self, count: int) -> list:
        """Start-up times, each with the kernel time its process measured after it."""
        times = []
        for _ in range(count):
            proc, took, ready = self._start(["--setup-only"])
            out = self._finish(proc)
            if not ready:
                raise RuntimeError("workload process did not get ready")
            times.append((took, float(out)))
        return times

    def run(self):
        """(time to ready, summary) of the measuring workload process."""
        proc, took, ready = self._start()
        out = self._finish(proc)
        if not ready:
            raise RuntimeError("workload process did not get ready")
        return took, json.loads(out.strip().splitlines()[-1])


def layer_values(rec: dict) -> dict:
    """Per-layer values of one traced pass."""
    layers = rec["layers"]
    values = {f"{layer}.self_s": layers["self_s"].get(layer, 0.0) for layer in LAYERS}
    values.update({name: layers["span_s"].get(name, 0.0) for name, _ in SPANS})
    values.update({name: layers["counts"].get(name, 0) for name, _ in COUNTS})
    values["cli.output_bytes"] = rec["output_bytes"]
    values["cli.identical_outputs"] = rec["identical"]
    return values


def coverage(name: str, v: dict, wall: float):
    """(ok, text): does the traced run stress the layer the workload claims?"""
    csum = v["spectral.csum_s"] / wall
    if name.startswith("trace-"):
        return csum >= 0.85, f"spectral.csum_s is {csum:.1%} of traced wall (needs >= 85%)"
    if name == "sweep-mix":
        share = (v["multipliers.self_s"] + v["phase_laws.self_s"]) / wall
        return (share >= 0.70 and csum < 0.01,
                f"multipliers + phase_laws self time is {share:.1%} of traced wall (needs >= 70%),"
                f" spectral.csum_s {csum:.2%} (needs < 1%)")
    ok = v["spectral.io_bytes"] > 0 and v["propagation.angles_calls"] > 0 and csum > 0
    return ok, (f"spectral I/O {v['spectral.io_s'] / wall:.1%}, csum {csum:.1%} of traced wall;"
                f" {v['propagation.angles_calls']} phase evaluations on the public propagate path")


def end_to_end(plain: list, setups: list, peak_rss_kb: int):
    """(metrics, lines) of an untraced run, timings scaled to the reference speed."""
    scales = [NOMINAL_CAL_S / p["cal_s"] for p in plain]
    jobs = [t * k for p, k in zip(plain, scales) for t in p["job_s"]]
    cal_s = statistics.median(p["cal_s"] for p in plain)
    raw = {
        "wall_s": statistics.median([p["wall_s"] for p in plain]),
        "job_p50_s": statistics.median([t for p in plain for t in p["job_s"]]),
        "job_p90_s": quantile([t for p in plain for t in p["job_s"]], 0.9),
        "setup_s": statistics.median([took for took, _ in setups]),
    }
    values = {
        "wall_s": statistics.median([p["wall_s"] * k for p, k in zip(plain, scales)]),
        "job_p50_s": statistics.median(jobs),
        "job_p90_s": quantile(jobs, 0.9),
        "setup_s": statistics.median([took * NOMINAL_CAL_S / cal for took, cal in setups]),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    beyond = sum(t > values["job_p90_s"] for t in jobs)
    notes = {
        "wall_s": f"median of {len(plain)} passes of {len(plain[0]['job_s'])} jobs",
        "job_p50_s": f"median of {len(jobs)} jobs",
        "job_p90_s": f"{len(jobs)} jobs, {beyond} beyond p90"
                     + ("" if beyond >= 10 else " (too few: read wall_s)"),
        "setup_s": f"median of {len(setups)} start-ups",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    for k in raw:
        notes[k] += f"; {raw[k]:.6g} s unscaled"
    lines = [f"  {k:<14} {values[k]:12.6g} {unit:<5} {notes[k]}" for k, unit in END_TO_END]
    lines.append(f"  timings scaled by {NOMINAL_CAL_S * 1e3:g} ms / calibration kernel time"
                 f" (median {cal_s * 1e3:.4g} ms over passes)")
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}, lines


def per_layer(name: str, plain: list, traced: list):
    """(metrics, lines) of a traced run, whose passes alternate with untraced ones."""
    per_pass = [layer_values(p) for p in traced]
    # median_low keeps counts whole: it returns one of the passes' values
    values = {k: statistics.median_low([v[k] for v in per_pass]) for k in per_pass[0]}
    traced_wall = statistics.median([p["wall_s"] for p in traced])
    # scaled like wall_s, so a change of host speed between passes cancels
    values["trace_overhead_frac"] = statistics.median(
        [p["wall_s"] / p["cal_s"] for p in traced]
    ) / statistics.median([p["wall_s"] / p["cal_s"] for p in plain]) - 1.0
    ok, text = coverage(name, values, traced_wall)
    values["coverage_ok"] = int(ok)
    repeat = len({tuple(v[k] for k, _ in COUNTS) for v in per_pass}) == 1
    lines = [f"  traced wall {traced_wall:.6g} s, median of {len(traced)} traced passes"
             f" (interleaved with {len(plain)} untraced)"]
    lines += [f"  {k:<34} {values[k]:14.6g} {unit}" for k, unit in PER_LAYER]
    lines.append(f"  coverage check {'PASS' if ok else 'FAIL'}: {text}")
    lines.append(f"  counts identical in every traced pass: {'yes' if repeat else 'NO'}")
    absent = sorted({a for p in traced for a in p["absent"]})
    broken = sorted({b for p in traced for b in p["broken"]})
    if absent or broken:
        lines.append(f"  absent wrap points: {absent or 'none'}; broken counters: {broken or 'none'}")
    return {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER}, lines


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload: its result object plus the lines that explain it."""
    bad = selftest(load_refs(name))
    if bad:
        raise RuntimeError("checker self-test failed: " + "; ".join(bad[:3]))
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = Workload(name, seed, seconds, trace, work)
        wl.setup_times(1)  # compiles bytecode on a fresh checkout; not timed
        setups = wl.setup_times(SETUP_SAMPLES - 1)
        took, summary = wl.run()
        setups.append((took, summary["setup_cal_s"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    passes = summary["passes"]
    attempted = sum(len(p["job_s"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"]]
    lines = [f"perfbench {name} seed={seed} trace={trace}: {len(passes)} passes,"
             f" {attempted} jobs, {failed} failed"]
    lines += ["  FAILED " + problem.replace("\n", "\n    ") for problem in summary["problems"]]
    if trace:
        metrics, more = per_layer(name, plain, [p for p in passes if p["traced"]])
    else:
        metrics, more = end_to_end(plain, setups, summary["peak_rss_kb"])
        more.append(f"  {'error_rate':<14} {failed / attempted:12.6g} {'':<5}"
                    f" {failed} of {attempted} jobs failed")
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        **summary["meta"],
        **machine(),
        "trace_bytes_computed": "computed from array sizes; no hardware counters",
        "client": "closed loop, one client, one job at a time",
    }
    lines += more + ["meta " + json.dumps(meta, sort_keys=True)]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "lines": lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "phaselab" / "__init__.py").is_file():
        return fail(f"no phaselab sources under {ROOT / 'src'}; run from a source checkout")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = measure(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
            return fail(f"{name}: {exc}")
        print("\n".join(results[name].pop("lines")), flush=True)

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
