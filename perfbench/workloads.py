"""The benchmark's workloads: which jobs a pass runs, and how one job runs.

A job is one call of the public CLI, ``phaselab.cli.main(argv)``, or, in
``field-roundtrip``, one ``phaselab.write_field_csv`` call.  Every job a
seed can pick is listed by ``pool`` and has a committed reference output
under ``refs/``.  The seed chooses among equally sized inputs and shuffles
their order, so the work per pass does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass

WORKLOADS = ("sweep-mix", "trace-1d", "trace-2d-shift", "field-roundtrip")

# Short jobs (a few ms) are the majority, so the pooled job median falls
# among them and job_p50_s follows argparse and serialization costs; the
# long ones set job_p90_s and wall_s.
SWEEP_MIX = (
    "bound-check --family power --s 0.5 --a 0.5 --deltas 1e-2:1e-6",
    "bound-check --family power --s 0.25 --a 0.5 --deltas 1e-2:1e-6 --format csv",
    "rate-fit --family power --s 0.25 --a 0.5 --deltas 1e-2:1e-8",
    "rate-fit --family power --s 0.5 --a 0.5 --deltas 1e-2:1e-8 --format csv",
    "seq-check --criterion power-low --seq power:p=2 --s 0.5 --a 0.5",
    "seq-check --criterion power-high --seq geometric:r=0.5 --s 0.75 --a 0.5",
    "seq-check --criterion gamma --gamma boussinesq --seq power:p=3 --s 0.5",
    "seq-check --criterion quartic --seq power:p=3 --s 0.5 --format csv",
    "seq-check --criterion boussinesq --seq explicit:0.5,0.25,0.125,0.0625 --s 0.5",
    "seq-check --criterion gamma-shift --gamma quartic --beta 0.8"
    " --seq explicit:0.5,0.25,0.125,0.0625,0.03125 --s 0.5",
    "seq-check --criterion gamma --gamma quartic --seq power:p=0.5 --s 0.5",
    "seq-check --criterion power-shift-sub --seq power:p=2 --s 0.75 --a 0.5 --beta 1.5",
    "seq-check --criterion power-shift-super --seq power:p=2 --s 1.0 --a 2 --beta 0.8 --format csv",
    "seq-check --criterion gamma-shift --gamma boussinesq --beta 1.5 --seq geometric:r=0.5 --s 0.5",
    "bound-check --family power-shift --s 0.75 --a 0.5 --beta 0.8 --deltas 1e-2:1e-6",
    "bound-check --family power-shift --s 1.0 --a 2 --beta 1.5 --deltas 1e-2:1e-6",
    "bound-check --family gamma --gamma boussinesq --s 0.5 --deltas 1e-2:1e-6",
    "bound-check --family gamma --gamma quartic --s 0.5 --deltas 1e-2:1e-6 --format csv",
    "bound-check --family gamma-shift --gamma quartic --s 0.5 --beta 0.8 --deltas 1e-2:1e-6",
    "bound-check --family gamma-shift --gamma boussinesq --s 0.5 --beta 1.5 --deltas 1e-2:1e-6",
    "rate-fit --family gamma --gamma quartic --s 0.5 --deltas 1e-2:1e-8",
    "rate-fit --family power-shift --s 1.0 --a 2 --beta 1.5 --deltas 1e-2:1e-8",
)

TRACE_1D = "trace --a 0.5 --s 0.5 --seq power:p=2 --K 512"
TRACE_2D_SHIFT = (
    "trace --gamma boussinesq --s 0.5 --seq geometric:r=0.5 --beta 1.5 --grid 2,16,0.25 --K 32"
)
#: CLI ``--seed`` values (random field and sample points) a trace run can pick.
TRACE_SEEDS = tuple(range(1, 9))

FIELD_GRID = (2, 4.0, 0.25)  # 33 x 33 = 1089 modes
FIELD_SEEDS = tuple(range(1, 11))
FIELDS_PER_RUN = 8
FIELD_TIMES = "0,0.01,0.05,0.1,0.25,0.5,1,2"


@dataclass(frozen=True)
class Job:
    """One unit of work; ``key`` names its reference output."""

    key: str
    argv: tuple = ()
    out: str | None = None  # file the job writes, relative to the work directory
    field_seed: int | None = None  # set for write jobs only

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def fmt(self) -> str:
        return "csv" if "csv" in self.argv else "json"


def _field_jobs(seed: int) -> tuple:
    path = f"field_{seed}.csv"
    prop = (
        "propagate", "--field", path, "--gamma", "quartic", "--beta", "0.8",
        "--times", FIELD_TIMES, "--seed", str(seed),
    )
    return (
        Job(f"write/{seed}", out=path, field_seed=seed),
        Job(f"propagate-json/{seed}", prop),
        Job(f"propagate-csv/{seed}", prop + ("--format", "csv", "--out", f"prop_{seed}.csv"),
            out=f"prop_{seed}.csv"),
    )


def pool(name: str) -> list:
    """Every job any seed can pick for workload ``name``."""
    if name == "sweep-mix":
        return [Job(f"sweep/{i}", tuple(text.split())) for i, text in enumerate(SWEEP_MIX)]
    if name in ("trace-1d", "trace-2d-shift"):
        base = TRACE_1D if name == "trace-1d" else TRACE_2D_SHIFT
        return [Job(f"trace/{s}", tuple(base.split()) + ("--seed", str(s))) for s in TRACE_SEEDS]
    if name == "field-roundtrip":
        return [job for s in FIELD_SEEDS for job in _field_jobs(s)]
    raise ValueError(f"unknown workload {name!r}")


class Plan:
    """The jobs of one run of a workload, chosen and ordered by the seed."""

    def __init__(self, name: str, seed: int):
        self._rng = random.Random(seed)
        if name == "sweep-mix":
            self._groups = [[job] for job in pool(name)]
        elif name in ("trace-1d", "trace-2d-shift"):
            self._groups = [[self._rng.choice(pool(name))]]
        elif name == "field-roundtrip":
            seeds = self._rng.sample(FIELD_SEEDS, FIELDS_PER_RUN)
            self._groups = [list(_field_jobs(s)) for s in seeds]
        else:
            raise ValueError(f"unknown workload {name!r}")
        self.field_seeds = [g[0].field_seed for g in self._groups if g[0].field_seed is not None]

    def next_pass(self) -> list:
        """The same jobs each pass, in a fresh seeded order (a field is
        always written before it is propagated)."""
        groups = list(self._groups)
        self._rng.shuffle(groups)
        return [job for group in groups for job in group]


# phaselab and numpy are imported inside the functions below: run.py imports
# this module without ``src`` on the path.


def make_fields(seeds) -> dict:
    """Seeded random 2-D fields for the write jobs, keyed by field seed."""
    import numpy as np
    import phaselab

    grid = phaselab.make_grid(*FIELD_GRID)
    return {s: phaselab.random_field(grid, np.random.default_rng(s)) for s in seeds}


def execute(job: Job, fields: dict):
    """Run one job in-process; return (exit code, stdout text, stderr text).

    Names are looked up at call time, so a tracer's wrappers are used.
    """
    import phaselab
    from phaselab import cli

    if job.field_seed is not None:
        phaselab.write_field_csv(fields[job.field_seed], job.out)
        return 0, "", ""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(job.argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def output_text(job: Job, stdout: str) -> str:
    """The job's checked output: its ``--out`` file, else its stdout."""
    if job.out is not None and job.field_seed is None:
        with open(job.out) as fh:
            return fh.read()
    return stdout
