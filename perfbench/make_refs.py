"""Regenerate the committed reference outputs under ``refs/``.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Runs every job any seed can pick, in-process, with the thread variables
the benchmark uses, and stores per job the exit code, the sha256 of the
output bytes and the checked values.  The references define a correct
output, so regenerate them only when an output is meant to change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from check import REFS_DIR, digest, extract
from workloads import FIELD_SEEDS, WORKLOADS, execute, make_fields, output_text, pool

ROOT = Path(__file__).resolve().parent.parent


def make(name: str, fields: dict) -> dict:
    refs = {}
    for job in pool(name):
        code, stdout, _ = execute(job, fields)
        if job.field_seed is not None:
            continue
        text = output_text(job, stdout)
        refs[job.key] = {
            "argv": list(job.argv),
            "exit": code,
            "sha256": digest(text),
            "values": extract(job.command, job.fmt, text),
        }
        print(f"{name} {job.key}: exit {code}", flush=True)
    return refs


def main(names) -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    fields = make_fields(FIELD_SEEDS)
    REFS_DIR.mkdir(exist_ok=True)
    here = os.getcwd()
    for name in names:
        with tempfile.TemporaryDirectory(dir=ROOT) as work:
            os.chdir(work)
            try:
                refs = make(name, fields)
            finally:
                os.chdir(here)
        lines = [f"{json.dumps(key)}: {json.dumps(refs[key], sort_keys=True)}" for key in sorted(refs)]
        with open(REFS_DIR / f"{name}.json", "w") as fh:
            fh.write('{"jobs": {\n' + ",\n".join(lines) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or WORKLOADS))
