"""Output checker: compares a job's output with its committed reference.

A job passes when its exit code equals the reference's (2 is a valid
scientific verdict where expected) and every checked number lies within
relative ``REL_TOL`` of the reference: certificate sup, envelope and
ratio, ``pass``, fitted slope, decision, partial sums and tail, and
``re``/``im``.  Keys the checker does not know are ignored, so added
diagnostics do not count as failures.  An exact byte match with the
reference output is reported separately and never gates a run.

Run ``python3 perfbench/check.py`` for the self-test.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

REL_TOL = 1e-9
REFS_DIR = Path(__file__).resolve().parent / "refs"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def extract(command: str, fmt: str, text: str) -> dict:
    """The checked values of one CLI output: {name: value or list of values}."""
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        if command == "seq-check":
            return {"decision": rows[0]["decision"]}
        cols = {
            "bound-check": ("sup", "envelope", "ratio"),
            "rate-fit": ("sup", "envelope", "ratio"),
            "trace": ("partial_sum", "tail"),
            "propagate": ("re", "im"),
        }[command]
        return {col: [float(row[col]) for row in rows] for col in cols}
    data = json.loads(text)
    if command == "bound-check":
        rows = data["delta_sweep"]
        return {"pass": data["pass"], **{c: [r[c] for r in rows] for c in ("sup", "envelope", "ratio")}}
    if command == "rate-fit":
        rows = data["sweep"]
        return {"pass": data["pass"], "fitted_slope": data["fitted_slope"],
                **{c: [r[c] for r in rows] for c in ("sup", "envelope", "ratio")}}
    if command == "seq-check":
        return {"decision": data["decision"]}
    if command == "trace":
        return {"partial_sum": data["partial_sums"], "tail": data["tail"]}
    if command == "propagate":
        return {c: [r[c] for r in data] for c in ("re", "im")}
    raise ValueError(f"no checker for command {command!r}")


def _close(want, got) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(w, g) for w, g in zip(want, got)))
    if isinstance(want, (bool, str)) or want is None:
        return type(got) is type(want) and got == want
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    return want == got or abs(got - want) <= REL_TOL * max(abs(want), abs(got))


def compare(want: dict, got: dict) -> list:
    """Problems found comparing reference values with output values."""
    problems = []
    for name, value in want.items():
        if name not in got:
            problems.append(f"{name}: missing")
        elif not _close(value, got[name]):
            problems.append(f"{name}: differs from the reference by more than {REL_TOL:g}")
    return problems


def verdict(ref: dict, code: int, got: dict) -> list:
    """Problems of an output with exit ``code`` and checked values ``got``."""
    problems = [] if code == ref["exit"] else [f"exit code {code}, reference {ref['exit']}"]
    return problems + compare(ref["values"], got)


def check(ref: dict, command: str, fmt: str, code: int, text: str):
    """(problems, identical) for one CLI job against its reference entry."""
    try:
        got = extract(command, fmt, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output (exit code {code}): {exc!r}"], False
    return verdict(ref, code, got), digest(text) == ref["sha256"]


def load_refs(workload: str) -> dict:
    with open(REFS_DIR / f"{workload}.json") as fh:
        return json.load(fh)["jobs"]


def selftest(refs: dict) -> list:
    """Show the checker rejects what it must; returns a list of failures.

    For every reference entry: its own values pass, values perturbed by
    relative 1e-6 fail, values perturbed by 1e-12 pass, unknown extra keys
    pass, and a wrong exit code fails.
    """
    failures = []
    for key, ref in refs.items():
        want = ref["values"]
        cases = [("exact", want, True), ("extra key", {**want, "diagnostic": 1.0}, True)]
        for name, value in want.items():
            if isinstance(value, list) and value and value[0] != 0.0:
                for label, factor, ok in (("1e-6 off", 1 + 1e-6, False), ("1e-12 off", 1 + 1e-12, True)):
                    cases.append((label, {**want, name: [value[0] * factor] + value[1:]}, ok))
                break
        for label, got, should_pass in cases:
            if (compare(want, got) == []) != should_pass:
                failures.append(f"{key}: {label} was {'rejected' if should_pass else 'accepted'}")
        if not verdict({**ref, "exit": ref["exit"] + 1}, ref["exit"], want):
            failures.append(f"{key}: wrong exit code was accepted")
    return failures


if __name__ == "__main__":
    import sys

    from workloads import WORKLOADS

    bad = []
    for name in WORKLOADS:
        refs = load_refs(name)
        found = selftest(refs)
        print(f"{name}: {len(refs)} references, {len(found)} self-test failures")
        bad += found
    for line in bad:
        print("  " + line)
    sys.exit(1 if bad else 0)
