"""Compare two checkouts on one perfbench workload in alternating pairs of runs.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N [--seconds S] [--seed S0]

Pair i runs ``perfbench/run.py --trace 0 --seed S0+i`` in both checkouts, the
parent first in even pairs and the change first in odd ones.  For each
end-to-end metric that CHANGE_DIR/BENCHMARK.json names, it prints the median and
quartiles of each side, the change/parent ratio of the medians, the pairs the
change won and a verdict (``verdict``); then whether every run was correct with
no failed job, and the code and physical line counts of each checkout's
``src/phaselab`` as ``tools/code_lines.py`` (beside this script) prints them,
with each file of either checkout (0 where a checkout lacks it).

A checkout that holds a bytecode cache (``__pycache__``) under ``src/`` starts
faster than one that does not, which biases setup_s, so the script refuses to
start until the caches it names are removed; its runs write none
(PYTHONDONTWRITEBYTECODE=1).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def bytecode_caches(root: Path) -> list:
    """The ``__pycache__`` directories under ``root/src``, sorted."""
    return sorted((root / "src").rglob("__pycache__"))


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON summary (last stdout line) of one untraced perfbench run in ``root``,
    writing no bytecode cache."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, env=env)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        sys.exit(f"{root}: perfbench failed ({out.returncode}): {out.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


def code_lines(root: Path) -> dict:
    """The counts ``code_lines.py`` prints for ``root/src/phaselab``, by name."""
    script = Path(__file__).resolve().with_name("code_lines.py")
    out = subprocess.run([sys.executable, str(script), str(root / "src" / "phaselab")],
                         capture_output=True, text=True, check=True).stdout
    return dict(line.split(": ") for line in out.splitlines())


def _sign(better: str) -> int:
    """1 where lower values are better, -1 where higher ones are."""
    return 1 if better == "lower" else -1


def pairs_won(parent: list, change: list, better: str) -> int:
    """The pairs i in which change[i] is better than parent[i]."""
    sign = _sign(better)
    return sum(sign * (y - x) < 0 for x, y in zip(parent, change))


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """The verdict on one metric's runs, pair i being parent[i] and change[i].

    "gain" when the change won at least 9 of 10 pairs and its median beats the
    parent's by more than the parent's interquartile range, else "no gain".
    Then "within bound" when the change's median is worse than the parent's
    by at most ``bound`` of it (a relative bound, as BENCHMARK.json's are
    read), "outside bound" when by more, and "unresolved" when the parent's
    own IQR exceeds that bound of its median.
    """
    sign, won = _sign(better), pairs_won(parent, change, better)
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gain = 10 * won >= 9 * len(parent) and sign * (mp - mc) > q3 - q1
    if q3 - q1 > bound * abs(mp):
        limit = "unresolved"
    else:
        limit = "within bound" if sign * (mc - mp) <= bound * abs(mp) else "outside bound"
    return f"{'gain' if gain else 'no gain'}, {limit}"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args()
    caches = [str(path) for root in (args.parent, args.change) for path in bytecode_caches(root)]
    if caches:
        sys.exit("remove the bytecode caches first, they bias setup_s: " + ", ".join(caches))
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(getattr(args, side), args.workload, args.seed + i, args.seconds))
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1},"
          f" {args.seconds:g} s a run; median [quartiles], parent -> change")
    for m in metrics:
        a, b = ([r["metrics"][m["name"]]["value"] for r in runs[side]] for side in ("parent", "change"))
        won = pairs_won(a, b, m["better"])
        ratio = statistics.median(b) / statistics.median(a)
        q = [statistics.quantiles(v, n=4, method="inclusive") for v in (a, b)]
        print(f"  {m['name']:<12} " + " -> ".join(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]" for q1, q2, q3 in q)
              + f" {m['unit']}, ratio {ratio:.4f}, change won {won}/{args.pairs}: "
              + verdict(a, b, m["better"], m["bound"]))
    for side, results in runs.items():
        ok = all(r["correct"] and r["failed"] == 0 for r in results)
        print(f"  {side}: every run correct with 0 failed: {'yes' if ok else 'NO'}")
    parent, change = code_lines(args.parent), code_lines(args.change)
    names = list(parent) + [name for name in change if name not in parent]
    print("  " + ", ".join(f"{name} {parent.get(name, 0)} -> {change.get(name, 0)}" for name in names))


if __name__ == "__main__":
    main()
