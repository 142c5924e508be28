import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab_pairs", Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

#: Ten steady parent runs: median 1.0, interquartile range 0.02.
PARENT = [0.98, 0.99, 0.99, 1.0, 1.0, 1.0, 1.0, 1.01, 1.01, 1.02]


class TestVerdict:
    def test_a_clear_gain(self):
        change = [x - 0.2 for x in PARENT]
        assert ab_pairs.verdict(PARENT, change, "lower", 0.25) == "gain, within bound"

    def test_eight_pairs_won_is_no_gain(self):
        change = [x - 0.2 for x in PARENT[:8]] + [x + 0.01 for x in PARENT[8:]]
        assert ab_pairs.verdict(PARENT, change, "lower", 0.25) == "no gain, within bound"

    def test_a_gap_inside_the_parents_iqr_is_no_gain(self):
        # every pair won, but the medians differ by 0.01, half the IQR
        change = [x - 0.01 for x in PARENT]
        assert ab_pairs.verdict(PARENT, change, "lower", 0.25) == "no gain, within bound"

    @pytest.mark.parametrize("worse, limit", [(0.24, "within bound"), (0.26, "outside bound")])
    def test_the_bound_is_relative_to_the_parents_median(self, worse, limit):
        change = [x + worse for x in PARENT]
        assert ab_pairs.verdict(PARENT, change, "lower", 0.25) == f"no gain, {limit}"

    def test_higher_is_better(self):
        change = [x + 0.2 for x in PARENT]
        assert ab_pairs.verdict(PARENT, change, "higher", 0.25) == "gain, within bound"
        assert ab_pairs.verdict(change, PARENT, "higher", 0.1) == "no gain, outside bound"

    def test_a_parent_noisier_than_the_bound_is_unresolved(self):
        parent = [0.5, 0.7, 0.9, 1.0, 1.0, 1.0, 1.0, 1.1, 1.3, 1.5]
        assert ab_pairs.verdict(parent, parent, "lower", 0.1) == "no gain, unresolved"


#: A stand-in for perfbench/run.py: imports a module from src/phaselab/ as a
#: run would, and prints a summary whose wall_s is 1 in the parent and 0.5 in
#: the change, with the PYTHONDONTWRITEBYTECODE it saw.
FAKE_RUN = """
import json, os, sys
sys.path.insert(0, "src/phaselab")
import probe
print(json.dumps({"metrics": {"wall_s": {"value": probe.WALL}}, "correct": True, "failed": 0,
                  "no_bytecode": os.environ.get("PYTHONDONTWRITEBYTECODE")}))
"""
BENCHMARK = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}


def checkout(root: Path, wall: float) -> Path:
    """A temporary checkout whose perfbench run reports ``wall`` seconds, with a
    package of a docstring line, a code line and one more per whole second."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    (root / "src" / "phaselab").mkdir(parents=True)
    code = f"WALL = {wall}\n" + "TWICE = 2 * WALL\n" * int(wall)
    (root / "src" / "phaselab" / "probe.py").write_text('"""A probe."""\n' + code)
    (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    return root


def ab_main(monkeypatch, parent, change):
    monkeypatch.setattr(sys, "argv", ["ab_pairs.py", str(parent), str(change),
                                      "--workload", "w", "--pairs", "2", "--seconds", "1"])
    ab_pairs.main()


class TestCheckouts:
    def test_runs_write_no_bytecode_cache(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        parent, change = checkout(tmp_path / "parent", 1.0), checkout(tmp_path / "change", 0.5)
        (parent / "src" / "phaselab" / "deleted.py").write_text("X = 1\nY = 2\n")
        (change / "src" / "phaselab" / "added.py").write_text("Z = 3\n")
        assert ab_pairs.run(parent, "w", 1, 1.0)["no_bytecode"] == "1"
        ab_main(monkeypatch, parent, change)
        out = capsys.readouterr().out
        assert "wall_s       1 [1, 1] -> 0.5 [0.5, 0.5] s, ratio 0.5000, change won 2/2" in out
        assert out.count("every run correct with 0 failed: yes") == 2
        # the line counts of each checkout's package close the summary, then
        # each file of either checkout, 0 where a checkout lacks it
        assert out.endswith("  code lines 4 -> 2, physical lines 5 -> 3, deleted.py 2 -> 0,"
                            " probe.py 2 -> 1, added.py 0 -> 1\n")
        assert ab_pairs.bytecode_caches(parent) == ab_pairs.bytecode_caches(change) == []

    @pytest.mark.parametrize("side", ["parent", "change"])
    def test_a_bytecode_cache_is_refused_and_named(self, side, tmp_path, monkeypatch):
        roots = {name: checkout(tmp_path / name, 1.0) for name in ("parent", "change")}
        cache = roots[side] / "src" / "pkg" / "__pycache__"
        cache.mkdir(parents=True)
        monkeypatch.setattr(ab_pairs, "run", lambda *args: pytest.fail("a run started"))
        with pytest.raises(SystemExit) as exc:
            ab_main(monkeypatch, roots["parent"], roots["change"])
        assert str(exc.value) == f"remove the bytecode caches first, they bias setup_s: {cache}"


def test_pairs_won_follows_the_metrics_direction():
    assert ab_pairs.pairs_won([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "lower") == 1
    assert ab_pairs.pairs_won([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "higher") == 1
    assert ab_pairs.pairs_won(PARENT, [x - 0.2 for x in PARENT], "lower") == 10


#: A module of 22 physical lines, 8 of them code: ``import``, ``class``,
#: ``def``, the four lines of the call (its string argument is code, not a
#: docstring) and the assignment with a trailing comment.  The docstrings,
#: the bare string statement, comment-only and blank lines are not code.
SAMPLE = '''"""A module docstring
over two lines."""

# a comment-only line
import os


class Sample:
    """A class docstring."""

    def join(self, x):
        """A function docstring."""

        # a comment in a body
        return os.path.join(
            x,
            "a string argument",
        )


"a bare string statement"
LABEL = "a string that is assigned"  # a trailing comment
'''


def test_code_lines_counts_the_lines_that_hold_code(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")  # not a module: not read
    script = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    out = subprocess.run([sys.executable, str(script), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    # the docstring-only module adds a physical line and no code line; each
    # module's code count follows the totals, in the order of the file names
    assert out == "code lines: 8\nphysical lines: 23\nempty.py: 0\nsample.py: 8\n"
