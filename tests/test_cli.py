import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phaselab
from phaselab import SpectralField, make_grid, write_field_csv
from phaselab.cli import main


def run(*args):
    return main(list(args))


class TestBoundCheck:
    def test_power_pair_passes(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run(
            "bound-check", "--family", "power", "--s", "0.5", "--a", "0.5",
            "--deltas", "1e-2:1e-6", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        assert payload["family"] == "power"
        row = payload["delta_sweep"][0]
        assert set(row) == {"delta", "sup", "envelope", "ratio", "argmax"}

    def test_gamma_boussinesq_passes(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run(
            "bound-check", "--family", "gamma", "--gamma", "boussinesq", "--s", "0.5",
            "--deltas", "1e-2:1e-6", "--out", str(out),
        )
        assert code == 0
        assert json.loads(out.read_text())["pass"] is True

    def test_invalid_flag_pairing_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = run(
            "bound-check", "--family", "power", "--s", "0.2", "--a", "0.5",
            "--beta", "0", "--deltas", "1e-2:1e-6", "--out", str(out),
        )
        assert code == 1
        assert not out.exists()  # no partial output on error

    def test_scientific_failure_exits_two_with_certificate(self, tmp_path):
        # non-sharp shifted configuration: bound holds but the ratio drifts
        out = tmp_path / "cert.json"
        code = run(
            "bound-check", "--family", "power-shift", "--s", "0.6", "--a", "0.5",
            "--beta", "2", "--deltas", "1e-2:1e-6", "--out", str(out),
        )
        assert code == 2
        assert json.loads(out.read_text())["pass"] is False

    def test_hypothesis_violation_exits_one_naming_inequality(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = run(
            "bound-check", "--family", "power", "--s", "0.9", "--a", "0.5",
            "--deltas", "1e-2:1e-6", "--out", str(out),
        )
        assert code == 1
        assert "0 < s <= a <= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_unsafe_params_relaxes_ranges_but_not_formulas(self, tmp_path):
        # with ranges off, s > a runs; the envelope formula d^(s/a) is kept,
        # the measured sup beats it by growing powers of delta, so the
        # certificate fails scientifically instead
        out = tmp_path / "cert.json"
        code = run(
            "bound-check", "--family", "power", "--s", "0.9", "--a", "0.5",
            "--deltas", "1e-2:1e-6", "--out", str(out), "--unsafe-params",
        )
        assert code == 2
        payload = json.loads(out.read_text())
        assert payload["pass"] is False
        first = payload["delta_sweep"][0]
        assert first["envelope"] == pytest.approx(first["delta"] ** 1.8, rel=1e-12)

    def test_deterministic_output(self, tmp_path):
        args = (
            "bound-check", "--family", "power", "--s", "0.5", "--a", "0.5",
            "--deltas", "1e-2:1e-6",
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "cert.csv"
        code = run(
            "bound-check", "--family", "power", "--s", "0.5", "--a", "0.5",
            "--deltas", "1e-2:1e-6", "--out", str(out), "--format", "csv",
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "delta,sup,envelope,ratio,argmax"


class TestRateFit:
    def test_power_fit(self, tmp_path):
        out = tmp_path / "fit.json"
        code = run(
            "rate-fit", "--family", "power", "--s", "0.25", "--a", "0.5",
            "--deltas", "1e-2:1e-8", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["fitted_slope"] - 0.5) <= 0.05
        assert payload["pass"] is True

    def test_csv_header(self, tmp_path):
        out = tmp_path / "fit.csv"
        code = run(
            "rate-fit", "--family", "power", "--s", "0.5", "--a", "0.5",
            "--deltas", "1e-2:1e-8", "--out", str(out), "--format", "csv",
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "delta,sup,envelope,ratio"

    def test_unsafe_params_relaxes_ranges(self, tmp_path, capsys):
        args = (
            "rate-fit", "--family", "power", "--s", "0.5", "--a", "1.5",
            "--deltas", "1e-2:1e-8",
        )
        assert run(*args) == 1
        assert "0 < s <= a <= 1" in capsys.readouterr().err
        out = tmp_path / "fit.json"
        assert run(*args, "--out", str(out), "--unsafe-params") == 0
        payload = json.loads(out.read_text())
        assert payload["theoretical_slope"] == pytest.approx(1.0 / 3.0, rel=1e-12)
        first = payload["sweep"][0]
        assert first["envelope"] == pytest.approx(first["delta"] ** (0.5 / 1.5), rel=1e-12)


class TestSeqCheck:
    def test_divergent_power_sequence(self, capsys):
        code = run(
            "seq-check", "--criterion", "power-low", "--s", "0.25", "--a", "0.5",
            "--seq", "power:p=0.5",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["q"] == pytest.approx(1.0)
        assert payload["decision"] == "no"

    def test_geometric_quartic(self, capsys):
        code = run(
            "seq-check", "--criterion", "gamma", "--gamma", "quartic", "--s", "1",
            "--seq", "geometric:r=0.5",
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["decision"] == "yes"

    def test_vacuous_boundary_is_an_error(self, capsys):
        code = run(
            "seq-check", "--criterion", "power-shift-super", "--s", "1", "--a", "2",
            "--beta", "0.5", "--seq", "power:p=2",
        )
        assert code == 1
        assert "s > a*(1-beta)" in capsys.readouterr().err


class TestPropagate:
    def test_single_mode_round_trip(self, tmp_path, capsys):
        g = make_grid(1, 2, 1)
        coeffs = np.zeros(5, dtype=complex)
        coeffs[4] = 1.0  # mode xi = +2
        write_field_csv(SpectralField(g, coeffs), tmp_path / "field.csv")
        code = run(
            "propagate", "--field", str(tmp_path / "field.csv"), "--a", "0.5",
            "--times", "0,0.5", "--points", "0.0", "--format", "csv",
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,x_1,re,im"
        t0_row = [float(v) for v in lines[1].split(",")]
        assert t0_row[2] == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)
        t_row = [float(v) for v in lines[2].split(",")]
        want = cmath.exp(1j * 0.5 * math.sqrt(2)) / (2 * math.pi)
        assert t_row[2] == pytest.approx(want.real, rel=1e-12)
        assert t_row[3] == pytest.approx(want.imag, rel=1e-12)

    def test_missing_field_is_usage_error(self, tmp_path):
        code = run(
            "propagate", "--field", str(tmp_path / "nope.csv"), "--a", "0.5",
            "--times", "0.1", "--points", "0.0",
        )
        assert code == 1


class TestTrace:
    def test_random_field_trace_runs(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run(
            "trace", "--a", "0.5", "--s", "0.5", "--seq", "power:p=2",
            "--grid", "1,8,0.25", "--K", "64", "--num-points", "4",
            "--out", str(out), "--format", "csv",
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x_1,partial_sum,tail"
        assert len(lines) == 5

    def test_trace_deterministic(self, tmp_path):
        args = (
            "trace", "--a", "0.5", "--s", "0.5", "--seq", "power:p=2",
            "--grid", "1,8,0.25", "--K", "32", "--num-points", "4", "--seed", "7",
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_non_applicable_sequence_is_an_error(self, tmp_path, capsys):
        code = run(
            "trace", "--a", "0.5", "--s", "0.25", "--seq", "power:p=0.5",
            "--grid", "1,4,0.5", "--K", "32", "--num-points", "2",
        )
        assert code == 1
        assert "not accepted" in capsys.readouterr().err


# sha256 of the trace CLI's JSON and CSV output, made by the per-(k, point)
# fsum reduction; the 2-D case has more (point, mode) products than one
# reduction block holds, so each k is split over points
GOLDEN_TRACES = {
    "1d": (
        "--a 0.5 --s 0.5 --seq power:p=2 --grid 1,16,0.125 --K 64 --num-points 8 --seed 3",
        "8467f889d2065fda8bb6561a5ce78a1a735d9350573c09a05eac7263edb3f2ad",
        "ca1832b1729ad7a41356afa36bbace6c24a094f6c425c74c3120df74d71b2395",
    ),
    "2d-shift": (
        "--gamma boussinesq --s 0.5 --seq geometric:r=0.5 --beta 1.5 --grid 2,16,0.25"
        " --K 16 --num-points 8 --seed 5",
        "6e9872d857afa2adb2253be0b01e7105a3b8f1080500687e5b7e3b5d517bfd4d",
        "85ef827e7272bc5f6707de07d1ad63a38e4bf5042514ab8d55d5a7b2b4ea9c08",
    ),
    "3d": (
        "--gamma boussinesq --s 0.5 --seq geometric:r=0.5 --grid 3,2,0.25"
        " --K 16 --num-points 8 --seed 1",
        "275f659f5c814e2e8b70178df81d6e7398c3cbf3458f878e7362913a7d753756",
        "077c9b6ae46b153ea62dae52f4a2752a2723515fe1125286bdcf2453d736a184",
    ),
}

# runs each golden case through the CLI entry point in a fresh interpreter,
# so the BLAS thread count is fixed before numpy loads
DIGEST_SCRIPT = """
import contextlib, hashlib, io, json, sys
from phaselab.cli import main
digests = {}
for name, args in json.loads(sys.argv[1]).items():
    for fmt in ("json", "csv"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["trace", *args.split(), "--format", fmt])
        digests[name + "." + fmt] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
print(json.dumps(digests))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_trace_golden_digests(threads):
    src = str(Path(phaselab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    cases = {name: args for name, (args, _, _) in GOLDEN_TRACES.items()}
    proc = subprocess.run(
        [sys.executable, "-c", DIGEST_SCRIPT, json.dumps(cases)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    got = json.loads(proc.stdout)
    want = {}
    for name, (_, json_digest, csv_digest) in GOLDEN_TRACES.items():
        want[name + ".json"] = [0, json_digest]
        want[name + ".csv"] = [0, csv_digest]
    assert got == want
