import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaselab
from phaselab import SpectralField, make_grid, random_field, write_field_csv
from phaselab import cli, convergence
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
        assert list(payload) == ["family", "params", "delta_sweep", "pass"]
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
        assert list(payload) == ["family", "params", "fitted_slope", "theoretical_slope",
                                 "residual", "pass", "sweep"]
        assert list(payload["sweep"][0]) == ["delta", "sup", "envelope", "ratio"]
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

    def test_gamma_shift_power_law_agrees_with_power_shift_super(self, capsys):
        # both rows bound the same multiplier by delta**0.3, so both ask for q = 0.6
        base = ("seq-check", "--s", "1", "--beta", "0.8", "--seq", "power:p=1.5")
        payloads = []
        for flags in (("--criterion", "gamma-shift", "--gamma", "power:a=2"),
                      ("--criterion", "power-shift-super", "--a", "2")):
            assert run(*base, *flags) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        for payload in payloads:
            assert payload["q"] == pytest.approx(0.6, rel=1e-12)
            assert payload["decision"] == "no"

    @pytest.mark.parametrize(
        "flags",
        [
            ("--criterion", "power-low", "--a", "0.5", "--gamma", "quartic", "--beta", "3"),
            ("--criterion", "boussinesq", "--gamma", "quartic", "--a", "9"),
        ],
    )
    def test_unread_parameter_is_an_error(self, flags, capsys):
        assert run("seq-check", "--s", "0.5", "--seq", "power:p=2", *flags) == 1
        err = capsys.readouterr()
        assert "does not read" in err.err
        assert err.out == ""

    @pytest.mark.parametrize("flags, message", [
        (("--criterion", "gamma-shift", "--gamma", "quartic", "--beta", "nan"),
         "shift families require a finite beta"),
        (("--criterion", "power-low", "--a", "nan", "--unsafe-params"),
         "power families require a > 0"),
        (("--criterion", "power-high", "--a", "-1", "--unsafe-params"),
         "power families require a > 0"),
        (("--criterion", "power-high", "--a", "inf", "--unsafe-params"),
         "power families require a > 0"),
    ])
    def test_parameter_outside_its_domain_is_an_error(self, flags, message, capsys):
        # bound-check rejects the same values in its MultiplierSpec
        assert run("seq-check", "--s", "0.5", "--seq", "power:p=2", *flags) == 1
        err = capsys.readouterr()
        assert err.err.splitlines() == [f"phaselab: error: {message}"]
        assert err.out == ""

    @pytest.mark.parametrize("alias,q", [("boussinesq", 0.5), ("quartic", 0.25)])
    def test_alias_on_an_explicit_list_past_the_inversion_bracket(self, alias, q, capsys):
        terms = ",".join(repr(2.0**-k) for k in range(1, 71))
        assert run("seq-check", "--criterion", alias, "--s", "0.5",
                   "--seq", "explicit:" + terms) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["form"], payload["q"], payload["decision"]) == ("power-sum", q, "unknown")

    @pytest.mark.parametrize("flags", [("--criterion", "gamma"),
                                       ("--criterion", "gamma-shift", "--beta", "1.5")])
    def test_gamma_sum_past_the_inversion_bracket(self, flags, capsys):
        # g(1)/2**-70 is above boussinesq(1e9), so the summand's inversions
        # widen their brackets
        terms = ",".join(repr(2.0**-k) for k in range(1, 71))
        assert run("seq-check", *flags, "--gamma", "boussinesq", "--s", "0.5",
                   "--seq", "explicit:" + terms) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["form"], payload["q"], payload["decision"]) == ("gamma-sum", 0.5, "unknown")

    def test_vacuous_boundary_is_an_error(self, capsys):
        code = run(
            "seq-check", "--criterion", "power-shift-super", "--s", "1", "--a", "2",
            "--beta", "0.5", "--seq", "power:p=2",
        )
        assert code == 1
        assert "s > a*(1-beta)" in capsys.readouterr().err

    @pytest.mark.parametrize("criterion, flags", [("gamma", ()), ("gamma-shift", ("--beta", "0.8"))])
    def test_ineligible_law_is_an_error(self, criterion, flags, capsys):
        # power:a=0.5 meets the row's inequalities but gamma(r)/r decreases,
        # as bound-check reports for the same law
        args = ("seq-check", "--criterion", criterion, "--gamma", "power:a=0.5", "--s", "0.5",
                *flags, "--seq", "power:p=3")
        assert run(*args) == 1
        err = capsys.readouterr()
        assert err.out == ""
        assert err.err.splitlines() == [
            f"phaselab: error: {criterion} requires gamma(r)/r nondecreasing, which power:a=0.5 is not"
        ]
        # --unsafe-params skips the hypotheses, eligibility with them
        assert run(*args, "--unsafe-params") == 0
        assert json.loads(capsys.readouterr().out)["decision"] == "yes"


@pytest.mark.parametrize("command", [
    "seq-check --criterion power-low --seq power:p=2 --s 0.5 --a 0.5",
    "seq-check --criterion gamma-shift --gamma boussinesq --beta 1.5 --s 0.5 "
    "--seq explicit:0.5,0.25",
    "trace --a 0.5 --seq power:p=2 --s 0.5 --grid 1,2,1 --K 16 --num-points 2",
])
def test_each_answer_builds_its_condition_once(command, monkeypatch, capsys):
    # check_reads opens every build of a summability condition
    calls = []
    original = convergence.check_reads
    monkeypatch.setattr(convergence, "check_reads",
                        lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    assert run(*command.split()) == 0
    assert len(calls) == 1


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


class TestMalformedFieldFiles:
    """A malformed field file exits 1 with a message: no traceback, no dropped column."""

    @pytest.fixture
    def field_path(self, tmp_path):
        path = tmp_path / "field.csv"
        write_field_csv(random_field(make_grid(1, 1, 0.5), 5), path)
        return path

    def propagate(self, path):
        return run("propagate", "--field", str(path), "--a", "0.5", "--times", "0.1",
                   "--points", "0.0")

    def rewrite_rows(self, path, edit):
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *map(edit, rows)]) + "\n")

    def test_rows_with_too_few_columns(self, field_path, capsys):
        self.rewrite_rows(field_path, lambda row: row.rsplit(",", 1)[0])
        assert self.propagate(field_path) == 1
        err = capsys.readouterr()
        assert "has 2 columns, expected 3" in err.err
        assert err.out == ""

    def test_rows_with_an_extra_column(self, field_path, capsys):
        self.rewrite_rows(field_path, lambda row: row + ",0.0")
        assert self.propagate(field_path) == 1
        err = capsys.readouterr()
        assert "has 4 columns, expected 3" in err.err
        assert err.out == ""

    def test_sidecar_without_dxi(self, field_path, capsys):
        field_path.with_suffix(".json").write_text('{"n": 1, "xi_max": 1.0}\n')
        assert self.propagate(field_path) == 1
        err = capsys.readouterr()
        assert "must give numbers n, xi_max and dxi" in err.err
        assert err.out == ""


def test_propagate_field_whose_partial_sums_overflow(tmp_path, capsys):
    # the exact sum is finite, but 1.7e308 + 1.7e308 overflows, so math.fsum
    # refuses the row and csum sums it exactly instead
    path = tmp_path / "field.csv"
    write_field_csv(SpectralField(make_grid(1, 1, 1), [1.7e308, 1.7e308, -1.7e308]), path)
    code = run("propagate", "--field", str(path), "--points", "0", "--times", "0",
               "--gamma", "boussinesq", "--format", "csv")
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"0.0,0.0,{1.7e308 * (1.0 / (2.0 * math.pi))!r},0.0"


def test_trace_tail_of_a_field_whose_mass_overflows(tmp_path, capsys):
    # the tail bound sums |f_j|, whose partial sums overflow math.fsum; the
    # terms are nonnegative, so the bound is +inf
    path = tmp_path / "field.csv"
    write_field_csv(SpectralField(make_grid(1, 1, 1), [1.7e308, 1.7e308, -1.7e308]), path)
    code = run("trace", "--field", str(path), "--a", "0.5", "--s", "0.5",
               "--seq", "power:p=2", "--K", "16", "--points", "0")
    assert code == 0
    assert json.loads(capsys.readouterr().out)["tail"] == math.inf


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

    def test_trace_1d_rows_are_certified(self, monkeypatch, capsys):
        # the trace-1d benchmark job has 512 x 32 sums of 513 fold terms;
        # at seed 1 its certificate leaves 133 rows to the exact kernel,
        # whose bound refuses 10 of their 8,512 plane sums (exact ties among
        # them), each summed by fsum, so a kernel that slid into the fsum
        # fallback would show here
        calls = []

        def counting_fsum(values):
            calls.append(len(values))
            return fsum(values)

        fsum = phaselab.spectral._fsum
        monkeypatch.setattr(phaselab.spectral, "_fsum", counting_fsum)
        assert run("trace", "--a", "0.5", "--s", "0.5", "--seq", "power:p=2",
                   "--K", "512", "--seed", "1") == 0
        capsys.readouterr()
        assert len(calls) <= 16
        # the counter sits in the fallback's path: a midpoint sum reaches it
        phaselab.spectral.csum(np.array([1.0, 2.0**-53]))
        assert len(calls) >= 1

    def test_non_applicable_sequence_is_an_error(self, tmp_path, capsys):
        code = run(
            "trace", "--a", "0.5", "--s", "0.25", "--seq", "power:p=0.5",
            "--grid", "1,4,0.5", "--K", "32", "--num-points", "2",
        )
        assert code == 1
        assert "not accepted" in capsys.readouterr().err


class TestFlagsAreNotIgnored:
    """A flag that would be dropped or empty the output is a usage error."""

    @pytest.fixture
    def field_path(self, tmp_path):
        path = tmp_path / "field.csv"
        write_field_csv(random_field(make_grid(1, 2, 0.5), 5), path)
        return str(path)

    def test_propagate_mu_without_beta(self, field_path, capsys):
        code = run(
            "propagate", "--field", field_path, "--a", "0.5", "--times", "0.1",
            "--points", "0.0", "--mu", "1",
        )
        assert code == 1
        assert "--mu requires --beta" in capsys.readouterr().err

    def test_trace_mu_without_beta(self, capsys):
        code = run(
            "trace", "--a", "0.5", "--s", "0.5", "--seq", "power:p=2",
            "--grid", "1,4,0.5", "--K", "8", "--num-points", "2", "--mu", "1",
        )
        assert code == 1
        assert "--mu requires --beta" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bound-check", "rate-fit"])
    def test_nonpositive_per_decade(self, command, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = run(
            command, "--family", "power", "--s", "0.25", "--a", "0.5",
            "--deltas", "1e-2:1e-8", "--per-decade", "-2", "--out", str(out),
        )
        assert code == 1
        assert "--per-decade must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_propagate_zero_points(self, field_path, capsys):
        code = run(
            "propagate", "--field", field_path, "--a", "0.5", "--times", "0.1",
            "--num-points", "0",
        )
        assert code == 1
        err = capsys.readouterr()
        assert "--num-points must be positive" in err.err
        assert err.out == ""

    def test_trace_zero_points(self, capsys):
        code = run(
            "trace", "--a", "0.5", "--s", "0.5", "--seq", "power:p=2",
            "--grid", "1,4,0.5", "--K", "8", "--num-points", "0",
        )
        assert code == 1
        err = capsys.readouterr()
        assert "--num-points must be positive" in err.err
        assert err.out == ""


    @pytest.mark.parametrize(
        "args, flag",
        [
            (("bound-check", "--family", "power", "--s", "0.5", "--a", "0.5",
              "--deltas", "1e-2:1e-6", "--seed", "9"), "--seed"),
            (("rate-fit", "--family", "power", "--s", "0.25", "--a", "0.5",
              "--deltas", "1e-2:1e-8", "--grid", "3,1,0.5"), "--grid"),
            (("seq-check", "--criterion", "power-low", "--seq", "power:p=2", "--s", "0.5",
              "--a", "0.5", "--num-points", "3"), "--num-points"),
            (("propagate", "--field", "{field}", "--a", "0.5", "--times", "0.1",
              "--grid", "1,2,0.5"), "--grid"),
            (("propagate", "--field", "{field}", "--a", "0.5", "--times", "0.1",
              "--unsafe-params"), "--unsafe-params"),
            (("trace", "--a", "0.5", "--s", "0.5", "--seq", "power:p=2", "--grid", "1,4,0.5",
              "--K", "16", "--unsafe-params"), "--unsafe-params"),
        ],
    )
    def test_flag_the_command_never_reads(self, args, flag, field_path, capsys):
        # argparse rejects an unknown flag by exiting, with code 1 here
        with pytest.raises(SystemExit) as exc:
            run(*(a.format(field=field_path) for a in args))
        assert exc.value.code == 1
        err = capsys.readouterr()
        assert f"unrecognized arguments: {flag}" in err.err
        assert err.out == ""

    def test_trace_empty_grid(self, capsys):
        code = run(
            "trace", "--a", "0.5", "--s", "0.5", "--seq", "power:p=2", "--K", "16",
            "--grid", "", "--num-points", "1",
        )
        assert code == 1
        err = capsys.readouterr()
        assert err.err == "phaselab: error: grid must be n,xi_max,dxi, got ''\n"
        assert err.out == ""

    def test_trace_grid_with_field(self, field_path, capsys):
        code = run(
            "trace", "--field", field_path, "--a", "0.5", "--s", "0.5", "--seq", "power:p=2",
            "--K", "16", "--num-points", "2", "--grid", "1,4,0.5",
        )
        assert code == 1
        assert "--grid is not valid with --field" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bound-check", "rate-fit"])
    def test_per_decade_with_delta_list(self, command, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = run(
            command, "--family", "power", "--s", "0.25", "--a", "0.5",
            "--deltas", "1e-2,1e-4,1e-6,1e-8,1e-9", "--per-decade", "7", "--out", str(out),
        )
        assert code == 1
        assert "--per-decade is not valid with a comma list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["propagate", "trace"])
    def test_num_points_with_points(self, command, field_path, capsys):
        if command == "propagate":
            args = ("propagate", "--field", field_path, "--a", "0.5", "--times", "0.1")
        else:
            args = ("trace", "--a", "0.5", "--s", "0.5", "--seq", "power:p=2", "--K", "16")
        code = run(*args, "--points", "0.0;1.0", "--num-points", "2")
        assert code == 1
        assert "--num-points is not valid with --points" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["propagate", "trace"])
    def test_seed_with_points_and_field(self, command, field_path, capsys):
        if command == "propagate":
            args = ("propagate", "--times", "0.1")
        else:
            args = ("trace", "--s", "0.5", "--seq", "power:p=2", "--K", "16")
        code = run(*args, "--field", field_path, "--a", "0.5", "--points", "0.0", "--seed", "3")
        assert code == 1
        assert "--seed is not valid with --points and --field" in capsys.readouterr().err

    def test_trace_seed_with_points_seeds_the_field(self, capsys):
        args = ("trace", "--a", "0.5", "--s", "0.5", "--seq", "power:p=2", "--grid", "1,4,0.5",
                "--K", "16", "--points", "0.0;1.0")
        assert run(*args, "--seed", "3") == 0
        seeded = capsys.readouterr().out
        assert run(*args) == 0
        assert capsys.readouterr().out != seeded


class TestNonFiniteDriftAndTime:
    """A non-finite drift or time is a usage error, raised before any phase
    is evaluated (so no overflow warning either)."""

    @pytest.mark.parametrize("mu", ["nan,1", "inf,1"])
    def test_trace_mu(self, mu, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("trace", "--a", "2", "--s", "1", "--seq", "power:p=2", "--grid",
                       "2,2,0.5", "--K", "16", "--beta", "1.5", "--mu", mu)
        assert code == 1
        err = capsys.readouterr()
        assert err.out == ""
        assert "mu must be nonzero with a finite norm" in err.err

    @pytest.mark.parametrize("times, bad", [("0.1,inf", "inf"), ("-1", "-1.0"), ("nan", "nan")])
    def test_propagate_infinite_time(self, times, bad, tmp_path, capsys):
        path = tmp_path / "field.csv"
        write_field_csv(random_field(make_grid(2, 2, 0.5), 5), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("propagate", "--field", str(path), "--gamma", "boussinesq",
                       "--times", times, "--num-points", "2")
        assert code == 1
        err = capsys.readouterr()
        assert err.out == ""
        assert err.err == f"phaselab: error: t must be nonnegative and finite, got {bad}\n"


@pytest.mark.parametrize("command, message", [
    ("bound-check --family power --s 0.5 --a 0.5 --deltas 1e-2:1e-4:1e-6",
     "deltas must be start:end or a comma list, got '1e-2:1e-4:1e-6'"),
    ("trace --a 0.5 --s 0.5 --seq power:p=2 --K 16 --points 0.1,0.2",
     "point '0.1,0.2' does not have dimension 1"),
    ("trace --a 0.5 --s 0.5 --seq power:p=2 --K 16 --beta 1.5 --mu 1,0",
     "mu must have dimension 1"),
    ("trace --a 0.5 --gamma boussinesq --s 0.5 --seq power:p=2 --K 16",
     "give either --gamma or --a, not both"),
    ("trace --s 0.5 --seq power:p=2 --K 16",
     "a phase law is required (--gamma NAME or --a EXPONENT)"),
    ("trace --a 0.5 --s 0.5 --seq geometric:r=1.5 --K 16",
     "geometric ratio must lie in (0,1), got 1.5"),
    ("seq-check --criterion power-low --a 0.5 --s 0.5 --seq harmonic:p=2",
     "unknown sequence 'harmonic:p=2'"),
    ("rate-fit --family power --s 0.5 --a 0.5 --deltas 0.5:1e-5",
     "rate-fit deltas must lie in (1e-10, 1e-1)"),
], ids=["deltas", "points", "mu", "law-twice", "no-law", "geometric", "sequence", "rate-fit-deltas"])
def test_input_check_is_an_error(command, message, capsys):
    assert run(*command.split()) == 1
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.splitlines() == [f"phaselab: error: {message}"]


class TestOverflowIsAnError:
    """A power, phase, quotient or summand that overflows, or an envelope
    that underflows to 0, is one error line naming it, with no traceback
    and no RuntimeWarning."""

    @staticmethod
    def run_quiet(command):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run(*command.split())

    @pytest.mark.parametrize("command", ["bound-check", "rate-fit"])
    @pytest.mark.parametrize("flags, messages", [
        ("--family power-shift --s 0.5 --a 0.5 --beta -400",
         ("delta**e = 0.01**-401.0 overflows", "delta**e = 1e-06**-401.0 overflows")),
        ("--family power --s 0.0005 --a 0.001",
         ("delta**(-1/a) = 0.01**-1000.0 overflows", "delta**(-1/a) = 1e-06**-1000.0 overflows")),
        ("--family gamma --gamma boussinesq --s 400",
         ("r_c**s = 11.87106735378", "r_c**s = 1189.20690477")),
    ], ids=["delta**e", "delta**(-1/a)", "r_c**s"])
    def test_sweep_power(self, command, flags, messages, capsys):
        # both commands run one sweep, which meets each delta's envelope
        # before its scan; rate-fit sorts its deltas, so it starts at 1e-6
        message = messages[command == "rate-fit"]
        assert self.run_quiet(f"{command} {flags} --deltas 1e-2:1e-6 --unsafe-params") == 1
        err = capsys.readouterr()
        assert err.out == ""
        assert err.err.startswith(f"phaselab: error: {message}")
        assert err.err.endswith(" overflows\n") and err.err.count("\n") == 1

    @pytest.mark.parametrize("command, message", [
        ("bound-check --family power --s 60 --a 0.5",
         "the power-low envelope underflows to 0 at delta=0.0017782794100389228"),
        ("rate-fit --family power --s 200 --a 1",
         "the power-low envelope underflows to 0 at delta=1e-06"),
    ])
    def test_envelope_underflow(self, command, message, capsys):
        assert self.run_quiet(command + " --deltas 1e-2:1e-6 --unsafe-params") == 1
        err = capsys.readouterr()
        assert err.out == ""
        assert err.err == f"phaselab: error: {message}\n"

    @pytest.mark.parametrize("params, criterion", [
        ("--criterion gamma-shift --gamma boussinesq --beta -400 --s 0.5", "gamma-shift"),
        ("--criterion power-shift-super --a 2 --s 1 --beta -400", "power-shift-super"),
    ])
    def test_summand_not_finite(self, params, criterion, capsys):
        # t**(2*(beta-1)) overflows at 0.25, not at 0.5
        command = f"seq-check {params} --seq explicit:0.5,0.25,1e-300 --unsafe-params"
        assert self.run_quiet(command) == 1
        err = capsys.readouterr()
        assert err.out == ""
        assert err.err == (
            f"phaselab: error: the summand of {criterion} is not finite at the term t=0.25\n"
        )

    @pytest.mark.parametrize("terms, count", [
        ("1.9e-103,1.88e-103", 2),  # finite terms t**-3 whose sum passes the double range
        (",".join(repr(2.1e-103 * (1 - k * 1e-4)) for k in range(20)), 2),
        (",".join(repr(4e-103 * (1 - k * 1e-4)) for k in range(20)), 20),
    ], ids=["two-terms", "head", "tail"])
    def test_partial_sum_overflow(self, terms, count, capsys):
        command = ("seq-check --criterion power-shift-super --a 2 --s 1 --beta -1 "
                   f"--seq explicit:{terms} --unsafe-params")
        assert self.run_quiet(command) == 1
        err = capsys.readouterr()
        assert err.out == ""
        assert err.err == (
            f"phaselab: error: the partial sum of the first {count} terms "
            "of power-shift-super overflows\n"
        )

    @pytest.mark.parametrize("law, time, message", [
        ("--a 1e308", "0.5", "the phase of power:a=1e+308 is not finite at t=0.5"),
        ("--gamma boussinesq", "1e308", "the phase of boussinesq is not finite at t=1e+308"),
    ])
    def test_propagate_phase(self, law, time, message, tmp_path, capsys):
        path = tmp_path / "field.csv"
        write_field_csv(random_field(make_grid(2, 2, 0.5), 21), path)
        assert self.run_quiet(f"propagate --field {path} {law} --times {time} --num-points 2") == 1
        err = capsys.readouterr()
        assert err.out == ""
        assert err.err == f"phaselab: error: {message}\n"

    @pytest.mark.parametrize("points, finite", [("1", True), ("0", False)])
    def test_propagate_coefficients_past_the_double_range(self, points, finite, tmp_path, capsys):
        # the field enters the folded waves, scaled by a power of two near
        # the double range, and the rows are unit phases: 1.7e308 + 1.7e308j
        # samples wherever the value is finite (at x = 1 the 9 terms nearly
        # cancel) and is an error where it is not (at x = 0 they add up to
        # 9 * 1.7e308 / (2*pi) per part)
        path = tmp_path / "big.csv"
        grid = make_grid(1, 4, 1)
        write_field_csv(SpectralField(grid, np.full(grid.num_modes, 1.7e308 + 1.7e308j)), path)
        command = f"propagate --field {path} --a 0.5 --times 0,0.5 --points {points}"
        assert self.run_quiet(command) == (0 if finite else 1)
        err = capsys.readouterr()
        if finite:
            values = [[row["re"], row["im"]] for row in json.loads(err.out)]
            assert len(values) == 2 and np.isfinite(values).all() and err.err == ""
        else:
            assert err.out == ""
            assert err.err == ("phaselab: error: coefficients too large to sample: "
                               "a sum over the modes overflows\n")

    def test_trace_squares_past_the_double_range(self, tmp_path, capsys):
        # sums near 1e200 have squares past the double range: the partial
        # sums and the tail are inf, with no warning and no traceback
        path = tmp_path / "big.csv"
        grid = make_grid(1, 2, 1)
        write_field_csv(SpectralField(grid, np.full(grid.num_modes, 1e200 + 1e200j)), path)
        command = f"trace --field {path} --a 0.5 --s 0.5 --seq power:p=2 --K 16 --points 0.1"
        assert self.run_quiet(command) == 0
        err = capsys.readouterr()
        assert err.err == ""
        out = json.loads(err.out)
        assert out["partial_sums"] == [math.inf] and out["tail"] == math.inf

    def test_gamma_sum_tiny_term(self, capsys):
        command = "seq-check --criterion gamma --gamma boussinesq --s 0.5 --seq explicit:0.5,0.25,5e-324"
        assert self.run_quiet(command) == 1
        err = capsys.readouterr()
        assert err.out == ""
        assert err.err == "phaselab: error: g(1)/t overflows for boussinesq at the term t=5e-324\n"


@pytest.mark.parametrize("command, code, stderr", [
    ("propagate --field {field} --a 0.5 --times 0,0.5 --points nan;-0.0;inf;-inf;1e-05", 0, ""),
    ("trace --a 0.5 --s 0.5 --seq power:p=2 --K 16 --points 1e308", 0, ""),
    ("trace --a 2 --s 1 --seq power:p=2 --grid 2,2,0.5 --K 16 --beta 1.5 --mu 1e308,1 "
     "--points 0.1,0.2", 1, "mu must be nonzero with a finite norm, got '1e308,1'"),
    # r**60 overflows from r = 1.4e5 on, and the law is eligible: a >= 1
    ("bound-check --family gamma --gamma power:a=60 --s 0.5 --deltas 1e-2:1e-6", 0, ""),
    ("bound-check --family gamma --gamma power:a=0.5 --s 0.5 --deltas 1e-2:1e-6", 1,
     "gamma requires gamma(r)/r nondecreasing, which power:a=0.5 is not"),
    # the inverse y**100 overflows from y = 1209.37 on: first for the scan
    # radii (top target 2*pi/delta), then for r_c = gamma^-1(1/delta)
    ("bound-check --family gamma --gamma power:a=0.01 --s 0.5 --deltas 1e-2:1e-6 --unsafe-params",
     1, "gamma^-1(y) overflows for power:a=0.01 at y=1209.370544889579"),
    ("bound-check --family gamma --gamma power:a=0.01 --s 0.5 --deltas 1e-4:1e-8 --unsafe-params",
     1, "gamma^-1(y) overflows for power:a=0.01 at y=10000.0"),
    ("rate-fit --family gamma --gamma power:a=0.01 --s 0.5 --deltas 1e-2:1e-8 --unsafe-params",
     1, "gamma^-1(y) overflows for power:a=0.01 at y=100000000.0"),
    # the drift delta**beta * r overflows at the larger scan radii of delta = 1e-10
    ("bound-check --family power-shift --s 0.5 --a 0.05 --beta=-11 --deltas 1e-6:1e-10 "
     "--unsafe-params", 1, "the phase at delta=1e-10 is not finite at |xi|=1.9109529749704404e+198"),
], ids=["propagate-nonfinite-points", "trace-overflowing-point", "trace-overflowing-mu",
        "bound-check-overflowing-probe", "bound-check-decreasing-ratio",
        "bound-check-overflowing-scan-radii", "bound-check-overflowing-critical-radius",
        "rate-fit-overflowing-critical-radius", "bound-check-overflowing-drift"])
def test_no_runtime_warning_reaches_stderr(command, code, stderr, tmp_path, capsys):
    """Non-finite sample points give NaN rows, an overflowing --mu norm, an
    ineligible law or an overflowing inverse gives one error line; numpy
    prints no warning."""
    field = tmp_path / "f.csv"
    write_field_csv(random_field(make_grid(1, 4, 1), 1), field)
    assert TestOverflowIsAnError.run_quiet(command.format(field=field)) == code
    err = capsys.readouterr().err
    assert err == (f"phaselab: error: {stderr}\n" if stderr else "")


#: Small valid commands whose numeric tokens the fuzz below replaces;
#: {field} is a 2-D field on the grid 2,2,0.5
FUZZ_COMMANDS = [
    "trace --a 2 --s 1 --seq power:p=2 --grid 2,2,0.5 --K 16 --beta 1.5 --mu 1,1 "
    "--points 0.1,0.2;0.3,-0.4",
    "trace --gamma boussinesq --s 0.5 --seq geometric:r=0.5 --grid 2,2,0.5 --K 16 "
    "--num-points 4 --seed 3",
    "propagate --field {field} --gamma boussinesq --times 0,0.1 --beta 1.5 --mu 1,2 "
    "--points 0.1,0.2;0.3,-0.4",
    "propagate --field {field} --a 0.5 --times 0.5 --num-points 2 --seed 4",
    "trace --field {field} --a 2 --s 1 --seq power:p=2 --K 16 --points 0.1,0.2;0.3,-0.4",
    "bound-check --family power --s 0.5 --a 0.5 --deltas 1e-2:1e-6 --per-decade 1",
    "bound-check --family gamma-shift --gamma quartic --s 0.5 --beta 1.5 --deltas 1e-2,1e-6",
    "seq-check --criterion gamma --gamma boussinesq --s 0.5 --seq explicit:0.5,0.25,0.125",
    "seq-check --criterion power-shift-sub --a 0.5 --beta 1.5 --s 0.75 --seq power:p=2",
    "seq-check --criterion gamma-shift --gamma quartic --beta 1.5 --s 0.5 --seq power:p=2 "
    "--unsafe-params",
]
FUZZ_VALUES = ["nan", "inf", "-0.0", "1e308", "5e-324", "", "x", "1,", ";"]
#: Values the fuzz may write into both parts of every coefficient of {field}
FIELD_VALUES = ["1.7e308", "-1e308", "1e200", "5e-324", "-0.0", "nan", "inf"]
#: Flags whose values size the work: the fuzz never makes them larger
SIZE_FLAGS = {"--grid", "--K", "--num-points", "--per-decade"}
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:e-?\d+)?")


def fuzz_sites(argv):
    """(argument index, start, end) of each numeric token in a flag's value."""
    return [(i, m.start(), m.end()) for i, arg in enumerate(argv)
            if i and argv[i - 1] != "--field" and not arg.startswith("--")
            for m in NUMBER.finditer(arg)]


@pytest.fixture(scope="module")
def fuzz_field(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "f.csv"
    write_field_csv(random_field(make_grid(2, 2, 0.5), 21), path)
    return str(path)


def field_of(path, value, directory):
    """A copy of the field at ``path`` in ``directory`` with both parts of
    every coefficient set to the CSV cell ``value``."""
    lines = Path(path).read_text().splitlines()
    cells = [line.split(",") for line in lines[1:]]
    copy = Path(directory) / "field.csv"
    copy.write_text("\n".join([lines[0]] + [",".join(c[:-2] + [value, value]) for c in cells]) + "\n")
    copy.with_suffix(".json").write_text(Path(path).with_suffix(".json").read_text())
    return str(copy)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_numeric_flag_fuzz_exits_cleanly(fuzz_field, data):
    """One numeric token swapped for an edge or malformed value, and for
    commands that read {field} perhaps every coefficient too: the command
    exits 0 (2 for a failed certificate), or 1 with one error line, and never
    raises; a seq-check that exits 0 reports a finite q (every law carries
    its inverse growth, so q is always a float).  A
    RuntimeWarning is raised, so one that would reach stderr fails: code
    that overflows on purpose does so inside ``np.errstate``."""
    command = data.draw(st.sampled_from(FUZZ_COMMANDS))
    argv = command.split()
    i, start, end = data.draw(st.sampled_from(fuzz_sites(argv)))
    values = FUZZ_VALUES
    if argv[i - 1] in SIZE_FLAGS:
        values = [v for v in FUZZ_VALUES if v not in ("inf", "1e308")]
    argv[i] = argv[i][:start] + data.draw(st.sampled_from(values)) + argv[i][end:]
    coefficient = data.draw(st.sampled_from([None, *FIELD_VALUES])) if "{field}" in command else None
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        field = fuzz_field if coefficient is None else field_of(fuzz_field, coefficient, directory)
        argv = [arg.format(field=field) for arg in argv]
        code = run_fuzzed(argv, out, err)
    errors = [line for line in err.getvalue().splitlines() if ": error: " in line]
    if code == 1:
        assert len(errors) == 1 and errors[0].startswith("phaselab"), err.getvalue()
    else:
        assert code == 0 or (code == 2 and argv[0] == "bound-check"), (argv, code)
        assert not errors, err.getvalue()
    if code == 0 and argv[0] == "seq-check":
        q = json.loads(out.getvalue())["q"]
        assert math.isfinite(q), (argv, q)


def run_fuzzed(argv, out, err):
    """The exit code of ``main(argv)``, its output captured, with a
    RuntimeWarning raised."""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return main(argv)
        except SystemExit as exc:  # argparse's usage errors
            return exc.code


#: sha256 of the JSON and CSV stdout of each seq-check command of
#: FUZZ_COMMANDS, in order; no golden case covers these outputs
FUZZ_SEQ_CHECKS = [command for command in FUZZ_COMMANDS if command.startswith("seq-check")]
FUZZ_SEQ_CHECK_DIGESTS = [
    ("38d6552e667cf528af2833f9df37663be91fdecb2a8d5a9226d2a6eaa1bb8865",
     "652740080e695ce67d5517a1c96f6530fcd10e03782d157449b4bb34a0134d5b"),
    ("6c39fe4c10a7e1ca3112a9662bee7f7fa1568940355da54d1c2d949b1968f27e",
     "3afaa366ae9e0d6c10c16c81c252205b5c22662669a93b8e905b001704d793b2"),
    ("a67285949a8555a2f972a57b6d4a349e9454204698791376caf0d443168bd8d6",
     "7cc3bbc0ea2ea7e6fde035cd619e9e9adf496308167c8de4f7256717afa8c459"),
]


@pytest.mark.parametrize("command, digests", zip(FUZZ_SEQ_CHECKS, FUZZ_SEQ_CHECK_DIGESTS),
                         ids=["gamma-explicit", "power-shift-sub", "gamma-shift-unsafe"])
def test_fuzz_seq_check_bytes(command, digests, capsys):
    got = []
    for fmt in ("json", "csv"):
        assert run(*command.split(), "--format", fmt) == 0
        got.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert tuple(got) == digests


def test_parser_is_built_once(monkeypatch, capsys):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        for p in ("2", "3"):
            assert run("seq-check", "--criterion", "power-low", "--seq", f"power:p={p}",
                       "--s", "0.5", "--a", "0.5") == 0
    finally:
        cli._parser.cache_clear()
    assert builds == [1]
    assert capsys.readouterr().out.count('"decision"') == 2


# sha256 of the trace CLI's JSON and CSV output, made by the per-(k, point)
# fsum of the fold terms (e^{i theta} - 1) * G (each residual row on the
# modes of the phase fold, G the field's folded wave: f times e^{i x_d xi_d}
# an axis at a time, the last first, each folded axis summed, kept half plus
# mirrored half, before the next product), with mu.xi added coordinate by coordinate;
# the 2-D case has more (point, mode) products than one reduction block
# holds, so each k is split over points
GOLDEN_TRACES = {
    "1d": (
        "trace --a 0.5 --s 0.5 --seq power:p=2 --grid 1,16,0.125 --K 64 --num-points 8 --seed 3",
        "540a817baf304a2556b8d4036362d9b68d89e55eabe41a12683653a09fde2b71",
        "a42ccebaf231f35c64f804c9be766cda839c363c898568145213e1e460156b9c",
    ),
    "2d-shift": (
        "trace --gamma boussinesq --s 0.5 --seq geometric:r=0.5 --beta 1.5 --grid 2,16,0.25"
        " --K 16 --num-points 8 --seed 5",
        "f8cce39ee4d7bad26a8cf742ec7eb7500f393a37aacc367be2e9db887237d395",
        "964abd5149070dbd32cefcfe6a9d440c5babed249cbe1d4d24470f3833e99b8b",
    ),
    "3d": (
        "trace --gamma boussinesq --s 0.5 --seq geometric:r=0.5 --grid 3,2,0.25"
        " --K 16 --num-points 8 --seed 1",
        "15c3fa7aca1ef2733a094b0370da74b03fee0dd0ddf1cf3b1b7aebf1b7e5a423",
        "6809f6a374cd7555445417dc75daecd1178742aaf8109ff662ae56922b28c290",
    ),
}

# sha256 and exit code of the sweep, classifier and propagation commands'
# JSON and CSV output, made by the laws' closed-form inverses (the critical
# radii, and the scan radii of the unshifted families), secant points whose
# phase is within 2**-48 of its target for the shift families (a bisection
# from the table bracket for the others), rate fits summed exactly and rounded
# once, and propagate values summed as the trace's are, over the fold terms
# e^{i theta} * G with phases added coordinate by coordinate; {dir} is the
# directory holding the fields that golden_fields writes
GOLDEN_SWEEPS = {
    "bc-gamma-boussinesq": (
        "bound-check --family gamma --gamma boussinesq --s 0.5 --deltas 1e-2:1e-6 "
        "--per-decade 2",
        0, "575e0e53082c184dfe49bf559ac1e3ce4cb7c7fc4631f5d0823698911c00b0ee",
        0, "cb3e03af8ba4501c8b4303116d9bd7f2a2186ff53400bc75d2307c7f9a6164b7",
    ),
    "bc-gamma-quartic": (
        "bound-check --family gamma --gamma quartic --s 0.75 --deltas 1e-2:1e-6 "
        "--per-decade 2",
        0, "0105631b8fbb4b0c2484bf8c775a70f635a0f5d155ff463916e6cb9c63c8d1b4",
        0, "a76c4797c45f19657c65a07998500fe9799253265ffdeb782d080eb906a69af2",
    ),
    "bc-gamma-shift-boussinesq-0.8": (
        "bound-check --family gamma-shift --gamma boussinesq --s 0.5 --beta 0.8 --deltas "
        "1e-2:1e-6 --per-decade 2",
        2, "ea8b599b86350091eb03a4e3dda394c3c60de7e31d48a479665a50b51321be15",
        2, "e79060f848d3e9c72ae09ffb2a30e5ffe1709acda22f9d6679e371326b3229ab",
    ),
    "bc-gamma-shift-boussinesq-1.5": (
        "bound-check --family gamma-shift --gamma boussinesq --s 0.5 --beta 1.5 --deltas "
        "1e-2:1e-6 --per-decade 2",
        0, "3d04b45da2687025f4cd691ff91e838138a5ccea061d1828a815b6e1b299d4bb",
        0, "a6cfcf1df090beee7d6d7ba013ae4a0aaaf26bf711bd29ba0758d3e0a2cb69ed",
    ),
    "bc-gamma-shift-quartic-0.8": (
        "bound-check --family gamma-shift --gamma quartic --s 0.5 --beta 0.8 --deltas "
        "1e-2:1e-6 --per-decade 2",
        2, "4899c58737cf43ba6c5f890d3920556f9ed48e9ab39adfa8190dbb86f233b6e7",
        2, "249a4f55466c1acf1aa10e0193e8f3f02d1cee399534d9d721583f8b45cd886e",
    ),
    "bc-gamma-shift-quartic-1.5": (
        "bound-check --family gamma-shift --gamma quartic --s 0.5 --beta 1.5 --deltas "
        "1e-2:1e-6 --per-decade 2",
        0, "e3d4ba01ad962264da1d87300691884ae67dc9aad74d35529d641c5691d605a5",
        0, "544516868c5c03dcacb64c3e964e1eae86192d882807c4d8e630b37fe7115fa3",
    ),
    "bc-power-shift-sub": (
        "bound-check --family power-shift --s 0.75 --a 0.5 --beta 1.5 --deltas 1e-2:1e-6 "
        "--per-decade 2",
        2, "442a1ae2c75ca34c570a39db2313414e439de368a0705062cc7d1713565bff43",
        2, "f64106407e80e97b52a940d4925e73cbe3b4eea55895d383dfc6eb3aa0de0319",
    ),
    "bc-power-shift-super": (
        "bound-check --family power-shift --s 1.0 --a 2 --beta 0.8 --deltas 1e-2:1e-6 "
        "--per-decade 2",
        2, "4fb66d769686b16e645b130b7190fd6efcdaca31c02c98517311d8c9755ccb7c",
        2, "a0d7c4040bfbe777c25e20d452635ecca74e09b09b9e7bb899f664670a3b758b",
    ),
    "bc-gamma-linear": (
        "bound-check --family gamma --gamma linear --s 0.5 --deltas 1e-2:1e-6 "
        "--per-decade 2",
        0, "6440ccf4d49c3a4f3cb3cd4581f215e031d09e225985122447aaf0cd1dc87ca7",
        0, "1b1f0372ca22993dc4c6fa472edb61e4ccc62851f6157a617740379060d7302c",
    ),
    "bc-gamma-power2": (
        "bound-check --family gamma-shift --gamma power:a=2 --s 0.5 --beta 1.5 --deltas "
        "1e-2:1e-6 --per-decade 2",
        0, "68c426dbf25024dece554c9823edc480b84d75a7a1c3708ac4aeebdd22ec35bc",
        0, "bfdc1a50f80a291c6d9354f5c57ff533df186dd4e92624333e82c7f277411453",
    ),
    "bc-unsafe-list": (
        "bound-check --family gamma --gamma boussinesq --s 1.5 --deltas "
        "1e-2,3e-3,1e-4,2e-5,1e-6 --unsafe-params",
        0, "d9ef4fb6ac3dbe8d2016ae0cdd58bb6e7aa19f63c34d5c16eecb6adea56d96e3",
        0, "1c94e504d895959ae4cbf515d6e9cf012c67563f8368ffed13205bc01ac20be3",
    ),
    "rf-gamma-boussinesq": (
        "rate-fit --family gamma --gamma boussinesq --s 0.5 --deltas 1e-2:1e-8 "
        "--per-decade 1",
        0, "001b8e16c598efe2e85f3f098f1698624d4bbc588dc162387474f8de97cd883e",
        0, "8f4edaf9fb932dbc7f8dbaf79e2736146067542a3cccee09bab6cd018c2da4e5",
    ),
    "rf-gamma-shift-quartic": (
        "rate-fit --family gamma-shift --gamma quartic --s 0.5 --beta 0.8 --deltas "
        "1e-2:1e-7 --per-decade 1",
        2, "0d310527f9dab9a6ed37512461249f637f6164c65b305da9f48a249d7fb00d1c",
        2, "95af2d59301ac542fb660bfc618a38961000ac04f5ce79ad1d33405503463289",
    ),
    "rf-power-shift": (
        "rate-fit --family power-shift --s 0.75 --a 0.5 --beta 0.8 --deltas 1e-2:1e-8 "
        "--per-decade 1",
        2, "a634df2ed4f37d719061429294bfa215837790d20ea250edec908ce6617f0546",
        2, "3d7186692104272ae5c382a11918e65fb9be73eaf597e1b269e0c13ed36545cd",
    ),
    "sc-gamma-shift-explicit": (
        "seq-check --criterion gamma-shift --gamma quartic --beta 0.8 --s 0.5 --seq "
        + "explicit:" + ",".join(repr(0.5**k) for k in range(1, 25)),
        0, "b3ea1d70d6e613de0db3f2a93c85bd3358240bcc99e617f5d444f5217d097704",
        0, "44ce1dadb4610b208964660c322a6fbab5793853f3298bdf172aa62cfc132f80",
    ),
    "sc-gamma-explicit": (
        "seq-check --criterion gamma --gamma boussinesq --s 0.75 --seq "
        "explicit:0.9,0.5,0.3,0.1,0.05,0.01,0.003,0.001",
        0, "615ed59fc456caaa4cb64aa126ba3597b9e3a3a90db061680864f41c5d8c9c4a",
        0, "640244e6f0d1ad8e09b66b4597eaea14bccf4f05d90468c47914ea30b85f440d",
    ),
    "sc-power-low": (
        "seq-check --criterion power-low --seq power:p=2 --s 0.5 --a 0.5",
        0, "f6dcd3630c308e35e890b0a9a1fd8bce5302171acec9ea771740ff5d82162b68",
        0, "6bbb88c7eb27be0442963b529e1c0878fcf5ab68ce0fe437521d743dbe3f06f7",
    ),
    "prop-beta-2d": (
        "propagate --field {dir}/f2.csv --gamma boussinesq --times 0,0.1,0.5 --beta 1.5 "
        "--mu 1,2 --num-points 4 --seed 3",
        0, "ce4413e710784e908a22754e386c39d4f7c3b916a75b033ef6e6eb8c9bde4056",
        0, "39ca811455a58a0d129a00e67f61295d2ae8d54e5e9f3aace6502ccdb6b8c0c7",
    ),
    "prop-beta-1d": (
        "propagate --field {dir}/f1.csv --a 0.5 --times 0.05,1 --beta 0.8 --num-points 4 "
        "--seed 4",
        0, "7db15b2fdd4b541db7540153c7964035825050c7f0619c14d83f8588b23a743e",
        0, "be0ff4fd65f2a27627146c6098c4b78ca2323425b762dee404e5a3859ade95a6",
    ),
    "prop-plain-2d": (
        "propagate --field {dir}/f2.csv --gamma quartic --times 0.25 --points "
        "0.1,0.2;0.3,-0.4",
        0, "7d2488663c7506fec43106ba2e1b20403d94ce8a82b8c7a04ce0a6f79a9db644",
        0, "e6afd5bf9269a1489230fec3c20492d384330ad046f069487eeba637c4c6e35e",
    ),
    # 4225 modes at 32 points: one time's (point, mode) products exceed a
    # synthesis block, so the points of each time are split over blocks
    "prop-beta-2d-wide": (
        "propagate --field {dir}/f3.csv --gamma quartic --times 0,0.05,0.5 --beta 1.5 "
        "--mu 1,2 --num-points 32 --seed 6",
        0, "a9678fab4d27be56dfe06a64a092266798b36d4d0719bcb0abee8b2f75d9553b",
        0, "976da560951b36b94739555b0752947614d0a8a72afc2939f2a964ca12c099c6",
    ),
    "prop-beta-3d": (
        "propagate --field {dir}/f4.csv --gamma boussinesq --times 0,0.1,0.5 --beta 1.5 "
        "--mu 1,2,2 --num-points 4 --seed 7",
        0, "f8b8489d311ea43451879f6a745cf53bbc69041cca7a4e8e6b8a95e14f19369b",
        0, "11a5910f7757a9a25350a6392bff5cfd800283881ef11e70b9a7e7e33dbe4b2f",
    ),
    # a signed zero and non-finite points: JSON spells the non-finite
    # values NaN, Infinity and -Infinity, CSV writes their repr
    "prop-nonfinite-1d": (
        "propagate --field {dir}/f1.csv --a 0.5 --times 0,0.5 --points nan;-0.0;inf;-inf;1e-05",
        0, "916f67a67f74c703352c302f9cfecb31d229b825a4331ce6bda7e5257bc056a8",
        0, "adb1d698e241b3b7eb49fd369e27fe1c7dd83bef7ff06a749a63d3ad4643c1d2",
    ),
}

#: The laws of the gamma golden cases at 50 digits: gamma, and the power
#: rho with gamma^{-1}(y) ~ y**rho for large y.
MP_LAWS = {
    "linear": (lambda r: r, 1.0),
    "boussinesq": (lambda r: r * mpmath.sqrt(1 + r * r), 0.5),
    "quartic": (lambda r: r**2 + r**4, 0.25),
    "power:a=2": (lambda r: r**2, 0.5),
}


def mp_envelope(law, s, beta, delta):
    """ginv(g(1)/delta)**(-s) * delta**e at 50 digits, with e = beta - 1 in
    the gamma-shift row with beta <= 1 and 0 otherwise; ginv by secant
    steps on gamma(r)/y - 1 from y**rho, not by the law's closed form."""
    gamma, rho = MP_LAWS[law]
    with mpmath.workdps(50):
        delta = mpmath.mpf(delta)
        y = gamma(mpmath.mpf(1)) / delta
        start = y**rho
        r = mpmath.findroot(lambda r: gamma(r) / y - 1, (start, 1.01 * start),
                            tol=mpmath.mpf(10) ** -45)
        e = mpmath.mpf(beta) - 1 if beta is not None and beta <= 1 else 0
        return r ** -mpmath.mpf(s) * delta**e


@pytest.mark.parametrize("name", [
    name for name, (args, *_) in GOLDEN_SWEEPS.items() if "--family gamma" in args
])
def test_golden_gamma_envelopes_against_mpmath(name, capsys):
    """Every envelope a gamma or gamma-shift golden sweep prints is within
    2 ulps of its value at 50 digits."""
    argv = GOLDEN_SWEEPS[name][0].split()

    def flag(name):
        return argv[argv.index(name) + 1] if name in argv else None

    beta = None if flag("--beta") is None else float(flag("--beta"))
    main([*argv, "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    for row in out.get("delta_sweep", out.get("sweep")):
        exact = mp_envelope(flag("--gamma"), float(flag("--s")), beta, row["delta"])
        ulps = abs(mpmath.mpf(row["envelope"]) - exact) / math.ulp(float(exact))
        assert ulps <= 2, (row["delta"], row["envelope"], ulps)


# runs each golden case through the CLI entry point in a fresh interpreter,
# so the BLAS thread count is fixed before numpy loads; all cases of one
# script share that interpreter and the parser main() builds once per
# process, so state leaking from one main() call into the next would change
# a digest; a RuntimeWarning is an error there, since nothing reads stderr
DIGEST_SCRIPT = """
import contextlib, hashlib, io, json, sys
from phaselab.cli import main
digests = {}
for name, args in json.loads(sys.argv[1]).items():
    for fmt in ("json", "csv"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*args.split(), "--format", fmt])
        digests[name + "." + fmt] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
print(json.dumps(digests))
"""


def _cli_digests(cases, threads, coretype):
    """{name.fmt: [exit code, sha256 of stdout]} for each CLI argument string,
    with ``threads`` BLAS threads and OpenBLAS's ``coretype`` kernels (None
    for the kernels it picks for this CPU)."""
    src = str(Path(phaselab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", DIGEST_SCRIPT, json.dumps(cases)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout)


#: BLAS kernels the digests must not depend on: the ones OpenBLAS picks for
#: this CPU, and its Sandybridge kernels (AVX without FMA)
CORETYPES = [pytest.param(None, id="default"), "Sandybridge"]


@pytest.mark.parametrize("coretype", CORETYPES)
@pytest.mark.parametrize("threads", ["1", "2"])
def test_trace_golden_digests(threads, coretype):
    cases = {name: args for name, (args, _, _) in GOLDEN_TRACES.items()}
    want = {}
    for name, (_, json_digest, csv_digest) in GOLDEN_TRACES.items():
        want[name + ".json"] = [0, json_digest]
        want[name + ".csv"] = [0, csv_digest]
    assert _cli_digests(cases, threads, coretype) == want


@pytest.mark.parametrize("threads, coretype", [("1", None), ("2", None), ("1", "Prescott")])
def test_trace_digest_does_not_depend_on_blas(threads, coretype):
    # the trace's products go through BLAS, which only chooses the sums that
    # are computed exactly: a kernel or thread count must not move a byte
    args, json_digest, csv_digest = GOLDEN_TRACES["2d-shift"]
    want = {"2d-shift.json": [0, json_digest], "2d-shift.csv": [0, csv_digest]}
    assert _cli_digests({"2d-shift": args}, threads, coretype) == want


def write_golden_fields(root):
    """Seeded random fields for the propagate cases, written into ``root``:
    65 modes in 1-D, 289 and 4225 in 2-D, 729 in 3-D."""
    write_field_csv(random_field(make_grid(1, 8, 0.25), 11), root / "f1.csv")
    write_field_csv(random_field(make_grid(2, 4, 0.5), 12), root / "f2.csv")
    write_field_csv(random_field(make_grid(2, 8, 0.25), 13), root / "f3.csv")
    write_field_csv(random_field(make_grid(3, 1, 0.25), 14), root / "f4.csv")
    return root


@pytest.fixture(scope="module")
def golden_fields(tmp_path_factory):
    return write_golden_fields(tmp_path_factory.mktemp("fields"))


@pytest.mark.parametrize("coretype", CORETYPES)
@pytest.mark.parametrize("threads", ["1", "2"])
def test_sweep_golden_digests(threads, coretype, golden_fields):
    cases = {
        name: args.format(dir=golden_fields) for name, (args, *_) in GOLDEN_SWEEPS.items()
    }
    want = {}
    for name, (_, json_code, json_digest, csv_code, csv_digest) in GOLDEN_SWEEPS.items():
        want[name + ".json"] = [json_code, json_digest]
        want[name + ".csv"] = [csv_code, csv_digest]
    assert _cli_digests(cases, threads, coretype) == want


def reference_csv_text(header, rows) -> str:
    """The per-cell CSV writer that propagate used before its output was
    built column by column; kept as the reference for ``cli._rows_text``."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(row[h])) for h in header))
    return "\n".join(lines) + "\n"


EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308,
     1e-310, 1e16, 1e-05, 1e22, 1.7976931348623157e308]
)


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 5),
    data=st.data(),
)
def test_rows_text_matches_json_dumps_and_csv_writer(width, data):
    header = [f"c_{i}" for i in range(width)]
    rows = data.draw(
        st.lists(st.lists(st.one_of(EDGE_FLOATS, st.floats()), min_size=width, max_size=width),
                 max_size=6)
    )
    dicts = [dict(zip(header, row)) for row in rows]
    for fmt, want in (("json", json.dumps(dicts, indent=2) + "\n"),
                      ("csv", reference_csv_text(header, dicts))):
        columns = [cli._float_cells([row[i] for row in rows], fmt) for i in range(width)]
        assert cli._rows_text(header, columns, fmt) == want


def print_digest_tables():
    """Print every golden case's current exit codes and digests, in the
    order of the tables' entries, with a * before each case whose entry
    differs; one BLAS thread and the kernels OpenBLAS picks."""
    traces = {name: (args, 0, j, 0, c) for name, (args, j, c) in GOLDEN_TRACES.items()}
    with tempfile.TemporaryDirectory() as directory:
        fields = write_golden_fields(Path(directory))
        for title, table in (("GOLDEN_TRACES", traces), ("GOLDEN_SWEEPS", GOLDEN_SWEEPS)):
            cases = {name: args.format(dir=fields) for name, (args, *_) in table.items()}
            got = _cli_digests(cases, "1", None)
            print(title)
            for name, (_, *want) in table.items():
                now = got[name + ".json"] + got[name + ".csv"]
                mark = " " if now == want else "*"
                print(f'{mark} {name}: {now[0]}, "{now[1]}", {now[2]}, "{now[3]}"')


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_cli.py
    print_digest_tables()
