import bisect
import hashlib
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phaselab import (
    FrequencyGrid,
    GridMismatchError,
    ParameterError,
    SpectralField,
    make_grid,
    random_field,
    read_field_csv,
    sobolev_norm,
    synthesize,
    write_field_csv,
)
from phaselab import BOUSSINESQ, LINEAR, ShiftSpec, evaluate_shifted, power_law, propagation, spectral
from phaselab.convergence import default_points
from phaselab.spectral import csum


def one_mode(grid, xi, c):
    coeffs = np.zeros(grid.num_modes, dtype=complex)
    hits = np.flatnonzero(np.all(grid.modes == np.atleast_1d(xi), axis=1))
    assert hits.size == 1
    coeffs[hits[0]] = c
    return SpectralField(grid, coeffs)


class TestMakeGrid:
    def test_three_point_lattice(self):
        g = make_grid(1, 1, 1)
        assert g.num_modes == 3
        assert g.weight == 1.0
        np.testing.assert_array_equal(g.modes.ravel(), [-1.0, 0.0, 1.0])

    def test_3x3_lattice(self):
        g = make_grid(2, 1, 1)
        assert g.num_modes == 9
        assert g.weight == 1.0

    def test_fine_lattice_count(self):
        g = make_grid(1, 10, 0.25)
        assert g.num_modes == 81
        assert g.weight == 0.25

    def test_symmetric_and_duplicate_free(self):
        g = make_grid(2, 2, 0.5)
        as_tuples = {tuple(m) for m in g.modes}
        assert len(as_tuples) == g.num_modes
        for m in g.modes:
            assert tuple(-m) in as_tuples

    def test_lexicographic_order(self):
        g = make_grid(2, 1, 1)
        rows = [tuple(m) for m in g.modes]
        assert rows == sorted(rows)

    @pytest.mark.parametrize(
        "args",
        [(0, 1, 1), (4, 1, 1), (1, -1, 1), (1, 1, 0), (1, 1, 2), (1, 0, 0.5), (1, 1e300, 1e-300)],
    )
    def test_invalid_parameters(self, args):
        with pytest.raises(ParameterError):
            make_grid(*args)

    def test_the_grid_checks_its_parameters_at_construction(self):
        with pytest.raises(ParameterError, match="xi_max must be positive"):
            FrequencyGrid(2, -1.0, 0.5)


class TestSobolevNorm:
    def test_zero_mode_any_s(self):
        g = make_grid(1, 1, 1)
        f = one_mode(g, [0.0], 3.0 - 4.0j)
        for s in (0.0, 0.5, 1.0, 2.0):
            assert sobolev_norm(f, s) == pytest.approx(5.0, rel=1e-15)

    def test_weight_at_radius_sqrt3(self):
        # |xi|^2 = 3 with unit coefficient and s=1 gives (1+3)^(1/2) = 2
        g = make_grid(3, 1, 1)
        f = one_mode(g, [1.0, 1.0, 1.0], 1.0)
        assert sobolev_norm(f, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_gaussian_profile_matches_refined_quadrature(self):
        # oracle: the same weighted sum on a 10x finer lattice
        dxi = 2.0**-6
        g = make_grid(1, 8, dxi)
        f = SpectralField(g, np.exp(-g.modes[:, 0] ** 2))
        value = sobolev_norm(f, 0.5)

        g10 = make_grid(1, 8, dxi / 10)
        xi = g10.modes[:, 0]
        oracle = math.sqrt(
            math.fsum((1 + xi**2) ** 0.5 * np.exp(-2 * xi**2)) * g10.weight
        )
        assert abs(value - oracle) <= 1e-6 * oracle

    def test_plancherel_is_the_fixed_order_reduction(self):
        rng = np.random.default_rng(11)
        g = make_grid(1, 4, 0.5)
        f = random_field(g, rng)
        c = f.coefficients
        expected = math.sqrt(
            math.fsum((c.real * c.real + c.imag * c.imag) * (1.0 + g.radii**2) ** 0.0)
            * g.weight
        )
        assert sobolev_norm(f, 0.0) == expected  # bitwise

    def test_sum_past_the_double_range_is_infinite(self):
        # 3e308 overflows a partial sum of math.fsum; the terms are
        # nonnegative, so the norm is +inf rather than an OverflowError
        f = SpectralField(make_grid(1, 1, 1), [1e154, 1e154, 1e154])
        assert sobolev_norm(f, 0.0) == math.inf

    def test_zero_iff_zero_field(self):
        g = make_grid(1, 2, 1)
        assert sobolev_norm(SpectralField(g, np.zeros(5)), 0.7) == 0.0
        f = one_mode(g, [2.0], 1e-30)
        assert sobolev_norm(f, 0.7) > 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
            min_size=5,
            max_size=5,
        ),
        s_pair=st.tuples(st.floats(-2, 3), st.floats(-2, 3)),
    )
    def test_monotone_in_s(self, values, s_pair):
        g = make_grid(1, 2, 1)
        f = SpectralField(g, np.asarray(values))
        s1, s2 = min(s_pair), max(s_pair)
        assert sobolev_norm(f, s1) <= sobolev_norm(f, s2) * (1 + 1e-12)


class TestSynthesize:
    @pytest.mark.parametrize("grid_args", [(1, 2, 0.5), (2, 1, 0.5), (3, 1, 1)])
    def test_zero_field_samples_to_positive_zero(self, grid_args):
        # every product is a signed zero, so every block has no live row
        g = make_grid(*grid_args)
        pts = np.vstack([default_points(g.n, 8), np.zeros(g.n), np.full(g.n, -0.0)])
        got = synthesize(SpectralField(g, np.zeros(g.num_modes)), pts)
        np.testing.assert_array_equal(got.view(np.int64), 0)

    def test_single_mode_at_origin(self):
        g = make_grid(1, 3, 1)
        f = one_mode(g, [2.0], 1.5 + 0.5j)
        assert synthesize(f, 0.0) == pytest.approx((1.5 + 0.5j) / (2 * math.pi), rel=1e-15)

    def test_unit_phase(self):
        g = make_grid(1, 1, 1)
        f = one_mode(g, [1.0], 1.0)
        assert synthesize(f, math.pi) == pytest.approx(-1.0 / (2 * math.pi), abs=1e-15)

    def test_conjugate_pair_is_cosine(self):
        g = make_grid(1, 1, 1)
        coeffs = np.array([0.5, 0.0, 0.5], dtype=complex)
        f = SpectralField(g, coeffs)
        rng = np.random.default_rng(5)
        for x in rng.uniform(-10, 10, size=100):
            want = math.cos(x) / (2 * math.pi)  # direct trigonometric oracle
            got = synthesize(f, x)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(17)
        g = make_grid(1, 4, 0.5)
        f, h = random_field(g, rng), random_field(g, rng)
        alpha, beta = 1.3 - 0.2j, -0.7 + 2.1j
        combo = SpectralField(g, alpha * f.coefficients + beta * h.coefficients)
        for x in rng.uniform(-3, 3, size=10):
            lhs = synthesize(combo, x)
            rhs = alpha * synthesize(f, x) + beta * synthesize(h, x)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_zero_field(self):
        g = make_grid(2, 1, 1)
        assert synthesize(SpectralField(g, np.zeros(9)), [0.4, -0.2]) == 0

    @pytest.mark.parametrize("case", ["1d-constant", "2d-random"])
    def test_a_field_near_the_double_range_samples_as_evaluate_shifted(self, case):
        # the field enters its waves scaled by one power of two, as it does in
        # evaluate_shifted, which at t = 0 with mu touching every axis folds
        # nothing and sums the same terms: bit for bit the same, finite
        if case == "1d-constant":
            f, pts, mu = SpectralField(make_grid(1, 8, 0.125), np.full(129, 1e307)), 0.0, [1.0]
        else:
            g = make_grid(2, 16, 0.25)
            f = SpectralField(g, random_field(g, 0).coefficients * 1e306)
            pts, mu = default_points(2, 7, 0), [0.6, 0.8]
        got = np.atleast_1d(synthesize(f, pts))
        want = np.atleast_1d(evaluate_shifted(f, LINEAR, 0.0, ShiftSpec(1.0, np.array(mu)), pts))
        assert np.isfinite(got.view(float)).all()
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        if case == "1d-constant":
            assert got[0] == 2.5663734573568123e307


def exact_sum(values):
    """The double nearest the exact sum of doubles, ties to even.

    mpmath works at 700 digits (about 2300 bits): every double is an
    integer multiple of 2**-1074 below 2**1024, so a sum of fewer than
    2**100 of them is exact at that precision and is rounded only once.
    """
    with mpmath.workdps(700):
        total = mpmath.fsum([mpmath.mpf(v) for v in np.asarray(values, dtype=float).tolist()])
    return mpmath.libmp.to_float(total._mpf_, rnd=mpmath.libmp.round_nearest)


def oracle_field(grid, seed):
    """Random coefficients spread over 16 decades, so the sums cancel deeply."""
    rng = np.random.default_rng(seed)
    coeffs = random_field(grid, rng).coefficients * 10.0 ** rng.uniform(-8, 8, grid.num_modes)
    return SpectralField(grid, coeffs)


class _RecordingMath:
    """``math`` as the spectral module sees it, with every fsum call recorded."""

    def __init__(self):
        self.calls = []

    def fsum(self, values):
        values = list(values)
        total = math.fsum(values)
        self.calls.append((values, total))
        return total

    def __getattr__(self, name):
        return getattr(math, name)


class TestReductionsAgainstMpmath:
    """The exactly-rounded sums equal an mpmath oracle before any scaling."""

    @pytest.mark.parametrize("grid_args", [(1, 8, 0.125), (2, 4, 0.25), (3, 1, 0.25)])
    @pytest.mark.parametrize("s", [0.0, 0.75, -1.5])
    def test_sobolev_norm(self, grid_args, s, monkeypatch):
        g = make_grid(*grid_args)
        f = oracle_field(g, 61)
        rec = _RecordingMath()
        monkeypatch.setattr(spectral, "math", rec)
        norm = sobolev_norm(f, s)
        c = f.coefficients
        terms = (c.real * c.real + c.imag * c.imag) * (1.0 + g.radii**2) ** s
        [(seen, total)] = rec.calls
        np.testing.assert_array_equal(np.array(seen).view(np.int64), terms.view(np.int64))
        assert total == exact_sum(terms)
        assert norm == math.sqrt(total * g.weight)

    @pytest.mark.parametrize("grid_args", [(1, 8, 0.125), (2, 4, 0.25)])
    @pytest.mark.parametrize("num_points", [None, 1, 5])
    @pytest.mark.parametrize("rows_per_block", [None, 2])
    def test_synthesize(self, grid_args, num_points, rows_per_block, monkeypatch):
        g = make_grid(*grid_args)
        f = oracle_field(g, 62)
        # one bare point, or a (P, n) array of points
        x = default_points(g.n, num_points or 1, 5)
        if num_points is None:
            x = x[0]
        if rows_per_block is not None:
            nbytes = block_bytes(g, len(np.atleast_2d(x)), rows_per_block)
            monkeypatch.setattr(spectral, "BLOCK_BYTES", nbytes)
        batches = []

        def recording_certify(high, *args, **kwargs):
            ok = certify(high, *args, **kwargs)
            batches.append(high.copy())
            return ok

        certify = spectral._certify_sums
        monkeypatch.setattr(spectral, "_certify_sums", recording_certify)
        got = np.atleast_1d(synthesize(f, x))
        # the certify step writes the fsum of each sum it refuses into its
        # high sums before it returns, and the result is scaled only after
        # every batch, so each recorded batch holds its final sums of the
        # field scaled by 2**-e, e = e_F + 1 for max_j |Re f_j| + |Im f_j| < 2**e_F
        sums = [v for r in batches for v in r.tolist()]
        scale = g.weight / (2.0 * math.pi) ** g.n
        e = math.frexp(np.max(np.abs(f.coefficients.real) + np.abs(f.coefficients.imag)))[1] + 1
        assert len(sums) == len(got)
        for p, point in enumerate(np.atleast_2d(x)):
            # f times e^{i x_d xi_d} axis by axis, the last first (``_fold_waves``)
            z = f.coefficients
            for d in reversed(range(g.n)):
                z = z * np.exp(1j * (point[d] * g.modes[:, d]))
            want = complex(exact_sum(z.real), exact_sum(z.imag))
            assert sums[p] * 2.0**e == want
            assert csum(z) == want  # the 1-D path of csum
            assert got[p] == want * scale


class TestWaveSumsFallback:
    """A refused sum's products are formed again on their own, and its
    refused planes equal the ``math.fsum`` of the products, bit for bit."""

    def assert_wave_sums_are_fsum(self, grid, pts, coeffs, monkeypatch):
        """Run ``_wave_sums`` on the rows of ``coeffs`` at ``pts`` and return
        the number of fsum calls it made."""
        before = coeffs.copy()
        rec = _RecordingMath()
        monkeypatch.setattr(spectral, "math", rec)
        got = unit_wave_sums(grid, pts, len(coeffs), rows_of(coeffs))
        want = np.empty((len(coeffs), len(pts)), dtype=complex)
        for i, c in enumerate(coeffs):
            for p, point in enumerate(pts):
                phase = point[0] * grid.modes[:, 0]
                for a in range(1, grid.n):
                    phase = phase + point[a] * grid.modes[:, a]
                z = c * np.exp(1j * phase)
                want[i, p] = complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist()))
        want *= grid.weight / (2.0 * math.pi) ** grid.n
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        np.testing.assert_array_equal(coeffs.view(np.int64), before.view(np.int64))
        return len(rec.calls)

    def test_zero_field(self, monkeypatch):
        g = make_grid(2, 1, 1)
        pts = default_points(2, 3)
        # every row is dead, so both planes of each (row, point) go to fsum
        coeffs = np.zeros((2, g.num_modes), dtype=complex)
        assert self.assert_wave_sums_are_fsum(g, pts, coeffs, monkeypatch) == 12

    def test_midpoint_row(self, monkeypatch):
        g = make_grid(1, 1, 1)
        coeffs = np.array([[1.0, 2.0**-53, 0.0]], dtype=complex)
        # at x = 0 the real sum is the midpoint 1 + 2**-53 and the imaginary
        # one is zero: both are refused, and the row at x = 1 is certified
        pts = np.array([[0.0], [1.0]])
        assert self.assert_wave_sums_are_fsum(g, pts, coeffs, monkeypatch) == 2

    def test_exact_tie_with_an_exact_low_sum_is_certified(self, monkeypatch):
        # (2**51 - 0.25) + (2**51 - 0.5) is the midpoint 2**52 - 0.75, which
        # the bound refuses; scaled by 2**-2 every term is at least 2**(L-2)
        # = 1, so the low sum is exact and r, rounded ties to even, is the
        # exactly rounded sum.  Only the zero imaginary plane goes to fsum,
        # and a wave sum of the same terms (x = 0, every wave 1) agrees
        rec = _RecordingMath()
        monkeypatch.setattr(spectral, "math", rec)
        values = np.array([2.0**51 - 0.25, 2.0**51 - 0.5])
        assert csum(values) == math.fsum(values.tolist()) == 2.0**52 - 1
        assert [values for values, _ in rec.calls] == [[0.0, 0.0]]
        rows = np.array([[values[0], values[1], 0.0]], dtype=complex)
        got = spectral._wave_sums(np.ones((1, 3), dtype=complex), (1.0, 0), 1, rows_of(rows))
        assert got[0, 0] == 2.0**52 - 1 and len(rec.calls) == 2

    def test_ragged_last_block(self, monkeypatch):
        g = make_grid(1, 2, 0.5)
        rng = np.random.default_rng(12)
        coeffs = complex_rows(*rng.standard_normal((2, 5, g.num_modes)))
        coeffs[4] = 0.0
        coeffs[4, [2, 6]] = [1.0, 2.0**-53]  # a midpoint row at x = 0
        pts = np.array([[0.7], [0.0], [-1.3]])
        # 7 (row, point) sums per block: 2 rows of 3 points, so the rows
        # come in blocks of 2, 2 and 1
        monkeypatch.setattr(spectral, "BLOCK_BYTES", block_bytes(g, 3, 7))
        assert self.assert_wave_sums_are_fsum(g, pts, coeffs, monkeypatch) >= 2


class TestScaledRows:
    """Rows at the edges of the scaled kernel: every (row, point) sum equals
    the ``math.fsum`` of its products formed unscaled, bit for bit."""

    def fsum_calls(self, grid, pts, coeffs, monkeypatch):
        return TestWaveSumsFallback().assert_wave_sums_are_fsum(grid, pts, coeffs, monkeypatch)

    def test_tiny_part_beside_one(self, monkeypatch):
        # a row spanning 1,000 binades: its tiny parts' products are all low part
        g = make_grid(1, 2, 0.5)
        rng = np.random.default_rng(51)
        coeffs = complex_rows(*rng.standard_normal((2, 4, g.num_modes)))
        coeffs[0, 3] = complex(1.0, 1e-300)
        coeffs[1, :] = 1e-300
        coeffs[1, 5] = 1.0j
        coeffs[2, ::2] *= 1e-300
        pts = np.vstack([default_points(1, 6, 9), [[0.0], [math.pi]]])
        self.fsum_calls(g, pts, coeffs, monkeypatch)

    def test_subnormal_sines(self, monkeypatch):
        # at x = 1e-310 every sine is subnormal and every cosine 1, so the
        # products b * sin underflow unscaled but not scaled; x = 2**-1000
        # gives sines just above the subnormal range
        g = make_grid(1, 2, 0.5)
        rng = np.random.default_rng(52)
        coeffs = complex_rows(*rng.standard_normal((2, 5, g.num_modes)))
        coeffs[1] *= 2.0**-900
        coeffs[2] *= 2.0**-955
        coeffs[3].imag *= 2.0**-60
        coeffs[4] *= 2.0**1000
        pts = np.array([[1e-310], [-1e-310], [5e-324], [2.0**-1000]])
        waves = unit_waves(g, pts)
        assert np.all(np.abs(waves[:3, g.num_modes // 2 + 1 :].imag) < 2.0**-1022)
        self.fsum_calls(g, pts, coeffs, monkeypatch)

    def test_peaks_at_the_live_thresholds(self, monkeypatch):
        # twice the peak at 2**-960 (the floor) and 2**(1023 - L) (the
        # ceiling), and their neighbouring doubles: live on one side, dead on
        # the other, and the same sums on both
        g = make_grid(1, 2, 0.5)
        levels = (g.num_modes + 1).bit_length()
        rng = np.random.default_rng(53)
        base = rng.uniform(-0.5, 0.5, (2, g.num_modes))
        rows = []
        for edge in (2.0**-961, 2.0 ** (1022 - levels)):
            for peak in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)):
                re, im = base * (2.0 * peak)
                re[3], im[6] = peak, -peak
                rows.append(complex_rows(re, im))
        pts = np.vstack([default_points(1, 5, 10), [[0.0]]])
        self.fsum_calls(g, pts, np.array(rows), monkeypatch)

    def test_row_cancelling_to_a_subnormal_sum(self, monkeypatch):
        # at x = 0 the products are the coefficients, and they cancel to
        # 3 * 2**-1074 and -2**-1030 + 2**-1074
        g = make_grid(1, 1, 1)
        coeffs = np.array([
            [1.0, -1.0, 3 * 5e-324],
            [complex(2.0**-900, 2.0**-1030), complex(-(2.0**-900), -(2.0**-1029)), 5e-324j],
        ])
        assert self.fsum_calls(g, np.array([[0.0]]), coeffs, monkeypatch) >= 2

    def test_subnormal_product_decides_a_midpoint(self, monkeypatch):
        # at x = 2**-93 the waves are (1, -+2**-93) and (1, 0).  b1 * 2**-93 =
        # 2**-1023 + 2**-1075 is a tie on the subnormal grid and rounds to
        # 2**-1023, so the unscaled product's real part A - 2**-1023 is a tie
        # too and rounds to A (even); scaled, both roundings are in the normal
        # range and give A - 2**-1022.  The real sum a0 + 2**-983 is a midpoint
        # between a0 (odd) and its successor, so the scaled products sum to
        # a0 and the unscaled ones to the successor: only the bound's
        # subnormal term refuses the scaled sum
        g = make_grid(1, 1, 1)
        big = 2.0**-930 * (1.0 + 2.0**-52)
        a = 2.0**-970 + 2.0**-1021
        coeffs = np.array([[2.0**-983 - a, big, complex(a, big)]])
        assert self.fsum_calls(g, np.array([[2.0**-93]]), coeffs, monkeypatch) >= 1
        norm = g.weight / (2.0 * math.pi)
        got = unit_wave_sums(g, np.array([[2.0**-93]]), 1, rows_of(coeffs))[0, 0]
        assert got.real == float.fromhex("0x1.0000000000002p-930") * norm

    def test_one_point_geometric_block(self, monkeypatch):
        # a geometric trace at one point: 61 rows 2**-k apart, k up to 60, in
        # one block; each row has its own scale, so none takes the fallback
        g = spectral.default_grid()
        f = random_field(g, np.random.default_rng(54))
        c = (np.exp(0.01j * np.sqrt(g.radii)) - 1.0) * f.coefficients
        coeffs = c * np.ldexp(1.0, -np.arange(61))[:, None]
        assert self.fsum_calls(g, np.array([[0.5]]), coeffs, monkeypatch) == 0


def block_bytes(grid, num_pts, sums):
    """A ``BLOCK_BYTES`` whose ``_wave_sums`` blocks of ``grid.num_modes`` terms
    (a lattice's, or a fold's for the folded waves) at ``num_pts`` points
    hold at most ``sums`` (row, point) sums: one row of ``sums`` points when
    that is fewer than all, else sums // num_pts rows of every point."""
    pts = min(num_pts, sums)
    return 24 * grid.num_modes * pts if pts < num_pts else 32 * grid.num_modes * pts * (sums // pts)


def unit_waves(grid, pts):
    """The (P, M) unit plane waves e^{i x.xi_j} of the points on the whole lattice."""
    return np.exp(1j * spectral._dot(pts[:, None, :], grid.modes))


def unit_wave_sums(grid, pts, num_rows, fill):
    """``_wave_sums`` of the rows ``fill`` writes, on the whole lattice, with the
    unit waves of ``pts`` and the synthesis scale."""
    waves = unit_waves(grid, pts)
    return spectral._wave_sums(waves, (grid.synthesis_scale, 0), num_rows, fill)


def rows_of(coeffs):
    """The ``_wave_sums`` row source that copies the rows of ``coeffs``."""
    return lambda i, out: np.copyto(out, coeffs[i : i + len(out)])


def scaled_copies(c, num_rows):
    """The ``_wave_sums`` row source of row k = c * (1 + k/num_rows), formed in place."""

    def fill(i, out):
        for k, row in enumerate(out, i):
            np.multiply(c, 1.0 + k / num_rows, out=row)

    return fill


def traced_wave_sums(grid, num_rows):
    """``_wave_sums`` of ``num_rows`` scaled copies of a random field at 32
    default points, traced: (sums, bytes of the waves, bytes of one
    product block, traced peak beyond what was held before the call)."""
    pts = default_points(grid.n, 32)
    c = random_field(grid, 1).coefficients
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sums = unit_wave_sums(grid, pts, num_rows, scaled_copies(c, num_rows))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sums.nbytes == 16 * num_rows * len(pts)
    # a block of r rows at p points: 48*M*p bytes of waves and one row's
    # products and split, 32*M*p*r of r rows' products and split, and more
    # than one row only with every point
    p = min(len(pts), spectral.BLOCK_BYTES // (24 * grid.num_modes))
    r = max(1, spectral.BLOCK_BYTES // (32 * grid.num_modes * p)) if p == len(pts) else 1
    return sums, 16 * len(pts) * grid.num_modes, 16 * grid.num_modes * r * p, peak


def certified_windows(monkeypatch, grid, pts, num_rows, fill):
    """Run ``_wave_sums`` and return its ``_certify_sums`` calls in order, as
    (sums certified, the (first row, row count) batches filled since the
    call before), checking that the calls cover the rows in order, whole."""
    calls, batches = [], []

    def recording_fill(i, out):
        batches.append((i, len(out)))
        fill(i, out)

    def recording_certify(high, *args):
        calls.append((len(high), batches[:]))
        ok = certify(high, *args)
        batches.clear()  # the rows of refused sums, filled again alone
        return ok

    certify = spectral._certify_sums
    monkeypatch.setattr(spectral, "_certify_sums", recording_certify)
    unit_wave_sums(grid, pts, num_rows, recording_fill)
    monkeypatch.setattr(spectral, "_certify_sums", certify)
    assert not batches
    end = 0
    for sums, filled in calls:
        start = end
        for i, n in filled:
            assert i == end
            end += n
        assert sums == (end - start) * len(pts)
    assert end == num_rows
    return calls


class TestWaveSumsBatches:
    """``_wave_sums`` splits once per block and certifies a window of whole
    row batches at a time: the fewest that hold ``BLOCK_BYTES >> 10`` sums."""

    def test_bits_do_not_depend_on_blocks_or_batches(self, monkeypatch):
        g = make_grid(1, 16, 0.125)
        rng = np.random.default_rng(31)
        coeffs = complex_rows(*rng.standard_normal((2, 20, g.num_modes)))
        coeffs[11] = 0.0
        coeffs[11, [128, 130]] = [1.0, 2.0**-53]  # a midpoint row at x = 0
        pts = np.array([[0.7], [0.0], [-1.3]])
        want = unit_wave_sums(g, pts, len(coeffs), rows_of(coeffs))
        for rows_per_block in (1, 2, 7):
            monkeypatch.setattr(spectral, "BLOCK_BYTES", block_bytes(g, 3, rows_per_block))
            batches = []

            def recording_certify(high, *args):
                ok = certify(high, *args)
                batches.append((len(high), ok.all()))
                return ok

            certify = spectral._certify_sums
            monkeypatch.setattr(spectral, "_certify_sums", recording_certify)
            fallback = TestWaveSumsFallback()
            assert fallback.assert_wave_sums_are_fsum(g, pts, coeffs, monkeypatch) >= 2
            got = unit_wave_sums(g, pts, len(coeffs), rows_of(coeffs))
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            batch = spectral.BLOCK_BYTES >> 10
            sizes = [size for size, _ in batches[len(batches) // 2 :]]
            ends = np.cumsum(sizes).tolist()
            assert ends[-1] == 60
            # the midpoint row's sums are 33-35 in row-major order, and all
            # three are refused
            refused = [i for i, (_, ok) in enumerate(batches[len(batches) // 2 :]) if not ok]
            assert refused == sorted({bisect.bisect(ends, j) for j in (33, 34, 35)})
            monkeypatch.setattr(spectral, "_certify_sums", certify)
        # at 7 rows a block holds 2 rows of 3 points, a batch is one block,
        # and a window the 8 batches that reach 48 sums: it ends with the
        # blocks of sums 42-47 and, the last, 54-59; the midpoint row's sums
        # are refused in the first
        assert (batch, sizes, refused) == (48, [48, 12], [0])

    @pytest.mark.parametrize("rows_per_block", [1, 2, 7])
    def test_batches_end_at_block_ends(self, rows_per_block, monkeypatch):
        # 20 rows at 3 points; blocks of 1 sum, of 2 and 1 sums, and of 6
        g = make_grid(1, 16, 0.125)
        coeffs = complex_rows(*np.random.default_rng(32).standard_normal((2, 20, g.num_modes)))
        pts = np.array([[0.7], [0.0], [-1.3]])
        monkeypatch.setattr(spectral, "BLOCK_BYTES", block_bytes(g, 3, rows_per_block))
        calls = []  # (step, number of sums) of each call, in call order
        for name in ("_split_sums", "_certify_sums"):

            def recording(sums, *args, name=name, step=getattr(spectral, name)):
                calls.append((name, len(sums)))
                return step(sums, *args)

            monkeypatch.setattr(spectral, name, recording)
        unit_wave_sums(g, pts, len(coeffs), rows_of(coeffs))
        batch = spectral.BLOCK_BYTES >> 10
        # the blocks split before each certify call, which must certify
        # exactly their sums: so it starts and ends at block boundaries, and
        # a window of whole batches of whole blocks ends with the block that
        # brings it to 6, 12 or 30 sums
        covered, blocks = [], []
        for name, n in calls:
            if name == "_split_sums":
                blocks.append(n)
            else:
                assert n == sum(blocks)
                covered.append(blocks)
                blocks = []
        assert not blocks and sum(map(sum, covered)) == 60
        for blocks in covered[:-1]:
            assert batch <= sum(blocks) < batch + blocks[-1]

    @pytest.mark.parametrize("width", [1, 7, 1025, 16641])
    def test_product_formed_alone_matches_its_block(self, width):
        rng = np.random.default_rng(width)
        rows = complex_rows(*rng.standard_normal((2, 3, width)))
        waves = np.exp(1j * rng.uniform(-50.0, 50.0, (5, width)))
        # a block written into a larger buffer, as ``_wave_sums`` does
        buf = np.empty(4 * 5 * width, dtype=complex)
        block = spectral._products(rows, waves, out=buf[: 3 * 5 * width].reshape(3, 5, width))
        for i in range(3):
            for p in range(5):
                alone = spectral._products(rows[i][None], waves[p : p + 1])
                np.testing.assert_array_equal(alone[0, 0].view(np.int64), block[i, p].view(np.int64))

    def test_certify_step_runs_once_per_window(self, monkeypatch):
        # 512 rows of trace-1d's 1,025 lattice modes (its own rows have the
        # fold's 513 terms): batches of 7 rows of 32 points (224 sums), and
        # windows of the 5 batches that reach 1,024 sums, 35 rows: 14 of them
        # and the last 22 rows, batches of 7, 7, 7 and 1
        g = spectral.default_grid()
        c = random_field(g, 1).coefficients
        calls = certified_windows(monkeypatch, g, default_points(1, 32), 512, scaled_copies(c, 512))
        assert g.num_modes == 1025
        assert [sum(n for _, n in batches) for _, batches in calls] == [35] * 14 + [22]
        assert [len(batches) for _, batches in calls] == [5] * 14 + [4]
        assert all(n == 7 for _, batches in calls for _, n in batches[:-1])

    @pytest.mark.parametrize("num_pts, batch_rows", [(3, 2184), (300, 21), (2000, 3)])
    def test_windows_hold_whole_batches_and_few_sums(self, num_pts, batch_rows, monkeypatch):
        # 5 modes: a block holds thousands of sums (2184 rows of 3 points, 21
        # rows of 300 or 3 rows of 2,000), more than the 1,024 a batch holds
        # otherwise, so a batch is one block and a window one batch; a
        # window never holds more than 2,048 sums or one batch
        g = make_grid(1, 2, 1)
        c = random_field(g, 1).coefficients
        calls = certified_windows(monkeypatch, g, default_points(1, num_pts), 100, scaled_copies(c, 100))
        assert g.num_modes == 5
        for sums, batches in calls:
            assert [n for _, n in batches] == [min(batch_rows, 100 - batches[0][0])]
            assert sums <= max(2048, batch_rows * num_pts)
        assert len(calls) == math.ceil(100 / batch_rows)

    @pytest.mark.parametrize("num_pts, num_rows", [(1, 1200), (3, 400), (31, 80), (700, 5)])
    def test_windows_reach_the_sum_count_with_fewest_batches(self, num_pts, num_rows, monkeypatch):
        # 1,025 modes, where a batch (31, 10, 7 or 1 rows) holds under 1,024
        # sums: every window but the last is the fewest batches that reach
        # 1,024 sums, so fewer than 2,048
        g = spectral.default_grid()
        c = random_field(g, 1).coefficients
        pts = default_points(1, num_pts)
        calls = certified_windows(monkeypatch, g, pts, num_rows, scaled_copies(c, num_rows))
        assert len(calls) >= 2
        for sums, batches in calls[:-1]:
            assert sums - batches[-1][1] * num_pts < 1024 <= sums < 2048
        assert calls[-1][0] < 2048

    @pytest.mark.parametrize("num_pts, r_step", [(1, 31), (2, 15)])
    def test_multi_row_blocks(self, num_pts, r_step, monkeypatch):
        # at 1,025 modes a block holds 31 rows of one point or 15 rows of
        # two, a batch is one block, and one window holds every row; a sum
        # refused in the middle of a window is formed again from its own row
        # alone, as math.fsum of its products, and every sum is the csum of
        # its row's products
        g = spectral.default_grid()
        pts = default_points(1, num_pts, 5)
        k = np.arange(150)[:, None]
        coeffs = random_field(g, 55).coefficients * np.ldexp(1.0 + k / 150, -(k % 61))
        forced = 100 * num_pts + num_pts - 1  # row 100, at its last point
        fills, certified = [], []

        def fill(i, out):
            fills.append((i, len(out)))
            np.copyto(out, coeffs[i : i + len(out)])

        def refusing_certify(high, low, bound, scale, terms):
            certified.append(len(high))
            bound = bound.copy()
            bound[forced] = math.inf
            return certify(high, low, bound, scale, terms)

        waves = unit_waves(g, pts)
        norm = g.weight / (2.0 * math.pi)
        want = np.array([[csum(spectral._products(row[None], waves[p : p + 1])[0, 0])
                          for p in range(num_pts)] for row in coeffs]) * norm
        certify = spectral._certify_sums
        monkeypatch.setattr(spectral, "_certify_sums", refusing_certify)
        rec = _RecordingMath()
        monkeypatch.setattr(spectral, "math", rec)
        got = unit_wave_sums(g, pts, len(coeffs), fill)
        starts = list(range(0, 150, r_step))
        assert fills == [(i, min(r_step, 150 - i)) for i in starts] + [(100, 1)]
        assert certified == [150 * num_pts]  # one window: the refused sum is mid-window
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        product = spectral._products(coeffs[100][None], waves[num_pts - 1 :])[0, 0]
        planes = [product.real.tolist(), product.imag.tolist()]
        assert [values for values, _ in rec.calls[-2:]] == planes
        fsummed = complex(math.fsum(planes[0]), math.fsum(planes[1])) * norm
        assert got[100, num_pts - 1] == fsummed

    def test_deferred_state_does_not_grow_with_the_sums(self):
        # K = 2048 rows at 32 points: beyond the result and the waves, the
        # peak is the block and its split buffer plus at most 256 KB (about
        # 200 KB, the same at K = 512 and 8192: a batch of 7 rows, the window
        # buffers, a window's certify temporaries and a refused plane's
        # copy); deferring every low sum and bound would add 1.5 MB
        g = spectral.default_grid()
        num_rows = 2048
        sums, waves, block, peak = traced_wave_sums(g, num_rows)
        assert block == 16 * 32 * g.num_modes  # 32 points of one row
        assert peak - sums.nbytes - waves <= 2 * block + 256 * 1024

    def test_forming_the_folded_waves_holds_no_lattice_table(self):
        # trace-2d-shift's shape: 16,641 modes folded to 8,385 by mu = e_1, at
        # 32 points.  The folded waves G are formed 3 points at a time
        # (BLOCK_BYTES // (16 M)), the second axis first, so beyond G itself
        # the peak is the scaled field, a chunk's products on the kept half
        # of that axis and its mirrored products: about 1.1 MB, under one and
        # a half chunks (1.2 MB), where a (P, M) table of unit waves would
        # hold 8.5 MB
        g = make_grid(2, 16, 0.25)
        g.modes, g.radii  # built before tracing, as make_grid built them eagerly
        f = random_field(g, 3)
        fold = propagation._fold(g, BOUSSINESQ, ShiftSpec(beta=1.5, mu=np.array([1.0, 0.0])))
        pts = default_points(g.n, 32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            waves, unscale = spectral._fold_waves(f, pts, fold)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        chunk = 16 * g.num_modes * (spectral.BLOCK_BYTES // (16 * g.num_modes))
        assert waves.shape == (32, 8385) and chunk == 16 * g.num_modes * 3
        assert peak - waves.nbytes <= 3 * chunk // 2
        assert peak < 16 * len(pts) * g.num_modes

    def test_the_kernel_does_not_set_the_2d_peak(self):
        # trace-2d-shift's kernel shape: 32 rows of the fold's F = 8,385 terms
        # at 32 points, 5 (row, point) products a block.  Beyond the result
        # and the waves, formed before the call, the peak is the block, its
        # split buffer, two rows' worth of terms (a batch of one row and a
        # refused plane's copy) and 256 KB
        width, num_rows = 8385, 32
        rng = np.random.default_rng(width)
        waves = np.exp(1j * rng.uniform(-50.0, 50.0, (32, width)))
        c = complex_rows(*rng.standard_normal((2, width)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sums = spectral._wave_sums(waves, (1.0, 0), num_rows, scaled_copies(c, num_rows))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        block = 16 * width * 5
        assert 48 * width * 5 <= 2 * spectral.BLOCK_BYTES < 48 * width * 6
        assert peak - sums.nbytes <= 2 * block + 2 * (16 * width) + 256 * 1024

    @pytest.mark.parametrize("width, num_pts, num_rows, shape", [
        (513, 32, 4, (1, 32)),  # trace-1d's fold of 1,025 modes: 2 rows hold 1.05 MB
        (561, 32, 4, (1, 32)),  # field-roundtrip's fold of 1,089 modes (mu = e_1)
        (8385, 32, 1, (1, 5)),  # trace-2d-shift's fold of 16,641 modes: 6 points take 2.4 MB
        (1025, 32, 2, (1, 32)),  # synthesize on trace-1d's lattice
        (1089, 32, 2, (1, 32)),
        (16641, 32, 1, (1, 2)),  # 3 points would take 2.4 MB
        (1025, 1, 64, (31, 1)),
        (1025, 2, 32, (15, 2)),
    ])
    def test_blocks_are_the_largest_whose_working_set_fits(
        self, width, num_pts, num_rows, shape, monkeypatch
    ):
        # a block of r rows at p points reads p waves and holds r*p products
        # and their split: p waves and one row's products and split, 48*F*p
        # bytes, at most 2*BLOCK_BYTES, and r rows' products and split,
        # 32*F*p*r bytes, at most BLOCK_BYTES
        shapes = []

        def recording_products(rows, waves, out=None):
            shapes.append((len(rows), len(waves)))
            return products(rows, waves, out=out)

        products = spectral._products
        monkeypatch.setattr(spectral, "_products", recording_products)
        rng = np.random.default_rng(width)
        waves = np.exp(1j * rng.uniform(-50.0, 50.0, (num_pts, width)))
        c = complex_rows(*rng.standard_normal((2, width)))
        spectral._wave_sums(waves, (1.0, 0), num_rows, scaled_copies(c, num_rows))
        r, p = shape
        assert shapes[0] == shape and max(shapes) == shape
        assert 48 * width * p <= 2 * spectral.BLOCK_BYTES
        assert r == 1 or 32 * width * p * r <= spectral.BLOCK_BYTES
        # one more point, or with every point one more row, would not fit
        if p < num_pts:
            assert 48 * width * (p + 1) > 2 * spectral.BLOCK_BYTES
        else:
            assert 32 * width * p * (r + 1) > spectral.BLOCK_BYTES

    def test_coefficients_near_the_double_range_sample_where_finite(self):
        # a field near the double range enters its waves scaled by a power
        # of two (``_fold_waves``), so no product overflows: 1.7e308 + 1.7e308j
        # samples where its value is finite, bit for bit as evaluate_shifted
        # at t = 0 does with a shift (no fold: the same terms)
        g = make_grid(1, 2, 1)
        f = SpectralField(g, np.full(g.num_modes, 1.7e308 + 1.7e308j))
        got = synthesize(f, 0.1)
        shift = ShiftSpec(beta=0.5, mu=np.array([1.0]))
        assert math.isfinite(got.real) and math.isfinite(got.imag)
        assert got == evaluate_shifted(f, power_law(0.5), 0.0, shift, 0.1)
        # on 9 modes at x = 0 they add up to 9 * 1.7e308 / (2*pi) per part
        g = make_grid(1, 4, 1)
        f = SpectralField(g, np.full(g.num_modes, 1.7e308 + 1.7e308j))
        with pytest.raises(ParameterError, match="^coefficients too large to sample: a sum over the modes overflows$"):
            synthesize(f, 0.0)
        # a non-finite point still gives NaN
        assert math.isnan(synthesize(f, math.nan).real)


#: Per-process variants of the elementary functions the waves must not
#: depend on: glibc's non-FMA sin and cos, and numpy's AVX2 and SSE4 dispatch
LIBM_VARIANTS = [
    pytest.param({"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-FMA"}, id="glibc-no-fma"),
    pytest.param({"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}, id="numpy-avx2"),
    pytest.param({"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"}, id="numpy-sse4"),
]


def assert_passes_in_fresh_interpreter(test, variant, count):
    """Run the pytest node ``test`` in a fresh interpreter with the
    environment ``variant`` and assert that its ``count`` cases pass."""
    src = str(Path(spectral.__file__).resolve().parents[1])
    env = dict(os.environ, **variant)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"{count} passed" in proc.stdout


class TestFieldValidation:
    def test_wrong_length(self):
        g = make_grid(1, 1, 1)
        with pytest.raises(ParameterError):
            SpectralField(g, np.ones(4))

    def test_nonfinite(self):
        g = make_grid(1, 1, 1)
        with pytest.raises(ParameterError):
            SpectralField(g, np.array([1.0, np.nan, 0.0]))

    def test_immutable(self):
        g = make_grid(1, 1, 1)
        f = SpectralField(g, np.ones(3))
        with pytest.raises(ValueError):
            f.coefficients[0] = 2.0


#: Values whose reprs or bits are easy to lose: signed zeros, subnormals,
#: the edge of overflow and reprs with exponents.
EDGE_VALUES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1.7e308, -1.7e308,
     1e16, 1e-05, 1e22, 123456789.0, 0.1]
)


def crafted_field():
    """A 7-mode 1-D field whose values have short, long, signed and extreme reprs."""
    values = [
        complex(-0.0, 5e-324), complex(1e16, 1e-05), complex(1e22, 123456789.0),
        complex(-5e-324, -0.0), complex(-1e16, 0.1), complex(1.7e308, -1e-300),
        complex(0.0, 2.5),
    ]
    return SpectralField(make_grid(1, 3, 1), values)


# sha256 of write_field_csv's CSV and sidecar bytes; the 2-D grid's
# coordinates (multiples of 0.1) have reprs such as -0.30000000000000004
GOLDEN_FIELD_FILES = {
    "1d": (
        lambda: random_field(make_grid(1, 8, 0.25), 31),
        "2066c2be15d6d4b6a03e7e6a0c72700afd8bbc7121309526a15fd4d0cc5fc710",
        "619d18211912cfc65c0b07c46620f3ccc70526cef588d47eac8fc86d6a6fa737",
    ),
    "2d": (
        lambda: random_field(make_grid(2, 0.5, 0.1), 32),
        "c7cde0aa51211128839c3ad36a981ac3eb86f2b5a3f6c00d366283725b34334d",
        "ac0d3e09a08e8c7b28d4d11a625680f6993e8860a81913397bac32eb584f0ec6",
    ),
    "3d": (
        lambda: random_field(make_grid(3, 1, 0.25), 33),
        "cd344467038a2453f4a88a55e71f611b30a689e0ed57ba2aac03a44b9e9bf48f",
        "d6bc0f3b607c4a90afbbedda4c28c9daeaefd72e6af61b03cbd4c7cda05dbf8f",
    ),
    "crafted": (
        crafted_field,
        "b03f551195a0fec2e367aa63e7ac27269c84203dd0e24320899f286b4858966c",
        "7d3e464d92a9440fd01ff9ed891042506b933da2bc57d8471efdcce2cb26ed4d",
    ),
}


def per_row_field_text(field):
    """The CSV text of the per-row field writer that write_field_csv replaced;
    kept as its reference."""
    grid = field.grid
    header = [f"xi_{i + 1}" for i in range(grid.n)] + ["re", "im"]
    lines = [",".join(header)]
    for mode, c in zip(grid.modes, field.coefficients):
        row = [repr(float(v)) for v in mode] + [repr(float(c.real)), repr(float(c.imag))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class TestCsvRoundTrip:
    @pytest.mark.parametrize("name", sorted(GOLDEN_FIELD_FILES))
    def test_writer_bytes(self, name, tmp_path):
        make_field, csv_digest, sidecar_digest = GOLDEN_FIELD_FILES[name]
        path = tmp_path / "field.csv"
        write_field_csv(make_field(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == csv_digest
        assert hashlib.sha256(path.with_suffix(".json").read_bytes()).hexdigest() == sidecar_digest

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        m=st.integers(1, 3),
        # spacings whose multiples have long reprs, such as 0.30000000000000004
        dxi=st.one_of(st.sampled_from([0.1, 0.3, 1 / 3, 0.7, 1e-05]),
                      st.floats(min_value=1e-3, max_value=1e3)),
        data=st.data(),
    )
    def test_writer_matches_per_row_writer_on_any_grid(self, n, m, dxi, data):
        grid = make_grid(n, m * dxi, dxi)
        assert grid.num_modes == (2 * m + 1) ** n
        finite = st.floats(allow_nan=False, allow_infinity=False)
        planes = data.draw(
            hnp.arrays(float, (grid.num_modes, 2), elements=st.one_of(EDGE_VALUES, finite))
        )
        field = SpectralField(grid, planes.view(complex)[:, 0])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "field.csv"
            write_field_csv(field, path)
            assert path.read_text() == per_row_field_text(field)
            back = read_field_csv(path)
        assert (back.grid.n, back.grid.xi_max, back.grid.dxi) == (n, grid.xi_max, dxi)
        np.testing.assert_array_equal(
            back.coefficients.view(np.int64), planes.reshape(-1).view(np.int64)
        )

    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        g = make_grid(2, 2, 0.5)
        f = random_field(g, rng)
        path = tmp_path / "field.csv"
        write_field_csv(f, path)
        assert path.with_suffix(".json").exists()
        back = read_field_csv(path)
        np.testing.assert_array_equal(back.grid.modes, g.modes)
        np.testing.assert_array_equal(back.coefficients, f.coefficients)

    def test_header_written(self, tmp_path):
        g = make_grid(2, 1, 1)
        write_field_csv(SpectralField(g, np.zeros(9)), tmp_path / "f.csv")
        first = (tmp_path / "f.csv").read_text().splitlines()[0]
        assert first == "xi_1,xi_2,re,im"

    def test_json_suffix_is_refused(self, tmp_path):
        # the sidecar f.json would overwrite the CSV f.json
        path = tmp_path / "f.json"
        with pytest.raises(ParameterError, match="overwritten by its grid sidecar"):
            write_field_csv(random_field(make_grid(1, 1, 1), 3), path)
        assert not path.exists()

    def test_missing_sidecar(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("xi_1,re,im\n0.0,1.0,0.0\n")
        with pytest.raises(ParameterError):
            read_field_csv(p)

    @pytest.mark.parametrize("sidecar", [
        '{"n": 1.9, "xi_max": 1, "dxi": 1}',
        '{"n": 1.0, "xi_max": 1, "dxi": 1}',
        '{"n": true, "xi_max": 1, "dxi": 1}',
        '{"n": "1", "xi_max": 1, "dxi": 1}',
        '{"n": 1, "xi_max": "1", "dxi": 1}',
        '{"n": 1, "xi_max": 1, "dxi": true}',
        '{"n": 1, "xi_max": 1, "dxi": null}',
        '[1, 1, 1]',
    ])
    def test_sidecar_must_give_json_numbers(self, sidecar, tmp_path):
        # each of these would read as the grid (1, 1, 1) if n were truncated
        # by int() or a string or bool taken by float()
        path = tmp_path / "f.csv"
        write_field_csv(random_field(make_grid(1, 1, 1), 3), path)
        path.with_suffix(".json").write_text(sidecar)
        with pytest.raises(ParameterError, match="must give numbers n, xi_max and dxi"):
            read_field_csv(path)

    @settings(max_examples=60, deadline=None)
    @given(
        grid_args=st.sampled_from([(1, 1, 1), (1, 0.5, 0.1), (2, 1, 1), (3, 1, 1)]),
        data=st.data(),
    )
    def test_bit_exact_round_trip(self, grid_args, data):
        g = make_grid(*grid_args)
        finite = st.floats(allow_nan=False, allow_infinity=False)
        planes = data.draw(
            hnp.arrays(float, (g.num_modes, 2), elements=st.one_of(EDGE_VALUES, finite))
        )
        f = SpectralField(g, planes.view(complex)[:, 0])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "field.csv"
            write_field_csv(f, path)
            back = read_field_csv(path)
        np.testing.assert_array_equal(back.grid.modes, g.modes)
        np.testing.assert_array_equal(
            back.coefficients.view(np.int64), planes.reshape(-1).view(np.int64)
        )

    def test_signed_zeros_survive(self, tmp_path):
        f = SpectralField(make_grid(1, 0.5, 0.5), [complex(-0.0, 1), complex(1, -0.0), -0.0j])
        write_field_csv(f, tmp_path / "f.csv")
        back = read_field_csv(tmp_path / "f.csv").coefficients
        np.testing.assert_array_equal(back.view(np.int64), f.coefficients.view(np.int64))

    @settings(max_examples=300, deadline=None)
    @given(
        grid_args=st.sampled_from([(1, 1, 0.5), (2, 1, 1)]),
        edits=st.lists(
            st.tuples(
                st.sampled_from(["csv", "sidecar"]),
                st.sampled_from(["delete", "insert", "replace", "drop-line", "repeat-line"]),
                st.integers(0, 10**6),
                st.sampled_from(list(',\n.-+e0123456789naifINF{}[]:" xr_')),
            ),
            min_size=1, max_size=4,
        ),
    )
    def test_mutated_files_raise_only_value_errors(self, grid_args, edits):
        # mutated field files are read back or refused with a ValueError
        # (ParameterError and GridMismatchError are ValueErrors): never an
        # IndexError, KeyError, TypeError or OverflowError
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "field.csv"
            write_field_csv(random_field(make_grid(*grid_args), 3), path)
            files = {"csv": path, "sidecar": path.with_suffix(".json")}
            for which, kind, at, char in edits:
                text = files[which].read_text()
                if kind in ("drop-line", "repeat-line"):
                    lines = text.splitlines(keepends=True)
                    i = at % len(lines) if lines else 0
                    lines[i:i + 1] = [] if kind == "drop-line" else lines[i:i + 1] * 2
                    text = "".join(lines)
                else:
                    i = at % (len(text) + 1)
                    tail = text[i + 1:] if kind in ("delete", "replace") else text[i:]
                    text = text[:i] + (char if kind != "delete" else "") + tail
                files[which].write_text(text)
            try:
                back = read_field_csv(path)
            except ValueError:
                return
            assert back.coefficients.shape == (back.grid.num_modes,)

    def test_sidecar_naming_a_huge_grid_fails_before_building_it(self, tmp_path):
        path = tmp_path / "f.csv"
        write_field_csv(random_field(make_grid(2, 1, 1), 3), path)
        path.with_suffix(".json").write_text('{"n": 2, "xi_max": 1e6, "dxi": 1e-6}')
        with pytest.raises(GridMismatchError, match="9 rows but the sidecar grid has"):
            read_field_csv(path)


# row widths beside powers of two, where the kernel's split exponent L moves
WIDTHS = sorted({1, 2} | {2**j + d for j in range(1, 11) for d in (-1, 1)})
MODERATE = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


def complex_rows(re, im):
    """Complex array with exactly these real and imaginary parts, signed zeros kept."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def fsum_rows(values):
    return complex_rows(
        [math.fsum(row.real.tolist()) for row in values],
        [math.fsum(row.imag.tolist()) for row in values],
    )


def csum_steps(values):
    """Run ``csum`` on the rows of ``values`` and return what its kernel
    steps left: the certificate's ``ok`` (rows, 2), and the high parts (in
    the split buffer) and low parts (in the split copy) of the terms, each
    times its row's 2**-k (the ``scale`` the certificate reads)."""
    seen = {}
    split, certify = spectral._split_sums, spectral._certify_sums

    def recording_split(x, high, low, buf):
        split(x, high, low, buf)
        seen.update(high=buf[: x.size].reshape(x.shape), low=x)

    def recording_certify(high, low, bound, scale, terms):
        seen.update(ok=certify(high, low, bound, scale, terms), scale=scale[:, None, None])
        return seen["ok"]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_split_sums", recording_split)
        mp.setattr(spectral, "_certify_sums", recording_certify)
        csum(values)
    return seen["ok"], seen["high"] * seen["scale"], seen["low"] * seen["scale"]


def assert_csum_is_fsum(values):
    """csum of a 2-D block and of each row equal per-row fsum, bit for bit."""
    want = fsum_rows(values).view(np.int64)
    np.testing.assert_array_equal(csum(values).view(np.int64), want)
    one_by_one = np.array([csum(row) for row in values], dtype=complex)
    np.testing.assert_array_equal(one_by_one.view(np.int64), want)


@st.composite
def random_blocks(draw):
    width = draw(st.sampled_from(WIDTHS))
    rows = draw(st.integers(1, 3))
    parts = [
        draw(hnp.arrays(np.float64, (rows, width), elements=MODERATE)) for _ in range(2)
    ]
    return complex_rows(*parts)


@st.composite
def scaled_normal_blocks(draw):
    """Dense rows whose terms span many binades, as in trace products."""
    width = draw(st.sampled_from(WIDTHS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.integers(0, 60))
    scale = np.ldexp(1.0, rng.integers(-spread, spread + 1, size=(2, 3, width)))
    return complex_rows(*(rng.standard_normal((2, 3, width)) * scale))


@st.composite
def independently_scaled_rows(draw):
    """Rows each at its own power-of-two scale, about 600 binades either way.

    Rows far apart in scale need split points of their own; rows a few
    binades apart may share one.  Some rows are also far from their
    neighbours in one plane only.
    """
    width = draw(st.sampled_from(WIDTHS))
    rows = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponents = st.lists(st.integers(-600, 600), min_size=rows, max_size=rows)
    scales = [draw(exponents) for _ in range(2)]
    if draw(st.booleans()):
        scales[1] = scales[0]
    parts = [np.ldexp(rng.standard_normal((rows, width)), np.array(e)[:, None]) for e in scales]
    return complex_rows(*parts)


@st.composite
def near_tie_rows(draw):
    """Rows whose exact sum is a rounding midpoint, or just beside one.

    a + 2**-53 lies halfway between a = 1 + k*2**-52 and its successor; a
    nudge moves it off the midpoint.  A nudge of 2**-160 is lost when it is
    added to 2**-53 in floating point, so only an exact sum rounds right.
    Pairs (c, -c) widen the row without changing the exact sum, and a power
    of two scales it.
    """
    a = 1.0 + draw(st.integers(0, 2**20)) * 2.0**-52
    nudge = draw(st.sampled_from([0.0, 2.0**-100, -(2.0**-100), 2.0**-160, -(2.0**-160)]))
    pads = draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), max_size=20))
    terms = [a, 2.0**-53, nudge] + pads + [-c for c in pads]
    terms = draw(st.permutations(terms))
    scale = 2.0 ** draw(st.integers(-200, 200))
    re = np.array(terms) * scale
    return complex_rows([re], [re[::-1]])


@st.composite
def rounding_error_rows(draw):
    """Rows whose exact sum lies within the float error of adding their small terms
    of a rounding midpoint of a = 1 + k*2**-52.

    Small terms near 2**-60 add up to T; one more term c makes the exact sum
    a + 2**-53 + (T - T rounded at 2**-q).  Adding the small terms in
    floating point errs by about 2**-112, so only a rigorous error bound
    tells which side of the midpoint the sum is on.
    """
    a = 1.0 + draw(st.integers(1, 2**20)) * 2.0**-52
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    small = (rng.standard_normal(draw(st.integers(4, 30))) * 2.0**-60).tolist()
    total = sum(map(Fraction, small))
    q = draw(st.integers(100, 117))
    c = float(Fraction(1, 2**53) - Fraction(round(total * 2**q), 2**q))
    terms = draw(st.permutations([a, c] + small))
    return complex_rows([terms], [terms[::-1]])


class TestCsum:
    @settings(max_examples=80, deadline=None)
    @given(values=random_blocks())
    def test_rows_match_fsum(self, values):
        assert_csum_is_fsum(values)

    @settings(max_examples=80, deadline=None)
    @given(values=scaled_normal_blocks())
    def test_dense_rows_match_fsum(self, values):
        assert_csum_is_fsum(values)

    @settings(max_examples=80, deadline=None)
    @given(values=independently_scaled_rows())
    def test_independently_scaled_rows_match_fsum(self, values):
        assert_csum_is_fsum(values)

    @settings(max_examples=80, deadline=None)
    @given(values=near_tie_rows())
    def test_near_ties_match_fsum(self, values):
        assert_csum_is_fsum(values)

    @settings(max_examples=80, deadline=None)
    @given(values=rounding_error_rows())
    def test_sums_beside_midpoints_match_fsum(self, values):
        assert_csum_is_fsum(values)

    def test_error_bound_decides_a_midpoint(self):
        # fl(s + sum(e)) lands one ulp below the exact sum, with a residual
        # under half an ulp: only the error bound sends this row to fsum
        terms = [float.fromhex(h) for h in (
            "0x1.9cbd9e174d76dp-62", "0x1.0df665301d242p-60", "0x1.f73cc3103893ap-54",
            "-0x1.774efb2bff6dap-61", "0x1.249245c935165p-62", "0x1.1dc9bf20f1ac8p-61",
            "0x1.029095f5f8417p-60", "0x1.564e4cd946b5ap-59", "-0x1.e6e8b62e2044dp-61",
            "-0x1.a064cbb99fd25p-61", "0x1.c28ab0cc20b38p-61", "0x1.9bc94277d752dp-62",
            "0x1.252e87b61ba4ep-63", "-0x1.468b7f51154cbp-60", "0x1.00000000a73bfp+0",
            "-0x1.ae9894c6a8635p-62", "-0x1.06eac85d8bacdp-60",
        )]
        ok, _, _ = csum_steps(complex_rows([terms], np.zeros((1, len(terms)))))
        assert not ok[0, 0]
        assert csum(np.array([terms]))[0].real == math.fsum(terms) == float.fromhex("0x1.00000000a73c0p+0")

    @pytest.mark.parametrize("width", WIDTHS)
    def test_edge_rows_match_fsum(self, width):
        pad = np.zeros(max(0, width - 3))
        zeros = np.zeros(width)
        rows = [
            complex_rows(np.concatenate([[1e300, 1.0, -1e300], pad])[:width], zeros),
            complex_rows(np.full(width, 5e-324), np.full(width, -3e-320)),
            complex_rows(np.linspace(-1e-310, 1e-309, width), zeros),
            complex_rows(np.full(width, -0.0), np.full(width, -0.0)),
            complex_rows(np.concatenate([[math.inf], np.ones(width - 1)]), -np.ones(width)),
            complex_rows(np.ones(width), np.concatenate([np.ones(width - 1), [-math.inf]])),
        ]
        assert_csum_is_fsum(np.vstack(rows))

    def test_uncertified_row_falls_back_to_fsum(self):
        # 1 + 2**-53 is the midpoint between 1 and its successor: the kernel
        # cannot prove which way it rounds, while 1 + 0.5 is certified
        values = complex_rows([[1.0, 2.0**-53], [1.0, 0.5]], np.zeros((2, 2)))
        ok, _, _ = csum_steps(values)
        assert ok[:, 0].tolist() == [False, True]
        assert_csum_is_fsum(values)

    def test_dense_rows_are_certified(self):
        # the batched path, not the fsum fallback, does the work on trace-like rows
        rng = np.random.default_rng(3)
        ok, _, _ = csum_steps(rng.standard_normal((8, 1025, 2)).view(complex)[..., 0])
        assert ok.all()

    def test_trace_blocks_need_no_fallback(self):
        # a trace-1d block: 32 points' products of coefficients and unit
        # plane waves at one time, and a geometric trace's block, whose rows
        # sit 2**-k apart for k up to 60; every row is certified, so neither
        # block takes the fsum fallback (one split point for a whole block
        # would send most rows of the second to it)
        grid = spectral.default_grid()
        rng = np.random.default_rng(8)
        field = random_field(grid, rng)
        coeffs = (np.exp(0.01j * np.sqrt(grid.radii)) - 1.0) * field.coefficients
        waves = np.exp(1j * (default_points(1, 32) @ grid.modes.T))
        block = coeffs * waves
        assert block.shape == (32, 1025)
        geometric = block[np.arange(61) % 32] * np.ldexp(1.0, -np.arange(61))[:, None]
        for values in (block, geometric):
            assert csum_steps(values)[0].all()
            assert_csum_is_fsum(values)

    def test_shapes(self):
        assert csum(np.ones(4)) == 4.0
        assert csum(np.ones((2, 0))).tolist() == [0j, 0j]
        with pytest.raises(ParameterError):
            csum(np.ones((2, 2, 2)))


def binade_block(rng, exponents, width):
    """Rows of one sign pattern or mixed signs, each row's terms in [2**(e-1), 2**e)."""
    rows = []
    for e in exponents:
        mag = np.ldexp(rng.uniform(0.5, 1.0, (2, width)), e)
        rows.append(complex_rows(mag[0], -mag[1]))
        rows.append(complex_rows(mag[0] * rng.choice([-1.0, 1.0], width), mag[1]))
    return np.vstack(rows)


class TestCsumExtremes:
    """Rows at the edges of the certified path, all equal to per-row fsum."""

    @pytest.mark.parametrize("j", [2, 3, 4, 5, 7, 10, 11])
    @pytest.mark.parametrize("d", [-3, -2, -1, 0])
    def test_widths_beside_powers_of_two(self, j, d):
        # M + 2 crosses a power of two between these widths; rows of one sign
        # near the top of a binade make the largest partial sums for their width
        width = 2**j + d
        rng = np.random.default_rng(100 * j - d)
        assert_csum_is_fsum(binade_block(rng, [0, 1, 40, -40], width))
        top = np.full(width, np.nextafter(1.0, 0.0))
        assert_csum_is_fsum(np.vstack([complex_rows(top, -top), complex_rows(-top, top * 0.75)]))

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 17, 64, 1025])
    @pytest.mark.parametrize("e", [0, 1, -30, 300])
    def test_maximum_at_a_power_of_two_and_its_predecessor(self, width, e):
        rng = np.random.default_rng(1000 * width + e + 100)
        for peak in (math.ldexp(1.0, e), np.nextafter(math.ldexp(1.0, e), 0.0)):
            re = np.ldexp(rng.uniform(-1.0, 1.0, width), e - 1)
            im = np.ldexp(rng.uniform(-1.0, 1.0, width), e - 1)
            re[rng.integers(width)] = peak
            im[rng.integers(width)] = -peak
            assert_csum_is_fsum(np.vstack([complex_rows(re, im), complex_rows(-re, re)]))

    @pytest.mark.parametrize("width", [1, 2, 5, 31, 64])
    def test_rows_near_overflow(self, width):
        # row maxima from 2**1014 up to just below 2**1022: for the larger
        # ones 2**(e + L) overflows; signs alternate so fsum stays finite
        rng = np.random.default_rng(width)
        signs = np.resize([1.0, -1.0], width)
        rows = [
            complex_rows(signs * np.ldexp(rng.uniform(0.5, 1.0, width), e), np.ldexp(1.0, e - 3) * signs)
            for e in (1015, 1016, 1018, 1020, 1022)
        ]
        rows.append(complex_rows(np.full(width, 2.0**1010), np.ones(width)))
        assert_csum_is_fsum(np.vstack(rows))

    @pytest.mark.parametrize("width", [1, 2, 3, 33, 1025])
    def test_rows_near_underflow(self, width):
        # maxima around 2**-960 straddle the kernel's underflow guard; the
        # smallest rows are subnormal
        rng = np.random.default_rng(7 * width)
        rows = [
            complex_rows(np.ldexp(rng.standard_normal(width), e), np.ldexp(rng.standard_normal(width), e - 5))
            for e in (-955, -958, -959, -960, -961, -962, -1000, -1022, -1040, -1070)
        ]
        rows.append(complex_rows(np.full(width, 5e-324), np.full(width, -1e-320)))
        rows.append(complex_rows(rng.integers(-8, 9, width) * 5e-324, np.zeros(width)))
        assert_csum_is_fsum(np.vstack(rows))

    @pytest.mark.parametrize("width", [3, 16, 257, 1025])
    @pytest.mark.parametrize("tiny", [-60, -200, -700])
    def test_dominant_term_and_cancelling_tiny_terms(self, width, tiny):
        # one term near 1 and many terms far below it that cancel in pairs
        # up to a remainder near the rounding point of the dominant term
        rng = np.random.default_rng(width - tiny)
        half = (width - 1) // 2
        small = np.ldexp(rng.standard_normal(half), tiny)
        rest = np.concatenate([small, -small[::-1]])
        rows = []
        for nudge in (0.0, 2.0**-53, 2.0**-53 + 2.0**-80, -(2.0**-54) - 2.0**-90):
            re = np.concatenate([[1.0 + 3 * 2.0**-52], rest, [nudge]])[:width]
            if width > 2 * half + 1:
                re[-1] = nudge
            rows.append(complex_rows(rng.permutation(re), re))
        assert_csum_is_fsum(np.vstack(rows))

    @pytest.mark.parametrize("width", [1, 4, 129, 1025])
    def test_tiny_and_huge_rows_in_one_block(self, width):
        # rows and planes far apart in scale each need a split point near
        # their own scale: a plane split at a much smaller one is summed
        # inexactly, and at a much larger one it is not certified
        rng = np.random.default_rng(width)
        a, b = rng.standard_normal((2, 4, width))
        rows = [
            complex_rows(a * 1e-300, b * 1e-300),
            complex_rows(a * 1e300, b * 1e300),
            complex_rows(a * 1e-200, b * 1e200),
            complex_rows(a * 1e200, b * 1e-200),
            complex_rows(a * 2.0**-600, b),
            complex_rows(a, b * 2.0**-600),
        ]
        assert_csum_is_fsum(np.vstack(rows))

    @pytest.mark.parametrize("width", [1, 2, 33, 1025])
    def test_block_with_no_live_row(self, width):
        # zero, all -0.0, peak below 2**-960, +-inf and nan rows: the split
        # gives none a sigma, so every sum is refused and taken by fsum
        rng = np.random.default_rng(width)
        tiny = np.ldexp(rng.uniform(-1.0, 1.0, width), -961)
        ones = np.ones(width)
        block = np.vstack([
            complex_rows(0.0 * ones, 0.0 * ones),
            complex_rows(-0.0 * ones, -0.0 * ones),
            complex_rows(tiny, -tiny[::-1]),
            complex_rows(np.where(ones.cumsum() == 1, math.inf, 1.0), -math.inf * ones),
            complex_rows(np.resize([math.inf, -math.inf], width), math.nan * ones),
        ])
        want = complex_rows(
            [spectral._fsum(row.real.tolist()) for row in block],
            [spectral._fsum(row.imag.tolist()) for row in block],
        ).view(np.int64)
        np.testing.assert_array_equal(csum(block).view(np.int64), want)
        one_by_one = np.array([csum(row) for row in block], dtype=complex)
        np.testing.assert_array_equal(one_by_one.view(np.int64), want)

    @pytest.mark.parametrize("shape", [(1, 1), (5, 1), (1, 9), (3, 1025)])
    def test_input_is_not_written(self, shape):
        # csum only reads its input; the split step splits a copy in place,
        # into high parts in the split buffer and low parts left behind,
        # which add back to the terms bit for bit
        rng = np.random.default_rng(sum(shape))
        values = complex_rows(*rng.standard_normal((2,) + shape))
        if shape[1] > 1:
            values[0, :2] = [1.0, 2.0**-53]  # a midpoint row takes the fsum fallback
        before = values.copy()
        _, high, low = csum_steps(values)
        np.testing.assert_array_equal(values.view(np.int64), before.view(np.int64))
        restored = (high + low).view(np.int64)
        np.testing.assert_array_equal(restored, before.view(np.int64).reshape(high.shape))


DBL_MAX = np.finfo(float).max
HUGE = st.floats(min_value=1e306, max_value=DBL_MAX).flatmap(lambda v: st.sampled_from([v, -v]))


class TestCsumOverflow:
    """Rows whose partial sums overflow ``math.fsum`` are summed exactly."""

    def assert_csum_is_exact(self, rows):
        # exact_sum rounds the 700-digit sum once: beyond the double range
        # it gives +-inf, as IEEE round-to-nearest does
        values = np.array(rows, dtype=complex)
        got = csum(values)
        for row, total in zip(values, got):
            want = complex(exact_sum(row.real), exact_sum(row.imag))
            assert total.real == want.real and total.imag == want.imag, (row, total, want)
            assert csum(row) == total  # the 1-D path

    def test_finite_sum_of_overflowing_terms(self):
        with pytest.raises(OverflowError):
            math.fsum([1.7e308, 1.7e308, -1.7e308])
        self.assert_csum_is_exact([[1.7e308, 1.7e308, -1.7e308]])
        assert csum(np.array([1.7e308, 1.7e308, -1.7e308])) == 1.7e308

    def test_rounding_at_the_edge_of_the_range(self):
        below = 2.0**970 - 2.0**918  # the largest double below the midpoint's excess
        rows = [
            [DBL_MAX, DBL_MAX, -DBL_MAX, 2.0**970],  # the midpoint: rounds to inf
            [DBL_MAX, DBL_MAX, -DBL_MAX, below],  # just below it: DBL_MAX
            [-DBL_MAX, -DBL_MAX, DBL_MAX, -(2.0**970)],
            [DBL_MAX, DBL_MAX, 1.0, 5e-324],
            [-DBL_MAX, -DBL_MAX, -1.0, 5e-324],
            [1.7e308, 1.7e308, -1.7e308, -1.7e308],  # exactly zero
            [1e308] * 10 + [-1e308] * 9 + [5e-324],
        ]
        width = max(map(len, rows))
        self.assert_csum_is_exact([row + [0.0] * (width - len(row)) for row in rows])
        got = csum(np.array([row + [0.0] * (width - len(row)) for row in rows]))
        assert got[:3].real.tolist() == [math.inf, DBL_MAX, -math.inf]

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 9).flatmap(
            lambda width: st.lists(
                st.lists(st.one_of(HUGE, MODERATE), min_size=2 * width, max_size=2 * width),
                min_size=1, max_size=4,
            )
        )
    )
    def test_matches_mpmath(self, rows):
        self.assert_csum_is_exact([np.array(row).view(complex) for row in rows])

    @pytest.mark.parametrize("terms", [
        [math.inf, -math.inf], [-math.inf, math.inf], [1e308, 1e308, math.inf, -math.inf],
    ])
    def test_both_infinities_sum_to_nan(self, terms):
        # fsum raises on inf + -inf (or on the overflow of 1e308 + 1e308 first);
        # their IEEE sum is nan, as nan + 1 is
        assert math.isnan(csum(np.array(terms)).real)
        assert math.isnan(csum(np.array([math.nan, 1.0])).real)

    def test_an_infinity_in_each_plane(self):
        values = complex_rows(
            [[math.inf, 1.0, -math.inf], [math.inf, 1.0, 2.0]],
            [[2.0, -math.inf, 1e308], [-math.inf, 3.0, -math.inf]],
        )
        got = csum(values)
        for row, total in zip(values, got):
            # terms with an infinity sum to the same value in any order
            want = complex(sum(row.real.tolist()), sum(row.imag.tolist()))
            np.testing.assert_array_equal(np.array([total]).view(np.int64), np.array([want]).view(np.int64))
        assert [math.isnan(got[0].real), got[0].imag, got[1].real, got[1].imag] == [
            True, -math.inf, math.inf, -math.inf,
        ]

    def test_infinite_terms_keep_fsum_semantics(self):
        # fsum reports an overflow here too, though a term is already inf
        with pytest.raises(OverflowError):
            math.fsum([math.inf, 1e308, 1e308])
        assert csum(np.array([math.inf, 1e308, 1e308])) == math.inf
        assert csum(np.array([-math.inf, 1e308, 1e308])) == -math.inf
