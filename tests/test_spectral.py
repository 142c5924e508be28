import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phaselab import (
    ParameterError,
    SpectralField,
    make_grid,
    random_field,
    read_field_csv,
    sobolev_norm,
    synthesize,
    write_field_csv,
)
from phaselab import spectral
from phaselab.convergence import default_points
from phaselab.spectral import _certified_row_sums, csum


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
        "args", [(0, 1, 1), (4, 1, 1), (1, -1, 1), (1, 1, 0), (1, 1, 2), (1, 0, 0.5)]
    )
    def test_invalid_parameters(self, args):
        with pytest.raises(ParameterError):
            make_grid(*args)


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
            monkeypatch.setattr(spectral, "SYNTH_BLOCK_BYTES", 16 * g.num_modes * rows_per_block)
        sums = []

        def recording_csum(values):
            out = csum(values)
            sums.extend(np.atleast_1d(out).tolist())
            return out

        monkeypatch.setattr(spectral, "csum", recording_csum)
        got = np.atleast_1d(synthesize(f, x))
        scale = g.weight / (2.0 * math.pi) ** g.n
        assert len(sums) == len(got)
        for p, point in enumerate(np.atleast_2d(x)):
            z = f.coefficients * np.exp(1j * (g.modes @ point))
            want = complex(exact_sum(z.real), exact_sum(z.imag))
            assert sums[p] == want
            assert csum(z) == want  # the 1-D path of csum
            assert got[p] == want * scale


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


class TestCsvRoundTrip:
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

    def test_missing_sidecar(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("xi_1,re,im\n0.0,1.0,0.0\n")
        with pytest.raises(ParameterError):
            read_field_csv(p)


# row widths around the halving steps of the batched kernel
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
        _, ok = _certified_row_sums(np.array(terms)[None, :, None])
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
        x = np.array([[[1.0], [2.0**-53]], [[1.0], [0.5]]])
        _, ok = _certified_row_sums(x)
        assert ok[:, 0].tolist() == [False, True]
        assert_csum_is_fsum(complex_rows(x[..., 0], np.zeros((2, 2))))

    def test_dense_rows_are_certified(self):
        # the batched path, not the fsum fallback, does the work on trace-like rows
        rng = np.random.default_rng(3)
        _, ok = _certified_row_sums(rng.standard_normal((8, 1025, 2)))
        assert ok.all()

    def test_shapes(self):
        assert csum(np.ones(4)) == 4.0
        assert csum(np.ones((2, 0))).tolist() == [0j, 0j]
        with pytest.raises(ParameterError):
            csum(np.ones((2, 2, 2)))
