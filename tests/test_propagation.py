import cmath
import math

import numpy as np
import pytest

from phaselab import (
    BOUSSINESQ,
    ParameterError,
    ShiftSpec,
    SpectralField,
    UndefinedShiftError,
    apply_phase,
    error_field,
    evaluate_shifted,
    make_grid,
    power_law,
    random_field,
    sobolev_norm,
    synthesize,
)
from phaselab import spectral
from phaselab.convergence import default_points
from phaselab.propagation import _angles

E1 = np.array([1.0])


def one_mode(grid, xi, c):
    coeffs = np.zeros(grid.num_modes, dtype=complex)
    hits = np.flatnonzero(np.all(grid.modes == np.atleast_1d(xi), axis=1))
    coeffs[hits[0]] = c
    return SpectralField(grid, coeffs)


class TestApplyPhase:
    def test_t_zero_is_identity(self):
        f = random_field(make_grid(1, 4, 0.5), np.random.default_rng(0))
        out = apply_phase(f, BOUSSINESQ, 0.0)
        np.testing.assert_array_equal(out.coefficients, f.coefficients)

    def test_unit_phase_single_mode(self):
        g = make_grid(1, 1, 1)
        f = one_mode(g, [1.0], 1.0)
        out = apply_phase(f, power_law(2.0), math.pi)
        idx = np.flatnonzero(np.abs(out.coefficients))[0]
        assert out.coefficients[idx] == pytest.approx(-1.0, abs=1e-14)

    def test_unitary_on_random_field(self):
        g = make_grid(1, 8, 0.25)
        f = random_field(g, np.random.default_rng(3))
        out = apply_phase(f, BOUSSINESQ, 0.3)
        for s in (0.0, 0.5, 1.0):
            before, after = sobolev_norm(f, s), sobolev_norm(out, s)
            assert abs(after - before) <= 1e-12 * before

    def test_group_law(self):
        g = make_grid(1, 8, 0.25)
        f = random_field(g, np.random.default_rng(4))
        two_step = apply_phase(apply_phase(f, BOUSSINESQ, 0.11), BOUSSINESQ, 0.07)
        one_step = apply_phase(f, BOUSSINESQ, 0.18)
        diff = np.max(np.abs(two_step.coefficients - one_step.coefficients))
        assert diff <= 1e-12 * max(1.0, np.max(np.abs(one_step.coefficients)))

    def test_negative_time_rejected(self):
        f = random_field(make_grid(1, 1, 1), np.random.default_rng(0))
        with pytest.raises(ParameterError):
            apply_phase(f, BOUSSINESQ, -0.1)


class TestEvaluateShifted:
    def test_t_zero_reduces_to_synthesis(self):
        g = make_grid(1, 4, 0.5)
        f = random_field(g, np.random.default_rng(8))
        shift = ShiftSpec(beta=0.5, mu=E1)
        for x in (0.0, 1.3, -2.2):
            assert evaluate_shifted(f, power_law(0.5), 0.0, shift, x) == synthesize(f, x)

    def test_single_mode_closed_form(self):
        g = make_grid(1, 2, 1)
        c = 0.7 - 0.2j
        f = one_mode(g, [2.0], c)
        shift = ShiftSpec(beta=0.5, mu=E1)
        t, x = 0.3, 1.1
        law = power_law(0.5)
        phase = x * 2.0 + t**0.5 * 2.0 + t * 2.0**0.5
        want = c * cmath.exp(1j * phase) / (2 * math.pi)
        got = evaluate_shifted(f, law, t, shift, x)
        assert abs(got - want) <= 1e-13

    def test_2d_against_direct_double_loop(self):
        g = make_grid(2, 1, 1)
        rng = np.random.default_rng(12)
        f = random_field(g, rng)
        law = power_law(0.5)
        shift = ShiftSpec(beta=0.5, mu=np.array([1.0, 0.0]))
        t, x = 0.2, np.array([0.3, -0.7])
        # independent direct summation over the 9 modes
        acc = 0.0 + 0.0j
        for xi, c in zip(g.modes, f.coefficients):
            r = math.hypot(xi[0], xi[1])
            phase = float(x @ xi) + t**0.5 * xi[0] + t * r**0.5
            acc += c * cmath.exp(1j * phase)
        want = acc / (2 * math.pi) ** 2
        got = evaluate_shifted(f, law, t, shift, x)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_undefined_shift_at_zero(self):
        f = random_field(make_grid(1, 1, 1), np.random.default_rng(0))
        with pytest.raises(UndefinedShiftError):
            evaluate_shifted(f, power_law(0.5), 0.0, ShiftSpec(beta=-1.0, mu=E1), 0.0)

    def test_mu_must_be_unit(self):
        with pytest.raises(ParameterError):
            ShiftSpec(beta=1.0, mu=np.array([1.0, 1.0]))


def reference_evaluate(field, law, times, shift, points):
    """The per-(t, x) loop that the batched evaluation replaced."""
    grid = field.grid
    scale = grid.weight / (2.0 * math.pi) ** grid.n
    out = np.empty((len(times), len(points)), dtype=complex)
    for i, t in enumerate(times):
        moved = field.coefficients * np.exp(1j * _angles(grid, law, float(t), shift))
        for j, x in enumerate(points):
            z = moved * np.exp(1j * (grid.modes @ x))
            out[i, j] = complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist())) * scale
    return out


def bits(values):
    return np.ascontiguousarray(np.atleast_1d(values), dtype=complex).view(np.int64)


EVALUATE_CASES = {
    "1d": ((1, 8, 0.125), power_law(0.5), None),
    "2d-shift": ((2, 4, 0.25), BOUSSINESQ, ShiftSpec(beta=1.5, mu=np.array([0.6, 0.8]))),
    "3d": ((3, 1, 0.25), power_law(2.0), None),
}


class TestBatchedEvaluate:
    @pytest.mark.parametrize("case", sorted(EVALUATE_CASES))
    @pytest.mark.parametrize("rows_per_block", [None, 1, 2, 15])
    def test_bit_identical_to_per_sample_loop(self, case, rows_per_block, monkeypatch):
        grid_args, law, shift = EVALUATE_CASES[case]
        g = make_grid(*grid_args)
        f = random_field(g, np.random.default_rng(43))
        times = np.array([0.0, 0.05, 0.3, 1.0])
        points = default_points(g.n, 5)
        if rows_per_block is not None:
            # blocks of 1 or 2 (time, point) rows split every time's 5 points;
            # blocks of 15 rows hold three times, then one time is left over
            monkeypatch.setattr(spectral, "SYNTH_BLOCK_BYTES", 16 * g.num_modes * rows_per_block)
        got = evaluate_shifted(f, law, times, shift, points)
        want = reference_evaluate(f, law, times, shift, points)
        assert got.shape == (4, 5)
        np.testing.assert_array_equal(bits(got), bits(want))

    def test_blocks_span_several_times(self, monkeypatch):
        # one point and 3-row blocks: each block holds three times
        g = make_grid(2, 2, 0.5)
        f = random_field(g, np.random.default_rng(44))
        times = np.linspace(0.0, 1.0, 7)
        points = np.array([[0.3, -1.1]])
        monkeypatch.setattr(spectral, "SYNTH_BLOCK_BYTES", 16 * g.num_modes * 3)
        got = evaluate_shifted(f, BOUSSINESQ, times, None, points)
        want = reference_evaluate(f, BOUSSINESQ, times, None, points)
        np.testing.assert_array_equal(bits(got), bits(want))

    def test_axes_follow_the_arguments(self):
        g = make_grid(2, 2, 0.5)
        f = random_field(g, np.random.default_rng(45))
        times = np.array([0.1, 0.4])
        points = default_points(2, 3)
        full = evaluate_shifted(f, BOUSSINESQ, times, None, points)
        one = evaluate_shifted(f, BOUSSINESQ, 0.4, None, points[2])
        assert type(one) is complex
        np.testing.assert_array_equal(bits(one), bits(full[1, 2]))
        at_one_time = evaluate_shifted(f, BOUSSINESQ, 0.4, None, points)
        np.testing.assert_array_equal(bits(at_one_time), bits(full[1]))
        at_one_point = evaluate_shifted(f, BOUSSINESQ, times, None, points[2])
        np.testing.assert_array_equal(bits(at_one_point), bits(full[:, 2]))

    def test_zero_field(self):
        # zero rows are not certified and take csum's fsum fallback
        g = make_grid(1, 2, 0.5)
        f = SpectralField(g, np.full(g.num_modes, -0.0 - 0.0j))
        times = np.array([0.0, 0.5])
        points = default_points(1, 3)
        got = evaluate_shifted(f, power_law(0.5), times, None, points)
        want = reference_evaluate(f, power_law(0.5), times, None, points)
        np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("times", [np.empty(0), np.zeros((2, 2))])
    def test_times_must_be_a_nonempty_vector(self, times):
        f = random_field(make_grid(1, 1, 1), np.random.default_rng(0))
        with pytest.raises(ParameterError, match="times"):
            evaluate_shifted(f, BOUSSINESQ, times, None, 0.0)

    def test_points_must_match_the_grid(self):
        f = random_field(make_grid(2, 1, 1), np.random.default_rng(0))
        with pytest.raises(ParameterError, match="points"):
            evaluate_shifted(f, BOUSSINESQ, np.array([0.1]), None, np.zeros((4, 3)))


class TestErrorField:
    def test_t_zero_no_shift(self):
        f = random_field(make_grid(1, 4, 0.5), np.random.default_rng(1))
        res = error_field(f, BOUSSINESQ, 0.0)
        assert res.l2 == 0.0
        assert np.all(res.h.coefficients == 0)

    def test_full_turn_cancels(self):
        g = make_grid(1, 1, 1)
        f = one_mode(g, [1.0], 1.0)
        res = error_field(f, power_law(1.0), 2 * math.pi)  # t*gamma(1) = 2*pi
        assert res.l2 <= 1e-14

    def test_half_turn_doubles(self):
        g = make_grid(1, 1, 1)
        f = one_mode(g, [1.0], 1.0)
        res = error_field(f, power_law(1.0), math.pi)
        assert res.l2 == pytest.approx(2.0, rel=1e-14)

    def test_multiplier_bound_on_random_draws_per_family(self):
        # 200 draws per family: ||h||_2 never exceeds the grid multiplier sup
        # times ||f||_{H^s}; the sup is recomputed here from the phases
        rng = np.random.default_rng(77)
        g = make_grid(1, 8, 0.5)
        setups = [
            (power_law(0.5), None),  # plain power phase
            (power_law(0.5), ShiftSpec(beta=2.0, mu=E1)),  # shifted power phase
            (BOUSSINESQ, None),  # general phase law
            (BOUSSINESQ, ShiftSpec(beta=0.5, mu=E1)),  # shifted general law
        ]
        s = 0.5
        for law, shift in setups:
            for _ in range(200):
                f = random_field(g, rng)
                t = float(10 ** rng.uniform(-4, -0.5))
                res = error_field(f, law, t, shift=shift, s=s)
                theta = t * np.asarray(law(g.radii), dtype=float)
                if shift is not None:
                    theta = theta + t**shift.beta * g.modes[:, 0]
                w = 2 * np.abs(np.sin(0.5 * theta)) / (1 + g.radii**2) ** (s / 2)
                assert res.l2 <= float(np.max(w)) * res.hs_of_f * (1 + 1e-10)

    def test_l2_decay_order_of_magnitude(self):
        g = make_grid(1, 64, 0.125)
        f = random_field(g, np.random.default_rng(9))
        law = power_law(0.5)
        values = [error_field(f, law, 10.0**-k).l2 for k in range(1, 7)]
        for worse, better in zip(values, values[1:]):
            assert better < worse
        assert values[-1] < 1e-4 * values[0]
