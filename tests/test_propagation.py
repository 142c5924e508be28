import cmath
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab import (
    BOUSSINESQ,
    QUARTIC,
    ParameterError,
    ShiftSpec,
    SpectralField,
    TimeSequence,
    UndefinedShiftError,
    apply_phase,
    error_field,
    evaluate_shifted,
    make_grid,
    pointwise_trace,
    power_law,
    random_field,
    sobolev_norm,
    synthesize,
)
from phaselab import convergence, propagation, spectral
from phaselab.convergence import default_points
from phaselab.propagation import phase
from test_oracle import DPS, ExactPhases, exact_sample
from test_spectral import LIBM_VARIANTS, assert_passes_in_fresh_interpreter, block_bytes

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

    @pytest.mark.parametrize(
        "beta, mu", [(math.nan, [1.0]), (math.inf, [1.0]), (1.5, [math.nan, 1.0]), (1.5, [math.inf])]
    )
    def test_beta_and_mu_must_be_finite(self, beta, mu):
        with pytest.raises(ParameterError, match="finite"):
            ShiftSpec(beta=beta, mu=np.array(mu))

    @pytest.mark.parametrize("t", [math.inf, math.nan, -1.0])
    def test_time_must_be_finite_and_nonnegative(self, t):
        f = random_field(make_grid(1, 1, 1), np.random.default_rng(0))
        with pytest.raises(ParameterError, match="nonnegative and finite"):
            evaluate_shifted(f, BOUSSINESQ, t, None, 0.0)


def lattice_phase(grid, law, t, shift):
    """theta at time t on every mode of the lattice, with no fold."""
    proj = None if shift is None else spectral._dot(grid.modes, shift.mu)
    return phase(law, t, grid.radii, None if shift is None else shift.beta, proj)


def fold_box(grid, shift):
    """The fold's box of the lattice, written out apart from ``_fold``: the
    coordinates <= 0 along each axis mu does not touch (every axis without a
    shift), whole along the others."""
    m = len(grid.axis) // 2
    return tuple(slice(m + 1) if shift is None or shift.mu[a] == 0 else slice(None)
                 for a in range(grid.n))


def on_fold(grid, shift, values):
    """The lattice ``values`` (in mode order) on the modes of the fold."""
    return values.reshape((len(grid.axis),) * grid.n)[fold_box(grid, shift)].ravel()


def reference_waves(field, points, folded):
    """The unscaled waves G_p of ``_fold_waves``, written out apart from it: an
    axis at a time, the last first, the products, f first, times e^{i x_d xi_d},
    each wave its own ``exp`` (no conjugates), and along each axis a with
    ``folded[a]`` the product at coordinate -c plus the one at +c."""
    grid = field.grid
    m = len(grid.axis) // 2
    out = []
    for x in points:
        g = field.coefficients.reshape((2 * m + 1,) * grid.n)
        for a in reversed(range(grid.n)):
            g = g * np.exp(1j * (x[a] * grid.axis)).reshape((-1,) + (1,) * (grid.n - 1 - a))
            if folded[a]:
                kept = g.take(range(m), axis=a) + g.take(range(2 * m, m, -1), axis=a)
                g = np.concatenate([kept, g.take([m], axis=a)], axis=a)
        out.append(g.ravel())
    return np.array(out)


def reference_folded_waves(field, shift, points):
    """``reference_waves`` on the fold: folded along each axis mu does not touch."""
    return reference_waves(field, points, [keep.stop is not None for keep in fold_box(field.grid, shift)])


def fold_sum(row, wave, grid):
    """The fsum of the fold terms row_j * G_pj, scaled by dxi**n / (2*pi)**n:
    for unscaled waves, what the kernel gives with its scaled waves and
    unscale factor, bit for bit, where no part is subnormal."""
    z = row * wave
    return complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist())) * (
        grid.weight / (2.0 * math.pi) ** grid.n)


def reference_evaluate(field, law, times, shift, points):
    """The per-(t, x) fsum of the fold terms e^{i theta_j} * G_pj."""
    grid = field.grid
    waves = reference_folded_waves(field, shift, points)
    out = np.empty((len(times), len(points)), dtype=complex)
    for i, t in enumerate(times):
        row = on_fold(grid, shift, np.exp(1j * lattice_phase(grid, law, t, shift)))
        for j, wave in enumerate(waves):
            out[i, j] = fold_sum(row, wave, grid)
    return out


def bits(values):
    return np.ascontiguousarray(np.atleast_1d(values), dtype=complex).view(np.int64)


EVALUATE_CASES = {
    "1d": ((1, 8, 0.125), power_law(0.5), None),
    "2d-shift": ((2, 4, 0.25), BOUSSINESQ, ShiftSpec(beta=1.5, mu=np.array([0.6, 0.8]))),
    "3d": ((3, 1, 0.25), power_law(2.0), None),
}


class TestBatchedEvaluate:
    def test_coefficients_near_the_double_range_sample_where_finite(self):
        # the rows are unit phases and f enters the folded waves, scaled by a
        # power of two near the double range, so a field of 1.7e308 + 1.7e308j
        # samples wherever its value is finite: at x = 1 the 9 terms nearly
        # cancel, and a point not finite gives NaN
        g = make_grid(1, 4, 1)
        f = SpectralField(g, np.full(g.num_modes, 1.7e308 + 1.7e308j))
        law, times = power_law(0.5), np.array([0.0, 0.5])
        got = evaluate_shifted(f, law, times, None, np.array([[1.0], [math.nan]]))
        assert np.isnan(got[:, 1].real).all() and np.isnan(got[:, 1].imag).all()
        with mpmath.workdps(DPS):
            phases = ExactPhases(f, law, None)
            for k, t in enumerate(times):
                exact, b = exact_sample(f, phases.point([1.0]), phases.time(t))
                assert abs(mpmath.mpc(complex(got[k, 0])) - exact) <= b
        # at x = 0 they add up past the double range, at both times
        for t in times:
            with pytest.raises(ParameterError, match=r"^coefficients too large to sample: a sum over the modes overflows$"):
                evaluate_shifted(f, law, t, None, np.array([[0.0]]))

    def test_a_cancelling_field_at_the_double_range_samples_its_value(self):
        # w = dxi / (2*pi) = 1 and f = (a, -a, a): at x = 0 and t = 0 the sum
        # is a itself, while w times the field's power of two overflows
        g = make_grid(1, 2.0 * math.pi, 2.0 * math.pi)
        a = 1.7e308
        f = SpectralField(g, np.array([a, -a, a], dtype=complex))
        assert g.synthesis_scale == 1.0
        assert evaluate_shifted(f, power_law(0.5), 0.0, None, 0.0) == a
        assert synthesize(f, 0.0) == a

    def test_a_subnormal_field_on_a_wide_grid_samples(self):
        # w = 30 / (2*pi) > 4: the field's power of two is at its floor, and
        # the field is scaled up by more than 2**1023 into the normal range
        g = make_grid(1, 30, 30)
        f = SpectralField(g, np.array([3, -7 + 2j, 5j]) * 5e-324)
        law, times, points = power_law(0.5), np.array([0.0, 0.5]), np.array([[0.0], [0.7]])
        got = evaluate_shifted(f, law, times, None, points)
        with mpmath.workdps(DPS):
            phases = ExactPhases(f, law, None)
            for k, t in enumerate(times):
                for p, x in enumerate(points):
                    exact, b = exact_sample(f, phases.point(x.tolist()), phases.time(t))
                    assert abs(mpmath.mpc(complex(got[k, p])) - exact) <= b + 2.0**-1074
        trace = pointwise_trace(f, law, TimeSequence.power(2.0), 0.5, points, k_max=16)
        assert np.isfinite(trace.partial_sums).all()

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
            fold = propagation._fold(g, law, shift)  # the kernel's rows are fold-wide
            monkeypatch.setattr(spectral, "BLOCK_BYTES", block_bytes(fold, len(points), rows_per_block))
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
        fold = propagation._fold(g, BOUSSINESQ, None)  # the kernel's rows are fold-wide
        monkeypatch.setattr(spectral, "BLOCK_BYTES", block_bytes(fold, 1, 3))
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

    def test_builds_no_field_per_time(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            propagation, "SpectralField", lambda *args: built.append(args) or SpectralField(*args)
        )
        f = random_field(make_grid(1, 2, 0.5), np.random.default_rng(46))
        evaluate_shifted(f, BOUSSINESQ, np.linspace(0.0, 1.0, 8), None, default_points(1, 3))
        assert built == []

    @pytest.mark.parametrize("times", [np.empty(0), np.zeros((2, 2))])
    def test_times_must_be_a_nonempty_vector(self, times):
        f = random_field(make_grid(1, 1, 1), np.random.default_rng(0))
        with pytest.raises(ParameterError, match="times"):
            evaluate_shifted(f, BOUSSINESQ, times, None, 0.0)

    def test_points_must_match_the_grid(self):
        f = random_field(make_grid(2, 1, 1), np.random.default_rng(0))
        with pytest.raises(ParameterError, match="points"):
            evaluate_shifted(f, BOUSSINESQ, np.array([0.1]), None, np.zeros((4, 3)))


def row_on_its_own(grid, law, t, shift, residual):
    """A residual row e^{i theta} - 1 or an evolved row e^{i theta} formed for
    one time t on the modes of the fold, with the exact per-row checks that
    ``_checked`` applies to the times it confirms."""
    if not (0 <= t < math.inf):
        raise ParameterError(f"t must be nonnegative and finite, got {t}")
    with np.errstate(over="ignore", invalid="ignore"):
        theta = lattice_phase(grid, law, t, shift)
    if not np.isfinite(theta).all():
        raise ParameterError(f"the phase of {law.name} is not finite at t={t}")
    row = on_fold(grid, shift, np.exp(1j * theta))
    return row - 1.0 if residual else row


def sums_one_row_at_a_time(field, law, times, shift, pts, residual):
    """Each row formed on its own by ``row_on_its_own`` and summed on its own
    against the field's folded waves."""
    waves, unscale = spectral._fold_waves(field, pts, propagation._fold(field.grid, law, shift))
    sums = []
    for t in times:
        row = row_on_its_own(field.grid, law, float(t), shift, residual)
        sums.append(spectral._wave_sums(waves, unscale, 1, lambda i, out: np.copyto(out, row))[0])
    return np.array(sums)


def outcome(run):
    """The bits of what ``run()`` returns, or the error it raises."""
    try:
        return bits(run()).tolist()
    except ParameterError as exc:
        return type(exc), str(exc)


class TestRowBatches:
    """The wave sums fill their rows a batch at a time; each sum is that of
    its row formed and summed on its own, bit for bit, and a row that cannot
    be formed raises the error that forming the rows one at a time raises."""

    @settings(max_examples=60, deadline=None)
    @given(
        residual=st.booleans(),
        shifted=st.booleans(),
        grid_args=st.sampled_from([(1, 8, 0.125), (2, 2, 0.25), (3, 1, 0.5)]),
        num_rows=st.integers(16, 41),
        num_pts=st.sampled_from([1, 2, 3, 4, 30]),
        # one batch of all the rows, or blocks of 2 to 64 (row, point)
        # products; at 30 points, batches of 4, 5 or 8 rows of several blocks
        block_rows=st.sampled_from([None, 2, 24, 40, 64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batches_sum_as_rows_one_at_a_time(
        self, residual, shifted, grid_args, num_rows, num_pts, block_rows, seed
    ):
        g = make_grid(*grid_args)
        rng = np.random.default_rng(seed)
        f = random_field(g, rng)
        shift = ShiftSpec(beta=1.5, mu=np.eye(g.n)[-1]) if shifted else None
        pts = rng.uniform(-4.0, 4.0, (num_pts, g.n))
        seq = TimeSequence.geometric(0.5)
        times = seq.terms(num_rows) if residual else rng.uniform(0.0, 3.0, num_rows)
        with pytest.MonkeyPatch.context() as mp:
            if block_rows is not None:
                fold = propagation._fold(g, BOUSSINESQ, shift)  # the kernel's rows are fold-wide
                mp.setattr(spectral, "BLOCK_BYTES", block_bytes(fold, num_pts, block_rows))
            if residual:
                got = pointwise_trace(f, BOUSSINESQ, seq, 0.5, pts, k_max=num_rows, shift=shift).partial_sums
            else:
                got = evaluate_shifted(f, BOUSSINESQ, times, shift, pts)
            want = sums_one_row_at_a_time(f, BOUSSINESQ, times, shift, pts, residual)
        assert want.shape == (num_rows, num_pts)
        if residual:
            # the trace prints only S_K, the squares of the sums added in k order
            want = np.cumsum(want.real * want.real + want.imag * want.imag, axis=0)[-1]
        assert got.shape == want.shape
        np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("bad", [
        {3: math.nan}, {3: -1.0}, {3: math.inf},
        {3: 1e308},  # t * r**2 overflows: the phase is not finite
        {2: 1e308, 4: math.nan}, {2: math.nan, 4: 1e308}, {6: -0.5, 2: 1e308},
    ], ids=lambda bad: ",".join(f"{k}:{v}" for k, v in bad.items()))
    def test_a_bad_row_inside_a_batch_names_its_t(self, bad):
        g = make_grid(1, 2, 1)
        f = random_field(g, np.random.default_rng(47))
        times = np.linspace(0.0, 1.0, 9)
        times[list(bad)] = list(bad.values())
        pts = default_points(1, 3)
        law = power_law(2.0)
        want = outcome(lambda: sums_one_row_at_a_time(f, law, times, None, pts, False))
        assert want[0] is ParameterError
        assert outcome(lambda: evaluate_shifted(f, law, times, None, pts)) == want

    def test_coefficients_near_the_double_range_do_not_stop_a_batch(self):
        # the rows are unit phases and f enters the folded waves, so a field
        # of 1.7e308 + 1.7e308j forms every row, f e^{i theta} at t = 0.5
        # included: the first bad t is the nan of row 6 (at t = 1e308 the
        # phase 1e308 * 2**0.5 is finite)
        g = make_grid(1, 2, 1)
        f = SpectralField(g, np.full(g.num_modes, 1.7e308 + 1.7e308j))
        times = np.array([0.0, 0.0, 0.0, 0.5, 0.0, 1e308, math.nan])
        pts = np.array([[math.nan], [math.inf]])  # NaN sums, which are no error
        law = power_law(0.5)
        want = outcome(lambda: sums_one_row_at_a_time(f, law, times, None, pts, False))
        assert want == (ParameterError, "t must be nonnegative and finite, got nan")
        assert outcome(lambda: evaluate_shifted(f, law, times, None, pts)) == want

    def test_a_bad_t_is_reported_before_any_sum(self, monkeypatch):
        # blocks of 2 rows of 32 points, and the sums certified after every
        # block.  At t = pi the phases t*xi**2 are near multiples of pi, so
        # the 17 modes of 1.7e308 nearly cancel and the samples are finite;
        # at t = 1e-3 they add up past the double range.  Every time is
        # checked before any row is formed, so a bad t at row 5 is reported
        # before the sums of row 1 are certified
        g = make_grid(1, 8, 1)
        fold = propagation._fold(g, power_law(2.0), None)  # the kernel's rows are fold-wide
        monkeypatch.setattr(spectral, "BLOCK_BYTES", block_bytes(fold, 32, 64))
        f = SpectralField(g, np.full(g.num_modes, 1.7e308))
        times = np.full(8, math.pi)
        assert np.isfinite(evaluate_shifted(f, power_law(2.0), times, None, np.zeros((32, 1)))).all()
        times[1] = 1e-3
        with pytest.raises(ParameterError, match="^coefficients too large to sample: a sum over"):
            evaluate_shifted(f, power_law(2.0), times, None, np.zeros((32, 1)))
        times[5] = -1.0
        with pytest.raises(ParameterError, match=r"^t must be nonnegative and finite, got -1\.0$"):
            evaluate_shifted(f, power_law(2.0), times, None, np.zeros((32, 1)))

    @staticmethod
    def confirmed(monkeypatch):
        """A list that gets, for each call of the up-front check
        ``_checked``, the list of times whose rows it forms alone."""
        confirmed, angles, check = [], propagation._angles, propagation._checked

        def recording(fold, times, out):
            confirmed[-1] += times.tolist()
            return angles(fold, times, out)

        def checked(*args):
            confirmed.append([])
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(propagation, "_angles", recording)
                return check(*args)

        monkeypatch.setattr(propagation, "_checked", checked)
        monkeypatch.setattr(convergence, "_checked", checked)
        return confirmed

    def test_ordinary_times_form_no_confirmation_row(self, monkeypatch):
        # at positive finite times on a field of moderate size every phase
        # bound lies far below the margin: the check forms no row
        g = make_grid(2, 4, 0.25)
        f = random_field(g, 61)
        shift = ShiftSpec(beta=1.5, mu=unit(1.0, 0.0))
        pts = default_points(2, 4)
        confirmed = self.confirmed(monkeypatch)
        evaluate_shifted(f, QUARTIC, np.linspace(0.05, 3.0, 20), shift, pts)
        pointwise_trace(f, BOUSSINESQ, TimeSequence.geometric(0.5), 0.5, pts, k_max=40, shift=shift)
        # 0.5**k underflows to t = 0 from k = 1075 on; t = 0 cannot fail
        # without a shift or for beta > 0, so it is not confirmed either
        seq = TimeSequence.geometric(0.5)
        assert seq.terms(1100)[-1] == 0.0
        pointwise_trace(f, BOUSSINESQ, seq, 0.5, pts, k_max=1100)
        pointwise_trace(f, BOUSSINESQ, seq, 0.5, pts, k_max=1100, shift=shift)
        assert confirmed == [[], [], [], []]

    def test_a_flagged_t_with_a_finite_phase_samples_as_before(self, monkeypatch):
        # max|xi|**2 = 4, so t = 2**1019 has the phase bound 2**1021, past
        # the margin: that t alone is formed by the check, passes, and its
        # row is sampled bit for bit as a row formed on its own
        g = make_grid(1, 2, 1)
        f = random_field(g, np.random.default_rng(67))
        law, pts = power_law(2.0), default_points(1, 3)
        times = np.array([0.5, 2.0**1019, 0.25])
        confirmed = self.confirmed(monkeypatch)
        got = evaluate_shifted(f, law, times, None, pts)
        assert confirmed == [[2.0**1019]]
        want = sums_one_row_at_a_time(f, law, times, None, pts, False)
        np.testing.assert_array_equal(bits(got), bits(want))

def unit(*mu):
    return np.array(mu) / math.sqrt(math.fsum(m * m for m in mu))


#: (grid, law, mu or None, modes of the fold): no shift, mu along each axis,
#: mu with no zero component (no fold), and mu = (-1, 0), whose zero
#: component gives mu.xi = -0 at xi_1 = 0, xi_2 < 0 and +0 at xi_2 > 0
FOLD_CASES = [
    pytest.param(make_grid(1, 64, 0.125), power_law(0.5), None, 513, id="1d"),
    pytest.param(make_grid(1, 8, 0.125), BOUSSINESQ, unit(-1.0), 129, id="1d-shift"),
    pytest.param(make_grid(2, 16, 0.25), BOUSSINESQ, None, 65 * 65, id="2d"),
    pytest.param(make_grid(2, 16, 0.25), BOUSSINESQ, unit(1.0, 0.0), 8385, id="2d-e1"),
    pytest.param(make_grid(2, 4, 0.25), QUARTIC, unit(0.0, 1.0), 561, id="2d-e2"),
    pytest.param(make_grid(2, 4, 0.25), QUARTIC, unit(0.6, -0.8), 1089, id="2d-no-fold"),
    pytest.param(make_grid(2, 4, 0.25), power_law(2.0), unit(-1.0, 0.0), 561, id="2d-minus-e1"),
    pytest.param(make_grid(3, 2, 0.5), power_law(0.5), None, 125, id="3d"),
    pytest.param(make_grid(3, 2, 0.5), BOUSSINESQ, unit(0.0, 0.0, 1.0), 225, id="3d-e3"),
    pytest.param(make_grid(3, 2, 0.5), QUARTIC, unit(0.0, -1.0, 0.0), 225, id="3d-minus-e2"),
    pytest.param(make_grid(3, 2, 0.5), BOUSSINESQ, unit(1.0, 2.0, -2.0), 729, id="3d-no-fold"),
]


class TestPhaseFold:
    """theta is evaluated on the fold and e^{i theta} mirrored from there,
    which needs theta even, bit for bit, in each coordinate mu does not touch."""

    @pytest.mark.parametrize("grid, law, mu, folded", FOLD_CASES)
    def test_rows_are_the_full_formula_bit_for_bit(self, grid, law, mu, folded):
        shift = None if mu is None else ShiftSpec(beta=1.5, mu=mu)
        times = np.array([0.0, -0.0, 1e-3, 0.37, 2.5, 40.0])
        fold = propagation._fold(grid, law, shift)
        rows = np.empty((len(times), fold.num_modes), dtype=complex)
        theta = propagation._angles(fold, times, rows)
        assert fold.num_modes == folded and theta.shape == (len(times), folded)
        for row, t in zip(rows, times):
            want = np.exp(1j * lattice_phase(grid, law, float(t), shift))
            # the rows on the fold, and mirrored to the whole lattice
            np.testing.assert_array_equal(row.view(np.int64), on_fold(grid, shift, want).view(np.int64))
            factor, _ = propagation._phase_factor(fold, float(t))
            np.testing.assert_array_equal(factor.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("variant", LIBM_VARIANTS)
    def test_rows_are_the_full_formula_under_libm_variants(self, variant):
        test = f"{Path(__file__).resolve()}::TestPhaseFold::test_rows_are_the_full_formula_bit_for_bit"
        assert_passes_in_fresh_interpreter(test, variant, len(FOLD_CASES))

    def test_mu_must_match_the_grid(self):
        with pytest.raises(ParameterError, match=r"mu has shape \(1,\), expected \(2,\)"):
            propagation._fold(make_grid(2, 1, 1), BOUSSINESQ, ShiftSpec(beta=1.5, mu=E1))


def wave_points(n, rng):
    """Sample points for the wave tests: random ones, moderate and large,
    and the edges: (0.25, 0.25) (whose phases include +0 on both sides of
    the lattice), (1, -1), zero and -0.0 coordinates, nan, +-inf and
    1e308, whose phases overflow."""
    edges = [[0.25] * n, [1.0, -1.0, 0.5][:n], [0.0] * n, [-0.0] * n, [0.0, -0.0, 0.0][:n],
             [-0.0, 0.5, 0.0][:n], [math.nan] * n, [0.5, math.nan, 1.0][:n], [math.inf] * n,
             [-math.inf] * n, [1.0, -math.inf, 0.0][:n], [1e308] * n, [-1e308, 0.25, 1e308][:n]]
    return np.concatenate(
        [rng.uniform(-4.0, 4.0, (16, n)), rng.uniform(-1e6, 1e6, (4, n)), np.array(edges)]
    )


WAVE_GRIDS = [
    pytest.param(make_grid(1, 64, 0.125), id="1d-1025"),
    pytest.param(make_grid(2, 4, 0.25), id="2d-1089"),
    pytest.param(make_grid(2, 16, 0.25), id="2d-16641"),
    pytest.param(make_grid(3, 2, 0.5), id="3d-729"),
]

#: The folds the wave tests cover on each grid: the whole lattice (no fold,
#: as ``synthesize`` samples), every axis folded, and every axis but the
#: first or the last
WAVE_FOLDS = ["whole", "unshifted", "mu-e1", "mu-last"]


class TestWaves:
    """``_fold_waves`` forms the waves an axis at a time and the products at
    +c from the conjugates of the waves at -c, which needs libm's sin odd and
    cos even bit for bit."""

    @pytest.mark.parametrize("grid", WAVE_GRIDS)
    @pytest.mark.parametrize("fold", WAVE_FOLDS)
    def test_folded_waves_are_the_reference_bit_for_bit(self, grid, fold):
        pts = wave_points(grid.n, np.random.default_rng(grid.num_modes))
        f = random_field(grid, grid.num_modes)
        mu = {"mu-e1": np.eye(grid.n)[0], "mu-last": np.eye(grid.n)[-1]}.get(fold)
        shift = None if mu is None else ShiftSpec(beta=1.5, mu=mu)
        folded = [keep.stop is not None and fold != "whole" for keep in fold_box(grid, shift)]
        waves, (_, e) = spectral._fold_waves(
            f, pts, None if fold == "whole" else propagation._fold(grid, BOUSSINESQ, shift))
        scaled = SpectralField(grid, np.ldexp(f.coefficients.view(float), -e).view(complex))
        with np.errstate(invalid="ignore", over="ignore"):
            want = reference_waves(scaled, pts, folded).view(float)
        got = waves.view(float)
        # where the reference gives nan, so must the waves, with any payload
        # and sign; everywhere else the bits are equal
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        np.testing.assert_array_equal(got.view(np.int64)[~nan], want.view(np.int64)[~nan])
        assert nan.any() and not nan.all()

    @pytest.mark.parametrize("variant", LIBM_VARIANTS)
    def test_folded_waves_are_the_reference_under_libm_variants(self, variant):
        # the bit-identity test again in a fresh interpreter, where the
        # variables take effect: a libm whose sin is not odd fails here
        # instead of moving a golden digest
        test = f"{Path(__file__).resolve()}::TestWaves::test_folded_waves_are_the_reference_bit_for_bit"
        assert_passes_in_fresh_interpreter(test, variant, len(WAVE_GRIDS) * len(WAVE_FOLDS))

    @pytest.mark.parametrize("grid, shift, folded, kept", [
        pytest.param(spectral.default_grid(), None, True, 513, id="trace-1d"),
        pytest.param(make_grid(2, 16, 0.25), ShiftSpec(beta=1.5, mu=np.array([1.0, 0.0])), True,
                     129 + 65, id="trace-2d-shift"),
        pytest.param(make_grid(2, 16, 0.25), None, False, 2 * 129, id="synthesize-16641"),
    ])
    def test_a_call_exponentiates_the_kept_coordinates_of_every_axis(
        self, grid, shift, folded, kept, monkeypatch
    ):
        # P times the coordinates each axis keeps, where a table of the
        # lattice's waves would take P times half its modes (8,321 on 16,641)
        sizes = []

        def recording_exp(x, *args, **kwargs):
            sizes.append(np.size(x))
            return exp(x, *args, **kwargs)

        exp = np.exp
        f = random_field(grid, 3)
        fold = propagation._fold(grid, BOUSSINESQ, shift) if folded else None
        monkeypatch.setattr(np, "exp", recording_exp)
        spectral._fold_waves(f, default_points(grid.n, 32), fold)
        assert sum(sizes) == 32 * kept


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
