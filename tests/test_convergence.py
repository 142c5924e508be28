import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab import (
    BOUSSINESQ,
    LINEAR,
    QUARTIC,
    ConvergenceCriterion,
    Family,
    HypothesisViolation,
    MultiplierSpec,
    NotApplicableError,
    ParameterError,
    SpectralField,
    TimeSequence,
    analytic_envelope,
    make_grid,
    numeric_sup,
    parse_sequence,
    pointwise_trace,
    power_law,
    random_field,
    rate_fit,
    required_exponent,
    sequence_applicable,
)
from phaselab import convergence
from phaselab.convergence import default_points
from phaselab.propagation import ShiftSpec, _angles


class TestTimeSequence:
    def test_power_terms_inside_unit_interval(self):
        t = TimeSequence.power(2.0).terms(100)
        assert np.all((t > 0) & (t < 1))
        assert np.all(np.diff(t) < 0)
        assert t[0] == 0.25  # (k+1)^(-p) at k = 1

    def test_geometric_terms(self):
        t = TimeSequence.geometric(0.5).terms(4)
        np.testing.assert_allclose(t, [0.5, 0.25, 0.125, 0.0625])

    def test_explicit_validation(self):
        TimeSequence.explicit([0.5, 0.25])
        with pytest.raises(ParameterError):
            TimeSequence.explicit([0.25, 0.5])
        with pytest.raises(ParameterError):
            TimeSequence.explicit([1.0, 0.5])

    def test_parse(self):
        assert parse_sequence("power:p=2").p == 2.0
        assert parse_sequence("geometric:r=0.5").r == 0.5
        assert parse_sequence("explicit:0.5,0.25").values == (0.5, 0.25)


class TestRequiredExponent:
    def test_low_regularity_power_phase(self):
        cond = required_exponent(ConvergenceCriterion.POWER_LOW, s=0.25, a=0.5)
        assert cond.form == "power-sum"
        assert cond.q == pytest.approx(1.0)

    def test_high_regularity_is_square_summable(self):
        cond = required_exponent(ConvergenceCriterion.POWER_HIGH, s=0.5, a=0.5)
        assert cond.q == 2.0

    def test_super_shift_boundary_reports_violation(self):
        # q = 2*(beta - 1 + s/a) = 0 exactly when s = a*(1-beta): vacuous
        with pytest.raises(HypothesisViolation) as err:
            required_exponent(ConvergenceCriterion.POWER_SHIFT_SUPER, s=1.0, a=2.0, beta=0.5)
        assert "s > a*(1-beta)" in str(err.value)

    def test_sub_shift_branches(self):
        hi = required_exponent(ConvergenceCriterion.POWER_SHIFT_SUB, s=1.0, a=0.5, beta=2.0)
        lo = required_exponent(ConvergenceCriterion.POWER_SHIFT_SUB, s=1.0, a=0.5, beta=0.5)
        assert hi.q == pytest.approx(2.0 * (1 + (1 - 1) / 0.5))
        assert lo.q == pytest.approx(2.0 * (0.5 + (1 - 1) / 0.5))

    def test_special_cases(self):
        assert required_exponent(ConvergenceCriterion.BOUSSINESQ, s=0.8).q == pytest.approx(0.8)
        assert required_exponent(ConvergenceCriterion.QUARTIC, s=0.8).q == pytest.approx(0.4)

    def test_gamma_sum_summand_oracle(self):
        # quartic with s=1: the summand behaves like (t/2)^(1/2) for small t
        cond = required_exponent(ConvergenceCriterion.GAMMA, s=1.0, law=QUARTIC)
        assert cond.form == "gamma-sum"
        assert cond.power_equivalent == pytest.approx(0.5)
        for t in (1e-6, 1e-8):
            assert float(cond.summand(t)) == pytest.approx((t / 2) ** 0.5, rel=1e-3)

    def test_gamma_power_equivalent_matches_low_regularity(self):
        cond = required_exponent(ConvergenceCriterion.GAMMA, s=0.5, law=power_law(2.0))
        assert cond.power_equivalent == pytest.approx(0.5)

    def test_shift_gamma_adds_beta_factor(self):
        cond = required_exponent(
            ConvergenceCriterion.GAMMA_SHIFT, s=1.0, law=LINEAR, beta=0.5
        )
        assert cond.power_equivalent == pytest.approx(2.0 + (0.5 - 1.0))
        t = 1e-6
        assert float(cond.summand(t)) == pytest.approx(t**-0.5 * t**2.0, rel=1e-9)


class TestSequenceApplicable:
    def test_p_one_with_square_sum(self):
        verdict = sequence_applicable(
            TimeSequence.power(1.0), ConvergenceCriterion.POWER_HIGH, s=0.5, a=0.5
        )
        assert verdict.decision == "yes"

    def test_slow_power_diverges(self):
        verdict = sequence_applicable(
            TimeSequence.power(0.5), ConvergenceCriterion.POWER_LOW, s=0.25, a=0.5
        )
        assert verdict.decision == "no"

    def test_geometric_quartic(self):
        verdict = sequence_applicable(
            TimeSequence.geometric(0.5), ConvergenceCriterion.GAMMA, s=1.0, law=QUARTIC
        )
        assert verdict.decision == "yes"

    def test_explicit_fast_decay_numeric_yes(self):
        seq = TimeSequence.explicit([2.0**-k for k in range(1, 160)])
        verdict = sequence_applicable(seq, ConvergenceCriterion.POWER_HIGH, s=0.5, a=0.5)
        assert verdict.decision == "yes"
        assert "stabilized" in verdict.reason

    def test_explicit_slow_decay_unknown(self):
        seq = TimeSequence.explicit([1.0 / (k + 1) for k in range(1, 200)])
        verdict = sequence_applicable(seq, ConvergenceCriterion.POWER_HIGH, s=0.5, a=0.5)
        assert verdict.decision == "unknown"

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.floats(0.05, 3.0),
        s_frac=st.floats(0.05, 1.0),
        a=st.floats(0.05, 1.0),
    )
    def test_power_rule_exact(self, p, s_frac, a):
        s = s_frac * a
        q = 2.0 * s / a
        if abs(p * q - 1.0) < 1e-9:
            return
        verdict = sequence_applicable(
            TimeSequence.power(p), ConvergenceCriterion.POWER_LOW, s=s, a=a
        )
        assert verdict.decision == ("yes" if p * q > 1 else "no")


class TestRateFit:
    DELTAS = [10.0 ** (-e) for e in np.linspace(2, 8, 25)]

    def test_power_half_half(self):
        rep = rate_fit(MultiplierSpec(Family.POWER, s=0.5, delta=1e-3, a=0.5), self.DELTAS)
        assert rep.passed
        assert rep.fitted_slope == pytest.approx(1.0, abs=0.01)

    def test_power_quarter_half(self):
        rep = rate_fit(MultiplierSpec(Family.POWER, s=0.25, delta=1e-3, a=0.5), self.DELTAS)
        assert rep.passed
        assert rep.fitted_slope == pytest.approx(0.5, abs=0.01)

    def test_quartic_slope_is_quarter_of_s(self):
        # the envelope ginv(2/d)^(-s) decays like d^(s/4); the measured sup
        # follows it, so the fitted slope for s=1 is 1/4
        rep = rate_fit(
            MultiplierSpec(Family.GAMMA, s=1.0, delta=1e-3, law=QUARTIC), self.DELTAS
        )
        assert rep.theoretical_slope == pytest.approx(0.25, abs=1e-4)
        assert rep.passed

    def test_stability_when_dropping_largest_delta(self):
        template = MultiplierSpec(Family.POWER, s=0.5, delta=1e-3, a=0.5)
        full = rate_fit(template, self.DELTAS).fitted_slope
        trimmed = rate_fit(template, self.DELTAS[:-1]).fitted_slope
        assert abs(full - trimmed) < 0.02

    def test_needs_five_values_and_four_decades(self):
        template = MultiplierSpec(Family.POWER, s=0.5, delta=1e-3, a=0.5)
        with pytest.raises(ParameterError):
            rate_fit(template, [1e-2, 1e-3, 1e-4, 1e-5])
        with pytest.raises(ParameterError):
            rate_fit(template, [1e-2, 2e-3, 1e-3, 2e-4, 1e-4])


def one_mode_field(grid, xi, c):
    coeffs = np.zeros(grid.num_modes, dtype=complex)
    hits = np.flatnonzero(np.all(grid.modes == np.atleast_1d(xi), axis=1))
    coeffs[hits[0]] = c
    return SpectralField(grid, coeffs)


class TestPointwiseTrace:
    def test_zero_field(self):
        g = make_grid(1, 2, 1)
        f = SpectralField(g, np.zeros(5))
        tr = pointwise_trace(f, power_law(0.5), TimeSequence.geometric(0.5), 0.5, [[0.0], [1.0]], k_max=32)
        assert np.all(tr.partial_sums == 0)

    def test_one_mode_closed_form_everywhere(self):
        g = make_grid(1, 1, 1)
        c = 0.8 + 0.3j
        f = one_mode_field(g, [1.0], c)
        seq = TimeSequence.geometric(0.5)
        k = 64
        points = [[x] for x in np.linspace(-3, 3, 7)]
        tr = pointwise_trace(f, power_law(0.5), seq, 0.5, points, k_max=k)
        t = seq.terms(k)
        want = math.fsum(np.abs(np.exp(1j * t * 1.0) - 1) ** 2) * abs(c) ** 2 / (2 * math.pi) ** 2
        for value in tr.partial_sums:
            assert value == pytest.approx(want, rel=1e-12)

    def test_partial_sums_monotone(self):
        g = make_grid(1, 8, 0.25)
        f = random_field(g, np.random.default_rng(55))
        tr = pointwise_trace(
            f, power_law(0.5), TimeSequence.power(2.0), 0.5, default_points(1, 8), k_max=64
        )
        assert np.all(np.diff(tr.history, axis=0) >= 0)

    def test_rejects_non_applicable_sequence(self):
        g = make_grid(1, 2, 1)
        f = random_field(g, np.random.default_rng(2))
        with pytest.raises(NotApplicableError):
            pointwise_trace(f, power_law(0.5), TimeSequence.power(0.4), 0.25, [[0.0]], k_max=32)

    def test_k_floor(self):
        g = make_grid(1, 2, 1)
        f = random_field(g, np.random.default_rng(2))
        with pytest.raises(ParameterError):
            pointwise_trace(f, power_law(0.5), TimeSequence.power(2.0), 0.5, [[0.0]], k_max=8)


def reference_history(field, law, seq, points, k_max, shift=None):
    """The per-(k, point) fsum loop that the batched trace reduction replaced."""
    grid = field.grid
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    norm = grid.weight / (2.0 * math.pi) ** grid.n
    waves = np.exp(1j * (pts @ grid.modes.T))
    times = seq.terms(k_max)
    history = np.empty((len(times), pts.shape[0]))
    running = np.zeros(pts.shape[0])
    for k in range(len(times)):
        theta = _angles(grid, law, float(times[k]), shift)
        coeff = (np.exp(1j * theta) - 1.0) * field.coefficients
        for i in range(pts.shape[0]):
            z = coeff * waves[i]
            val = complex(math.fsum(z.real), math.fsum(z.imag)) * norm
            running[i] += val.real * val.real + val.imag * val.imag
        history[k] = running
    return history


TRACE_CASES = {
    "1d": ((1, 8, 0.125), power_law(0.5), TimeSequence.power(2.0), None, 32),
    "2d-shift": ((2, 4, 0.25), BOUSSINESQ, TimeSequence.geometric(0.5), 1.5, 16),
    "3d": ((3, 1, 0.25), BOUSSINESQ, TimeSequence.geometric(0.5), None, 16),
}


class TestBatchedTrace:
    @pytest.mark.parametrize("case", sorted(TRACE_CASES))
    @pytest.mark.parametrize("rows_per_block", [None, 2, 15])
    def test_bit_identical_to_per_point_loop(self, case, rows_per_block, monkeypatch):
        grid_args, law, seq, beta, k_max = TRACE_CASES[case]
        g = make_grid(*grid_args)
        f = random_field(g, np.random.default_rng(41))
        shift = ShiftSpec(beta=beta, mu=np.eye(g.n)[0]) if beta is not None else None
        points = default_points(g.n, 5)
        if rows_per_block is not None:
            # blocks of 2 (k, point) rows split every k's 5 points; blocks of
            # 15 rows hold three k, and the last block is shorter than the rest
            monkeypatch.setattr(convergence, "TRACE_BLOCK_BYTES", 16 * g.num_modes * rows_per_block)
        tr = pointwise_trace(f, law, seq, 0.5, points, k_max=k_max, shift=shift)
        want = reference_history(f, law, seq, points, k_max, shift)
        assert tr.history.shape == want.shape
        np.testing.assert_array_equal(tr.history.view(np.int64), want.view(np.int64))
        np.testing.assert_array_equal(tr.partial_sums.view(np.int64), want[-1].view(np.int64))

    def test_no_points(self):
        g = make_grid(1, 2, 0.5)
        f = random_field(g, np.random.default_rng(2))
        tr = pointwise_trace(f, power_law(0.5), TimeSequence.power(2.0), 0.5, np.empty((0, 1)), k_max=16)
        assert tr.history.shape == (16, 0)
        assert tr.partial_sums.size == 0


class TestConsistencyChain:
    def test_certified_family_with_accepted_sequence_sums(self):
        # if the certificate holds and the sequence is accepted with exponent
        # q, then sum_k sup(t_k)^2 <= 2.5^2 * sum_k envelope(t_k)^2 < inf
        s, a, p = 0.5, 0.5, 2.0
        template = MultiplierSpec(Family.POWER, s=s, delta=1e-3, a=a)
        seq = TimeSequence.power(p)
        verdict = sequence_applicable(seq, ConvergenceCriterion.POWER_LOW, s=s, a=a)
        assert verdict.decision == "yes"
        k_max = 4096
        t = seq.terms(k_max)
        sup_sq = []
        env_sq = []
        for tk in t:
            spec = template.with_delta(float(tk))
            sup_sq.append(numeric_sup(spec, per_decade=8, refine=128).sup ** 2)
            env_sq.append(analytic_envelope(spec) ** 2)
        sup_total = math.fsum(sup_sq)
        env_total = math.fsum(env_sq)
        assert sup_total <= 2.5**2 * env_total
        # explicit tail: envelope(t_k)^2 = (k+1)^(-2p*s/a), so the remainder
        # past K is below (K+1)^(1-2p*s/a)/(2p*s/a - 1)
        c = 2 * p * s / a
        tail = (k_max + 1.0) ** (1.0 - c) / (c - 1.0)
        assert tail < 1e-9
        assert math.isfinite(env_total)
