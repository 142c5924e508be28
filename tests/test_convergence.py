import contextlib
import hashlib
import io
import math
import re

import mpmath
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
from phaselab import cli, convergence, propagation, spectral
from phaselab.convergence import default_points, envelope_log_slope
from phaselab.propagation import ShiftSpec
from test_cli import GOLDEN_TRACES
from test_propagation import fold_sum, lattice_phase, on_fold, reference_folded_waves
from test_spectral import block_bytes


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
        assert cond.q == pytest.approx(0.5)
        for t in (1e-6, 1e-8):
            assert float(cond.summand(t)) == pytest.approx((t / 2) ** 0.5, rel=1e-3)

    def test_gamma_power_equivalent_matches_low_regularity(self):
        cond = required_exponent(ConvergenceCriterion.GAMMA, s=0.5, law=power_law(2.0))
        assert cond.q == pytest.approx(0.5)

    def test_shift_gamma_adds_beta_factor(self):
        # the squared envelope: t**(2*(beta-1)) * ginv(g(1)/t)**(-2s)
        cond = required_exponent(
            ConvergenceCriterion.GAMMA_SHIFT, s=1.0, law=LINEAR, beta=0.5
        )
        assert cond.q == pytest.approx(2.0 * (1.0 + 0.5 - 1.0))
        t = 1e-6
        assert float(cond.summand(t)) == pytest.approx(t**-1.0 * t**2.0, rel=1e-9)


#: One setting of each row's parameters inside its hypotheses.
ROW_PARAMS = {
    "power-low": dict(s=0.25, a=0.5),
    "power-high": dict(s=0.75, a=0.5),
    "power-shift-sub": dict(s=0.75, a=0.5, beta=1.5),
    "power-shift-super": dict(s=1.0, a=2.0, beta=0.8),
    "gamma": dict(s=0.5, law=QUARTIC),
    "gamma-shift": dict(s=0.5, law=BOUSSINESQ, beta=1.5),
    "boussinesq": dict(s=0.5),
    "quartic": dict(s=0.5),
}


class TestRegimeRows:
    @pytest.mark.parametrize("criterion", sorted(ROW_PARAMS))
    def test_unread_parameter_is_rejected(self, criterion):
        params = ROW_PARAMS[criterion]
        required_exponent(criterion, **params)
        unread = {"a": 0.5, "beta": 1.5, "law": QUARTIC}
        for name, value in unread.items():
            if name not in params:
                with pytest.raises(ParameterError, match=f"does not read {name}"):
                    required_exponent(criterion, **params, **{name: value})

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("criterion, params, message", [
        ("gamma-shift", dict(law=QUARTIC, beta=math.nan), "shift families require a finite beta"),
        ("power-low", dict(a=math.nan), "power families require a > 0"),
        ("power-high", dict(a=-1.0), "power families require a > 0"),
        ("power-high", dict(a=math.inf), "power families require a > 0"),
    ])
    def test_parameter_outside_its_domain_is_rejected(self, criterion, params, message, strict):
        # the check MultiplierSpec makes, in strict mode and out of it
        with pytest.raises(ParameterError, match=re.escape(message)):
            required_exponent(criterion, s=0.5, **params, strict=strict)

    @pytest.mark.parametrize("criterion", sorted(ROW_PARAMS))
    def test_missing_parameter_is_rejected(self, criterion):
        params = ROW_PARAMS[criterion]
        for name in set(params) - {"s"}:
            with pytest.raises(ParameterError, match="requires"):
                required_exponent(criterion, **{k: v for k, v in params.items() if k != name})

    def test_gamma_shift_power_law_matches_power_shift_super(self):
        # a power law through the gamma-shift row has the q of power-shift-super
        checked = 0
        for s in (0.25, 0.5, 0.75, 1.0):
            for a in (1.0, 1.5, 2.0, 3.0):
                for beta in (0.3, 0.6, 0.9, 1.0, 1.2, 2.5):
                    p = dict(s=s, beta=beta)
                    try:
                        gamma = required_exponent("gamma-shift", law=power_law(a), **p)
                        power = required_exponent("power-shift-super", a=a, **p)
                    except HypothesisViolation:
                        continue
                    assert gamma.q == pytest.approx(power.q, rel=1e-12)
                    checked += 1
        assert checked > 40

    def test_gamma_linear_power_matches_power_low(self):
        for s in (0.1, 0.5, 1.0):
            gamma = required_exponent("gamma", s=s, law=power_law(1.0))
            assert gamma.q == required_exponent("power-low", s=s, a=1.0).q

    @pytest.mark.parametrize(
        "template",
        [
            MultiplierSpec(Family.POWER, s=0.25, delta=1e-3, a=0.5),
            MultiplierSpec(Family.POWER_SHIFT, s=0.75, delta=1e-3, a=0.5, beta=1.5),
            MultiplierSpec(Family.POWER_SHIFT, s=0.75, delta=1e-3, a=0.7, beta=0.8),
            MultiplierSpec(Family.POWER_SHIFT, s=1.0, delta=1e-3, a=2.0, beta=1.5),
            MultiplierSpec(Family.POWER_SHIFT, s=1.0, delta=1e-3, a=2.0, beta=0.8),
            MultiplierSpec(Family.GAMMA, s=0.5, delta=1e-3, law=BOUSSINESQ),
            MultiplierSpec(Family.GAMMA, s=0.75, delta=1e-3, law=QUARTIC),
            MultiplierSpec(Family.GAMMA_SHIFT, s=0.5, delta=1e-3, law=QUARTIC, beta=0.8),
            MultiplierSpec(Family.GAMMA_SHIFT, s=0.5, delta=1e-3, law=BOUSSINESQ, beta=1.5),
        ],
        ids=lambda spec: f"{spec.family.value}-a{spec.a}-b{spec.beta}"
        + (f"-{spec.law.name}" if spec.law else ""),
    )
    def test_power_row_q_is_twice_the_envelope_slope(self, template):
        if template.family is Family.POWER_SHIFT:
            criterion = "power-shift-sub" if template.a < 1 else "power-shift-super"
        else:
            criterion = {Family.POWER: "power-low", Family.GAMMA: "gamma",
                         Family.GAMMA_SHIFT: "gamma-shift"}[template.family]
        params = {name: getattr(template, name) for name in template.family.reads}
        cond = required_exponent(criterion, s=template.s, **params)
        assert 2.0 * envelope_log_slope(template) == cond.q  # bitwise

    @pytest.mark.parametrize("alias,law", [("boussinesq", BOUSSINESQ), ("quartic", QUARTIC)])
    @pytest.mark.parametrize(
        "seq",
        [
            TimeSequence.power(3.0),
            TimeSequence.power(0.5),
            TimeSequence.geometric(0.5),
            TimeSequence.explicit([0.5, 0.25, 0.125, 0.0625]),
            TimeSequence.explicit([2.0**-k for k in range(1, 41)]),
            # 2**-70 lies below g(1)/g(1e9) for both laws: the gamma summand
            # widens its inversion brackets there
            TimeSequence.explicit([2.0**-k for k in range(1, 71)]),
        ],
        ids=lambda seq: seq.describe(),
    )
    def test_alias_is_a_power_sum_with_the_gamma_rows_q(self, alias, law, seq):
        by_alias = required_exponent(alias, s=0.5)
        by_gamma = required_exponent("gamma", s=0.5, law=law)
        assert (by_alias.form, by_gamma.form) == ("power-sum", "gamma-sum")
        assert by_alias.q == by_gamma.q  # bitwise
        decision = sequence_applicable(seq, by_alias).decision
        assert decision == sequence_applicable(seq, by_gamma).decision

    @pytest.mark.parametrize("alias,q", [("boussinesq", 0.5), ("quartic", 0.25)])
    def test_alias_sums_terms_below_the_inversion_bracket(self, alias, q):
        # 2**-70 lies below g(1)/g(1e9) for both laws; the alias's power sum
        # answers without inverting the law
        t = [2.0**-k for k in range(1, 71)]
        verdict = sequence_applicable(TimeSequence.explicit(t), required_exponent(alias, s=0.5))
        g = np.asarray(t) ** q
        growth = math.fsum(g) - math.fsum(g[:7])
        assert verdict.decision == "unknown"
        assert f"{growth:.3e}" in verdict.reason


class TestSequenceApplicable:
    def test_p_one_with_square_sum(self):
        cond = required_exponent(ConvergenceCriterion.POWER_HIGH, s=0.5, a=0.5)
        verdict = sequence_applicable(TimeSequence.power(1.0), cond)
        assert verdict.decision == "yes"

    def test_slow_power_diverges(self):
        cond = required_exponent(ConvergenceCriterion.POWER_LOW, s=0.25, a=0.5)
        verdict = sequence_applicable(TimeSequence.power(0.5), cond)
        assert verdict.decision == "no"

    def test_geometric_quartic(self):
        cond = required_exponent(ConvergenceCriterion.GAMMA, s=1.0, law=QUARTIC)
        verdict = sequence_applicable(TimeSequence.geometric(0.5), cond)
        assert verdict.decision == "yes"

    def test_explicit_fast_decay_numeric_yes(self):
        seq = TimeSequence.explicit([2.0**-k for k in range(1, 160)])
        cond = required_exponent(ConvergenceCriterion.POWER_HIGH, s=0.5, a=0.5)
        verdict = sequence_applicable(seq, cond)
        assert verdict.decision == "yes"
        assert "stabilized" in verdict.reason

    def test_explicit_slow_decay_unknown(self):
        seq = TimeSequence.explicit([1.0 / (k + 1) for k in range(1, 200)])
        cond = required_exponent(ConvergenceCriterion.POWER_HIGH, s=0.5, a=0.5)
        verdict = sequence_applicable(seq, cond)
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
        cond = required_exponent(ConvergenceCriterion.POWER_LOW, s=s, a=a)
        verdict = sequence_applicable(TimeSequence.power(p), cond)
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

    @pytest.mark.parametrize("source", ["power-fit", "noisy-line"])
    def test_fit_matches_mpmath_and_polyfit(self, source):
        if source == "power-fit":
            rep = rate_fit(MultiplierSpec(Family.POWER, s=0.25, delta=1e-3, a=0.5), self.DELTAS)
            sups = [scan.sup for scan in rep.sweep.scans]
            x, y = np.log(np.asarray(rep.sweep.deltas)), np.log(np.asarray(sups))
            got = (rep.fitted_slope, rep.residual)
        else:
            x = np.log(np.asarray(self.DELTAS))
            y = 0.3 * x - 1.0 + np.random.default_rng(5).normal(0.0, 0.2, x.size)
            got = convergence._line_fit(x, y)
        # at 60 digits the closed form misses the exact rational by far less
        # than half an ulp, so both round to the same double
        nearest = lambda v: mpmath.libmp.to_float(v._mpf_, rnd=mpmath.libmp.round_nearest)
        with mpmath.workdps(60):
            mx, my = [mpmath.mpf(v) for v in x.tolist()], [mpmath.mpf(v) for v in y.tolist()]
            n, sx, sy = len(mx), mpmath.fsum(mx), mpmath.fsum(my)
            sxy, sxx = mpmath.fsum(a * b for a, b in zip(mx, my)), mpmath.fsum(a * a for a in mx)
            slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
            intercept = (sy - slope * sx) / n
            mean_sq = mpmath.fsum((b - slope * a - intercept) ** 2 for a, b in zip(mx, my)) / n
        assert got == (nearest(slope), math.sqrt(nearest(mean_sq)))
        fit = np.polyfit(x, y, 1)
        assert got[0] == pytest.approx(fit[0], rel=1e-12)
        assert got[1] == pytest.approx(np.sqrt(np.mean((y - np.polyval(fit, x)) ** 2)), rel=1e-12)

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
        sums = [
            pointwise_trace(
                f, power_law(0.5), TimeSequence.power(2.0), 0.5, default_points(1, 8), k_max=k
            ).partial_sums
            for k in (16, 32, 64)
        ]
        assert np.all(np.diff(sums, axis=0) >= 0)

    def test_rejects_non_applicable_sequence(self):
        g = make_grid(1, 2, 1)
        f = random_field(g, np.random.default_rng(2))
        with pytest.raises(NotApplicableError):
            pointwise_trace(f, power_law(0.5), TimeSequence.power(0.4), 0.25, [[0.0]], k_max=32)

    @pytest.mark.parametrize("n, shape", [(1, (2, 1, 5)), (2, (2, 2, 2))])
    def test_rejects_3d_points(self, n, shape):
        f = random_field(make_grid(n, 1, 1), np.random.default_rng(2))
        with pytest.raises(ParameterError, match=re.escape(f"points have shape {shape}")):
            pointwise_trace(
                f, power_law(0.5), TimeSequence.power(2.0), 0.5, np.zeros(shape), k_max=16
            )

    def test_k_floor(self):
        g = make_grid(1, 2, 1)
        f = random_field(g, np.random.default_rng(2))
        with pytest.raises(ParameterError):
            pointwise_trace(f, power_law(0.5), TimeSequence.power(2.0), 0.5, [[0.0]], k_max=8)

    def test_tail_squares_by_one_rounded_product(self):
        # at this scale x = mass * gmax is 0x1.8d4bb49cd7a0fp+3, whose x**2 by
        # glibc's pow is an ulp above the correctly rounded x * x (found by a
        # search over scales 1 + i/4096), and the tail keeps that ulp
        g, law, k_max = make_grid(1, 8, 0.25), power_law(0.5), 16
        f = SpectralField(g, random_field(g, np.random.default_rng(55)).coefficients * 1.13818359375)
        tr = pointwise_trace(f, law, TimeSequence.power(2.0), 0.5, [[0.0]], k_max=k_max)
        mass = spectral._fsum(np.abs(f.coefficients).tolist()) * g.weight / (2.0 * math.pi) ** g.n
        x = mass * propagation._fold(g, law, None).gmax
        c = 4.0  # 2p for the phase's t_k**2
        assert tr.tail == x * x * ((k_max + 1.0) ** (1.0 - c) / (c - 1.0))


def every_row_sums(waves, unscale, num_rows, fill):
    """The exact wave sums of rows 0, ..., num_rows - 1 of the trace's ``fill``,
    which takes an index array."""
    return spectral._wave_sums(waves, unscale, num_rows, lambda i, out: fill(np.arange(i, i + len(out)), out))


def reference_history(field, law, seq, points, k_max, shift=None):
    """The per-(k, point) fsum of the fold terms (e^{i theta_kj} - 1) * G_pj,
    with the folded waves written out apart from the sampler."""
    grid = field.grid
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    waves = reference_folded_waves(field, shift, pts)
    times = seq.terms(k_max)
    history = np.empty((len(times), pts.shape[0]))
    running = np.zeros(pts.shape[0])
    for k in range(len(times)):
        row = on_fold(grid, shift, np.exp(1j * lattice_phase(grid, law, times[k], shift))) - 1.0
        for i in range(pts.shape[0]):
            val = fold_sum(row, waves[i], grid)
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
            fold = propagation._fold(g, law, shift)  # the kernel's rows are fold-wide
            monkeypatch.setattr(spectral, "BLOCK_BYTES", block_bytes(fold, len(points), rows_per_block))
        tr = pointwise_trace(f, law, seq, 0.5, points, k_max=k_max, shift=shift)
        want = reference_history(f, law, seq, points, k_max, shift)
        assert tr.partial_sums.shape == want[-1].shape
        np.testing.assert_array_equal(tr.partial_sums.view(np.int64), want[-1].view(np.int64))

    @pytest.mark.parametrize("grid_args", [(1, 8, 0.125), (2, 4, 0.25), (3, 1, 0.25)])
    @pytest.mark.parametrize("law", [power_law(0.5), BOUSSINESQ, QUARTIC], ids=lambda law: law.name)
    @pytest.mark.parametrize("beta", [None, 1.5])
    def test_residual_rows_are_the_full_formula(self, grid_args, law, beta, monkeypatch):
        # the law is evaluated once a trace, and e^{i theta} - 1 is formed on
        # the fold alone (the field enters the folded waves): every row
        # equals the formula on the whole lattice at the fold's modes, bit for bit
        g = make_grid(*grid_args)
        f = random_field(g, np.random.default_rng(43))
        shift = ShiftSpec(beta=beta, mu=np.eye(g.n)[-1]) if beta is not None else None
        seq, k_max = TimeSequence.geometric(0.5), 24
        rows = []

        def recording_square_sums(waves, unscale, num_rows, fill):
            formed = np.empty((num_rows, waves.shape[1]), dtype=complex)
            for k in range(0, num_rows, 5):  # batches of 5 rows, the last one shorter
                fill(np.arange(k, min(k + 5, num_rows)), formed[k : k + 5])
            # and rows in any order, as the exact rows are filled
            ks = np.array([num_rows - 1, 0, num_rows // 2])
            again = np.empty((len(ks), waves.shape[1]), dtype=complex)
            fill(ks, again)
            np.testing.assert_array_equal(again.view(np.int64), formed[ks].view(np.int64))
            rows.extend(formed)
            return np.zeros(len(waves))

        monkeypatch.setattr(convergence, "_square_sums", recording_square_sums)
        # s = 0.75 > 1 - a: the power law's shifted criterion accepts the sequence
        pointwise_trace(f, law, seq, 0.75, default_points(g.n, 1), k_max=k_max, shift=shift)
        times = seq.terms(k_max)
        assert len(rows) == len(times)
        for row, t in zip(rows, times):
            want = on_fold(g, shift, np.exp(1j * lattice_phase(g, law, t, shift)) - 1.0)
            np.testing.assert_array_equal(row.view(np.int64), want.view(np.int64))

    def test_no_points(self):
        g = make_grid(1, 2, 0.5)
        f = random_field(g, np.random.default_rng(2))
        tr = pointwise_trace(f, power_law(0.5), TimeSequence.power(2.0), 0.5, np.empty((0, 1)), k_max=16)
        assert tr.partial_sums.size == 0

    def test_rows_at_zero_time_are_not_formed(self, monkeypatch):
        # 0.5**k underflows to 0 from k = 1075: the kernel gets the 545 rows up
        # to the last whose bound reaches 2**-539, and the sums are those of
        # every row, each row past it, and each row at t = 0, adding +0
        g = make_grid(1, 2, 0.5)
        f = random_field(g, np.random.default_rng(3))
        points = default_points(1, 6)
        seen, square_sums = [], convergence._square_sums

        def recording_square_sums(waves, unscale, num_rows, fill):
            seen.append((num_rows, every_row_sums(waves, unscale, 1100, fill)))
            return square_sums(waves, unscale, num_rows, fill)

        monkeypatch.setattr(convergence, "_square_sums", recording_square_sums)
        tr = pointwise_trace(f, power_law(0.5), TimeSequence.geometric(0.5), 0.5, points, k_max=1100)
        [(num_rows, every)] = seen
        assert num_rows == 545 and not every[1074:].any()
        want = np.cumsum(every.real * every.real + every.imag * every.imag, axis=0)[-1]
        np.testing.assert_array_equal(tr.partial_sums.view(np.int64), want.view(np.int64))
        assert tr.k_max == 1100

    def test_every_time_zero(self):
        # (k + 1)**-2000 underflows to 0 at every k: no row is formed
        g = make_grid(1, 2, 0.5)
        f = random_field(g, np.random.default_rng(4))
        tr = pointwise_trace(f, power_law(0.5), TimeSequence.power(2000.0), 0.5, default_points(1, 3), k_max=16)
        np.testing.assert_array_equal(tr.partial_sums.view(np.int64), np.zeros(3).view(np.int64))


    @pytest.mark.parametrize("r, formed", [(0.5, 552), (0.1, 166)])
    def test_rows_that_add_zero_are_not_formed(self, r, formed, monkeypatch):
        # the default grid at K = 2,048: the rows past the last whose bound
        # reaches 2**-539 are not formed, and the sums are bit for bit those of
        # every row of a nonzero time (1,074 and 323 of them)
        g = spectral.default_grid()
        f = random_field(g, np.random.default_rng(1))
        seq, points = TimeSequence.geometric(r), default_points(1, 4)
        seen, square_sums = [], convergence._square_sums

        def recording_square_sums(waves, unscale, num_rows, fill):
            every = every_row_sums(waves, unscale, np.count_nonzero(seq.terms(2048)), fill)
            seen.append((num_rows, every))
            return square_sums(waves, unscale, num_rows, fill)

        monkeypatch.setattr(convergence, "_square_sums", recording_square_sums)
        tr = pointwise_trace(f, power_law(0.5), seq, 0.5, points, k_max=2048)
        [(num_rows, every)] = seen
        assert num_rows == formed
        want = np.cumsum(every.real * every.real + every.imag * every.imag, axis=0)[-1]
        np.testing.assert_array_equal(tr.partial_sums.view(np.int64), want.view(np.int64))

    def test_row_zero_carries_a_nan_point(self):
        # a field so small that no row's bound reaches 2**-539: row 0 is still
        # formed, so the point that is not finite gets a NaN sum
        g = make_grid(1, 2, 0.5)
        f = SpectralField(g, random_field(g, np.random.default_rng(5)).coefficients * 1e-200)
        points = np.array([[0.5], [math.nan]])
        tr = pointwise_trace(f, power_law(0.5), TimeSequence.power(2.0), 0.5, points, k_max=16)
        assert tr.partial_sums[0] == 0.0 and math.isnan(tr.partial_sums[1])


U = 2.0**-53


def products_at_the_radius(seed):
    """A stand-in for ``np.matmul(rows, waves.T)`` in ``_square_sums``: each part
    of the exactly rounded sums moved by a random sign times the radius the
    certificate assumes, gamma_{2F+2} ||r|| ||G|| + F 2**-1073, or a random
    fraction of it, and rounded toward the exact sum, so no part is further
    from it than the radius."""
    rng = np.random.default_rng(seed)

    def matmul(rows, waves_t):
        waves, num_modes = waves_t.T, rows.shape[1]
        exact = spectral._wave_sums(waves, (1.0, 0), len(rows),
                                    lambda i, out: np.copyto(out, rows[i : i + len(out)]))
        n = 2 * num_modes + 2
        norms = [np.sqrt((np.abs(z) ** 2).sum(axis=1)) for z in (rows, waves)]
        rad = n * U / (1 - n * U) * np.multiply.outer(*norms) + num_modes * 2.0**-1073
        x = exact.view(float)
        full = rng.random(x.shape) < 0.5
        d = np.repeat(rad, 2, axis=1) * np.where(full, 1.0, rng.random(x.shape))
        d *= rng.choice([-1.0, 1.0], x.shape)
        # TwoSum: s + err is x + d exactly; where s overshoots it, step back toward x
        s = x + d
        bb = s - x
        err = (x - (s - bb)) + (d - bb)
        s = np.where(np.sign(err) * np.sign(d) < 0, np.nextafter(s, x), s)
        return s.view(complex)

    return matmul


def exact_square_sums(waves, unscale, num_rows, fill):
    """The trace's printed sums from every sum of every row, exactly rounded."""
    sums = every_row_sums(waves, unscale, num_rows, fill)
    return np.cumsum(sums.real * sums.real + sums.imag * sums.imag, axis=0)[-1] if num_rows else np.zeros(len(waves))


class TestSquareSumCertificate:
    """``_square_sums`` takes its products from BLAS and proves, from their
    radius, which steps of the printed running sums they settle.  Any product
    within that radius of the exact sums must give the same bytes."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
    def test_golden_traces_keep_their_bytes(self, name, monkeypatch, capsys):
        args, json_digest, csv_digest = GOLDEN_TRACES[name]
        monkeypatch.setattr(np, "matmul", products_at_the_radius(61))
        got = []
        for fmt in ("json", "csv"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main([*args.split(), "--format", fmt]) == 0
            got.append(hashlib.sha256(out.getvalue().encode()).hexdigest())
        assert got == [json_digest, csv_digest]

    @settings(max_examples=40, deadline=None)
    @given(
        grid_args=st.sampled_from([(1, 8, 0.125), (1, 32, 0.25), (2, 2, 0.25), (3, 1, 0.5)]),
        law=st.sampled_from([power_law(0.5), BOUSSINESQ]),
        shifted=st.booleans(),
        seq=st.one_of(st.floats(0.2, 0.95).map(TimeSequence.geometric),
                      st.sampled_from([2.0, 3.0]).map(TimeSequence.power)),
        k_max=st.integers(16, 120),
        num_pts=st.integers(1, 6),
        nan_point=st.booleans(),
        scale=st.sampled_from([1e-200, 1e-3, 1.0, 1e150]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sums_within_the_radius_keep_their_bits(
        self, grid_args, law, shifted, seq, k_max, num_pts, nan_point, scale, seed
    ):
        g = make_grid(*grid_args)
        rng = np.random.default_rng(seed)
        f = SpectralField(g, random_field(g, rng).coefficients * scale)
        shift = ShiftSpec(beta=1.5, mu=np.eye(g.n)[-1]) if shifted else None
        pts = rng.uniform(-4.0, 4.0, (num_pts, g.n))
        if nan_point:
            pts[0, -1] = math.nan
        trace = lambda: pointwise_trace(f, law, seq, 0.75, pts, k_max=k_max, shift=shift).partial_sums
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(convergence, "_square_sums", exact_square_sums)
            want = trace()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "matmul", products_at_the_radius(seed))
            got = trace()
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_a_sum_that_overflows_raises(self):
        # the residual sums at x = 0 add up past the double range: their upper
        # ends are not finite, so they are summed exactly, which raises
        g = make_grid(1, 4, 1)
        f = SpectralField(g, np.full(g.num_modes, 1.7e308 + 1.7e308j))
        with pytest.raises(ParameterError, match="a sum over the modes overflows"):
            pointwise_trace(f, power_law(0.5), TimeSequence.power(0.75), 0.5, [[0.0]], k_max=16)


class TestTorusOracle:
    """Grid means of the trace against a closed form that uses no waves.

    Lattice fields are periodic with period 2*pi/dxi in each axis.  On the
    N**n points x = (2*pi/dxi) * m / N, m in {0, ..., N-1}**n, the plane
    waves of two modes j != j' are orthogonal when N > 2*max|j|, so the
    grid mean of |h_k(x)|**2 is (2*pi)**(-2n) * dxi**(2n) * sum_j |h_kj|**2,
    h_kj = (e^{i theta_kj} - 1) * f_j.  The mean of the partial sums is the
    sum of these over k.  The points and the waves are rounded, so the two
    agree to a relative 1e-12, not bit for bit.
    """

    @pytest.mark.parametrize("beta", [None, 1.5])
    @pytest.mark.parametrize(
        "grid_args, n_points", [((1, 2.0, 0.25), 17), ((2, 1.0, 0.25), 9), ((3, 0.5, 0.25), 5)]
    )
    def test_grid_mean_matches_closed_form(self, grid_args, n_points, beta):
        g = make_grid(*grid_args)
        assert n_points > 2 * spectral._half_width(*grid_args)
        f = random_field(g, np.random.default_rng(17))
        shift = ShiftSpec(beta=beta, mu=np.eye(g.n)[0]) if beta is not None else None
        seq, k_max = TimeSequence.geometric(0.5), 24
        axis = (2.0 * math.pi / g.dxi) * np.arange(n_points) / n_points
        points = np.stack([c.ravel() for c in np.meshgrid(*[axis] * g.n, indexing="ij")], axis=-1)
        tr = pointwise_trace(f, BOUSSINESQ, seq, 0.5, points, k_max=k_max, shift=shift)
        norm = g.weight / (2.0 * math.pi) ** g.n
        energies = []
        for t in seq.terms(k_max):
            h = (np.exp(1j * lattice_phase(g, BOUSSINESQ, t, shift)) - 1.0) * f.coefficients
            energies.append(math.fsum((np.abs(h) ** 2).tolist()))
        want = math.fsum(energies) * norm**2
        assert math.fsum(tr.partial_sums.tolist()) / len(points) == pytest.approx(want, rel=1e-12)


class TestConsistencyChain:
    def test_certified_family_with_accepted_sequence_sums(self):
        # if the certificate holds and the sequence is accepted with exponent
        # q, then sum_k sup(t_k)^2 <= 2.5^2 * sum_k envelope(t_k)^2 < inf
        s, a, p = 0.5, 0.5, 2.0
        template = MultiplierSpec(Family.POWER, s=s, delta=1e-3, a=a)
        seq = TimeSequence.power(p)
        cond = required_exponent(ConvergenceCriterion.POWER_LOW, s=s, a=a)
        verdict = sequence_applicable(seq, cond)
        assert verdict.decision == "yes"
        k_max = 4096
        t = seq.terms(k_max)
        sup_sq = []
        env_sq = []
        for tk in t:
            spec = template.with_delta(float(tk))
            sup_sq.append(numeric_sup(spec).sup ** 2)
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
