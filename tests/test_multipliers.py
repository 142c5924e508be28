import dataclasses
import math
import subprocess
import sys
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import phaselab.multipliers
from phaselab import (
    BOUSSINESQ,
    LINEAR,
    QUARTIC,
    Family,
    HypothesisViolation,
    MultiplierSpec,
    ParameterError,
    PhaseLaw,
    ShiftSpec,
    SpectralField,
    analytic_envelope,
    certify,
    extremal_witness,
    invert,
    make_grid,
    numeric_sup,
    power_law,
    rate_fit,
)
from phaselab.multipliers import (
    DELTA_MIN,
    RATIO_CAP,
    SCAN_PER_DECADE,
    ScanResult,
    _bound,
    _modulus_at,
    _phase_radii,
    _scan,
    _scan_radii,
    sweep,
)
from phaselab.propagation import _modulus, phase
from phaselab.spectral import _fsum, random_field, sobolev_norm
from test_propagation import residual

DELTAS_4DEC = [10.0 ** (-e) for e in np.linspace(2, 6, 17)]


def power_spec(s, a, delta):
    return MultiplierSpec(Family.POWER, s=s, delta=delta, a=a)


def closed_modulus(spec, xi):
    """|m(xi)| = |e^{i theta} - 1| / (1 + |xi|^2)^{s/2} at each frequency
    vector, the last axis of ``xi``, in numpy: the reference for the bounds."""
    xi = np.asarray(xi, dtype=float)
    with np.errstate(over="ignore"):
        r = np.sqrt(np.sum(xi * xi, axis=-1))
        theta = phase(spec.phase_law, spec.delta, r, spec.beta, xi[..., 0])
        return np.abs(np.exp(1j * theta) - 1) / (1 + r * r) ** (spec.s / 2)


class TestMultiplierClosedForm:
    def test_zero_frequency_vanishes(self):
        specs = [
            power_spec(0.5, 0.5, 1e-3),
            MultiplierSpec(Family.POWER_SHIFT, s=0.5, delta=1e-3, a=0.5, beta=2.0),
            MultiplierSpec(Family.GAMMA, s=0.5, delta=1e-3, law=BOUSSINESQ),
            MultiplierSpec(Family.GAMMA_SHIFT, s=0.5, delta=1e-3, law=QUARTIC, beta=0.5),
        ]
        for spec in specs:
            assert closed_modulus(spec, np.zeros(2)) == 0.0
            assert _modulus_at(spec, 0.0, 0.0) == 0.0

    def test_half_turn_reaches_two(self):
        s, a, d = 0.5, 0.5, 1e-3
        xi = (math.pi / d) ** (1 / a)
        want = 2.0 / (1 + xi**2) ** (s / 2)
        assert closed_modulus(power_spec(s, a, d), [xi]) == pytest.approx(want, rel=1e-12)
        assert _modulus_at(power_spec(s, a, d), xi, xi) == pytest.approx(want, rel=1e-12)

    def test_gamma_power_reduces_to_power_family(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            xi = rng.uniform(-50, 50, size=2)
            a, s, d = 0.7, 0.5, 1e-3
            mg = closed_modulus(MultiplierSpec(Family.GAMMA, s=s, delta=d, law=power_law(a)), xi)
            mp = closed_modulus(power_spec(s, a, d), xi)
            assert abs(mg - mp) <= 1e-14

    def test_gamma_shift_power_reduces_to_power_shift(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            xi = rng.uniform(-50, 50, size=2)
            a, s, d, b = 0.7, 0.6, 1e-3, 0.5
            mg = closed_modulus(
                MultiplierSpec(Family.GAMMA_SHIFT, s=s, delta=d, law=power_law(a), beta=b), xi
            )
            mp = closed_modulus(MultiplierSpec(Family.POWER_SHIFT, s=s, delta=d, a=a, beta=b), xi)
            assert abs(mg - mp) <= 1e-14

    def test_shift_with_zero_drift_term_reduces_to_plain(self):
        # beta huge makes delta**beta underflow to 0: the drift phase drops out
        rng = np.random.default_rng(32)
        shift = MultiplierSpec(Family.POWER_SHIFT, s=0.6, delta=1e-3, a=0.5, beta=200.0)
        plain = power_spec(0.6, 0.5, 1e-3)
        for _ in range(20):
            xi = rng.uniform(-100, 100, size=1)
            assert abs(closed_modulus(shift, xi) - closed_modulus(plain, xi)) <= 1e-14

    def test_modulus_never_exceeds_weighted_two(self):
        rng = np.random.default_rng(33)
        spec = MultiplierSpec(Family.GAMMA_SHIFT, s=0.7, delta=1e-2, law=BOUSSINESQ, beta=0.5)
        for _ in range(100):
            xi = rng.uniform(-1, 1, size=3) * 10 ** rng.uniform(-4, 6)
            r = float(np.linalg.norm(xi))
            assert closed_modulus(spec, xi) <= 2.0 / (1 + r * r) ** 0.35 * (1 + 1e-12)

    @pytest.mark.parametrize("spec", [
        power_spec(0.5, 0.5, 1e-3),
        MultiplierSpec(Family.GAMMA, s=0.75, delta=1e-4, law=BOUSSINESQ),
        MultiplierSpec(Family.POWER_SHIFT, s=0.75, delta=1e-3, a=0.5, beta=1.5),
    ], ids=["power", "gamma", "power-shift"])
    def test_one_mode_ratio_is_the_modulus(self, spec):
        # ||h||_2 / ||f||_{H^s} of a field on one mode, h the residual at t =
        # delta, is |m| there: the equality the extremal witness rests on
        g = make_grid(2, 4, 0.5)
        shift = ShiftSpec(beta=spec.beta, mu=np.array([1.0, 0.0])) if spec.family.shifted else None
        m = _modulus_at(spec, g.radii, g.modes[:, 0])
        for j in range(g.num_modes):
            f = SpectralField(g, np.where(np.arange(g.num_modes) == j, 0.6 - 0.8j, 0.0))
            ratio = sobolev_norm(residual(f, spec.phase_law, spec.delta, shift), 0.0) / sobolev_norm(f, spec.s)
            assert ratio == pytest.approx(m[j], rel=1e-13, abs=1e-15)


class TestPhasePastTheDoubleRange:
    """``_modulus_at`` raises ``_scan``'s ParameterError, naming delta and the
    least |xi|, where the phase or the radius is not finite, with no numpy
    warning (an error under pytest)."""

    SPEC = MultiplierSpec(Family.GAMMA, s=0.75, delta=1e-4, law=BOUSSINESQ)

    def test_the_phase_on_the_axis(self):
        # r * sqrt(1 + r**2) overflows from about 1.3e154 on
        xi = np.array([1e150, 1e200, 1e160])
        with pytest.raises(ParameterError, match=r"^the phase at delta=0\.0001 is not finite at \|xi\|=1e\+160$"):
            _modulus_at(self.SPEC, xi, xi)
        with pytest.raises(ParameterError, match=r"at \|xi\|=nan$"):
            _modulus_at(self.SPEC, np.array([1.0, math.nan]), np.array([1.0, math.nan]))
        xi = np.array([1e150, -1e150])
        assert np.isfinite(_modulus_at(self.SPEC, np.abs(xi), xi)).all()

    def test_a_radius_or_a_law_past_the_double_range(self):
        # |xi| = sqrt(xi.xi) is inf at xi = 1e160; under the quartic law the
        # phase r**2 + r**4 overflows at the finite |xi| = 1e100
        with pytest.raises(ParameterError, match=r"^the phase at delta=0\.0001 is not finite at \|xi\|=inf$"):
            _modulus_at(self.SPEC, math.inf, 1e160)
        quartic = MultiplierSpec(Family.GAMMA, s=0.75, delta=1e-4, law=QUARTIC)
        with pytest.raises(ParameterError, match=r"^the phase at delta=0\.0001 is not finite at \|xi\|=1e\+100$"):
            _modulus_at(quartic, 1e100, 1e100)
        shifted = MultiplierSpec(Family.POWER_SHIFT, s=0.5, delta=1e-4, a=0.5, beta=1.5)
        with pytest.raises(ParameterError, match=r"at \|xi\|=inf$"):
            _modulus_at(shifted, math.inf, 1e200)
        assert math.isfinite(_modulus_at(self.SPEC, 1e150, 1e150))


class TestAnalyticEnvelope:
    def test_power_value(self):
        assert analytic_envelope(power_spec(0.5, 1.0, 1e-4)) == pytest.approx(1e-2, rel=1e-14)

    def test_gamma_square_power_closed_form(self):
        for d in (1e-2, 1e-4, 1e-6):
            spec = MultiplierSpec(Family.GAMMA, s=0.5, delta=d, law=power_law(2.0))
            assert analytic_envelope(spec) == pytest.approx(d**0.25, rel=1e-14)

    def test_quartic_asymptote(self):
        # oracle: gamma^{-1}(2/d) solves r^4 + r^2 = 2/d in closed form
        vals = {}
        for d in (1e-8, 1e-10):
            spec = MultiplierSpec(Family.GAMMA, s=1.0, delta=d, law=QUARTIC)
            env = analytic_envelope(spec)
            root = math.sqrt((-1 + math.sqrt(1 + 8.0 / d)) / 2)
            assert env == pytest.approx(1.0 / root, rel=1e-9)
            vals[d] = env / d**0.25
        # the d^(s/4) normalization is stable across decades and tends to 2^(-1/4)
        assert abs(vals[1e-8] - vals[1e-10]) <= 0.01 * vals[1e-10]
        assert vals[1e-10] == pytest.approx(2.0**-0.25, rel=1e-3)

    def test_shift_beta_below_one_amplifies(self):
        plain = MultiplierSpec(Family.GAMMA, s=1.0, delta=1e-4, law=LINEAR)
        shifted = MultiplierSpec(Family.GAMMA_SHIFT, s=1.0, delta=1e-4, law=LINEAR, beta=0.5)
        ratio = analytic_envelope(shifted) / analytic_envelope(plain)
        assert ratio == pytest.approx(1e-4 ** (0.5 - 1.0), rel=1e-12)

    @pytest.mark.parametrize(
        "spec,fragment",
        [
            (dict(family=Family.POWER, s=0.9, delta=1e-3, a=0.5), "0 < s <= a <= 1"),
            (
                dict(family=Family.POWER_SHIFT, s=0.2, delta=1e-3, a=0.5, beta=2.0),
                "s > 1 - a",
            ),
            (
                dict(family=Family.POWER_SHIFT, s=0.2, delta=1e-3, a=0.5, beta=0.5),
                "s > 1 - a*beta",
            ),
            (
                dict(family=Family.POWER_SHIFT, s=1.0, delta=1e-3, a=2.0, beta=0.5),
                "s > a*(1-beta)",
            ),
            (dict(family=Family.GAMMA, s=1.5, delta=1e-3, law=BOUSSINESQ), "0 < s <= 1"),
        ],
    )
    def test_range_errors_name_the_hypothesis(self, spec, fragment):
        with pytest.raises(HypothesisViolation, match=None) as err:
            analytic_envelope(MultiplierSpec(**spec))
        assert fragment in str(err.value)

    def test_unsafe_mode_skips_ranges_not_formulas(self):
        spec = MultiplierSpec(Family.POWER, s=0.9, delta=1e-4, a=0.5)
        assert analytic_envelope(spec, strict=False) == pytest.approx(1e-4**1.8, rel=1e-12)

    def test_ineligible_law_rejected(self):
        spec = MultiplierSpec(Family.GAMMA, s=0.5, delta=1e-3, law=power_law(0.5))
        with pytest.raises(HypothesisViolation, match=r"gamma\(r\)/r nondecreasing"):
            analytic_envelope(spec)


class TestNumericSup:
    def test_against_brute_force_scan(self):
        # 1e6-point geometric oracle for s = a = 1/2, delta = 1e-4
        s, a, d = 0.5, 0.5, 1e-4
        spec = power_spec(s, a, d)
        scan = numeric_sup(spec)
        r = np.geomspace(1e-6, 4 * (2 * math.pi / d) ** 2, 10**6)
        brute = float(np.max(2 * np.abs(np.sin(0.5 * d * np.sqrt(r))) / (1 + r * r) ** 0.25))
        assert scan.sup == pytest.approx(brute, rel=1e-3)
        lower = 2 * (d / math.pi) ** (s / a) * 0.99
        upper = 2 * d ** (s / a)
        assert lower <= scan.sup <= upper

    def test_gamma_linear_equals_power(self):
        sg = numeric_sup(MultiplierSpec(Family.GAMMA, s=1.0, delta=1e-4, law=LINEAR))
        sp = numeric_sup(power_spec(1.0, 1.0, 1e-4))
        assert abs(sg.sup - sp.sup) <= 1e-14


#: The families' phase laws at 50 digits, keyed by the law's name.
MP_LAWS = {
    "boussinesq": lambda r: r * mpmath.sqrt(1 + r * r),
    "quartic": lambda r: r**2 + r**4,
}

ORACLE_SPECS = [
    MultiplierSpec(Family.POWER, s=0.5, delta=0.5, a=0.5),
    MultiplierSpec(Family.POWER, s=0.25, delta=0.5, a=0.75),
    MultiplierSpec(Family.POWER_SHIFT, s=1.0, delta=0.5, a=2.0, beta=1.5),
    MultiplierSpec(Family.POWER_SHIFT, s=0.5, delta=0.5, a=0.5, beta=0.8),
    MultiplierSpec(Family.GAMMA, s=0.5, delta=0.5, law=BOUSSINESQ),
    MultiplierSpec(Family.GAMMA_SHIFT, s=0.5, delta=0.5, law=QUARTIC, beta=0.8),
    MultiplierSpec(Family.GAMMA_SHIFT, s=1.0, delta=0.5, law=QUARTIC, beta=1.5),
]


class TestNumericSupAgainstMpmath:
    """The reported sup is |m| at the reported argmax, to a few ulps."""

    @pytest.mark.parametrize("template", ORACLE_SPECS, ids=lambda s: s.family.value)
    @pytest.mark.parametrize("delta", [0.09, 1e-3, 3e-6])
    def test_sup_is_the_modulus_at_the_argmax(self, template, delta):
        spec = template.with_delta(delta)
        scan = numeric_sup(spec)
        u = 2.0**-53
        with mpmath.workdps(50):
            xi = mpmath.mpf(scan.argmax)
            r = abs(xi)
            d = mpmath.mpf(spec.delta)
            if spec.family.uses_law:
                gamma = MP_LAWS[spec.law.name](r)
            else:
                gamma = r ** mpmath.mpf(spec.a)
            base = d * gamma
            shift = d ** mpmath.mpf(spec.beta) * xi if spec.family.shifted else mpmath.mpf(0)
            half_sin = abs(mpmath.sin((base + shift) / 2))
            exact = 2 * half_sin / (1 + xi * xi) ** (mpmath.mpf(spec.s) / 2)
            # Error budget of _modulus_at in float64 (u = 2**-53, pow and
            # sin within one ulp = 2u): gamma(r) takes at most 4u relative
            # error (three roundings and a sqrt, or two pows and a sum, or one
            # pow), delta*gamma one more rounding, delta**beta*xi at most 3u
            # and theta = base + shift one more, so |theta^ - theta| <=
            # 6u*(|base| + |shift|) and sin(theta/2) moves by at most half of
            # that.  sin itself, (1+xi^2)**(s/2) (two roundings and a pow,
            # s <= 2) and the division add at most 9u relative.  The bound
            # doubles this budget.
            rel = 2 * (9 * u + 3 * u * (abs(base) + abs(shift)) / half_sin)
            err = abs(mpmath.mpf(scan.sup) - exact) / exact
        assert rel < 1e-13  # the maximum lies where sin(theta/2) is far from 0
        assert err <= rel, (scan.argmax, float(err), float(rel))


class TestCertify:
    def test_linear_power_pair_all_ratios_below_two(self):
        cert = certify(power_spec(1.0, 1.0, 1e-3), DELTAS_4DEC)
        assert cert.passed
        assert all(r <= 2.0 for r in cert.sweep.ratios)

    def test_shift_branch_beta_above_one(self):
        # sharp configuration for the sub-linear shifted branch
        cert = certify(
            MultiplierSpec(Family.POWER_SHIFT, s=1.0, delta=1e-3, a=0.5, beta=2.0),
            DELTAS_4DEC,
        )
        assert cert.passed

    def test_shift_nonsharp_configuration_dominates_but_drifts(self):
        # At s = 0.6 the measured sup decays like delta while the branch
        # envelope is delta^0.2: the one-sided bound holds at every delta
        # (that is the claim the envelope makes) but the attainment ratio
        # drifts, so the certificate as defined does not pass.
        cert = certify(
            MultiplierSpec(Family.POWER_SHIFT, s=0.6, delta=1e-3, a=0.5, beta=2.0),
            DELTAS_4DEC,
        )
        assert cert.max_ratio <= RATIO_CAP
        assert not cert.passed
        assert cert.drift > 100

    def test_gamma_boussinesq(self):
        cert = certify(
            MultiplierSpec(Family.GAMMA, s=0.5, delta=1e-3, law=BOUSSINESQ), DELTAS_4DEC
        )
        assert cert.passed
        for d, env in zip(cert.sweep.deltas, cert.sweep.envelopes):
            inv = invert(BOUSSINESQ, math.sqrt(2) / d)
            assert env == pytest.approx(inv**-0.5, rel=1e-12)

    def test_sweep_must_span_four_decades(self):
        with pytest.raises(ParameterError):
            certify(power_spec(0.5, 0.5, 1e-3), [1e-2, 1e-3])

    def test_certificate_record(self):
        # the certificate is a verdict on one sweep record; the CLI formats both
        cert = certify(power_spec(0.5, 0.5, 1e-3), DELTAS_4DEC)
        assert [f.name for f in dataclasses.fields(cert)] == ["sweep", "max_ratio", "drift", "passed"]
        sw = cert.sweep
        assert (sw.family, sw.params, sw.deltas) == (Family.POWER, {"s": 0.5, "a": 0.5},
                                                     tuple(DELTAS_4DEC))
        assert len(sw.scans) == len(sw.envelopes) == len(sw.ratios) == len(DELTAS_4DEC)
        assert sw.ratios == tuple(scan.sup / env for scan, env in zip(sw.scans, sw.envelopes))
        assert cert.max_ratio == max(sw.ratios)
        assert cert.drift == max(sw.ratios) / min(sw.ratios)


def reference_phase_radii(spec, targets):
    """The plain bisection that _phase_radii narrows for the shift families,
    kept as the reference: every target starts from [0, H] and all 160
    steps run.  The search for H starts where _phase_radii's does, at
    max(1, min(r_c, top / delta**beta))."""
    targets = np.asarray(targets, dtype=float)
    if spec.family.uses_law:
        r_c = invert(spec.law, float(spec.law(1.0)) / spec.delta)
    else:
        r_c = spec.delta ** (-1.0 / spec.a)
    top = float(targets.max())
    hi = max(1.0, min(r_c, top / spec.delta**spec.beta))
    for _ in range(200):
        if float(phase(spec.phase_law, spec.delta, hi, spec.beta, hi)) >= top:
            break
        hi *= 2.0
    lo = np.zeros_like(targets)
    hi_arr = np.full_like(targets, hi)
    for _ in range(160):
        mid = 0.5 * (lo + hi_arr)
        above = phase(spec.phase_law, spec.delta, mid, spec.beta, mid) >= targets
        hi_arr = np.where(above, mid, hi_arr)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi_arr)


@st.composite
def any_family_spec(draw, families=tuple(Family)):
    family = draw(st.sampled_from(families))
    kwargs = dict(
        s=draw(st.floats(0.05, 1.0)),
        # log-uniform, so every decade down to DELTA_MIN is drawn
        delta=max(DELTA_MIN, 10.0 ** draw(st.floats(-10.0, math.log10(0.5)))),
    )
    if family.uses_law:
        kwargs["law"] = draw(st.one_of(
            st.sampled_from([BOUSSINESQ, QUARTIC, LINEAR, power_law(2.0)]),
            st.floats(1.0, 4.0).filter(lambda a: a != int(a)).map(power_law),
        ))
    else:
        kwargs["a"] = draw(st.floats(0.25, 2.5))
    if family.shifted:
        kwargs["beta"] = draw(st.floats(0.3, 2.5))
    return MultiplierSpec(family, **kwargs)


def counting_law(law):
    """``law`` with an evaluator that adds the number of radii of each call to
    the returned list's one entry."""
    count = [0]

    def evaluator(r):
        count[0] += np.size(r)
        return law.evaluator(r)

    return PhaseLaw(law.name, evaluator, law.inverse, law.inverse_growth, law.power), count


#: The families whose radii _phase_radii finds by root finding.
SHIFT_FAMILIES = (Family.POWER_SHIFT, Family.GAMMA_SHIFT)


#: Targets the doubling search cannot bracket (the phase at max(1, r_c) *
#: 2**199 stays below them), and targets whose radii lie far below their
#: bracket end.
UNREACHED = [1.0, 1e300]
TINY = [1e-300, 1e-60, 1e-25, 0.5]
#: numeric_sup's one target set: the first turn, then pi.
SCAN_TARGETS = np.append(np.linspace(2.0 * math.pi / 1500, 2.0 * math.pi, 1500), math.pi)


@st.composite
def wide_shift_spec(draw):
    """A shift spec over a wide range: a from 0.01 to 20 (a law for
    gamma-shift), beta from -3 to 5 and delta from 1e-10 to 0.99."""
    family = draw(st.sampled_from(SHIFT_FAMILIES))
    kwargs = dict(s=0.5, delta=10.0 ** draw(st.floats(-10.0, math.log10(0.99))),
                  beta=draw(st.floats(-3.0, 5.0)))
    if family.uses_law:
        kwargs["law"] = draw(st.sampled_from([BOUSSINESQ, QUARTIC, LINEAR, power_law(2.5)]))
    else:
        kwargs["a"] = 10.0 ** draw(st.floats(-2.0, math.log10(20.0)))
    return MultiplierSpec(family, **kwargs)


def shift_phase(spec, r):
    return phase(spec.phase_law, spec.delta, r, spec.beta, r)


def bisected_radii(spec, targets):
    """_phase_radii with every target sent to the bisection from its bracket."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(phaselab.multipliers, "_CONVERGED", -1.0)
        return _phase_radii(spec, targets)


def assert_converged_or_bisected(spec, targets):
    """Each radius's phase is within 2**-48 of its target, relative, or the
    radius is its bracket's bisection; and no radius misses its target by
    more than reference_phase_radii's beyond 4e-15 of the target."""
    targets = np.asarray(targets, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            radii = _phase_radii(spec, targets)
        except ParameterError:  # r_c or the phase past the double range
            assume(False)
        miss = np.abs(shift_phase(spec, radii) - targets)
        reference = np.abs(shift_phase(spec, reference_phase_radii(spec, targets)) - targets)
    close = miss <= 2.0**-48 * targets
    assert np.all(close | (radii == bisected_radii(spec, targets)))
    assert np.all(~(miss > reference + 4e-15 * targets))


class TestMergedBisection:
    @settings(max_examples=40, deadline=None)
    @given(spec=wide_shift_spec())
    def test_radii_are_converged_secant_points_or_bisections(self, spec):
        assert_converged_or_bisected(spec, SCAN_TARGETS)

    @settings(max_examples=40, deadline=None)
    @given(spec=any_family_spec(SHIFT_FAMILIES))
    def test_unreached_and_tiny_targets(self, spec):
        assert_converged_or_bisected(spec, TINY + UNREACHED)
        top = _phase_radii(spec, UNREACHED)[1]
        assert top == reference_phase_radii(spec, UNREACHED)[1]
        # the doubling search really failed: the radius stops at the bracket end
        assert shift_phase(spec, top) < UNREACHED[1]

    @pytest.mark.parametrize("family, law, beta", [
        (Family.GAMMA_SHIFT, QUARTIC, 0.8),
        (Family.GAMMA_SHIFT, power_law(2.5), 1.5),
    ])
    @pytest.mark.parametrize("delta", [1e-2, 1e-6, DELTA_MIN])
    def test_narrowed_brackets_evaluate_few_radii(self, family, law, beta, delta):
        """The 1500 + 1 targets of numeric_sup: the table, the secant steps
        and the bracket-end search, with room left for no bisection.  An ulp
        walk from the secant points took 11,024-14,025 evaluations."""
        law, count = counting_law(law)
        spec = MultiplierSpec(family, s=0.5, delta=delta, law=law, beta=beta)
        _phase_radii(spec, SCAN_TARGETS)
        M = phaselab.multipliers
        assert count[0] <= M._TABLE.size + M._SECANT_STEPS * SCAN_TARGETS.size + M._DOUBLINGS

    @settings(max_examples=40, deadline=None)
    @given(spec=any_family_spec(SHIFT_FAMILIES))
    def test_bisection_alone_gives_the_same_radii(self, spec):
        # with no secant point kept, every target is bisected from its bracket
        u = SCAN_TARGETS[:-1]
        assert np.array_equal(bisected_radii(spec, u), reference_phase_radii(spec, u))

    @pytest.mark.parametrize("spec", [
        # power-shift with a small a: r_c = 1e40, far above the radii of
        # 4.2..6283 that the drift term sets.  A bracket-end search from r_c
        # left every radius about 1e6 ulps from its crossing
        MultiplierSpec(Family.POWER_SHIFT, s=0.95, delta=DELTA_MIN, a=0.25, beta=0.3),
        # secant points that miss their phase by up to 100%: only the
        # bisection puts these radii on their targets
        MultiplierSpec(Family.POWER_SHIFT, s=0.95, delta=0.065, a=0.048, beta=1.29),
    ], ids=["drift-term", "secant-fails"])
    def test_every_radius_is_within_tolerance(self, spec):
        radii = _phase_radii(spec, SCAN_TARGETS)
        assert np.all(np.abs(shift_phase(spec, radii) - SCAN_TARGETS) <= 2.0**-48 * SCAN_TARGETS)

    @pytest.mark.parametrize("law", [LINEAR, BOUSSINESQ, QUARTIC, power_law(2.5)],
                             ids=lambda law: law.name)
    @pytest.mark.parametrize("delta", [1e-2, 1e-6, DELTA_MIN])
    def test_unshifted_radii_are_the_closed_form(self, law, delta):
        # without a shift, the phase delta * gamma(r) is inverted in closed
        # form: no law evaluation, no secant and no bisection
        counted, count = counting_law(law)
        spec = MultiplierSpec(Family.GAMMA, s=0.5, delta=delta, law=counted)
        radii = _phase_radii(spec, SCAN_TARGETS)
        assert np.array_equal(radii, law.inverse(SCAN_TARGETS / delta))
        assert count[0] == 0


def _recorded_sups(monkeypatch, module):
    """Record (delta, ScanResult) for every numeric_sup the module calls."""
    calls = []
    original = module.numeric_sup

    def recorder(spec, *args, **kwargs):
        result = original(spec, *args, **kwargs)
        calls.append((spec.delta, result))
        return result

    monkeypatch.setattr(module, "numeric_sup", recorder)
    return calls


SWEEP_TEMPLATES = [
    MultiplierSpec(Family.GAMMA, s=0.5, delta=1e-3, law=BOUSSINESQ),
    MultiplierSpec(Family.GAMMA_SHIFT, s=0.5, delta=1e-3, law=QUARTIC, beta=0.8),
    MultiplierSpec(Family.POWER_SHIFT, s=1.0, delta=1e-3, a=2.0, beta=1.5),
]


class TestSweep:
    @pytest.mark.parametrize("template", SWEEP_TEMPLATES, ids=lambda s: s.family.value)
    def test_certify_scans_match_standalone_numeric_sup(self, template, monkeypatch):
        calls = _recorded_sups(monkeypatch, phaselab.multipliers)
        deltas = DELTAS_4DEC[::2]
        certify(template, deltas)
        assert [d for d, _ in calls] == deltas
        for d, scan in calls:
            alone = numeric_sup(template.with_delta(d))
            assert (scan.sup, scan.argmax, scan.points) == (alone.sup, alone.argmax, alone.points)

    def test_rate_fit_scans_match_standalone_numeric_sup(self, monkeypatch):
        calls = _recorded_sups(monkeypatch, phaselab.multipliers)
        template = SWEEP_TEMPLATES[1]
        rate_fit(template, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
        assert len(calls) == 5
        for d, scan in calls:
            alone = numeric_sup(template.with_delta(d))
            assert (scan.sup, scan.argmax, scan.points) == (alone.sup, alone.argmax, alone.points)

    @pytest.mark.parametrize("template", SWEEP_TEMPLATES, ids=lambda s: s.family.value)
    def test_each_delta_matches_standalone_spec(self, template):
        # each delta's envelope and scan are bit for bit those of its own spec
        result = sweep(template, DELTAS_4DEC)
        assert result.deltas == tuple(DELTAS_4DEC)
        for d, env, scan in zip(result.deltas, result.envelopes, result.scans):
            alone = template.with_delta(d)
            assert env.hex() == analytic_envelope(alone).hex()
            want = numeric_sup(alone)
            assert (scan.sup.hex(), scan.argmax.hex(), scan.points) == (
                want.sup.hex(), want.argmax.hex(), want.points)

    def test_certify_and_rate_fit_share_one_sweep(self):
        template = SWEEP_TEMPLATES[1]
        ds = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2]  # ascending, as rate_fit sorts them
        assert certify(template, ds).sweep == rate_fit(template, ds).sweep

    @pytest.mark.parametrize("strict", [True, False])
    def test_an_empty_delta_list_is_refused(self, strict):
        # as certify and rate_fit refuse short sweeps, before any hypothesis check
        template = MultiplierSpec(Family("power"), 0.5, 1e-2, 0.5)
        with pytest.raises(ParameterError, match="^a delta sweep needs at least one delta$"):
            sweep(template, [], strict)


class TestExtremalWitness:
    def test_one_mode_equality_at_grid_argmax(self):
        g = make_grid(1, 64, 0.125)
        s, a, d = 0.5, 0.5, 1e-3
        spec = power_spec(s, a, d)
        w = extremal_witness(spec, g)
        assert sobolev_norm(w, s) == pytest.approx(1.0, rel=1e-12)
        # the witness realizes the grid sup exactly (one-mode equality)
        grid_sup = float(
            np.max(2 * np.abs(np.sin(0.5 * d * g.radii**a)) / (1 + g.radii**2) ** (s / 2))
        )
        assert sobolev_norm(residual(w, power_law(a), d), 0.0) == pytest.approx(grid_sup, rel=1e-12)

    def test_default_grid_ratio_band(self):
        # frozen from the scan oracle: the grid tops out at |xi| = 64 where
        # |m|/delta^(s/a) = 0.999936, just below 1
        g = make_grid(1, 64, 0.125)
        spec = power_spec(0.5, 0.5, 1e-3)
        w = extremal_witness(spec, g)
        l2 = sobolev_norm(residual(w, power_law(0.5), 1e-3), 0.0)
        ratio = l2 / (1e-3 ** (0.5 / 0.5) * sobolev_norm(w, 0.5))
        assert ratio == pytest.approx(0.999936, abs=1e-5)
        assert 0.99 <= ratio <= 2.0

    def test_weight_past_the_double_range_is_quiet(self):
        # (1+r*r)**200 overflows on most of the grid: those modes weigh 0,
        # with no RuntimeWarning, and the peak is at the smallest radius
        g = make_grid(1, 64, 0.125)
        w = extremal_witness(power_spec(400.0, 0.5, 1e-3), g)
        (idx,) = np.flatnonzero(w.coefficients)
        assert g.radii[idx] == 0.125

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ties_go_to_the_first_mode_of_the_smallest_radius(self, n):
        # with the weight past the double range the peak is shared by the
        # 2n modes of radius 0.125; the witness takes the first of them in
        # lexicographic (that is, index) order
        g = make_grid(n, 1, 0.125)
        w = extremal_witness(power_spec(400.0, 0.5, 1e-3), g)
        (idx,) = np.flatnonzero(w.coefficients)
        np.testing.assert_array_equal(g.modes[idx], [-0.125] + [0.0] * (n - 1))

    def test_halving_delta_stays_in_band(self):
        g = make_grid(1, 64, 0.125)
        for d in (1e-3, 5e-4):
            spec = power_spec(0.5, 0.5, d)
            w = extremal_witness(spec, g)
            l2 = sobolev_norm(residual(w, power_law(0.5), d), 0.0)
            assert 0.99 <= l2 / (d * sobolev_norm(w, 0.5)) <= 2.0


class TestRegimes:
    """Pointwise bounds in the three radial regimes, with their exact constants."""

    def test_power_regimes(self):
        s, a, d = 0.25, 0.5, 1e-4
        spec = power_spec(s, a, d)
        env = d ** (s / a)
        rng = np.random.default_rng(41)
        inner = rng.uniform(0.0, 1.0, 200)
        middle = 10 ** rng.uniform(0.0, -math.log10(d) / a, 200)
        outer = d ** (-1 / a) * 10 ** rng.uniform(0, 3, 200)
        for xi in inner:
            assert closed_modulus(spec, [xi]) <= d * xi**a * (1 + 1e-12) + 1e-300
        for xi in middle:
            m = closed_modulus(spec, [xi])
            assert m <= d * xi ** (a - s) * (1 + 1e-12)
            assert m <= env * (1 + 1e-12)
        for xi in outer:
            m = closed_modulus(spec, [xi])
            assert m <= 2.0 / xi**s * (1 + 1e-12)
            assert m <= 2.0 * env * (1 + 1e-12)

    def test_shift_regimes_factor_two(self):
        s, a, b, d = 0.8, 0.5, 2.0, 1e-4
        spec = MultiplierSpec(Family.POWER_SHIFT, s=s, delta=d, a=a, beta=b)
        env = d ** (1 + (s - 1) / a)
        rng = np.random.default_rng(42)
        for xi in rng.uniform(-1.0, 1.0, 200):
            assert closed_modulus(spec, [xi]) <= 2 * d * (1 + 1e-12)
        for xi in 10 ** rng.uniform(0.0, -math.log10(d) / a, 200) * rng.choice([-1, 1], 200):
            m = closed_modulus(spec, [xi])
            assert m <= 2 * d * abs(xi) ** (1 - s) * (1 + 1e-12)
            assert m <= 2 * env * (1 + 1e-12)

    def test_gamma_regimes(self):
        s, d = 0.5, 1e-4
        for law in (LINEAR, BOUSSINESQ, QUARTIC):
            spec = MultiplierSpec(Family.GAMMA, s=s, delta=d, law=law)
            g1 = float(law(1.0))
            crit = invert(law, g1 / d)
            env = crit**-s
            rng = np.random.default_rng(43)
            for xi in rng.uniform(0.0, 1.0, 100):
                m = closed_modulus(spec, [xi])
                assert m <= d * float(law(xi)) * (1 + 1e-12) + 1e-300
                assert m <= d * g1 * (1 + 1e-12) + 1e-300
            for xi in 10 ** rng.uniform(0.0, math.log10(crit), 100):
                m = closed_modulus(spec, [xi])
                assert m <= d * float(law(xi)) / xi**s * (1 + 1e-12)
                assert m <= g1 * env * (1 + 1e-12)
            for xi in crit * 10 ** rng.uniform(0, 3, 100):
                assert closed_modulus(spec, [xi]) <= 2 * env * (1 + 1e-12)


class TestPointwiseDomination:
    def test_random_specs_and_frequencies(self):
        # 10^4 draws across the four families: |m| <= 2.5 * envelope
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 10_000:
            fam = list(Family)[rng.integers(4)]
            d = float(10 ** rng.uniform(-6, -0.05))
            try:
                if fam is Family.POWER:
                    a = rng.uniform(0.05, 1.0)
                    spec = MultiplierSpec(fam, s=a * rng.uniform(0.05, 1.0), delta=d, a=a)
                elif fam is Family.POWER_SHIFT:
                    b = rng.uniform(-1, 3)
                    if rng.random() < 0.5:
                        a = rng.uniform(0.05, 0.95)
                        smin = max(0.0, 1 - a * min(b, 1.0)) if b <= 1 else max(0.0, 1 - a)
                        if smin >= 1:
                            continue
                        s = rng.uniform(smin + 1e-6, 1.0)
                    else:
                        a = rng.uniform(1.0, 3.0)
                        smin = max(a * (1 - b), 0.0) if b <= 1 else 0.0
                        if smin >= a:
                            continue
                        s = rng.uniform(smin + 1e-6, a)
                    spec = MultiplierSpec(fam, s=s, delta=d, a=a, beta=b)
                else:
                    law = (LINEAR, BOUSSINESQ, QUARTIC)[rng.integers(3)]
                    s = rng.uniform(0.05, 1.0)
                    beta = float(rng.uniform(-1, 3)) if fam is Family.GAMMA_SHIFT else None
                    spec = MultiplierSpec(fam, s=s, delta=d, law=law, beta=beta)
                env = analytic_envelope(spec)
            except HypothesisViolation:
                continue
            for _ in range(25):
                xi = rng.uniform(-1, 1, size=2) * 10 ** rng.uniform(-6, 8)
                assert closed_modulus(spec, xi) <= 2.5 * env * (1 + 1e-9)
                checked += 1


class TestAxisScanConsistency:
    def test_axis_modulus_matches_the_closed_form(self):
        spec = MultiplierSpec(Family.GAMMA_SHIFT, s=0.5, delta=1e-3, law=BOUSSINESQ, beta=0.5)
        xs = np.array([-7.3, -1.0, 0.5, 2.0, 40.0])
        axis = _modulus_at(spec, np.abs(xs), xs)
        for x, m in zip(xs, axis):
            assert closed_modulus(spec, [x]) == pytest.approx(m, rel=1e-13, abs=1e-300)


def full_scan(spec, radii):
    """The scan without pruning: every point's modulus from ``_modulus_at``,
    the max, and its ties broken on |xi|, then on the coordinate."""
    signed = np.concatenate([radii, -radii]) if spec.family.shifted else radii
    vals = _modulus_at(spec, np.abs(signed), signed)
    top = float(vals.max())
    ties = np.flatnonzero(vals == top)
    order = np.lexsort((signed[ties], np.abs(signed[ties])))
    return ScanResult(sup=top, argmax=float(signed[ties[order[0]]]), points=signed.size)


def outcome(scan, spec, radii, invalid="ignore"):
    """(sup, argmax) in hex and the point count, or the error a scan ends in."""
    try:
        with np.errstate(over="ignore", invalid=invalid):
            result = scan(spec, radii)
    except Exception as exc:
        return type(exc), str(exc)
    return result.sup.hex(), result.argmax.hex(), result.points


def table_spec(family, radii, thetas, beta=None, s=0.5):
    """A spec whose unshifted phase at radii[j] is thetas[j] exactly:
    delta = 0.5 and a law that takes 2*theta there."""
    table = dict(zip(np.asarray(radii, dtype=float).tolist(), (2.0 * np.asarray(thetas)).tolist()))

    def law(r):
        r = np.asarray(r, dtype=float)
        return np.array([table[x] for x in r.ravel().tolist()]).reshape(r.shape)

    return MultiplierSpec(family, s=s, delta=0.5, law=PhaseLaw("table", law, law, 1.0), beta=beta)


SCAN_LAWS = [LINEAR, BOUSSINESQ, QUARTIC, power_law(0.7), power_law(1.5)]


class TestPrunedScan:
    """numeric_sup evaluates sin only where the bound 2*min(|h|, 1)/den
    reaches the seed; its sup, argmax and points are the full scan's."""

    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from(list(Family)),
        s=st.floats(0.05, 2.0),
        a=st.floats(0.2, 3.0),
        beta=st.floats(-1.0, 3.0),
        law=st.sampled_from(SCAN_LAWS),
        log_delta=st.floats(-10.0, -1.0),
    )
    def test_numeric_sup_is_the_full_scan(self, family, s, a, beta, law, log_delta):
        kwargs = {"law": law} if family.uses_law else {"a": a}
        if family.shifted:
            kwargs["beta"] = beta
        spec = MultiplierSpec(family, s=s, delta=10.0**log_delta, **kwargs)
        seen = []

        def recorder(spec, radii):
            seen.append(radii)
            return _scan(spec, radii)

        with mock.patch.object(phaselab.multipliers, "_scan", recorder):
            got = outcome(lambda spec, _: numeric_sup(spec), spec, None)
        if seen:  # no scan when the critical radius or the phase radii fail
            assert got == outcome(full_scan, spec, seen[0])

    @pytest.mark.parametrize("s", [0.25, 1.0, 2.0])
    def test_bound_dominates_the_computed_modulus(self, s):
        tiny = [3 * 2.0**-1074, 5e-324, 2.0**-1022, 1e-300, 1e-8, 1.0, 2.0, math.pi]
        turns = 2 * math.pi * np.arange(1.0, 400.0)
        near_turns = np.concatenate([np.nextafter(turns, 0.0), turns, np.nextafter(turns, np.inf)])
        huge = [1e15, 1e22, 1e100, 1e300, sys.float_info.max]
        theta = np.concatenate([tiny, near_turns, huge])
        theta = np.concatenate([theta, -theta, [math.nan]])
        for r in (0.0, 1e-3, 1.0, 1e3, 1e200):  # 1e200: the weight overflows to inf
            rs = np.full_like(theta, r)
            with np.errstate(over="ignore"):
                den = (1.0 + rs * rs) ** (0.5 * s)
            modulus, bound = _modulus(0.5 * theta, den), _bound(0.5 * theta, den)
            assert not np.any(bound < modulus)
            assert np.array_equal(np.isnan(bound), np.isnan(theta))
            if r == 1e200:
                assert np.all(modulus[:-1] == 0.0) and np.all(bound[:-1] == 0.0)
        # 0.5 * 3 * 2**-1074 rounds up to 2**-1073: the bound is read off h, not theta
        assert _modulus(0.5 * np.array([3 * 2.0**-1074]), np.ones(1))[0] == 4 * 2.0**-1074

    def test_a_subnormal_phase_is_bounded_through_h(self):
        # theta = 3*2**-1074 has h = 2**-1073 and modulus 4*2**-1074 > |theta|
        radii = np.array([1e-10, 2e-10])
        spec = table_spec(Family.GAMMA, radii, [3 * 2.0**-1074, 2.0**-1074])
        assert _scan(spec, radii) == ScanResult(4 * 2.0**-1074, 1e-10, 2)
        assert outcome(_scan, spec, radii) == outcome(full_scan, spec, radii)

    def test_the_seed_is_a_computed_modulus(self):
        # the bound peaks at 1e-10 (h = 1, b = 2), the modulus at 0.1 (h = pi/2)
        radii = np.array([1e-10, 0.1])
        spec = table_spec(Family.GAMMA, radii, [2.0, math.pi])
        assert _scan(spec, radii).argmax == 0.1
        assert outcome(_scan, spec, radii) == outcome(full_scan, spec, radii)

    def test_a_max_the_bound_equals_is_kept(self):
        # sin(pi/2) rounds to 1, so the seed point's bound equals its modulus
        radii = np.array([1e-10, 1.0, 2.0])
        spec = table_spec(Family.GAMMA, radii, [math.pi, 1.0, 1.0])
        assert outcome(_scan, spec, radii) == outcome(full_scan, spec, radii)
        assert _scan(spec, radii) == ScanResult(2.0, 1e-10, 3)

    def test_ties_go_to_the_smaller_radius_then_the_negative_sign(self):
        # below 1e-8 the weight is 1.0, and sin(pi/2 +- drift/2) rounds to 1
        radii = np.array([2e-10, 1e-10, 5.0])
        thetas = [math.pi, math.pi, 1.0]
        plain = table_spec(Family.GAMMA, radii, thetas)
        assert _scan(plain, radii) == ScanResult(2.0, 1e-10, 3)
        shifted = table_spec(Family.GAMMA_SHIFT, radii, thetas, beta=1.0)
        assert _scan(shifted, radii) == ScanResult(2.0, -1e-10, 6)
        for spec in (plain, shifted):
            assert outcome(_scan, spec, radii) == outcome(full_scan, spec, radii)

    @pytest.mark.parametrize("family", [Family.GAMMA, Family.GAMMA_SHIFT])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_phase_is_a_parameter_error(self, family, bad):
        # the bad phases sit where the bound is far below the seed, and the
        # error names the least radius whose phase is not finite; under
        # invalid="raise" it shows that no sin reached them
        radii = np.array([1e-10, 1e5, 3.0, 2e5, 4e4])
        thetas = [math.pi, bad, 1.0, bad, bad]
        spec = table_spec(family, radii, thetas, beta=1.0 if family.shifted else None)
        want = (ParameterError, "the phase at delta=0.5 is not finite at |xi|=40000.0")
        for invalid in ("ignore", "raise"):
            assert outcome(_scan, spec, radii, invalid) == want


def fresh_scan_radii(xi_max, r_turn, r_pi):
    """The scan radii as built before any piece was reused."""
    exps = np.arange(-6 * SCAN_PER_DECADE, math.floor(math.log10(xi_max) * SCAN_PER_DECADE) + 1,
                     dtype=float) / SCAN_PER_DECADE
    radii = np.concatenate([10.0**exps, [xi_max], r_turn, np.linspace(0.6 * r_pi, 1.4 * r_pi, 1001),
                            np.linspace(0.05, min(20.0, xi_max), 800)])
    radii = radii[radii <= xi_max * (1.0 + 1e-12)]
    return radii[(radii > 0.0) & np.isfinite(radii)]


class TestReusedScanPieces:
    def test_geometric_points_are_fresh_powers(self, monkeypatch):
        # every hi a scan reaches, from xi_max = 8 to the largest double: growing
        # the table by one, then by jumps, then reading prefixes of the full table
        monkeypatch.setattr(phaselab.multipliers, "_GEOMETRIC", np.empty(0))
        top = math.floor(math.log10(sys.float_info.max) * SCAN_PER_DECADE)
        his = list(range(math.floor(math.log10(8.0) * SCAN_PER_DECADE), top + 1))
        r_turn = np.array([1.0, 2.0, 3.0])
        for hi in his[:40] + his[40::97] + his[::-1]:
            xi_max = sys.float_info.max if hi == top else 10.0 ** ((hi + 0.5) / SCAN_PER_DECADE)
            assert math.floor(math.log10(xi_max) * SCAN_PER_DECADE) == hi
            fresh = 10.0 ** (np.arange(-6 * SCAN_PER_DECADE, hi + 1, dtype=float) / SCAN_PER_DECADE)
            assert np.array_equal(_scan_radii(xi_max, r_turn, 2.0)[:fresh.size], fresh), hi

    @pytest.mark.parametrize("xi_max", [8.0, 19.99, 20.0, 20.01, 1e5, 1e300])
    def test_scan_radii_are_the_fresh_ones(self, xi_max):
        r_turn = np.geomspace(1e-3, xi_max / 1.05, 1500)
        r_pi = float(r_turn[749])
        assert np.array_equal(_scan_radii(xi_max, r_turn, r_pi), fresh_scan_radii(xi_max, r_turn, r_pi))

    def test_import_builds_nothing(self):
        code = ("import phaselab, phaselab.multipliers as m; "
                "assert m._GEOMETRIC.size == 0; "
                "assert m._order_one_window.cache_info().currsize == 0")
        subprocess.run([sys.executable, "-c", code], check=True)

    @pytest.mark.parametrize("template", SWEEP_TEMPLATES + [power_spec(0.5, 0.5, 1e-3)],
                             ids=lambda s: s.family.value)
    def test_with_delta_is_replace(self, template):
        radii = np.geomspace(1e-3, 1e6, 50)
        for d in (1e-10, 3e-6, 0.5):
            lean, full = template.with_delta(d), dataclasses.replace(template, delta=d)
            for field in dataclasses.fields(MultiplierSpec):
                if field.name != "phase_law":
                    assert getattr(lean, field.name) == getattr(full, field.name)
            assert lean == full
            assert np.array_equal(lean.phase_law(radii), full.phase_law(radii))
        for bad in (math.nan, math.inf, 0.0, 1e-11, 1.0):
            with pytest.raises(ParameterError) as lean_err:
                template.with_delta(bad)
            with pytest.raises(ParameterError) as full_err:
                dataclasses.replace(template, delta=bad)
            assert str(lean_err.value) == str(full_err.value)


class TestWeightAndModulusKeepTheirBits:
    """The library results that read the Sobolev weight and the modulus,
    against the expressions each caller wrote inline before both had one
    home (``spectral._sobolev_weight``, ``propagation._modulus``), compared
    bit for bit."""

    SPECS = [
        power_spec(0.5, 0.5, 1e-3),
        MultiplierSpec(Family.GAMMA, s=0.75, delta=1e-4, law=BOUSSINESQ),
        MultiplierSpec(Family.POWER_SHIFT, s=0.75, delta=1e-3, a=0.5, beta=1.5),
    ]
    GRIDS = [(1, 64.0, 0.125), (2, 8.0, 0.25), (3, 2.0, 0.25)]

    @staticmethod
    def inline_modulus(spec, r, proj):
        theta = phase(spec.phase_law, spec.delta, r, spec.beta, proj)
        with np.errstate(over="ignore"):
            return 2.0 * np.abs(np.sin(0.5 * theta)) / (1.0 + r * r) ** (0.5 * spec.s)

    @pytest.mark.parametrize("grid_args", GRIDS)
    def test_sobolev_norm(self, grid_args):

        field = random_field(make_grid(*grid_args), 5)
        c, grid = field.coefficients, field.grid
        for s in (-1.5, 0.0, 0.3, 0.5, 0.75, 1, 2.0, 7.25):
            w = (1.0 + grid.radii**2) ** s
            total = _fsum(((c.real * c.real + c.imag * c.imag) * w).tolist())
            assert sobolev_norm(field, s).hex() == math.sqrt(total * grid.weight).hex()

    @pytest.mark.parametrize("spec", SPECS, ids=["power", "gamma", "power-shift"])
    def test_modulus_at(self, spec):
        # past 1.4e154 the weight overflows to inf; the gamma law's phase would too
        xi = np.geomspace(1e-6, 1e150 if spec.family.uses_law else 1e200, 4001)
        xi = np.concatenate([xi, -xi, [0.0]])
        want = self.inline_modulus(spec, np.abs(xi), xi)
        assert np.array_equal(_modulus_at(spec, np.abs(xi), xi).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("grid_args", GRIDS)
    @pytest.mark.parametrize("spec", SPECS, ids=["power", "gamma", "power-shift"])
    def test_extremal_witness_coefficient(self, spec, grid_args):
        grid = make_grid(*grid_args)
        r = grid.radii
        m = self.inline_modulus(spec, r, grid.modes[:, 0])
        ties = np.flatnonzero(m == m.max())
        idx = ties[np.argmin(r[ties])]
        coeff = 1.0 / ((1.0 + r[idx] ** 2) ** (0.5 * spec.s) * grid.weight**0.5)
        got = extremal_witness(spec, grid).coefficients
        assert np.flatnonzero(got).tolist() == [idx]
        assert got[idx].real.hex() == float(coeff).hex() and got[idx].imag == 0.0

    @pytest.mark.parametrize("spec", SPECS, ids=["power", "gamma", "power-shift"])
    def test_numeric_sup(self, spec):
        seen = []

        def recorder(spec, radii):
            seen.append(radii)
            return _scan(spec, radii)

        with mock.patch.object(phaselab.multipliers, "_scan", recorder):
            got = numeric_sup(spec)
        radii = seen[0]
        signed = np.concatenate([radii, -radii]) if spec.family.shifted else radii
        vals = self.inline_modulus(spec, np.abs(signed), signed)
        top = float(vals.max())
        ties = signed[vals == top]
        argmax = float(ties[np.lexsort((ties, np.abs(ties)))[0]])
        assert (got.sup.hex(), got.argmax.hex(), got.points) == (top.hex(), argmax.hex(), signed.size)
