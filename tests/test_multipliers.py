import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phaselab.convergence
import phaselab.multipliers
from phaselab import (
    BOUSSINESQ,
    LINEAR,
    QUARTIC,
    Family,
    HypothesisViolation,
    MultiplierSpec,
    ParameterError,
    ScanTooSmallError,
    analytic_envelope,
    certify,
    critical_radius,
    custom_law,
    error_field,
    extremal_witness,
    invert,
    make_grid,
    multiplier_value,
    numeric_sup,
    power_law,
    rate_fit,
)
from phaselab.multipliers import (
    RATIO_CAP,
    _phase_radii,
    _theta_axis,
    modulus_on_axis,
    sweep_specs,
)

DELTAS_4DEC = [10.0 ** (-e) for e in np.linspace(2, 6, 17)]


def power_spec(s, a, delta):
    return MultiplierSpec(Family.POWER, s=s, delta=delta, a=a)


class TestMultiplierValue:
    def test_zero_frequency_vanishes(self):
        specs = [
            power_spec(0.5, 0.5, 1e-3),
            MultiplierSpec(Family.POWER_SHIFT, s=0.5, delta=1e-3, a=0.5, beta=2.0),
            MultiplierSpec(Family.GAMMA, s=0.5, delta=1e-3, law=BOUSSINESQ),
            MultiplierSpec(Family.GAMMA_SHIFT, s=0.5, delta=1e-3, law=QUARTIC, beta=0.5),
        ]
        for spec in specs:
            assert multiplier_value(spec, np.zeros(2)) == 0.0

    def test_half_turn_reaches_two(self):
        s, a, d = 0.5, 0.5, 1e-3
        xi = (math.pi / d) ** (1 / a)
        m = multiplier_value(power_spec(s, a, d), [xi])
        assert abs(m) == pytest.approx(2.0 / (1 + xi**2) ** (s / 2), rel=1e-12)

    def test_gamma_power_reduces_to_power_family(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            xi = rng.uniform(-50, 50, size=2)
            a, s, d = 0.7, 0.5, 1e-3
            mg = multiplier_value(
                MultiplierSpec(Family.GAMMA, s=s, delta=d, law=power_law(a)), xi
            )
            mp = multiplier_value(power_spec(s, a, d), xi)
            assert abs(mg - mp) <= 1e-14

    def test_gamma_shift_power_reduces_to_power_shift(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            xi = rng.uniform(-50, 50, size=2)
            a, s, d, b = 0.7, 0.6, 1e-3, 0.5
            mg = multiplier_value(
                MultiplierSpec(Family.GAMMA_SHIFT, s=s, delta=d, law=power_law(a), beta=b),
                xi,
            )
            mp = multiplier_value(
                MultiplierSpec(Family.POWER_SHIFT, s=s, delta=d, a=a, beta=b), xi
            )
            assert abs(mg - mp) <= 1e-14

    def test_shift_with_zero_drift_term_reduces_to_plain(self):
        # beta huge makes delta**beta underflow to 0: the drift phase drops out
        rng = np.random.default_rng(32)
        shift = MultiplierSpec(Family.POWER_SHIFT, s=0.6, delta=1e-3, a=0.5, beta=200.0)
        plain = power_spec(0.6, 0.5, 1e-3)
        for _ in range(20):
            xi = rng.uniform(-100, 100, size=1)
            assert abs(multiplier_value(shift, xi) - multiplier_value(plain, xi)) <= 1e-14

    def test_modulus_never_exceeds_weighted_two(self):
        rng = np.random.default_rng(33)
        spec = MultiplierSpec(Family.GAMMA_SHIFT, s=0.7, delta=1e-2, law=BOUSSINESQ, beta=0.5)
        for _ in range(100):
            xi = rng.uniform(-1, 1, size=3) * 10 ** rng.uniform(-4, 6)
            r = float(np.linalg.norm(xi))
            assert abs(multiplier_value(spec, xi)) <= 2.0 / (1 + r * r) ** 0.35 * (1 + 1e-12)


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
        with pytest.raises(HypothesisViolation):
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

    def test_subset_monotone(self):
        spec = power_spec(0.25, 0.5, 1e-4)
        assert numeric_sup(spec, per_decade=32).sup <= numeric_sup(spec, per_decade=64).sup

    def test_gamma_linear_equals_power(self):
        sg = numeric_sup(MultiplierSpec(Family.GAMMA, s=1.0, delta=1e-4, law=LINEAR))
        sp = numeric_sup(power_spec(1.0, 1.0, 1e-4))
        assert abs(sg.sup - sp.sup) <= 1e-14

    def test_scan_too_small(self):
        spec = power_spec(0.5, 0.5, 1e-4)
        with pytest.raises(ScanTooSmallError):
            numeric_sup(spec, xi_max=1e6)  # needs 4 * delta^(-2) = 4e8


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
        scan = numeric_sup(spec, per_decade=8)
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
            # Error budget of modulus_on_axis in float64 (u = 2**-53, pow and
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
        assert all(r <= 2.0 for r in cert.ratios)

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
        for row in cert.sweep_rows():
            inv = invert(BOUSSINESQ, math.sqrt(2) / row["delta"])
            assert row["envelope"] == pytest.approx(inv**-0.5, rel=1e-12)

    def test_sweep_must_span_four_decades(self):
        with pytest.raises(ParameterError):
            certify(power_spec(0.5, 0.5, 1e-3), [1e-2, 1e-3])

    def test_certificate_dict_schema(self):
        cert = certify(power_spec(0.5, 0.5, 1e-3), DELTAS_4DEC)
        d = cert.to_dict()
        assert set(d) == {"family", "params", "delta_sweep", "pass"}
        assert set(d["delta_sweep"][0]) == {"delta", "sup", "envelope", "ratio", "argmax"}


def reference_phase_radii(spec, targets):
    """The single-set bisection merged into _phase_radii, kept as the reference:
    the critical radius is inverted on every call and all 160 steps run."""
    targets = np.asarray(targets, dtype=float)
    if spec.family is Family.POWER:
        return (targets / spec.delta) ** (1.0 / spec.a)
    if spec.family.uses_law:
        r_c = invert(spec.law, float(spec.law(1.0)) / spec.delta)
    else:
        r_c = spec.delta ** (-1.0 / spec.a)
    hi = max(1.0, r_c)
    top = float(targets.max())
    for _ in range(200):
        if float(_theta_axis(spec, np.asarray(hi))) >= top:
            break
        hi *= 2.0
    lo = np.zeros_like(targets)
    hi_arr = np.full_like(targets, hi)
    for _ in range(160):
        mid = 0.5 * (lo + hi_arr)
        above = _theta_axis(spec, mid) >= targets
        hi_arr = np.where(above, mid, hi_arr)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi_arr)


@st.composite
def any_family_spec(draw):
    family = draw(st.sampled_from(list(Family)))
    kwargs = dict(
        s=draw(st.floats(0.05, 1.0)),
        delta=draw(st.floats(1e-8, 0.5, exclude_max=True)),
    )
    if family.uses_law:
        kwargs["law"] = draw(st.sampled_from([BOUSSINESQ, QUARTIC, LINEAR, power_law(2.0)]))
    else:
        kwargs["a"] = draw(st.floats(0.25, 2.5))
    if family.shifted:
        kwargs["beta"] = draw(st.floats(0.3, 2.5))
    return MultiplierSpec(family, **kwargs)


class TestMergedBisection:
    @settings(max_examples=40, deadline=None)
    @given(spec=any_family_spec())
    def test_bit_identical_to_three_full_bisections(self, spec):
        u = np.linspace(2.0 * math.pi / 1500, 2.0 * math.pi, 1500)
        r_turn, r_pi = _phase_radii(spec, u, np.asarray([math.pi]))
        assert np.array_equal(r_turn, reference_phase_radii(spec, u))
        assert r_turn[-1] == reference_phase_radii(spec, [2.0 * math.pi])[0]
        assert np.array_equal(r_pi, reference_phase_radii(spec, [math.pi]))

    def test_merged_sets_equal_one_call_per_set(self):
        spec = MultiplierSpec(Family.GAMMA_SHIFT, s=0.5, delta=1e-3, law=QUARTIC, beta=0.8)
        sets = ([0.5, 2.0, 6.0], [math.pi], [1e-3, 40.0])
        merged = _phase_radii(spec, *sets)
        assert len(merged) == 3
        for radii, targets in zip(merged, sets):
            assert np.array_equal(radii, _phase_radii(spec, targets)[0])
            assert np.array_equal(radii, reference_phase_radii(spec, targets))


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


class TestSweepSpecs:
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
        calls = _recorded_sups(monkeypatch, phaselab.convergence)
        template = SWEEP_TEMPLATES[1]
        rate_fit(template, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6], per_decade=8)
        assert len(calls) == 5
        for d, scan in calls:
            alone = numeric_sup(template.with_delta(d), per_decade=8)
            assert (scan.sup, scan.argmax, scan.points) == (alone.sup, alone.argmax, alone.points)

    def test_batched_critical_radius_equals_scalar_inversion(self):
        template = SWEEP_TEMPLATES[0]
        for spec in sweep_specs(template, DELTAS_4DEC):
            assert critical_radius(spec) == invert(BOUSSINESQ, math.sqrt(2) / spec.delta)
            assert spec == template.with_delta(spec.delta)

    @pytest.mark.parametrize("template", SWEEP_TEMPLATES[:2], ids=lambda s: s.family.value)
    def test_hypotheses_probed_once_per_sweep(self, template, monkeypatch):
        # the hypotheses do not depend on delta: certify and rate_fit probe
        # the law once per sweep, not once per delta
        probes = []
        original = phaselab.multipliers.check_hypotheses

        def counting(law, *args):
            probes.append(law)
            return original(law, *args)

        monkeypatch.setattr(phaselab.multipliers, "check_hypotheses", counting)
        certify(template, DELTAS_4DEC[::2])
        assert probes == [template.law]
        probes.clear()
        rate_fit(template, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6], per_decade=8)
        assert probes == [template.law]

    def test_hypotheses_checked_before_inversion(self):
        # a non-increasing law cannot be inverted; the hypothesis error wins
        bumpy = custom_law(lambda r: np.asarray(r) * (2.0 + np.sin(np.asarray(r))), "bumpy")
        template = MultiplierSpec(Family.GAMMA, s=0.5, delta=1e-3, law=bumpy)
        with pytest.raises(HypothesisViolation, match="bumpy is ineligible"):
            sweep_specs(template, DELTAS_4DEC)


class TestExtremalWitness:
    def test_one_mode_equality_at_grid_argmax(self):
        g = make_grid(1, 64, 0.125)
        s, a, d = 0.5, 0.5, 1e-3
        spec = power_spec(s, a, d)
        w = extremal_witness(spec, g)
        res = error_field(w, power_law(a), d, s=s)
        assert res.hs_of_f == pytest.approx(1.0, rel=1e-12)
        # the witness realizes the grid sup exactly (one-mode equality)
        grid_sup = float(
            np.max(2 * np.abs(np.sin(0.5 * d * g.radii**a)) / (1 + g.radii**2) ** (s / 2))
        )
        assert res.l2 == pytest.approx(grid_sup, rel=1e-12)

    def test_default_grid_ratio_band(self):
        # frozen from the scan oracle: the grid tops out at |xi| = 64 where
        # |m|/delta^(s/a) = 0.999936, just below 1
        g = make_grid(1, 64, 0.125)
        spec = power_spec(0.5, 0.5, 1e-3)
        w = extremal_witness(spec, g)
        res = error_field(w, power_law(0.5), 1e-3, s=0.5)
        ratio = res.l2 / (1e-3 ** (0.5 / 0.5) * res.hs_of_f)
        assert ratio == pytest.approx(0.999936, abs=1e-5)
        assert 0.99 <= ratio <= 2.0

    def test_halving_delta_stays_in_band(self):
        g = make_grid(1, 64, 0.125)
        for d in (1e-3, 5e-4):
            spec = power_spec(0.5, 0.5, d)
            w = extremal_witness(spec, g)
            res = error_field(w, power_law(0.5), d, s=0.5)
            assert 0.99 <= res.l2 / (d * res.hs_of_f) <= 2.0


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
            assert abs(multiplier_value(spec, [xi])) <= d * xi**a * (1 + 1e-12) + 1e-300
        for xi in middle:
            m = abs(multiplier_value(spec, [xi]))
            assert m <= d * xi ** (a - s) * (1 + 1e-12)
            assert m <= env * (1 + 1e-12)
        for xi in outer:
            m = abs(multiplier_value(spec, [xi]))
            assert m <= 2.0 / xi**s * (1 + 1e-12)
            assert m <= 2.0 * env * (1 + 1e-12)

    def test_shift_regimes_factor_two(self):
        s, a, b, d = 0.8, 0.5, 2.0, 1e-4
        spec = MultiplierSpec(Family.POWER_SHIFT, s=s, delta=d, a=a, beta=b)
        env = d ** (1 + (s - 1) / a)
        rng = np.random.default_rng(42)
        for xi in rng.uniform(-1.0, 1.0, 200):
            assert abs(multiplier_value(spec, [xi])) <= 2 * d * (1 + 1e-12)
        for xi in 10 ** rng.uniform(0.0, -math.log10(d) / a, 200) * rng.choice([-1, 1], 200):
            m = abs(multiplier_value(spec, [xi]))
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
                m = abs(multiplier_value(spec, [xi]))
                assert m <= d * float(law(xi)) * (1 + 1e-12) + 1e-300
                assert m <= d * g1 * (1 + 1e-12) + 1e-300
            for xi in 10 ** rng.uniform(0.0, math.log10(crit), 100):
                m = abs(multiplier_value(spec, [xi]))
                assert m <= d * float(law(xi)) / xi**s * (1 + 1e-12)
                assert m <= g1 * env * (1 + 1e-12)
            for xi in crit * 10 ** rng.uniform(0, 3, 100):
                assert abs(multiplier_value(spec, [xi])) <= 2 * env * (1 + 1e-12)


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
                assert abs(multiplier_value(spec, xi)) <= 2.5 * env * (1 + 1e-9)
                checked += 1


class TestAxisScanConsistency:
    def test_axis_modulus_matches_vector_values(self):
        spec = MultiplierSpec(Family.GAMMA_SHIFT, s=0.5, delta=1e-3, law=BOUSSINESQ, beta=0.5)
        xs = np.array([-7.3, -1.0, 0.5, 2.0, 40.0])
        axis = modulus_on_axis(spec, xs)
        for x, m in zip(xs, axis):
            assert abs(multiplier_value(spec, [x])) == pytest.approx(m, rel=1e-13, abs=1e-300)
