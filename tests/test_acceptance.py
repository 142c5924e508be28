"""End-to-end acceptance checks.

Each test exercises one quantitative exit criterion at its stated
tolerance and prints one PASS line (visible under ``pytest -s``).
"""

import time

import numpy as np
import pytest

from phaselab import (
    BOUSSINESQ,
    LINEAR,
    QUARTIC,
    ConvergenceCriterion,
    Family,
    HypothesisViolation,
    MultiplierSpec,
    ShiftSpec,
    TimeSequence,
    analytic_envelope,
    certify,
    extremal_witness,
    make_grid,
    pointwise_trace,
    power_law,
    random_field,
    rate_fit,
    required_exponent,
    sequence_applicable,
    sobolev_norm,
)
from phaselab import propagation
from phaselab.convergence import default_points
from phaselab.multipliers import DRIFT_CAP, RATIO_CAP
from phaselab.propagation import phase
from test_propagation import residual

SWEEP = [10.0 ** (-e) for e in np.linspace(2, 6, 17)]  # 1e-2 -> 1e-6 at 4/decade


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_power_envelope_certificates():
    pairs = [(0.5, 0.5), (0.25, 0.5), (1.0, 1.0), (0.3, 0.9)]
    for s, a in pairs:
        start = time.perf_counter()
        cert = certify(MultiplierSpec(Family.POWER, s=s, delta=1e-3, a=a), SWEEP)
        elapsed = time.perf_counter() - start
        assert cert.max_ratio <= RATIO_CAP, (s, a, cert.max_ratio)
        assert cert.drift <= DRIFT_CAP, (s, a, cert.drift)
        assert cert.passed
        assert elapsed < 10.0, f"certificate for {(s, a)} took {elapsed:.1f}s"
    report(1, "power-family certificates pass at every delta for all four (s, a) pairs")


def test_criterion_2_shift_envelope_certificates():
    # one sharp configuration per (branch, regime) combination, all valid
    # under the stated parameter hypotheses
    combos = [
        (0.5, 1.0, 2.0, lambda d, s, a, b: d ** (1 + (s - 1) / a)),
        (0.5, 1.0, 0.5, lambda d, s, a, b: d ** (b + (s - 1) / a)),
        (2.0, 1.0, 2.0, lambda d, s, a, b: d ** (s / a)),
        (2.0, 2.0, 0.5, lambda d, s, a, b: d ** (b - 1 + s / a)),
    ]
    for a, s, b, envelope in combos:
        start = time.perf_counter()
        cert = certify(
            MultiplierSpec(Family.POWER_SHIFT, s=s, delta=1e-3, a=a, beta=b), SWEEP
        )
        elapsed = time.perf_counter() - start
        assert cert.passed, (a, s, b, cert.max_ratio, cert.drift)
        for d, env in zip(cert.sweep.deltas, cert.sweep.envelopes):
            assert env == pytest.approx(envelope(d, s, a, b), rel=1e-12)
        assert elapsed < 10.0
    report(2, "all four shifted-branch certificates pass against their envelopes")


def test_criterion_3_gamma_catalog_certificates_and_asymptotics():
    for law in (LINEAR, BOUSSINESQ, QUARTIC):
        for s in (0.5, 1.0):
            cert = certify(MultiplierSpec(Family.GAMMA, s=s, delta=1e-3, law=law), SWEEP)
            assert cert.passed, (law.name, s, cert.max_ratio, cert.drift)

    # the delta**(beta-1) variant at beta = 1/2: the one-sided bound holds
    # across the whole catalog; the full certificate (bound + no drift) holds
    # for the configuration where the envelope is attained (linear, s = 1)
    for law in (LINEAR, BOUSSINESQ, QUARTIC):
        for s in (0.5, 1.0):
            cert = certify(
                MultiplierSpec(Family.GAMMA_SHIFT, s=s, delta=1e-3, law=law, beta=0.5),
                SWEEP,
            )
            assert cert.max_ratio <= RATIO_CAP, (law.name, s, cert.max_ratio)
    cert = certify(
        MultiplierSpec(Family.GAMMA_SHIFT, s=1.0, delta=1e-3, law=LINEAR, beta=0.5), SWEEP
    )
    assert cert.passed

    # asymptotics, exponents confirmed by the inversion-based oracle:
    # envelope ~ delta^(s/2) for boussinesq and delta^(s/4) for quartic
    for law, expo in ((BOUSSINESQ, 0.5), (QUARTIC, 0.25)):
        for s in (0.5, 1.0):
            e1 = analytic_envelope(MultiplierSpec(Family.GAMMA, s=s, delta=1e-8, law=law))
            e2 = analytic_envelope(MultiplierSpec(Family.GAMMA, s=s, delta=1e-10, law=law))
            pure = (1e-8 / 1e-10) ** (s * expo)
            assert abs(e1 / e2 - pure) <= 0.01 * pure, (law.name, s)
    report(3, "gamma-catalog certificates pass; envelope asymptotics match the pure powers")


def test_criterion_4_rate_fits():
    deltas = [10.0 ** (-e) for e in np.linspace(2, 8, 25)]
    start = time.perf_counter()
    for s, a, slope in ((0.5, 0.5, 1.0), (0.25, 0.5, 0.5)):
        rep = rate_fit(MultiplierSpec(Family.POWER, s=s, delta=1e-3, a=a), deltas)
        assert abs(rep.fitted_slope - slope) <= 0.05, (s, a, rep.fitted_slope)
        assert rep.passed
    # quartic, s = 1: envelope ginv(2/d)^(-1) ~ (d/2)^(1/4), slope s/4
    rep = rate_fit(MultiplierSpec(Family.GAMMA, s=1.0, delta=1e-3, law=QUARTIC), deltas)
    assert abs(rep.fitted_slope - 0.25) <= 0.05, rep.fitted_slope
    assert rep.passed
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"rate fits took {elapsed:.1f}s"
    report(4, f"rate fits match the envelope exponents (total {elapsed:.1f}s)")


def test_criterion_5_propagator_exactness():
    # the rows e^{i theta} the trace and evaluate_shifted multiply by
    rng = np.random.default_rng(20250810)
    grids = {
        "small": make_grid(1, 8, 0.25),
        "default": make_grid(1, 64, 0.125),
    }
    laws = [power_law(0.5), power_law(2.0), LINEAR, BOUSSINESQ]
    for i in range(200):
        law = laws[i % len(laws)]
        grid = grids["small"] if i % 2 else grids["default"]
        fold = propagation._fold(grid, law, None)
        t1, t2 = rng.uniform(0.0, 0.25, size=2)
        rows = np.empty((4, fold.num_modes), dtype=complex)
        propagation._angles(fold, propagation._checked(fold, [0.0, t1, t2, t1 + t2]), rows)
        zero, one, two, both = rows

        # t = 0 identity, exact
        np.testing.assert_array_equal(zero, 1.0)

        # unit modulus
        assert float(np.max(np.abs(np.abs(rows) - 1.0))) <= 1e-15

        # group law, modewise
        assert float(np.max(np.abs(one * two - both))) <= 1e-12

        # one-mode closed form
        j = int(rng.integers(fold.num_modes))
        want = np.exp(1j * t1 * float(law(grid.radii[fold.index][j])))
        assert abs(one[j] - want) <= 1e-12
    report(5, "unit modulus, group law, t=0 identity and one-mode forms hold at 1e-12")


def test_criterion_6_discrete_plancherel_chain():
    rng = np.random.default_rng(60)
    grid = make_grid(1, 16, 0.25)
    mu = np.array([1.0])
    for i in range(200):
        family = list(Family)[i % 4]
        d = float(10 ** rng.uniform(-4, -1))
        s = float(rng.uniform(0.2, 1.0))
        if family is Family.POWER:
            spec = MultiplierSpec(family, s=s * 0.5, delta=d, a=0.5)
            law, shift = power_law(0.5), None
        elif family is Family.POWER_SHIFT:
            spec = MultiplierSpec(family, s=s, delta=d, a=0.5, beta=2.0)
            law, shift = power_law(0.5), ShiftSpec(beta=2.0, mu=mu)
        elif family is Family.GAMMA:
            spec = MultiplierSpec(family, s=s, delta=d, law=BOUSSINESQ)
            law, shift = BOUSSINESQ, None
        else:
            spec = MultiplierSpec(family, s=s, delta=d, law=QUARTIC, beta=0.5)
            law, shift = QUARTIC, ShiftSpec(beta=0.5, mu=mu)

        # the grid sup of |m| = |e^{i theta} - 1| / (1 + r^2)^{s/2}, theta from the spec
        r = grid.radii
        theta = phase(spec.phase_law, spec.delta, r, spec.beta, grid.modes[:, 0])
        grid_sup = float(np.max(np.abs(np.exp(1j * theta) - 1) / (1 + r * r) ** (spec.s / 2)))

        f = random_field(grid, rng)
        l2 = sobolev_norm(residual(f, law, d, shift), 0.0)
        assert l2 <= grid_sup * sobolev_norm(f, spec.s) * (1 + 1e-10)

        witness = extremal_witness(spec, grid)
        wl2 = sobolev_norm(residual(witness, law, d, shift), 0.0)
        assert wl2 >= 0.9 * grid_sup * sobolev_norm(witness, spec.s)
    report(6, "residual norms obey the grid multiplier bound; witnesses attain >= 0.9 of it")


def test_criterion_7_sequence_classifier():
    rng = np.random.default_rng(70)
    checked = 0
    while checked < 1000:
        p = float(rng.uniform(0.05, 3.0))
        a = float(rng.uniform(0.05, 1.0))
        s = float(rng.uniform(0.05, 1.0)) * a
        q = 2.0 * s / a
        if abs(p * q - 1.0) < 1e-9:
            continue
        cond = required_exponent(ConvergenceCriterion.POWER_LOW, s=s, a=a)
        verdict = sequence_applicable(TimeSequence.power(p), cond)
        assert verdict.decision == ("yes" if p * q > 1.0 else "no")
        checked += 1

    # geometric sequences are accepted for every positive exponent
    for _ in range(100):
        a = float(rng.uniform(0.05, 1.0))
        s = float(rng.uniform(0.05, 1.0)) * a
        r = float(rng.uniform(0.05, 0.95))
        cond = required_exponent(ConvergenceCriterion.POWER_LOW, s=s, a=a)
        verdict = sequence_applicable(TimeSequence.geometric(r), cond)
        assert verdict.decision == "yes"

    # the vacuous q = 0 boundary of the super-linear shifted branch
    with pytest.raises(HypothesisViolation) as err:
        required_exponent(ConvergenceCriterion.POWER_SHIFT_SUPER, s=1.0, a=2.0, beta=0.5)
    assert "s > a*(1-beta)" in str(err.value)
    report(7, "classifier agrees with the p*q > 1 rule; boundary reports its violated hypothesis")


def test_criterion_8_pointwise_trace():
    grid = make_grid(1, 8, 0.25)  # 65-mode random field
    f = random_field(grid, np.random.default_rng(1729))
    seq = TimeSequence.power(2.0)
    points = default_points(1, 32)
    trace = pointwise_trace(f, power_law(0.5), seq, 0.5, points, k_max=2048)
    assert trace.tail is not None and trace.tail < 1e-6, trace.tail
    sums = [pointwise_trace(f, power_law(0.5), seq, 0.5, points, k_max=k).partial_sums
            for k in (16, 32, 64)] + [trace.partial_sums]
    assert np.all(np.diff(sums, axis=0) >= 0.0)
    report(
        8,
        f"trace tail bound {trace.tail:.2e} < 1e-6 at K=2048 with monotone partial sums",
    )
