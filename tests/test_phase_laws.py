import math

import mpmath
import numpy as np
import pytest

from phaselab import (
    BOUSSINESQ,
    CATALOG,
    LINEAR,
    QUARTIC,
    NotInvertibleError,
    OutOfRangeError,
    ParameterError,
    check_hypotheses,
    custom_law,
    invert,
    invert_many,
    parse_law,
    power_law,
)


def bisect_oracle(fn, target, lo, hi, tol=1e-12):
    """Independent bracketing bisection used to confirm invert()."""
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if fn(mid) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= tol * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


class TestCatalog:
    def test_values_at_one(self):
        assert LINEAR(1.0) == 1.0
        assert BOUSSINESQ(1.0) == pytest.approx(math.sqrt(2), rel=1e-15)
        assert QUARTIC(1.0) == 2.0
        assert power_law(0.5)(4.0) == 2.0

    def test_vanish_at_zero(self):
        for law in (*CATALOG.values(), power_law(0.5), power_law(3)):
            assert float(law(0.0)) == 0.0

    def test_parse(self):
        assert parse_law("boussinesq") is BOUSSINESQ
        assert parse_law("power:a=0.5").power == 0.5
        with pytest.raises(ParameterError):
            parse_law("cubic")


class TestCheckHypotheses:
    def test_square_power(self):
        rep = check_hypotheses(power_law(2.0))
        assert rep.gamma_nonneg and rep.gamma_increasing and rep.ratio_increasing

    def test_boussinesq_eligible(self):
        rep = check_hypotheses(BOUSSINESQ)
        assert rep.eligible

    def test_quartic_and_linear_eligible(self):
        assert check_hypotheses(QUARTIC).eligible
        assert check_hypotheses(LINEAR).eligible  # flat ratio counts as nondecreasing

    def test_sqrt_power_fails_ratio(self):
        rep = check_hypotheses(power_law(0.5))
        assert rep.gamma_increasing
        assert not rep.ratio_increasing

    def test_negative_evaluator_reported_not_raised(self):
        rep = check_hypotheses(custom_law(lambda r: np.asarray(r) - 1.0))
        assert not rep.gamma_nonneg
        assert not rep.eligible


class TestInvert:
    def test_power_closed_form(self):
        assert invert(power_law(2.0), 4.0) == 2.0

    def test_boussinesq_at_its_unit_value(self):
        assert invert(BOUSSINESQ, math.sqrt(2)) == pytest.approx(1.0, abs=1e-10)

    def test_quartic_against_independent_bisection(self):
        # closed form: r^2 = (-1 + sqrt(41)) / 2 for r^4 + r^2 = 10
        closed = math.sqrt((-1 + math.sqrt(41)) / 2)
        oracle = bisect_oracle(lambda r: r**2 + r**4, 10.0, 0.0, 10.0)
        assert abs(oracle - closed) <= 1e-10
        assert invert(QUARTIC, 10.0) == pytest.approx(closed, abs=1e-9)
        assert closed == pytest.approx(1.6437, abs=1e-4)

    def test_round_trip_catalog(self):
        for law in CATALOG.values():
            ys = np.geomspace(float(law(1e-3)), float(law(1e3)), 100)
            roots = invert_many(law, ys)
            back = np.asarray(law(roots), dtype=float)
            assert np.all(np.abs(back - ys) <= 1e-10 * np.maximum(1.0, ys))

    def test_not_invertible(self):
        decreasing = custom_law(lambda r: 1.0 / (1.0 + np.asarray(r)))
        with pytest.raises(NotInvertibleError):
            invert(decreasing, 0.5)

    @pytest.mark.parametrize(
        "law, y",
        [
            (BOUSSINESQ, 1.7976931348623157e308),
            (custom_law(lambda r: np.asarray(r) / (1.0 + np.asarray(r)), "saturating"), 2.0),
        ],
        ids=["boussinesq-max-double", "saturating"],
    )
    def test_out_of_range(self, law, y):
        # the bracket end doubles from 1e9 until gamma reaches y; here the
        # end or its gamma stops being finite first
        with pytest.raises(OutOfRangeError):
            invert(law, y)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            invert(LINEAR, 0.0)


class TestBatchedInverse:
    @pytest.mark.parametrize(
        "law",
        [
            BOUSSINESQ,
            QUARTIC,
            LINEAR,
            custom_law(lambda r: np.asarray(r) + np.asarray(r) ** 3, "cubic"),
        ],
        ids=lambda law: law.name,
    )
    def test_elementwise_equal_to_scalar_inverse(self, law):
        # values spread over many decades stop halving at different steps
        ys = np.random.default_rng(7).permutation(np.geomspace(1e-6, 1e12, 150))
        batch = invert_many(law, ys)
        assert batch.shape == ys.shape
        assert np.array_equal(batch, [invert(law, y) for y in ys])
        assert np.array_equal(invert_many(law, ys.reshape(10, 15)), batch.reshape(10, 15))


def mp_inverse(gamma, y, growth):
    """Root of gamma(r) = y at 50 digits by secant steps from the power-law
    guess y**growth (large y) or y**(1/order at 0) (small y)."""
    with mpmath.workdps(50):
        y = mpmath.mpf(y)
        return mpmath.findroot(lambda r: gamma(r) - y, y ** growth, tol=mpmath.mpf(10) ** -45)


class TestInverseOracle:
    @pytest.mark.parametrize(
        "law, gamma, growth",
        [
            (BOUSSINESQ, lambda r: r * mpmath.sqrt(1 + r**2), (1.0, 0.5)),
            (QUARTIC, lambda r: r**2 + r**4, (0.5, 0.25)),
        ],
        ids=["boussinesq", "quartic"],
    )
    def test_against_mpmath_at_50_digits(self, law, gamma, growth):
        ys = np.geomspace(1e-6, 1e12, 200)
        for y, r in zip(ys, invert_many(law, ys)):
            exact = mp_inverse(gamma, float(y), growth[0] if y < 1 else growth[1])
            bound = 1e-14 * max(float(exact), 1.0) + 1e-15 * float(exact)
            assert abs(mpmath.mpf(float(r)) - exact) <= bound, (y, r, exact)


    @pytest.mark.parametrize(
        "law, gamma, growth",
        [
            (BOUSSINESQ, lambda r: r * mpmath.sqrt(1 + r**2), 0.5),
            (QUARTIC, lambda r: r**2 + r**4, 0.25),
        ],
        ids=["boussinesq", "quartic"],
    )
    def test_past_the_first_bracket_against_mpmath(self, law, gamma, growth):
        # boussinesq(1e9) is about 1e18 and quartic(1e9) 1e36: these values
        # widen their brackets, and the bisection still matches the root
        ys = np.geomspace(1e19, 1e300, 60)
        batch = invert_many(law, ys)
        assert np.array_equal(batch, [invert(law, y) for y in ys])
        for y, r in zip(ys, batch):
            with mpmath.workdps(50):
                # a relative residual and two secant starts: gamma(r) - y and
                # the default second start r + 1/4 are lost at these magnitudes
                y = mpmath.mpf(float(y))
                exact = mpmath.findroot(lambda r: gamma(r) / y - 1, (y**growth, 1.01 * y**growth))
            assert abs(mpmath.mpf(float(r)) - exact) <= 2e-14 * exact, (y, r, exact)


class TestInverseAsymptotics:
    def test_boussinesq_half_power(self):
        # invert(g(1)/d) * d^(1/2) settles at 2^(1/4): compare two decades apart
        vals = []
        for d in (1e-8, 1e-10):
            vals.append(invert(BOUSSINESQ, math.sqrt(2) / d) * d**0.5)
        assert abs(vals[0] - vals[1]) <= 0.01 * abs(vals[1])
        assert vals[1] == pytest.approx(2**0.25, rel=1e-3)

    def test_quartic_quarter_power(self):
        vals = []
        for d in (1e-8, 1e-10):
            vals.append(invert(QUARTIC, 2.0 / d) * d**0.25)
        assert abs(vals[0] - vals[1]) <= 0.01 * abs(vals[1])
        assert vals[1] == pytest.approx(2**0.25, rel=1e-3)
