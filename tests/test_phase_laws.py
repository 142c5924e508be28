import math

import mpmath
import numpy as np
import pytest

from phaselab import (
    BOUSSINESQ,
    CATALOG,
    LINEAR,
    QUARTIC,
    ParameterError,
    invert,
    invert_many,
    parse_law,
    power_law,
)


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


    def test_eligibility(self):
        # gamma(r)/r is nondecreasing for the catalog laws (flat for linear)
        # and for r**a exactly when a >= 1
        assert all(law.eligible for law in CATALOG.values())
        assert all(power_law(a).eligible for a in (1.0, 2.0, 2.5, 60.0))
        assert not any(power_law(a).eligible for a in (0.5, 1.0 - 2.0**-52))


class TestInvert:
    def test_power_closed_form(self):
        assert invert(power_law(2.0), 4.0) == 2.0

    def test_boussinesq_at_its_unit_value(self):
        assert invert(BOUSSINESQ, math.sqrt(2)) == pytest.approx(1.0, abs=1e-10)

    def test_quartic_by_the_quadratic_formula(self):
        # r^2 = (-1 + sqrt(41)) / 2 for r^4 + r^2 = 10
        closed = math.sqrt((-1 + math.sqrt(41)) / 2)
        assert invert(QUARTIC, 10.0) == pytest.approx(closed, rel=1e-15)
        assert closed == pytest.approx(1.6437, abs=1e-4)

    def test_round_trip_catalog(self):
        for law in CATALOG.values():
            ys = np.geomspace(float(law(1e-3)), float(law(1e3)), 100)
            roots = invert_many(law, ys)
            back = np.asarray(law(roots), dtype=float)
            assert np.all(np.abs(back - ys) <= 1e-10 * np.maximum(1.0, ys))

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            invert(LINEAR, 0.0)


class TestBatchedInverse:
    @pytest.mark.parametrize(
        "law",
        [BOUSSINESQ, QUARTIC, LINEAR],
        ids=lambda law: law.name,
    )
    def test_elementwise_equal_to_scalar_inverse(self, law):
        ys = np.random.default_rng(7).permutation(np.geomspace(1e-6, 1e12, 150))
        batch = invert_many(law, ys)
        assert batch.shape == ys.shape
        assert np.array_equal(batch, [invert(law, y) for y in ys])
        assert np.array_equal(invert_many(law, ys.reshape(10, 15)), batch.reshape(10, 15))


class TestInverseChecks:
    """The inverse is checked by two reductions; only a failure runs the
    full check, whose messages name the cause."""

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.nan, math.inf, -math.inf])
    def test_a_bad_y_is_named(self, bad):
        for law in (LINEAR, QUARTIC, power_law(0.01)):
            ys = np.array([2.0, 1e5, bad, 5.0])  # 1e5 overflows power:a=0.01 as well
            with pytest.raises(ParameterError, match=r"^values to invert must be positive and finite$"):
                invert_many(law, ys)

    def test_the_least_overflowing_y_is_named_in_unsorted_input(self):
        # y**100 overflows from y = 1203 on
        ys = np.array([5.0, 1e5, 2.0, 3e3, 10.0, 2e3, 1202.0])
        with pytest.raises(ParameterError, match=r"^gamma\^-1\(y\) overflows for power:a=0.01 at y=2000.0$"):
            invert_many(power_law(0.01), ys)

    def test_finite_radii_whose_sum_overflows_pass(self):
        ys = np.array([1e308, 1.5e308, 1.7e308])
        assert np.array_equal(invert_many(LINEAR, ys), ys)

    def test_empty_input(self):
        assert invert_many(QUARTIC, np.array([])).shape == (0,)


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
        # past boussinesq(1e9), about 1e18, and quartic(1e9), 1e36: the
        # mpmath root needs a relative residual there
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


#: Each closed form's inverse at 50 digits, by the same formula.
MP_INVERSES = {
    "linear": (lambda r: r, lambda y: y),
    "boussinesq": (lambda r: r * mpmath.sqrt(1 + r * r),
                   lambda y: y / mpmath.sqrt(0.5 + mpmath.sqrt(0.25 + y * y))),
    "quartic": (lambda r: r**2 + r**4, lambda y: mpmath.sqrt(y / (0.5 + mpmath.sqrt(0.25 + y)))),
}
MAX_DOUBLE = 1.7976931348623157e308


def closed_form_sample(law):
    """A seeded log-uniform sample of [5e-324, MAX_DOUBLE], its ends, 2**27
    (where boussinesq stops squaring y) and its predecessor, and g(1)."""
    rng = np.random.default_rng(2027)
    mantissas = np.minimum(np.exp2(rng.uniform(0.0, 1.0, 1500)), np.nextafter(2.0, 0.0))
    sample = np.ldexp(mantissas, rng.integers(-1074, 1024, 1500))
    points = [5e-324, MAX_DOUBLE, 2.0**27, np.nextafter(2.0**27, 0.0), float(law(1.0))]
    return np.append(sample, points)


class TestClosedForms:
    @pytest.mark.parametrize("law", [LINEAR, BOUSSINESQ, QUARTIC], ids=lambda law: law.name)
    def test_within_two_ulps_of_mpmath(self, law):
        ys = closed_form_sample(law)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            roots = invert_many(law, ys)
        gamma, inverse = MP_INVERSES[law.name]
        with mpmath.workdps(50):
            for y, r in zip(ys.tolist(), roots.tolist()):
                exact = inverse(mpmath.mpf(y))
                # the formula is the inverse: gamma(exact) gives y back
                assert abs(gamma(exact) / y - 1) < mpmath.mpf(10) ** -45
                ulps = abs(mpmath.mpf(r) - exact) / math.ulp(float(exact))
                assert ulps <= 2, (y, r, float(ulps))

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 60.0])
    def test_power_inverse_is_the_power_of_one_over_a(self, a):
        ys = np.geomspace(1e-6, 1e12, 200)
        assert np.array_equal(invert_many(power_law(a), ys), ys ** (1.0 / a))


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
