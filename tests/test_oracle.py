"""``evaluate_shifted`` and ``pointwise_trace`` against ``mpmath`` sums of the
exact phases at 40 digits, and ``synthesize`` of a subnormal field at 60.

Every input double (coefficient, mode, point, time, beta, mu) is taken
exactly; the phase x.xi + t*gamma(|xi|) + t**beta * mu.xi, its exponential
and the sum are then formed at working precision, with the double
w = dxi**n / (2*pi)**n that the sampler scales by.  A sampled value v of an
exact sum S = w * sum_j f_j c_j (c_j = e^{i phi_j}, or e^{i theta_j} - 1 in
the trace) lies within

    B = w * sum_j |f_j| * (32u * a_j + 64u) + 4u * |S|,   u = 2**-53,

where a_j = sum_i |x_i xi_ji| + |t*gamma(|xi_j|)| + t**beta * sum_i |mu_i xi_ji|
bounds what the phase's rounding scales with: the dot products and the law
err by at most 16u * a_j together (u per operation, the law's condition
number at most 4), and the rest (``np.exp`` within 4u, e^{i theta} - 1, the
product with f and with the row, a mirror class of at most 8 terms, the
exactly rounded sum and the unscale) by at most 64u * |f_j| and 4u * |S|.
A trace's partial sum sum_k |h_k|**2 then lies within sum_k (2 |h_k| B_k +
B_k**2) + (K + 4) u * sum_k |h_k|**2 of the exact one.

A trace's tail is checked against the bound it states, formed at working
precision from the doubles the code forms it from (the mass and the fold's
largest law value and drift).
"""

import math

import mpmath
import numpy as np
import pytest

from phaselab import (
    BOUSSINESQ,
    LINEAR,
    QUARTIC,
    ShiftSpec,
    SpectralField,
    TimeSequence,
    evaluate_shifted,
    make_grid,
    pointwise_trace,
    power_law,
    random_field,
    synthesize,
)
from phaselab import convergence
from phaselab.convergence import default_points
from phaselab.propagation import _fold
from phaselab.spectral import _fsum

U = 2.0**-53
DPS = 40

#: The laws at working precision, by name; power laws by their exponent.
MP_LAWS = {
    "boussinesq": lambda r: r * mpmath.sqrt(1 + r * r),
    "quartic": lambda r: r**2 + r**4,
}


def mp_law(law):
    if law.name in MP_LAWS:
        return MP_LAWS[law.name]
    return lambda r, a=mpmath.mpf(law.power): r**a


class ExactPhases:
    """The exact phase parts of a field's modes at working precision: x.xi
    and |x.xi| per point, t*gamma(|xi|) + t**beta * mu.xi and its absolute
    bound per time."""

    def __init__(self, field, law, shift):
        self.shift = shift
        self.law = mp_law(law)
        self.modes = [[mpmath.mpf(v) for v in xi] for xi in field.grid.modes.tolist()]
        self.radii = [mpmath.sqrt(mpmath.fsum(v * v for v in xi)) for xi in self.modes]
        mu = [0.0] * field.grid.n if shift is None else shift.mu.tolist()
        self.proj = [mpmath.fsum(mpmath.mpf(m) * v for m, v in zip(mu, xi)) for xi in self.modes]
        self.abs_proj = [mpmath.fsum(abs(mpmath.mpf(m) * v) for m, v in zip(mu, xi))
                         for xi in self.modes]

    def point(self, x):
        """(x.xi_j, sum_i |x_i xi_ji|) for each mode."""
        x = [mpmath.mpf(v) for v in x]
        return [(mpmath.fsum(a * b for a, b in zip(x, xi)),
                 mpmath.fsum(abs(a * b) for a, b in zip(x, xi))) for xi in self.modes]

    def time(self, t):
        """(theta_j, |t*gamma| + t**beta * sum_i |mu_i xi_ji|) for each mode."""
        t = mpmath.mpf(float(t))
        drift = 0 if self.shift is None or t == 0 else t ** mpmath.mpf(self.shift.beta)
        return [(t * self.law(r) + drift * p, abs(t * self.law(r)) + abs(drift) * q)
                for r, p, q in zip(self.radii, self.proj, self.abs_proj)]


def bound(w, field, a, exact):
    """B for the terms whose phase bounds are ``a``, at the exact value ``exact``."""
    mass = mpmath.fsum(abs(mpmath.mpc(f)) * (32 * U * aj + 64 * U)
                       for f, aj in zip(field.coefficients.tolist(), a))
    return w * mass + 4 * U * abs(exact)


def exact_sample(field, at_x, at_t):
    """The exact sample w * sum_j f_j e^{i(x.xi_j + theta_j)} at the parts
    ``at_x`` of a point and ``at_t`` of a time (``ExactPhases``), and its B."""
    w = field.grid.synthesis_scale
    exact = w * mpmath.fsum(mpmath.mpc(c) * mpmath.expj(px + th)
                            for c, (px, _), (th, _) in zip(field.coefficients.tolist(), at_x, at_t))
    return exact, bound(w, field, [ax + at for (_, ax), (_, at) in zip(at_x, at_t)], exact)


EVALUATE_CASES = {
    "1d": ((1, 8, 0.25), power_law(0.5), None, [0.0, 0.05, 1.0]),
    "2d-shift-e1": ((2, 2, 0.25), BOUSSINESQ, ShiftSpec(beta=1.5, mu=np.array([1.0, 0.0])),
                    [0.0, 0.1, 0.5]),
    "2d-shift-oblique": ((2, 2, 0.25), QUARTIC, ShiftSpec(beta=0.8, mu=np.array([0.6, -0.8])),
                         [0.05, 0.5]),
    "3d": ((3, 1, 0.25), QUARTIC, None, [0.1, 0.5]),
}


@pytest.mark.parametrize("case", sorted(EVALUATE_CASES))
def test_evaluate_shifted_against_mpmath(case):
    grid_args, law, shift, times = EVALUATE_CASES[case]
    g = make_grid(*grid_args)
    f = random_field(g, np.random.default_rng(71))
    points = default_points(g.n, 3, 72)
    got = evaluate_shifted(f, law, np.array(times), shift, points)
    with mpmath.workdps(DPS):
        phases = ExactPhases(f, law, shift)
        for p, x in enumerate(points.tolist()):
            at_x = phases.point(x)
            for k, t in enumerate(times):
                exact, b = exact_sample(f, at_x, phases.time(t))
                err = abs(mpmath.mpc(complex(got[k, p])) - exact)
                assert err <= b, (t, x, float(err), float(b))


TRACE_CASES = {
    "1d": ((1, 4, 0.25), power_law(0.5), TimeSequence.power(2.0), None),
    "2d-shift": ((2, 2, 0.25), BOUSSINESQ, TimeSequence.geometric(0.5),
                 ShiftSpec(beta=1.5, mu=np.array([1.0, 0.0]))),
    "3d": ((3, 1, 0.5), BOUSSINESQ, TimeSequence.geometric(0.5), None),
}


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_pointwise_trace_against_mpmath(case):
    grid_args, law, seq, shift = TRACE_CASES[case]
    g = make_grid(*grid_args)
    f = random_field(g, np.random.default_rng(73))
    points, k_max = default_points(g.n, 2, 74), 16
    got = pointwise_trace(f, law, seq, 0.75, points, k_max=k_max, shift=shift).partial_sums
    w = g.synthesis_scale
    with mpmath.workdps(DPS):
        phases = ExactPhases(f, law, shift)
        coeffs = [mpmath.mpc(c) for c in f.coefficients.tolist()]
        rows = [phases.time(t) for t in seq.terms(k_max).tolist()]
        for p, x in enumerate(points.tolist()):
            at_x = phases.point(x)
            waves = [c * mpmath.expj(px) for c, (px, _) in zip(coeffs, at_x)]
            total = slack = 0
            for at_t in rows:
                h = w * mpmath.fsum((mpmath.expj(th) - 1) * v for v, (th, _) in zip(waves, at_t))
                b = bound(w, f, [ax + at for (_, ax), (_, at) in zip(at_x, at_t)], h)
                total += abs(h) ** 2
                slack += 2 * abs(h) * b + b * b
            slack += (k_max + 4) * U * total
            err = abs(mpmath.mpf(float(got[p])) - total)
            assert err <= slack, (x, float(err), float(slack))


def tail_sum(seq, x, k_max):
    """S(x) = sum_{k>K} t_k**(2x) at working precision, and the factor F(x) by
    which the trace's bound on it may exceed it: 1 for the closed form
    rho**(K+1) / (1 - rho) of a geometric sequence (rho = r**(2x)), and for a
    power sequence's integral bound (K+1)**(1-c) / (c-1), c = 2px, the ratio
    ((K+2)/(K+1))**(c-1) of the integrals from K+1 and from K+2, which
    S = zeta(c, K+2) lies between."""
    x = mpmath.mpf(x)
    if seq.kind == "geometric":
        rho = mpmath.mpf(seq.r) ** (2 * x)
        return rho ** (k_max + 1) / (1 - rho), 1
    c = 2 * mpmath.mpf(seq.p) * x
    return mpmath.zeta(c, k_max + 2), (mpmath.mpf(k_max + 2) / (k_max + 1)) ** (c - 1)


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_trace_tail_against_mpmath(case):
    # the tail bounds sum_{k>K} ||h_k||_inf**2 by B = (m gmax)**2 S(1), and
    # with a shift by B = 2 (m gmax)**2 S(1) + 2 (m pmax)**2 S(beta); the
    # printed tail is at least B and at most B with each S(x) times F(x), up
    # to 8u: at most eight roundings on any path from the doubles m, gmax
    # and pmax (rho is a power of two in these cases, so rho**(K+1) is exact)
    grid_args, law, seq, shift = TRACE_CASES[case]
    g = make_grid(*grid_args)
    f = random_field(g, np.random.default_rng(73))
    k_max = 16
    got = pointwise_trace(f, law, seq, 0.75, default_points(g.n, 2, 74), k_max=k_max,
                          shift=shift).tail
    fold = _fold(g, law, shift)
    mass = _fsum(np.abs(f.coefficients).tolist()) * g.weight / (2.0 * math.pi) ** g.n
    with mpmath.workdps(DPS):
        # (the largest term, the exponent x, the count of such terms)
        parts = [(fold.gmax, 1.0, 1)] if shift is None else [(fold.gmax, 1.0, 2),
                                                            (fold.pmax, shift.beta, 2)]
        low = high = 0
        for peak, x, count in parts:
            s, factor = tail_sum(seq, x, k_max)
            term = count * (mpmath.mpf(mass) * mpmath.mpf(peak)) ** 2 * s
            low, high = low + term, high + term * factor
        assert low * (1 - 8 * U) <= got <= high * (1 + 8 * U), (got, float(low), float(high))


@pytest.mark.parametrize("r, x", [(0.99, 1.0), (0.99, 1.5), (0.9, 1.0), (0.3, 1.5), (0.999, 1.0)])
def test_geometric_tail_within_half_a_unit(r, x):
    # where 2x is an integer the geometric tail is the exact rational rounded
    # once; rounding rho = r**(2x) first and raising it to the power K+1
    # left it 215 units below at r = 0.99
    k_max = 2048
    got = convergence._tail_sum(TimeSequence.geometric(r), x, k_max)
    with mpmath.workdps(DPS):
        want = tail_sum(TimeSequence.geometric(r), x, k_max)[0]
        assert abs(mpmath.mpf(got) - want) <= mpmath.mpf(math.ulp(got)) / 2, (got, float(want))


@pytest.mark.parametrize("r, k_max", [(0.99, 2048), (0.9, 2048), (0.5, 256)])
def test_geometric_tail_of_a_fractional_power_bounds_the_sum(r, k_max):
    # 2x = 1.6: rho is taken one double up, so the tail is not below the sum
    got = convergence._tail_sum(TimeSequence.geometric(r), 0.8, k_max)
    with mpmath.workdps(DPS):
        want = tail_sum(TimeSequence.geometric(r), 0.8, k_max)[0]
        assert want <= got <= want * (1 + 4 * (k_max + 1) * U), (got, float(want))


def test_synthesize_a_subnormal_field_within_half_a_unit():
    # a field of 2**-1060 times Gaussians, whose samples are subnormal: the
    # field enters its waves scaled up by a power of two, so no product
    # rounds to the subnormal grid, and the sample is off only by its last
    # rounding; products formed unscaled would leave this one 0.77 units off
    g = make_grid(1, 2, 0.5)
    f = SpectralField(g, random_field(g, 5).coefficients * 2.0**-1060)
    x = default_points(1, 4, 5)[0]
    got = synthesize(f, x)
    with mpmath.workdps(60):
        at_x = ExactPhases(f, LINEAR, None).point(x)
        exact = g.synthesis_scale * mpmath.fsum(
            mpmath.mpc(c) * mpmath.expj(px) for c, (px, _) in zip(f.coefficients.tolist(), at_x))
        unit = mpmath.mpf(2) ** -1074
        assert abs(got.real - exact.real) <= unit / 2, float((got.real - exact.real) / unit)
        assert abs(got.imag - exact.imag) <= unit / 2, float((got.imag - exact.imag) / unit)
