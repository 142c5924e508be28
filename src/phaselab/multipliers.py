"""Oscillatory multipliers m(xi) = (e^{i theta(xi)} - 1) / (1+|xi|^2)^{s/2}.

Four families share one phase, theta = delta * gamma(|xi|) + delta**beta * mu.xi:
gamma(r) = r**a in the power families, and no drift term without -shift.

``REGIMES`` is the one table of the regimes: the parameters each row
reads, its hypotheses, and its envelope for sup|m|, a pure expression in
delta with no hidden constant (b = beta):

    power-low (power)                  delta**(s/a)              (0 < s <= a <= 1)
    power-high (a criterion only)      delta                     (0 < a < 1, s >= a)
    power-shift-sub, a < 1, b > 1      delta**(1+(s-1)/a)
    power-shift-sub, a < 1, b <= 1     delta**(b+(s-1)/a)
    power-shift-super, a >= 1, b > 1   delta**(s/a)
    power-shift-super, a >= 1, b <= 1  delta**(b-1+s/a)
    gamma, and gamma-shift with b > 1  ginv(g(1)/delta)**(-s)
    gamma-shift, b <= 1                delta**(b-1) * ginv(g(1)/delta)**(-s)

ginv(g(1)/delta)**(-s) decays like delta**(s*rho) when ginv(y) ~ y**rho;
ginv is the law's closed-form inverse, which also gives the scan radii of
the unshifted families.  Only a shifted phase is inverted numerically.

``numeric_sup`` measures sup|m| over a geometric radial scan densified
around the phase transition theta ~ pi (and, for shift families, along
both signs of mu, the worst directions for mu.xi).  ``sweep`` records
one scan and one envelope per delta, and a sweep has two verdicts:
``certify`` checks that the measured sup stays within a bounded multiple
of the envelope across decades without drifting, i.e. that the envelope
constant is bounded and delta-independent, and ``convergence.rate_fit``
checks its decay rate.  Constants are measured, never assumed.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import HypothesisViolation, ParameterError
from .phase_laws import PhaseLaw, invert, invert_many, power_law
from .propagation import _modulus, phase, shift_offset
from .spectral import FrequencyGrid, SpectralField, _sobolev_weight

__all__ = [
    "BoundCertificate",
    "DELTA_MIN",
    "DRIFT_CAP",
    "Family",
    "MultiplierSpec",
    "RATIO_CAP",
    "REGIMES",
    "Regime",
    "SCAN_PER_DECADE",
    "SCAN_REFINE",
    "ScanResult",
    "Sweep",
    "analytic_envelope",
    "certify",
    "critical_radius",
    "extremal_witness",
    "numeric_sup",
    "regime",
    "sweep",
]

#: Phases below this delta are not representable reliably in float64.
DELTA_MIN = 1e-10
#: Certificate policy: largest admissible sup/envelope ratio ...
RATIO_CAP = 2.5
#: ... and largest admissible max/min ratio spread across the sweep.
DRIFT_CAP = 3.0
#: ``numeric_sup``'s scan: geometric points per decade, and phase values
#: through the first turn (the last is 2*pi), which with pi are its targets.
SCAN_PER_DECADE = 32
SCAN_REFINE = 1500
_SCAN_TARGETS = np.append(np.linspace(2 * math.pi / SCAN_REFINE, 2 * math.pi, SCAN_REFINE), math.pi)


class Family(str, Enum):
    POWER = "power"
    POWER_SHIFT = "power-shift"
    GAMMA = "gamma"
    GAMMA_SHIFT = "gamma-shift"

    @property
    def shifted(self) -> bool:
        return self in (Family.POWER_SHIFT, Family.GAMMA_SHIFT)

    @property
    def uses_law(self) -> bool:
        return self in (Family.GAMMA, Family.GAMMA_SHIFT)

    @property
    def reads(self) -> tuple:
        """The parameters the family's phase reads besides s."""
        return ("law" if self.uses_law else "a",) + (("beta",) if self.shifted else ())


def check_reads(owner: str, reads: tuple, s: float, **given) -> None:
    """The one check of a regime's parameter domain: s > 0, every parameter
    in ``reads`` given and no other, a > 0 and beta finite where given."""
    if not (np.isfinite(s) and s > 0):
        raise ParameterError(f"s must be positive, got {s}")
    unread = [name for name, value in given.items() if value is not None and name not in reads]
    if unread:
        raise ParameterError(f"{owner} does not read {' or '.join(unread)}")
    missing = [name for name in reads if given[name] is None]
    if missing:
        raise ParameterError(f"{owner} requires {' and '.join(missing)}")
    a, beta = given["a"], given["beta"]
    if a is not None and not (np.isfinite(a) and a > 0):
        raise ParameterError("power families require a > 0")
    if beta is not None and not np.isfinite(beta):
        raise ParameterError("shift families require a finite beta")


def _check_delta(delta: float) -> float:
    if not (np.isfinite(delta) and DELTA_MIN <= delta < 1.0):
        raise ParameterError(f"delta must lie in [1e-10, 1), got {delta}")
    return delta


@dataclass(frozen=True)
class MultiplierSpec:
    """Selects one multiplier family with its parameters.

    The shift direction mu is taken along the first axis; that is the worst
    case for |mu.xi| and loses no generality for sup scans.
    """

    family: Family
    s: float
    delta: float
    a: float | None = None
    law: PhaseLaw | None = None
    beta: float | None = None
    #: The phase's law: ``law`` for the gamma families, r**a for the power ones.
    phase_law: PhaseLaw = dataclasses.field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        _check_delta(self.delta)
        check_reads(f"{self.family.value} family", self.family.reads, self.s,
                    a=self.a, beta=self.beta, law=self.law)
        law = self.law if self.family.uses_law else power_law(self.a)
        object.__setattr__(self, "phase_law", law)

    def with_delta(self, delta: float) -> "MultiplierSpec":
        """This spec at another delta: only delta is checked; the rest is copied."""
        spec = object.__new__(type(self))
        spec.__dict__.update(self.__dict__, delta=_check_delta(float(delta)))
        return spec

    def params_dict(self) -> dict:
        """s and the family's parameters, the law by its name (delta is left out)."""
        named = {"a": self.a, "gamma": self.law.name if self.law else None, "beta": self.beta}
        return {"s": self.s, **{k: v for k, v in named.items() if v is not None}}


class Regime(NamedTuple):
    """A row: the family whose phase it bounds, each hypothesis's text and
    test (of a MultiplierSpec, or any object with its s, a, beta and law),
    and the power of delta in the envelope, before ginv(g(1)/delta)**(-s)
    in a gamma row."""

    name: str
    family: Family
    hypotheses: dict
    delta_power: Callable

    def check(self, p) -> None:
        """Raise HypothesisViolation naming the first hypothesis p fails, and
        after them, for the gamma rows, the law's eligibility."""
        for text, holds in self.hypotheses.items():
            if not holds(p):
                got = [f"{k}={getattr(p, k)}" for k in ("s", *self.family.reads) if k != "law"]
                raise HypothesisViolation(f"{self.name} requires {text} (got {', '.join(got)})")
        if self.family.uses_law and not p.law.eligible:
            raise HypothesisViolation(
                f"{self.name} requires gamma(r)/r nondecreasing, which {p.law.name} is not"
            )

    def exponent(self, p) -> float:
        """e in sup|m_delta| <~ delta**e."""
        if not self.family.uses_law:
            return self.delta_power(p)
        return p.s * p.law.inverse_growth + self.delta_power(p)


_S_UNIT = {"0 < s <= 1": lambda p: 0 < p.s <= 1}

#: The regime table, keyed by row name (the convergence criteria's names).
REGIMES = {row.name: row for row in (
    Regime("power-low", Family.POWER, {
        "0 < s <= a <= 1": lambda p: 0 < p.s <= p.a <= 1,
    }, lambda p: p.s / p.a),
    Regime("power-high", Family.POWER, {
        "0 < a < 1": lambda p: 0 < p.a < 1,
        "s >= a": lambda p: p.s >= p.a,
    }, lambda p: 1.0),
    Regime("power-shift-sub", Family.POWER_SHIFT, {
        "0 < a < 1": lambda p: 0 < p.a < 1,
        **_S_UNIT,
        "s > 1 - a when beta > 1": lambda p: p.beta <= 1 or p.s > 1 - p.a,
        "s > 1 - a*beta when beta <= 1": lambda p: p.beta > 1 or p.s > 1 - p.a * p.beta,
    }, lambda p: 1.0 + (p.s - 1.0) / p.a if p.beta > 1 else p.beta + (p.s - 1.0) / p.a),
    Regime("power-shift-super", Family.POWER_SHIFT, {
        "a >= 1": lambda p: p.a >= 1,
        "0 < s <= a": lambda p: 0 < p.s <= p.a,
        "s > a*(1-beta) when beta <= 1": lambda p: p.beta > 1 or p.s > p.a * (1 - p.beta),
    }, lambda p: p.s / p.a if p.beta > 1 else p.beta - 1.0 + p.s / p.a),
    Regime("gamma", Family.GAMMA, _S_UNIT, lambda p: 0.0),
    Regime("gamma-shift", Family.GAMMA_SHIFT, _S_UNIT,
           lambda p: 0.0 if p.beta > 1 else p.beta - 1.0),
)}


def regime(family: Family, a: float | None = None) -> Regime:
    """The row of a family's envelope: its first, but power-shift splits at a = 1."""
    if family is Family.POWER_SHIFT:
        return REGIMES["power-shift-sub" if a < 1 else "power-shift-super"]
    return next(row for row in REGIMES.values() if row.family is family)


def _modulus_at(spec: MultiplierSpec, r, proj):
    """|m| at radii r where mu.xi = proj: ``_modulus`` at half the phase and the weight."""
    with np.errstate(over="ignore", invalid="ignore"):  # the phase is checked
        h = 0.5 * phase(spec.phase_law, spec.delta, r, spec.beta, proj)
        _check_phase(spec, r, h)
        return _modulus(h, _sobolev_weight(r, spec.s))


def _check_phase(spec: MultiplierSpec, radii, *halves) -> None:
    """A ParameterError naming delta and the least |xi| of ``radii`` where one
    of the (half-)phases, each of their shape, is not finite (a radius not
    finite or a phase past the double range); ``argmax`` finds a NaN first."""
    if not all(math.isfinite(h.flat[h.argmax()]) and math.isfinite(h.flat[h.argmin()])
               for h in halves):
        finite = np.isfinite(halves[0]) & np.isfinite(halves[-1])
        r = float(np.broadcast_to(radii, finite.shape)[~finite].min())
        raise ParameterError(f"the phase at delta={spec.delta!r} is not finite at |xi|={r!r}")


def _float_power(base: float, exponent: float, name: str) -> float:
    """base**exponent; a ParameterError naming the power where it overflows."""
    try:
        return base**exponent
    except OverflowError:
        raise ParameterError(f"{name} = {base!r}**{exponent!r} overflows") from None


def analytic_envelope(spec: MultiplierSpec, strict: bool = True) -> float:
    """The family's delta-envelope for sup|m| (no constant attached);
    strict=False skips the hypotheses (the formula never changes)."""
    row = regime(spec.family, spec.a)
    if strict:
        row.check(spec)
    env = _float_power(spec.delta, row.delta_power(spec), "delta**e")
    if spec.family.uses_law:
        env *= 1.0 / _float_power(critical_radius(spec), spec.s, "r_c**s")
    if env == 0.0:
        raise ParameterError(f"the {row.name} envelope underflows to 0 at delta={spec.delta!r}")
    return env


def critical_radius(spec: MultiplierSpec) -> float:
    """Radius where the family's own phase scale turns over.

    delta**(-1/a) for power phases; gamma^{-1}(gamma(1)/delta), by the
    law's closed form, otherwise.
    """
    if not spec.family.uses_law:
        return _float_power(spec.delta, -1.0 / spec.a, "delta**(-1/a)")
    return invert(spec.law, float(spec.law(1.0)) / spec.delta)


#: Doublings allowed in the search for the bracket end, and halvings
#: allowed in the bisection of the targets the secant leaves.
_DOUBLINGS = 200
_HALVINGS = 160
#: The geometric table below a bracket end H: H * 2**(-j / _PER_BINADE)
#: for j < _TABLE_SIZE, and 0.  Its powers are Python floats: an array
#: power at import would page numpy's pow kernel into every process.
_PER_BINADE = 8
_TABLE_SIZE = 64 * _PER_BINADE
_TABLE = np.array([0.0] + [2.0 ** (j / _PER_BINADE) for j in range(1 - _TABLE_SIZE, 1)])
#: Secant steps inside a table bracket, and the distance, relative to the
#: target, within which the last secant point's phase keeps it as the radius.
_SECANT_STEPS = 5
_CONVERGED = 2.0**-48


def _phase_radii(spec: MultiplierSpec, targets) -> np.ndarray:
    """Radii where the +mu-direction phase reaches each target value.

    Without a shift the phase is delta * gamma(r), and the radii are the
    law's closed-form inverse of targets / delta.  For the shift families
    the bracket end H is the first r0 * 2**j whose phase reaches the top
    target, from r0 = max(1, min(r_c, top / delta**beta)): the drift term
    alone reaches the top target at top / delta**beta.  Each target's table
    bracket [a, b] (adjacent table radii below H) is narrowed by
    ``_SECANT_STEPS`` secant steps inside it, and the last secant point is
    the radius where its phase f is within ``_CONVERGED`` of the target,
    relative.  The other targets (no table bracket with theta(a) < target
    <= theta(b), a NaN phase, or a secant that did not converge) are
    bisected from [a, b], or from [0, H] where it does not straddle, until
    a step moves no bracket end (no later step of the 160 would either: a
    step depends only on lo, hi and the target).  A bisected radius is
    0.5 * (lo + hi), the end of the pair whose significand is even.

    The radii are sample points of a sup scan, not crossings to the last
    bit: a kept secant point's phase is the target's to 2**-48, a few ulps
    of r.  The bisection stays for the secants that do not converge: on
    power-shift with a = 0.048, beta = 1.29, delta = 0.065, some secant
    points miss their phase by 100%.
    """
    targets = np.asarray(targets, dtype=float)
    if not spec.family.shifted:
        return invert_many(spec.phase_law, targets / spec.delta)

    def theta(r):
        return phase(spec.phase_law, spec.delta, r, spec.beta, r)

    top = float(targets.max())
    drift = shift_offset(spec.delta, spec.beta)
    end = max(1.0, min(critical_radius(spec), top / drift if drift > 0.0 else math.inf))
    for _ in range(_DOUBLINGS):
        if float(theta(end)) >= top:
            break
        end *= 2.0
    table = end * _TABLE
    values = theta(table)
    idx = np.clip(np.searchsorted(values, targets), 1, _TABLE.size - 1)
    a, b = table[idx - 1], table[idx]
    straddles = (values[idx - 1] < targets) & (values[idx] >= targets)
    x0, f0, x, f = a, values[idx - 1] - targets, b, values[idx] - targets
    for _ in range(_SECANT_STEPS):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            step = x - f * (x - x0) / (f - f0)
        # a step whose two phase values are equal divides by 0 and keeps its point
        step = np.where(np.isfinite(step), np.clip(step, a, b), x)
        x0, f0 = x, f
        x, f = step, theta(step) - targets
    # a NaN f is not within the tolerance, so its target is bisected
    bisect = np.flatnonzero(~(straddles & (np.abs(f) <= _CONVERGED * targets)))
    if bisect.size:
        lo, hi = np.where(straddles, a, 0.0)[bisect], np.where(straddles, b, end)[bisect]
        t = targets[bisect]
        for _ in range(_HALVINGS):
            mid = 0.5 * (lo + hi)
            above = theta(mid) >= t
            if np.array_equal(mid, np.where(above, hi, lo)):
                break
            hi, lo = np.where(above, mid, hi), np.where(above, lo, mid)
        x[bisect] = 0.5 * (lo + hi)
    return x


@dataclass(frozen=True)
class ScanResult:
    sup: float
    argmax: float  # signed coordinate along the scan axis
    points: int


def _scan(spec: MultiplierSpec, radii: np.ndarray) -> ScanResult:
    """sup|m| over positive finite radii, on both signs of mu for a shift family.

    With h = theta/2 and the weight den (``spectral._sobolev_weight``), b =
    ``_bound(h, den)`` = 2*min(|h|, 1) / den is at least ``_modulus(h, den)`` =
    2|fl(sin h)| / den bit for bit for a faithful sin (error
    below one ulp): |fl(sin h)| <= min(|h|, 1), doubling is exact and division
    monotone.  The seed, the modulus where b peaks, is at most the sup, so a
    point with b < seed is neither the max nor a tie and gets no sin; a phase
    that is not finite is a ParameterError naming delta and the least such
    |xi|.  Ties go to the smaller |xi|, then to the more negative coordinate.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the weight may overflow; theta is checked
        den = _sobolev_weight(radii, spec.s)
        theta = [phase(spec.phase_law, spec.delta, radii, None, None)]
        if spec.family.shifted:  # the signs share law and den: base +- drift is phase at +-r
            drift = shift_offset(spec.delta, spec.beta) * radii
            theta = [theta[0] + drift, np.subtract(theta[0], drift, out=drift)]
    halves = [np.multiply(t, 0.5, out=t) for t in theta]
    _check_phase(spec, radii, *halves)
    bounds = [_bound(h, den) for h in halves]
    _, k, i = max((b[j], k, j) for k, b in enumerate(bounds) for j in [int(b.argmax())])
    seed = float(_modulus(halves[k][i], den[i]))  # numpy's sin, as at every kept point
    keep = [(~(b < seed)).nonzero()[0] for b in bounds]
    vals = [_modulus(h.take(kept), den.take(kept)) for h, kept in zip(halves, keep)]
    top = max(float(v.max(initial=-math.inf)) for v in vals)
    signed = np.concatenate([sg * radii.take(k[v == top]) for sg, k, v in zip((1.0, -1.0), keep, vals)])
    order = np.lexsort((signed, np.abs(signed)))
    return ScanResult(sup=top, argmax=float(signed[order[0]]), points=radii.size * len(halves))


def _bound(h, w):
    """2*min(|h|, 1) / w, at least ``_modulus(h, w)``, NaN where h is: see ``_scan``."""
    return 2.0 * np.minimum(np.abs(h), 1.0) / w


#: 10**(k / SCAN_PER_DECADE), k >= -6*SCAN_PER_DECADE, grown by numpy's pow (not at import).
_GEOMETRIC = np.empty(0)
_order_one_window = functools.cache(lambda: np.linspace(0.05, 20.0, 800))


def _scan_radii(xi_max: float, r_turn: np.ndarray, r_pi: float) -> np.ndarray:
    global _GEOMETRIC
    lo, hi = -6 * SCAN_PER_DECADE, math.floor(math.log10(xi_max) * SCAN_PER_DECADE)
    if hi - lo >= _GEOMETRIC.size:  # each entry is 10.0**(k / SCAN_PER_DECADE) bit for bit
        more = np.arange(lo + _GEOMETRIC.size, hi + 1, dtype=float) / SCAN_PER_DECADE
        _GEOMETRIC = np.concatenate([_GEOMETRIC, 10.0**more])
    radii = np.concatenate([
        _GEOMETRIC[:hi + 1 - lo], [xi_max],
        r_turn,  # refinement 1: the phase u = theta(r) uniformly through its first turn
        np.linspace(0.6 * r_pi, 1.4 * r_pi, 1001),  # 2: around the first |numerator| = 2 crossing
        # 3: the order-one region, where shifted suprema often live
        _order_one_window() if xi_max >= 20.0 else np.linspace(0.05, xi_max, 800),
    ])
    # a finite cap, so the kept radii are finite
    return radii[(radii > 0.0) & (radii <= min(xi_max * (1.0 + 1e-12), np.finfo(float).max))]


def numeric_sup(spec: MultiplierSpec) -> ScanResult:
    """Empirical sup|m| over a radial scan.

    The scan takes a geometric grid on [1e-6, xi_max] at ``SCAN_PER_DECADE``
    points per decade plus dense refinements around the transition region,
    among them the ``SCAN_REFINE`` radii of the first phase turn, found with
    that of pi in one ``_phase_radii`` call (for the shift families, points
    whose phase is within 2**-48 of its value, or bisections where a secant
    does not converge); shift families are scanned along both signs of mu.
    ``xi_max`` covers the first turn and 4 * r_c.
    Only points whose bound 2*min(|theta/2|, 1) / (1+r*r)**(s/2), at least the modulus
    for a faithful sin, reaches the seed, the modulus where it peaks, get a sin (``_scan``):
    the outputs are the full scan's.  A phase that is not finite is a ParameterError.
    """
    # before the phase radii, so an r_c that overflows is the error named
    r_c = critical_radius(spec)
    radii = _phase_radii(spec, _SCAN_TARGETS)
    xi_max = max(4.0 * r_c, 1.05 * float(radii[SCAN_REFINE - 1]), 8.0)
    return _scan(spec, _scan_radii(xi_max, radii[:SCAN_REFINE], float(radii[SCAN_REFINE])))


@dataclass(frozen=True)
class Sweep:
    """sup|m_delta| against its envelope: one scan and one envelope per delta."""

    family: Family
    params: dict
    deltas: tuple
    scans: tuple  # ScanResult per delta
    envelopes: tuple

    @property
    def ratios(self) -> tuple:
        return tuple(scan.sup / env for scan, env in zip(self.scans, self.envelopes))


def sweep(template: MultiplierSpec, deltas, strict: bool = True) -> Sweep:
    """Each delta's envelope, then its scan.  The hypotheses do not depend
    on delta, so they are checked once, for the first delta."""
    deltas = tuple(float(d) for d in deltas)
    if not deltas:
        raise ParameterError("a delta sweep needs at least one delta")
    if strict:
        regime(template.family, template.a).check(template.with_delta(deltas[0]))
    envelopes, scans = [], []
    for spec in [template.with_delta(d) for d in deltas]:
        envelopes.append(analytic_envelope(spec, strict=False))
        scans.append(numeric_sup(spec))
    return Sweep(template.family, template.params_dict(), deltas, tuple(scans), tuple(envelopes))


@dataclass(frozen=True)
class BoundCertificate:
    """Verdict on a delta sweep: is sup/envelope bounded and drift-free?"""

    sweep: Sweep
    max_ratio: float
    drift: float
    passed: bool


def certify(template: MultiplierSpec, deltas, strict: bool = True) -> BoundCertificate:
    """Sweep delta and certify that sup|m| <= C * envelope with stable C.

    Passes iff every ratio sup/envelope is at most RATIO_CAP and the
    max/min ratio spread across the sweep is at most DRIFT_CAP.
    """
    deltas = [float(d) for d in deltas]
    if any(not (0.0 < d < 1.0) for d in deltas):
        raise ParameterError("every delta must lie in (0, 1)")
    if len(deltas) < 2 or max(deltas) / min(deltas) < 1e4 * (1.0 - 1e-9):
        raise ParameterError("delta sweep must span at least four decades")
    result = sweep(template, deltas, strict)
    ratios = result.ratios
    max_ratio = max(ratios)
    drift = max_ratio / min(ratios)
    return BoundCertificate(result, max_ratio, drift, max_ratio <= RATIO_CAP and drift <= DRIFT_CAP)


def extremal_witness(spec: MultiplierSpec, grid: FrequencyGrid) -> SpectralField:
    """Unit-weighted-norm single-mode field at the grid mode where |m| peaks.

    A one-mode field turns the multiplier inequality into an equality, so
    the residual of this witness realizes the grid-restricted sup bound
    exactly: l2 = |m(xi*)| * ||f||_{H^s}.
    """
    r = grid.radii
    m = _modulus_at(spec, r, grid.modes[:, 0])
    ties = np.flatnonzero(m == m.max())
    # mode order is lexicographic, so the first smallest radius breaks ties
    idx = ties[np.argmin(r[ties])]
    coeff = 1.0 / (_sobolev_weight(r[idx], spec.s) * grid.weight**0.5)
    coeffs = np.zeros(grid.num_modes, dtype=complex)
    coeffs[idx] = coeff
    return SpectralField(grid, coeffs)
