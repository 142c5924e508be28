"""Oscillatory multipliers m(xi) = (e^{i theta(xi)} - 1) / (1+|xi|^2)^{s/2}.

Four families, classified by the phase theta:

    power         theta = delta * |xi|**a
    power-shift   theta = delta**beta * mu.xi + delta * |xi|**a
    gamma         theta = delta * gamma(|xi|)
    gamma-shift   theta = delta**beta * mu.xi + delta * gamma(|xi|)

Each family carries an analytic envelope for sup|m|, a pure expression in
delta with no hidden constant:

    power                        delta**(s/a)              (0 < s <= a <= 1)
    power-shift, a < 1, b > 1    delta**(1+(s-1)/a)
    power-shift, a < 1, b <= 1   delta**(b+(s-1)/a)
    power-shift, a >= 1, b > 1   delta**(s/a)
    power-shift, a >= 1, b <= 1  delta**(b-1+s/a)
    gamma                        ginv(g(1)/delta)**(-s)
    gamma-shift, b > 1           ginv(g(1)/delta)**(-s)
    gamma-shift, b <= 1          delta**(b-1) * ginv(g(1)/delta)**(-s)

``numeric_sup`` measures sup|m| over a geometric radial scan densified
around the phase transition theta ~ pi (and, for shift families, along
both signs of mu, the worst directions for mu.xi).  ``certify`` sweeps
delta across decades and checks that the measured sup stays within a
bounded multiple of the envelope without drifting, i.e. that the envelope
constant is bounded and delta-independent.  Constants are measured, never
assumed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    GridMismatchError,
    HypothesisViolation,
    ParameterError,
    ScanTooSmallError,
)
from . import phase_laws
from .phase_laws import PhaseLaw, check_hypotheses, invert
from .spectral import FrequencyGrid, SpectralField

__all__ = [
    "BoundCertificate",
    "DELTA_MIN",
    "DRIFT_CAP",
    "Family",
    "MultiplierSpec",
    "RATIO_CAP",
    "ScanResult",
    "analytic_envelope",
    "certify",
    "critical_radius",
    "extremal_witness",
    "modulus_on_axis",
    "multiplier_value",
    "numeric_sup",
    "sweep_specs",
    "validate_hypotheses",
]

#: Phases below this delta are not representable reliably in float64.
DELTA_MIN = 1e-10
#: Certificate policy: largest admissible sup/envelope ratio ...
RATIO_CAP = 2.5
#: ... and largest admissible max/min ratio spread across the sweep.
DRIFT_CAP = 3.0


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
    # gamma^{-1}(gamma(1)/delta), filled on first use or by ``sweep_specs``;
    # a pure function of the fields above, so it is left out of eq and repr
    _critical_radius: float | None = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if not (np.isfinite(self.delta) and DELTA_MIN <= self.delta < 1.0):
            raise ParameterError(
                f"delta must lie in [1e-10, 1), got {self.delta}"
            )
        if not (np.isfinite(self.s) and self.s > 0):
            raise ParameterError(f"s must be positive, got {self.s}")
        if self.family.uses_law:
            if self.law is None:
                raise ParameterError(f"{self.family.value} family requires a phase law")
            if self.a is not None:
                raise ParameterError("a is only meaningful for power families")
        else:
            if self.a is None or not (np.isfinite(self.a) and self.a > 0):
                raise ParameterError("power families require a > 0")
            if self.law is not None:
                raise ParameterError("phase law is only meaningful for gamma families")
        if self.family.shifted:
            if self.beta is None or not np.isfinite(self.beta):
                raise ParameterError("shift families require a finite beta")
        elif self.beta is not None:
            raise ParameterError("beta is only meaningful for shift families")

    def with_delta(self, delta: float) -> "MultiplierSpec":
        return dataclasses.replace(self, delta=float(delta))

    def params_dict(self) -> dict:
        out = {"s": self.s, "delta": self.delta}
        if self.a is not None:
            out["a"] = self.a
        if self.law is not None:
            out["gamma"] = self.law.name
        if self.beta is not None:
            out["beta"] = self.beta
        return out


def validate_hypotheses(spec: MultiplierSpec, strict: bool = True) -> None:
    """Range checks for the envelope branch that applies to ``spec``.

    strict=False skips the checks (the formulas themselves never change);
    errors name the violated inequality.
    """
    if not strict:
        return
    f = spec.family
    if f is Family.POWER:
        if not (0 < spec.s <= spec.a <= 1):
            raise HypothesisViolation(
                f"power envelope requires 0 < s <= a <= 1 (got s={spec.s}, a={spec.a})"
            )
    elif f is Family.POWER_SHIFT:
        a, s, b = spec.a, spec.s, spec.beta
        if a < 1:
            if not (0 < s <= 1):
                raise HypothesisViolation(
                    f"power-shift with a < 1 requires 0 < s <= 1 (got s={s})"
                )
            if b > 1 and not (s > 1 - a):
                raise HypothesisViolation(
                    f"s > 1 - a required when beta > 1 (got s={s}, 1-a={1 - a})"
                )
            if b <= 1 and not (s > 1 - a * b):
                raise HypothesisViolation(
                    f"s > 1 - a*beta required when beta <= 1 (got s={s}, 1-a*beta={1 - a * b})"
                )
        else:
            if not (0 < s <= a):
                raise HypothesisViolation(
                    f"power-shift with a >= 1 requires 0 < s <= a (got s={s}, a={a})"
                )
            if b <= 1 and not (s > a * (1 - b)):
                raise HypothesisViolation(
                    f"s > a*(1-beta) required when beta <= 1 (got s={s}, a*(1-beta)={a * (1 - b)})"
                )
    else:
        if not (0 < spec.s <= 1):
            raise HypothesisViolation(
                f"gamma envelope requires 0 < s <= 1 (got s={spec.s})"
            )
        report = check_hypotheses(spec.law, 256)
        if not report.eligible:
            raise HypothesisViolation(
                f"phase law {spec.law.name} is ineligible "
                f"(nonneg={report.gamma_nonneg}, increasing={report.gamma_increasing}, "
                f"ratio_increasing={report.ratio_increasing})"
            )


def _base_phase(spec: MultiplierSpec, r: np.ndarray) -> np.ndarray:
    if spec.family.uses_law:
        return spec.delta * np.asarray(spec.law(r), dtype=float)
    return spec.delta * r**spec.a


def _theta_axis(spec: MultiplierSpec, xi: np.ndarray) -> np.ndarray:
    """Total phase at the point xi*mu (signed coordinate along the shift axis)."""
    xi = np.asarray(xi, dtype=float)
    theta = _base_phase(spec, np.abs(xi))
    if spec.family.shifted:
        theta = theta + spec.delta**spec.beta * xi
    return theta


def modulus_on_axis(spec: MultiplierSpec, xi) -> np.ndarray:
    """|m| along the shift axis: 2|sin(theta/2)| / (1+xi^2)^{s/2}."""
    xi = np.asarray(xi, dtype=float)
    theta = _theta_axis(spec, xi)
    return 2.0 * np.abs(np.sin(0.5 * theta)) / (1.0 + xi * xi) ** (0.5 * spec.s)


def multiplier_value(spec: MultiplierSpec, xi) -> complex:
    """Complex multiplier value at a frequency vector xi (any dimension)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    r = float(np.linalg.norm(xi))
    theta = float(_base_phase(spec, np.asarray(r)))
    if spec.family.shifted:
        theta += spec.delta**spec.beta * float(xi[0])
    num = complex(math.cos(theta) - 1.0, math.sin(theta))
    return num / (1.0 + r * r) ** (0.5 * spec.s)


def analytic_envelope(spec: MultiplierSpec, strict: bool = True) -> float:
    """The family's delta-envelope for sup|m| (no constant attached)."""
    validate_hypotheses(spec, strict)
    d = spec.delta
    if spec.family is Family.POWER:
        return d ** (spec.s / spec.a)
    if spec.family is Family.POWER_SHIFT:
        a, s, b = spec.a, spec.s, spec.beta
        if a < 1:
            expo = 1.0 + (s - 1.0) / a if b > 1 else b + (s - 1.0) / a
        else:
            expo = s / a if b > 1 else b - 1.0 + s / a
        return d**expo
    base = 1.0 / critical_radius(spec) ** spec.s
    if spec.family is Family.GAMMA_SHIFT and spec.beta <= 1:
        return d ** (spec.beta - 1.0) * base
    return base


def critical_radius(spec: MultiplierSpec) -> float:
    """Radius where the family's own phase scale turns over.

    delta**(-1/a) for power phases; gamma^{-1}(gamma(1)/delta) otherwise,
    inverted once per spec and kept on it.
    """
    if not spec.family.uses_law:
        return spec.delta ** (-1.0 / spec.a)
    if spec._critical_radius is None:
        r_c = invert(spec.law, float(spec.law(1.0)) / spec.delta)
        object.__setattr__(spec, "_critical_radius", r_c)
    return spec._critical_radius


def sweep_specs(template: MultiplierSpec, deltas, strict: bool = True) -> list:
    """The per-delta specs of a sweep, each with its critical radius set.

    The envelope hypotheses are validated first, so a violation is reported
    before any inversion; then one batched inversion serves every delta,
    bit-identical to inverting them one by one.
    """
    deltas = list(deltas)
    first = template.with_delta(deltas[0])
    validate_hypotheses(first, strict)
    specs = [first] + [template.with_delta(d) for d in deltas[1:]]
    if template.family.uses_law:
        ys = float(template.law(1.0)) / np.asarray([spec.delta for spec in specs])
        # looked up on phase_laws, so perfbench/spans.py's wrapper sees the call
        for spec, r_c in zip(specs, phase_laws.invert_many(template.law, ys)):
            object.__setattr__(spec, "_critical_radius", float(r_c))
    return specs


def _phase_radii(spec: MultiplierSpec, *target_sets) -> tuple:
    """Radii where the +mu-direction phase reaches each set of target values.

    Each set is bracketed on [0, hi], hi the first max(1, r_c) * 2**j whose
    phase reaches the set's largest target, and all sets are bisected
    together.  The bisection stops at the first step that moves no bracket
    end: each step depends only on (lo, hi, targets), so every later step
    up to the 160-step cap would be a no-op as well.
    """
    sets = [np.asarray(t, dtype=float) for t in target_sets]
    if spec.family is Family.POWER:
        return tuple((t / spec.delta) ** (1.0 / spec.a) for t in sets)
    tops = [float(t.max()) for t in sets]
    hi = max(1.0, critical_radius(spec))
    brackets = [None] * len(sets)
    for _ in range(200):
        theta = float(_theta_axis(spec, np.asarray(hi)))
        for i, top in enumerate(tops):
            if brackets[i] is None and theta >= top:
                brackets[i] = hi
        if None not in brackets:
            break
        hi *= 2.0
    sizes = [t.size for t in sets]
    targets = np.concatenate(sets)
    lo = np.zeros_like(targets)
    hi_arr = np.repeat([hi if b is None else b for b in brackets], sizes)
    for _ in range(160):
        mid = 0.5 * (lo + hi_arr)
        above = _theta_axis(spec, mid) >= targets
        if np.array_equal(mid, np.where(above, hi_arr, lo)):
            break
        hi_arr = np.where(above, mid, hi_arr)
        lo = np.where(above, lo, mid)
    return tuple(np.split(0.5 * (lo + hi_arr), np.cumsum(sizes)[:-1]))


@dataclass(frozen=True)
class ScanResult:
    sup: float
    argmax: float  # signed coordinate along the scan axis
    points: int


def _scan(spec: MultiplierSpec, radii: np.ndarray) -> ScanResult:
    radii = radii[(radii > 0.0) & np.isfinite(radii)]
    if radii.size == 0:
        raise ParameterError("empty scan")
    signed = np.concatenate([radii, -radii]) if spec.family.shifted else radii
    vals = modulus_on_axis(spec, signed)
    top = float(vals.max())
    ties = np.flatnonzero(vals == top)
    # deterministic tiebreak: smaller |xi| first, then the more negative coordinate
    order = np.lexsort((signed[ties], np.abs(signed[ties])))
    return ScanResult(sup=top, argmax=float(signed[ties[order[0]]]), points=signed.size)


def _scan_radii(
    xi_max: float, per_decade: int, r_turn: np.ndarray, r_pi: float
) -> np.ndarray:
    parts = []
    lo_exp = math.ceil(-6 * per_decade)
    hi_exp = math.floor(math.log10(xi_max) * per_decade)
    exps = np.arange(lo_exp, hi_exp + 1, dtype=float) / per_decade
    parts.append(10.0**exps)
    parts.append(np.asarray([xi_max]))
    # refinement 1: resolve the phase u = theta(r) uniformly through its first turn
    parts.append(r_turn)
    # refinement 2: linear window around the first |numerator| = 2 crossing
    parts.append(np.linspace(0.6 * r_pi, 1.4 * r_pi, 1001))
    # refinement 3: the order-one region, where shifted suprema often live
    parts.append(np.linspace(0.05, min(20.0, xi_max), 800))
    radii = np.concatenate(parts)
    return radii[radii <= xi_max * (1.0 + 1e-12)]


def numeric_sup(
    spec: MultiplierSpec,
    xi_max: float | None = None,
    per_decade: int = 32,
    refine: int = 1500,
) -> ScanResult:
    """Empirical sup|m| over a radial scan.

    The scan takes a geometric grid on [1e-6, xi_max] at ``per_decade``
    points per decade plus dense refinements around the transition region;
    shift families are scanned along both signs of mu.  ``xi_max`` defaults
    to cover the whole first phase turn and must be at least four times the
    critical radius.
    """
    if per_decade < 1:
        raise ParameterError(f"per_decade must be positive, got {per_decade}")
    r_c = critical_radius(spec)
    floor = 4.0 * r_c
    if xi_max is not None and xi_max < floor * (1.0 - 1e-9):
        raise ScanTooSmallError(
            f"xi_max={xi_max:g} is below 4x the critical radius {r_c:g}"
        )
    # the phase u = theta(r) through its first turn (u[-1] == 2*pi), and pi
    refine = int(refine)
    u = np.linspace(2.0 * math.pi / refine, 2.0 * math.pi, refine)
    r_turn, r_pi = _phase_radii(spec, u, np.asarray([math.pi]))
    if xi_max is None:
        xi_max = max(floor, 1.05 * float(r_turn[-1]), 8.0)
    radii = _scan_radii(float(xi_max), int(per_decade), r_turn, float(r_pi[0]))
    return _scan(spec, radii)


@dataclass(frozen=True)
class BoundCertificate:
    """Result of a delta sweep: measured sup vs envelope, per decade."""

    family: Family
    params: dict
    deltas: tuple
    sups: tuple
    envelopes: tuple
    ratios: tuple
    argmaxes: tuple
    max_ratio: float
    drift: float
    passed: bool

    def sweep_rows(self):
        for d, sup, env, ratio, arg in zip(
            self.deltas, self.sups, self.envelopes, self.ratios, self.argmaxes
        ):
            yield {"delta": d, "sup": sup, "envelope": env, "ratio": ratio, "argmax": arg}

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "params": self.params,
            "delta_sweep": list(self.sweep_rows()),
            "pass": self.passed,
        }


def certify(
    template: MultiplierSpec,
    deltas,
    per_decade: int = 32,
    strict: bool = True,
) -> BoundCertificate:
    """Sweep delta and certify that sup|m| <= C * envelope with stable C.

    Passes iff every ratio sup/envelope is at most RATIO_CAP and the
    max/min ratio spread across the sweep is at most DRIFT_CAP.
    """
    deltas = [float(d) for d in deltas]
    if any(not (0.0 < d < 1.0) for d in deltas):
        raise ParameterError("every delta must lie in (0, 1)")
    if len(deltas) < 2 or max(deltas) / min(deltas) < 1e4 * (1.0 - 1e-9):
        raise ParameterError("delta sweep must span at least four decades")
    sups, envs, ratios, args = [], [], [], []
    for spec in sweep_specs(template, deltas, strict):
        env = analytic_envelope(spec, strict=strict)
        scan = numeric_sup(spec, per_decade=per_decade)
        sups.append(scan.sup)
        envs.append(env)
        ratios.append(scan.sup / env)
        args.append(scan.argmax)
    max_ratio = max(ratios)
    drift = max(ratios) / min(ratios)
    params = template.params_dict()
    del params["delta"]
    return BoundCertificate(
        family=template.family,
        params=params,
        deltas=tuple(deltas),
        sups=tuple(sups),
        envelopes=tuple(envs),
        ratios=tuple(ratios),
        argmaxes=tuple(args),
        max_ratio=max_ratio,
        drift=drift,
        passed=bool(max_ratio <= RATIO_CAP and drift <= DRIFT_CAP),
    )


def extremal_witness(spec: MultiplierSpec, grid: FrequencyGrid) -> SpectralField:
    """Unit-weighted-norm single-mode field at the grid mode where |m| peaks.

    A one-mode field turns the multiplier inequality into an equality, so
    the residual of this witness realizes the grid-restricted sup bound
    exactly: l2 = |m(xi*)| * ||f||_{H^s}.
    """
    if grid.num_modes == 0:
        raise GridMismatchError("grid has no modes")
    r = grid.radii
    theta = _base_phase(spec, r)
    if spec.family.shifted:
        theta = theta + spec.delta**spec.beta * grid.modes[:, 0]
    w = 2.0 * np.abs(np.sin(0.5 * theta)) / (1.0 + r * r) ** (0.5 * spec.s)
    ties = np.flatnonzero(w == w.max())
    idx = min(ties, key=lambda j: (r[j], tuple(grid.modes[j])))
    coeff = 1.0 / ((1.0 + r[idx] ** 2) ** (0.5 * spec.s) * grid.weight**0.5)
    coeffs = np.zeros(grid.num_modes, dtype=complex)
    coeffs[idx] = coeff
    return SpectralField(grid, coeffs)
