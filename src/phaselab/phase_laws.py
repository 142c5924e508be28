"""Dispersion phase laws gamma(r) and their numeric inversion.

The catalog holds the laws the experiments use:

    power:a     r**a            (a > 0)
    linear      r
    boussinesq  r*sqrt(1+r**2)
    quartic     r**2 + r**4

All catalog laws vanish at 0 and are finite on (0, 1e9].  Eligibility for
the envelope machinery requires gamma >= 0 with gamma increasing and
gamma(r)/r nondecreasing; ``check_hypotheses`` probes those properties on
a geometric sample and reports rather than raising, since a failed check
simply marks the law ineligible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotInvertibleError, OutOfRangeError, ParameterError

__all__ = [
    "CATALOG",
    "BOUSSINESQ",
    "LINEAR",
    "QUARTIC",
    "HypothesisReport",
    "PhaseLaw",
    "check_hypotheses",
    "custom_law",
    "invert",
    "invert_many",
    "parse_law",
    "power_law",
]

BRACKET_HI = 1e9
MAX_BISECT = 200
#: Relative tolerance of an inverse: |gamma(r) - y| <= REL_TOL * max(1, y).
REL_TOL = 1e-10
#: Geometric samples of [1e-6, 1e6] on which ``check_hypotheses`` probes a law.
PROBE_POINTS = 512


@dataclass(frozen=True)
class PhaseLaw:
    """A dispersion relation r >= 0 -> gamma(r) >= 0.

    ``power`` is set when gamma(r) = r**a exactly (closed-form inverse).
    ``inverse_growth`` is the exponent rho with gamma^{-1}(y) ~ y**rho for
    large y, when known; it drives exact summability decisions.
    """

    name: str
    evaluator: Callable
    power: float | None = None
    inverse_growth: float | None = None

    def __call__(self, r):
        return self.evaluator(r)


def power_law(a: float) -> PhaseLaw:
    if not (np.isfinite(a) and a > 0):
        raise ParameterError(f"power exponent must be positive, got {a}")
    a = float(a)
    return PhaseLaw(
        name=f"power:a={a:g}",
        evaluator=lambda r, _a=a: np.asarray(r, dtype=float) ** _a,
        power=a,
        inverse_growth=1.0 / a,
    )


def custom_law(fn: Callable, name: str = "custom") -> PhaseLaw:
    """Wrap a user evaluator; it must be pure, vectorized and map 0 to 0."""
    return PhaseLaw(name=name, evaluator=fn)


LINEAR = PhaseLaw(
    "linear", lambda r: np.asarray(r, dtype=float), power=1.0, inverse_growth=1.0
)
BOUSSINESQ = PhaseLaw(
    "boussinesq",
    lambda r: np.asarray(r, dtype=float) * np.sqrt(1.0 + np.asarray(r, dtype=float) ** 2),
    inverse_growth=0.5,
)
QUARTIC = PhaseLaw(
    "quartic",
    lambda r: np.asarray(r, dtype=float) ** 2 + np.asarray(r, dtype=float) ** 4,
    inverse_growth=0.25,
)

CATALOG = {"linear": LINEAR, "boussinesq": BOUSSINESQ, "quartic": QUARTIC}


def parse_law(text: str) -> PhaseLaw:
    """Parse a CLI law name: ``power:a=0.5``, ``linear``, ``boussinesq``, ``quartic``."""
    text = text.strip().lower()
    if text in CATALOG:
        return CATALOG[text]
    if text.startswith("power:a="):
        return power_law(float(text.split("=", 1)[1]))
    raise ParameterError(f"unknown phase law {text!r}")


@dataclass(frozen=True)
class HypothesisReport:
    gamma_nonneg: bool
    gamma_increasing: bool
    ratio_increasing: bool

    @property
    def eligible(self) -> bool:
        return self.gamma_nonneg and self.gamma_increasing and self.ratio_increasing


def check_hypotheses(law: PhaseLaw) -> HypothesisReport:
    """Probe nonnegativity and the two monotonicities on a geometric sample.

    gamma itself must be strictly increasing (invertibility); gamma(r)/r is
    allowed to be flat (the linear law) but not decreasing.  Non-finite or
    negative evaluations produce an all-false report, not an exception.
    """
    r = np.geomspace(1e-6, 1e6, PROBE_POINTS)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(law(r), dtype=float)
    if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
        return HypothesisReport(False, False, False)
    increasing = bool(np.all(np.diff(vals) > 0.0))
    ratio = vals / r
    slack = 1e-12 * np.maximum(np.abs(ratio[1:]), np.abs(ratio[:-1]))
    ratio_increasing = bool(np.all(np.diff(ratio) >= -slack))
    return HypothesisReport(True, increasing, ratio_increasing)


def invert_many(law: PhaseLaw, ys) -> np.ndarray:
    """Vectorized inverse: returns r with |gamma(r) - y| <= REL_TOL*max(1, y).

    Pure powers use the closed form y**(1/a); everything else goes through
    bracketing bisection (at most 200 halvings).  Each element's bracket is
    [0, 1e9], or, for y above gamma(1e9), [0, 1e9 * 2**j] with the first j
    whose gamma reaches y; OutOfRangeError only when that end or its gamma
    is no longer finite.  The halvings run on the whole array under a mask:
    each element stops once its own bracket passes the width test, so
    ``invert_many(law, ys)[i] == invert(law, ys[i])`` bit for bit.
    """
    ys = np.asarray(ys, dtype=float)
    if not np.all(np.isfinite(ys)) or np.any(ys <= 0.0):
        raise ParameterError("values to invert must be positive and finite")
    if law.power is not None:
        return ys ** (1.0 / law.power)
    report = check_hypotheses(law)
    if not (report.gamma_nonneg and report.gamma_increasing):
        raise NotInvertibleError(f"{law.name} is not strictly increasing on the probe range")
    flat = ys.ravel()
    lo = np.zeros_like(flat)
    hi = np.full_like(flat, BRACKET_HI)
    top = float(law(np.float64(BRACKET_HI)))
    past = np.flatnonzero(flat > top * (1.0 + 1e-12))
    with np.errstate(over="ignore", invalid="ignore"):
        while past.size:
            hi[past] *= 2.0
            reach = np.asarray(law(hi[past]), dtype=float)
            if not (np.all(np.isfinite(hi[past])) and np.all(np.isfinite(reach))):
                raise OutOfRangeError(f"value exceeds the finite range of {law.name}")
            past = past[reach < flat[past]]
    active = np.ones(flat.shape, dtype=bool)  # elements whose bracket is still too wide
    for _ in range(MAX_BISECT):
        mid = 0.5 * (lo + hi)
        above = np.asarray(law(mid), dtype=float) >= flat
        np.copyto(hi, mid, where=active & above)
        np.copyto(lo, mid, where=active & ~above)
        active &= ~(hi - lo <= 1e-14 * np.maximum(hi, 1.0))
        if not active.any():
            break
    roots = (0.5 * (lo + hi)).reshape(ys.shape)
    err = np.abs(np.asarray(law(roots), dtype=float) - ys)
    if np.any(err > REL_TOL * np.maximum(1.0, ys)):
        raise ParameterError(f"bisection for {law.name} missed tolerance {REL_TOL:g}")
    return roots


def invert(law: PhaseLaw, y: float) -> float:
    """Scalar inverse of an eligible phase law."""
    return float(invert_many(law, np.asarray([y], dtype=float))[0])
