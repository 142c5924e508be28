"""Dispersion phase laws gamma(r) and their closed-form inverses.

The catalog holds the laws the experiments use, each with its inverse
r = gamma^{-1}(y), written with + - * / and sqrt only:

    power:a     r**a            y**(1/a)                        (a > 0)
    linear      r               y
    boussinesq  r*sqrt(1+r**2)  y / sqrt(1/2 + sqrt(1/4 + y**2))
    quartic     r**2 + r**4     sqrt(y / (1/2 + sqrt(1/4 + y)))

Every law vanishes at 0, is increasing, and has gamma(r)/r nondecreasing,
the envelope machinery's hypotheses, except power:a with a < 1, whose
ratio decreases: ``PhaseLaw.eligible`` states that theorem, nothing is
probed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ParameterError

__all__ = [
    "CATALOG",
    "BOUSSINESQ",
    "LINEAR",
    "QUARTIC",
    "PhaseLaw",
    "invert",
    "invert_many",
    "parse_law",
    "power_law",
]


@dataclass(frozen=True)
class PhaseLaw:
    """A dispersion relation r >= 0 -> gamma(r) >= 0 and its inverse.

    ``inverse_growth`` is the exponent rho with gamma^{-1}(y) ~ y**rho for
    large y; it drives exact summability decisions.  ``power`` is set when
    gamma(r) = r**a exactly.
    """

    name: str
    evaluator: Callable
    inverse: Callable
    inverse_growth: float
    power: float | None = None

    def __call__(self, r):
        return self.evaluator(r)

    @property
    def eligible(self) -> bool:
        """gamma(r)/r is nondecreasing: every catalog law, and r**a for a >= 1."""
        return self.power is None or self.power >= 1.0


def power_law(a: float) -> PhaseLaw:
    if not (np.isfinite(a) and a > 0):
        raise ParameterError(f"power exponent must be positive, got {a}")
    a = float(a)
    return PhaseLaw(
        name=f"power:a={a:g}",
        evaluator=lambda r, _a=a: np.asarray(r, dtype=float) ** _a,
        inverse=lambda y, _a=a: np.asarray(y, dtype=float) ** (1.0 / _a),
        inverse_growth=1.0 / a,
        power=a,
    )


#: Past this y, sqrt(1/4 + y*y) rounds to y, and y*y would overflow past 1.3e154.
_SQUARE_LIMIT = 2.0**27


def _boussinesq_inverse(y):
    y = np.asarray(y, dtype=float)
    small = np.minimum(y, _SQUARE_LIMIT)
    root = np.where(y < _SQUARE_LIMIT, np.sqrt(0.25 + small * small), y)
    return y / np.sqrt(0.5 + root)


def _quartic_inverse(y):
    y = np.asarray(y, dtype=float)
    return np.sqrt(y / (0.5 + np.sqrt(0.25 + y)))


LINEAR = replace(power_law(1.0), name="linear")
BOUSSINESQ = PhaseLaw(
    "boussinesq",
    lambda r: np.asarray(r, dtype=float) * np.sqrt(1.0 + np.asarray(r, dtype=float) ** 2),
    _boussinesq_inverse,
    inverse_growth=0.5,
)
QUARTIC = PhaseLaw(
    "quartic",
    lambda r: np.asarray(r, dtype=float) ** 2 + np.asarray(r, dtype=float) ** 4,
    _quartic_inverse,
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


def invert_many(law: PhaseLaw, ys) -> np.ndarray:
    """gamma^{-1} of each y, by the law's closed form; each y must be
    positive and finite, and a ParameterError names the least y whose
    inverse overflows."""
    ys = np.asarray(ys, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        radii = law.inverse(ys)
    # the full check only when these fail: argmax and argmin find a NaN first, and radii are >= 0
    if ys.size == 0 or (np.isfinite(radii.flat[radii.argmax()]) and ys.flat[ys.argmin()] > 0.0):
        return radii
    if not (np.isfinite(ys).all() and (ys > 0.0).all()):
        raise ParameterError("values to invert must be positive and finite")
    y = float(np.min(ys[~np.isfinite(radii)]))
    raise ParameterError(f"gamma^-1(y) overflows for {law.name} at y={y!r}")


def invert(law: PhaseLaw, y: float) -> float:
    """Scalar inverse of a phase law."""
    return float(invert_many(law, np.asarray([y], dtype=float))[0])
