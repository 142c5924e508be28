"""Frequency-space evolution e^{it*gamma(|xi|)} and drifted evaluation.

Evolution multiplies each coefficient by a unit phase, so it is exactly
unitary on every weighted norm and satisfies the group law in t.  The
drifted evaluation point x + t**beta * mu contributes the extra linear
phase t**beta * mu.xi.  ``evaluate_shifted`` samples T times at P points in
one pass: ``spectral._wave_sums`` gets one row per time, the datum times its
phase factor, and forms each point's plane wave once.  The residual
against the initial datum is formed directly in frequency space,
h_j = (e^{i theta_j} - 1) f_j, which keeps synthesis quadrature out of
the estimates under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, UndefinedShiftError
from .spectral import FrequencyGrid, SpectralField, _dot, _points, _wave_sums, sobolev_norm

__all__ = [
    "ErrorField",
    "ShiftSpec",
    "apply_phase",
    "error_field",
    "evaluate_shifted",
    "phase",
    "shift_offset",
]


@dataclass(frozen=True)
class ShiftSpec:
    """Drift x -> x + t**beta * mu along a unit direction mu."""

    beta: float
    mu: np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        if not (math.isfinite(self.beta) and np.all(np.isfinite(mu))):
            raise ParameterError(f"beta and mu must be finite, got beta={self.beta}, mu={mu}")
        if abs(math.sqrt(_dot(mu, mu)) - 1.0) > 1e-12:
            raise ParameterError("mu must be a unit vector (within 1e-12)")
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "beta", float(self.beta))


def shift_offset(t: float, beta: float) -> float:
    """t**beta with the convention 0**beta = 0 for beta > 0."""
    if t > 0:
        try:
            return t**beta
        except OverflowError:
            raise ParameterError(f"t**beta overflows at t={t} for beta={beta}") from None
    if beta > 0:
        return 0.0
    raise UndefinedShiftError(f"t**beta is undefined at t=0 for beta={beta}")


def phase(law, t, r, beta: float | None, proj):
    """t*law(r) + shift_offset(t, beta)*proj, proj = mu.xi (no drift term for
    beta None).  Arguments are not checked, so bisections call it in loops."""
    theta = t * np.asarray(law(r), dtype=float)
    if beta is not None:
        theta += shift_offset(t, beta) * proj  # in place: one array fewer at once
    return theta


def _modulus(theta, r, s):
    """|e^{i theta} - 1| / (1+r*r)**(s/2) as 2|sin(theta/2)| over the weight, for
    the phase theta at radii r and the index s; a weight past the double range gives 0."""
    with np.errstate(over="ignore"):
        return 2.0 * np.abs(np.sin(0.5 * theta)) / (1.0 + r * r) ** (0.5 * s)


def _angles(grid: FrequencyGrid, law, times, shift: ShiftSpec | None, radial=None):
    """The (T, modes) phase at every mode for a 1-D array of T times; a ParameterError names
    the first t that is negative or not finite or whose phase is not.  ``radial``, law values
    evaluated once, stands in for the law; without a shift it may cover the first modes only."""
    times = np.asarray(times, dtype=float)
    bad = ~((0 <= times) & (times < math.inf))
    if bad.any():
        raise ParameterError(f"t must be nonnegative and finite, got {float(times[bad.argmax()])}")
    if shift is not None and shift.mu.shape != (grid.n,):
        raise ParameterError(f"mu has shape {shift.mu.shape}, expected ({grid.n},)")
    with np.errstate(over="ignore", invalid="ignore"):  # t*law(|xi|) + t**beta * mu.xi, as phase
        theta = np.multiply.outer(times, law(grid.radii) if radial is None else radial)
        if shift is not None:  # row by row: one row of temporary
            proj = _dot(grid.modes, shift.mu)
            for row, t in zip(theta, times.tolist()):
                row += shift_offset(t, shift.beta) * proj
    finite = np.isfinite(theta).all(axis=1)
    if not finite.all():
        t = float(times[finite.argmin()])
        raise ParameterError(f"the phase of {getattr(law, 'name', law)} is not finite at t={t}")
    return theta


def apply_phase(field: SpectralField, law, t: float) -> SpectralField:
    """Multiply each coefficient by e^{it*gamma(|xi_j|)}; moduli are preserved."""
    theta = _angles(field.grid, law, [t], None)[0]
    return SpectralField(field.grid, field.coefficients * np.exp(1j * theta))


def evaluate_shifted(field: SpectralField, law, t, shift: ShiftSpec | None, x):
    """Evolved solution sampled at the drifted points x + t**beta * mu.

    Computed as (2*pi)**(-n) sum_j e^{i(x.xi_j + t**beta mu.xi_j + t gamma(|xi_j|))} f_j dxi^n.
    ``t`` is one time or a 1-D array of T times, ``x`` one point or a
    (P, n) array of points.  One time at one point gives a complex number;
    otherwise the result is a complex array with a time axis (for an array
    of times) followed by a point axis (for a (P, n) array), so T times at
    P points give (T, P).  The phase is evaluated once per time and the
    plane wave once per point.  At t = 0 (with beta > 0) this is the
    band-limited representative of the initial datum.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or times.size == 0:
        raise ParameterError(
            f"times must be a number or a nonempty 1-D array, got shape {times.shape}"
        )
    grid = field.grid
    pts, single = _points(grid, x)

    def evolved(i, rows):
        # formed under _wave_sums' np.errstate, so an overflow warns nothing
        ts = times.reshape(-1)[i : i + len(rows)]
        np.exp(np.multiply(1j, _angles(grid, law, ts, shift), out=rows), out=rows)
        np.multiply(field.coefficients, rows, out=rows)
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            raise ParameterError("coefficients too large to sample: the evolved "
                                 f"coefficients overflow at t={float(ts[finite.argmin()])}")

    sums = _wave_sums(grid, pts, times.size, evolved)
    sums = sums.reshape(times.shape + (() if single else (len(pts),)))
    return complex(sums) if sums.ndim == 0 else sums


@dataclass(frozen=True)
class ErrorField:
    """Residual between the evolved (optionally drifted) solution and the datum."""

    h: SpectralField
    l2: float
    hs_of_f: float


def error_field(field: SpectralField, law, t: float, shift: ShiftSpec | None = None,
                s: float = 0.0) -> ErrorField:
    """Frequency-side residual h_j = (e^{i theta_j} - 1) f_j with its norms.

    ``l2`` is the discrete Plancherel norm of h and ``hs_of_f`` the weighted
    norm of the datum at index s, so l2 <= sup_j |m(xi_j)| * hs_of_f where m
    is the multiplier relating the two; the inequality is asserted on every
    call in test builds.
    """
    theta = _angles(field.grid, law, [t], shift)[0]
    factor = np.exp(1j * theta) - 1.0
    h = SpectralField(field.grid, factor * field.coefficients)
    l2 = sobolev_norm(h, 0.0)
    hs = sobolev_norm(field, s)
    if __debug__:
        wsup = float(np.max(_modulus(theta, field.grid.radii, s)))
        assert l2 <= wsup * hs * (1.0 + 1e-10) + 1e-300, (
            "discrete multiplier bound violated"
        )
    return ErrorField(h=h, l2=l2, hs_of_f=hs)
