"""Frequency-space evolution e^{it*gamma(|xi|)} and drifted evaluation.

Evolution multiplies each coefficient by a unit phase, so it is exactly
unitary on every weighted norm; the drift x + t**beta * mu adds the phase
t**beta * mu.xi.  theta is equal, bit for bit, across each mirror class of
the lattice (``_fold``), so ``_angles`` evaluates e^{i theta} on the fold
alone.  A sample sums over the fold too: sum_j f_j e^{i(x.xi_j
+ theta_j)} is sum_c e^{i theta_c} G_c(x), with the field folded into the
waves once a call, G_c(x) the sum of f_j e^{i x.xi_j} over class c
(``spectral._fold_waves``, which forms the waves an axis at a time and
folds each folded axis as it goes, and which ``synthesize`` calls with
no fold, so the field is scaled in one place).  ``evaluate_shifted``
samples T times at P points in one pass of the exact kernel over these
rows and waves (``spectral._sample``); the trace sums the rows e^{i
theta} - 1 against the same waves (``spectral._square_sums``).
Every time is checked before any row is formed (``_checked``), so
forming a row cannot fail.  The residual against the datum is formed in
frequency space, h_j = (e^{i theta_j} - 1) f_j, which keeps synthesis
quadrature out of the estimates under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ParameterError, UndefinedShiftError
from .spectral import FrequencyGrid, SpectralField, _dot, _points, _sample

__all__ = [
    "ShiftSpec",
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


def _modulus(h, w):
    """|e^{i theta} - 1| / w as 2|sin h| / w, for the half-phase h = theta/2 and the
    weight w (``spectral._sobolev_weight``); a weight past the double range gives 0."""
    return 2.0 * np.abs(np.sin(h)) / w


def _fold(grid: FrequencyGrid, law, shift: ShiftSpec | None) -> SimpleNamespace:
    """The modes ``_angles`` evaluates the phase on and ``spectral._fold_waves``
    sums onto, F = ``num_modes`` of them, with the law values
    ``gamma`` and mu.xi ``proj`` (None without a shift) there, and their
    largest magnitudes ``gmax`` and ``pmax`` (0 without a shift).

    theta = t*law(|xi|) + t**beta * mu.xi is even, bit for bit, in each
    coordinate mu does not touch (every one without a shift): (-a)*(-a) ==
    a*a, so |xi| keeps its bits, and a zero mu_i adds only a signed zero to
    mu.xi, flipping at most the sign of a zero mu.xi, which t*law(|xi|) >= +0
    absorbs.  So the fold keeps the coordinates <= 0 along those axes
    (``index``, whose stop there is M+1), and each mode shares |xi|, law
    value and |mu.xi| with a fold mode."""
    if shift is not None and shift.mu.shape != (grid.n,):
        raise ParameterError(f"mu has shape {shift.mu.shape}, expected ({grid.n},)")
    shape = (len(grid.axis),) * grid.n
    zero = (np.zeros(grid.n) if shift is None else shift.mu) == 0
    index = tuple(slice(shape[0] // 2 + 1 if z else None) for z in zero.tolist())
    radii = grid.radii.reshape(shape)[index].ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        gamma = np.asarray(law(radii), dtype=float)
        gmax = float(np.max(np.abs(gamma)))
    modes = grid.modes.reshape(shape + (grid.n,))[index].reshape(-1, grid.n)
    proj = None if shift is None else _dot(modes, shift.mu)
    pmax = 0.0 if shift is None else float(np.max(np.abs(proj)))
    return SimpleNamespace(index=index, num_modes=radii.size, gamma=gamma, gmax=gmax, proj=proj,
                           pmax=pmax, name=getattr(law, "name", law), shift=shift)


def _phase_bound(fold: SimpleNamespace, times: np.ndarray) -> np.ndarray:
    """fl(t*gmax) + fl(t**beta * pmax) at each t of a 1-D float array: rounding
    is monotone, so at least every |theta_j| that ``_angles`` forms at t, up to
    numpy's t**beta differing from Python's by an ulp."""
    bound = times * fold.gmax
    if fold.shift is not None:
        bound += times**fold.shift.beta * fold.pmax
    return bound


def _checked(fold: SimpleNamespace, times) -> np.ndarray:
    """The 1-D float array of ``times``, at which ``_angles`` cannot fail; else
    a ParameterError names the first t that is negative or not finite, or
    whose phase is not.  |theta_j| is at most ``_phase_bound``, so only a
    t < 0, t = 0 for beta <= 0 and a t whose bound (nan or inf at a t not
    finite) reaches 2**1020, which absorbs numpy's t**beta differing from
    Python's, can fail: each is formed alone, in time order."""
    times = np.asarray(times, dtype=float)
    with np.errstate(all="ignore"):
        bound = _phase_bound(fold, times)
        ok = times >= 0 if fold.shift is None or fold.shift.beta > 0 else times > 0
        for k in np.flatnonzero(~(ok & (bound < 2.0**1020))).tolist():
            t = float(times[k])
            if not 0 <= t < math.inf:
                raise ParameterError(f"t must be nonnegative and finite, got {t}")
            row = np.empty((1, fold.num_modes), dtype=complex)
            if not np.isfinite(_angles(fold, times[k : k + 1], row)).all():
                raise ParameterError(f"the phase of {fold.name} is not finite at t={t}")
    return times


def _angles(fold: SimpleNamespace, times: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write e^{i theta} on the modes of the ``_fold`` for a 1-D array of T
    times, checked by ``_checked``, into the complex ``out``, (T, F), and
    return theta, (T, F)."""
    theta = np.multiply.outer(times, fold.gamma)  # t*law(|xi|) + t**beta * mu.xi, as phase
    if fold.shift is not None:  # row by row: one row of temporary
        for row, t in zip(theta, times.tolist()):
            row += shift_offset(t, fold.shift.beta) * fold.proj
    np.exp(np.multiply(1j, theta, out=out), out=out)
    return theta


def evaluate_shifted(field: SpectralField, law, t, shift: ShiftSpec | None, x):
    """Evolved solution sampled at the drifted points x + t**beta * mu.

    Computed as (2*pi)**(-n) sum_j e^{i(x.xi_j + t**beta mu.xi_j + t gamma(|xi_j|))} f_j dxi^n.
    ``t`` is one time or a 1-D array of T times, ``x`` one point or a
    (P, n) array of points.  One time at one point gives a complex number;
    otherwise the result is a complex array with a time axis (for an array
    of times) followed by a point axis (for a (P, n) array), so T times at
    P points give (T, P).  At t = 0 (with beta > 0) this is the
    band-limited representative of the initial datum.
    """
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or times.size == 0:
        raise ParameterError(
            f"times must be a number or a nonempty 1-D array, got shape {times.shape}"
        )
    pts, single = _points(field.grid, x)
    fold = _fold(field.grid, law, shift)
    checked = _checked(fold, times.reshape(-1))
    sums = _sample(field, pts, fold, np.arange(times.size), lambda ks, rows: _angles(fold, checked[ks], rows))
    sums = sums.reshape(times.shape + (() if single else (len(pts),)))
    return complex(sums) if sums.ndim == 0 else sums
