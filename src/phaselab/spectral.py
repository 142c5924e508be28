"""Band-limited fields on symmetric frequency lattices.

A field is one complex coefficient per mode xi_j of the lattice
{-M*dxi, ..., M*dxi}**n, M = floor(xi_max/dxi); integrals are quadrature
sums with weight dxi**n.  Every reduction is exactly rounded, the true sum
rounded once, so it does not depend on summation order, runs or threads.

``csum`` sums every row of a 2-D block (a vector is one row) in three
steps: ``_scale_rows`` scales each row by a power of two into integer
units, ``_split_sums`` (where the proof lives) rounds each term to an
integer (Rump, Ogita and Oishi, "Accurate floating-point summation part
I", 2008), and ``_certify_sums`` keeps the unscaled total where the row's
error bound proves it exactly rounded, or where the low sum was exact,
which settles exact ties.  Sums it cannot certify (near-ties and other
ties, zero or subnormal sums, non-finite values, rows near overflow or
below 2**-960) are summed again with ``math.fsum`` (Shewchuk 1997),
exactly in integers where its partial sums overflow; same bits either way.

``_wave_sums``, the one sampling kernel, evaluates w * 2**e * sum_j c_j
w_pj for rows c and waves w_p whose parts are at most 1, w * 2**e the
unscale factor of every sum.  Every sample takes its waves and unscale
from ``_fold_waves``, the one place a field becomes sampler input and
the one place plane waves are exponentiated: the field scaled by one
power of two 2**-e, times the unit waves e^{i x.xi_j} of the points
(``_points``), formed an axis at a time as prod_d e^{i x_d xi_d}, and
summed over each mirror class of a phase fold if one is given, each
folded axis before the next product, with w the synthesis scale
(2*pi)**(-n) * dxi**n.
``synthesize`` sums a row of ones against them on the whole lattice;
``evaluate_shifted`` and the trace pass rows e^{i theta} or
e^{i theta} - 1 on the modes of the phase fold (``propagation._fold``),
so every sum has the fold's terms, about half the lattice's (513 of
1,025).  The kernel fills the rows a batch at a time and sums as
``csum`` does, in blocks whose products and split fit in BLOCK_BYTES
and, with their waves, in 2*BLOCK_BYTES, certifying a window of whole
batches at a time.  Products over the n <= 3 coordinates (mu.xi, |xi|)
go through ``_dot``, left to right elementwise, so no BLAS kernel
touches the bits.  BLAS enters only the trace's certificate
(``convergence._square_sums``), which calls the kernel for the rows and
points whose printed running sums it cannot settle from a BLAS product
and its error radius; it decides which sums are formed here, never a bit.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import GridMismatchError, ParameterError

__all__ = [
    "FrequencyGrid",
    "SpectralField",
    "csum",
    "default_grid",
    "make_grid",
    "random_field",
    "read_field_csv",
    "sobolev_norm",
    "synthesize",
    "write_field_csv",
]

#: Default lattice used by the experiments: resolves |xi| up to 64 at 1/8 spacing.
DEFAULT_GRID_PARAMS = (1, 64.0, 0.125)


#: Cap on the bytes of complex products and their split that ``_wave_sums``
#: holds in one block (one row at least), so a block grows with neither the
#: row nor the point count.  Its sums are certified in windows of whole row
#: batches that hold ``BLOCK_BYTES >> 10`` (1,024) sums, fewer than 2,048
#: unless one batch holds more, with 32 bytes a sum of low sums and row
#: scales and bounds.
BLOCK_BYTES = 1 << 20

#: Unit roundoff of float64.
_U = 2.0**-53
#: Rows whose terms are bounded below 2**_MIN_EXPONENT go to ``math.fsum``: the
#: subnormal term of their bound would near the half gaps it is tested against.
_MIN_EXPONENT = -960
#: Exact sums this large round to infinity: the midpoint between the
#: largest double and 2**1024.
_OVERFLOW = 2**1024 - 2**970


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_1*b_1 + a_2*b_2 + ... over the last axis of two float arrays (broadcast),
    added left to right elementwise.  Unlike BLAS, its rounding does not depend on the CPU."""
    total = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        total += a[..., i] * b[..., i]
    return total


def _scale_rows(parts: np.ndarray) -> np.ndarray:
    """Scale each row of the (rows, 2M) float parts in place by the 2**k of
    ``_split_sums`` and return (2, rows): each row's 2**-k and the bound of
    its low sums, for terms at most twice the row's largest part; a dead
    row is left as it is, with (1.0, inf)."""
    m = parts.shape[1] // 2
    levels = (m + 1).bit_length()
    # nan propagates through both reductions and fails the range test
    peak = 2.0 * np.maximum(parts.max(axis=1), -parts.min(axis=1))
    live = (2.0**_MIN_EXPONENT <= peak) & (peak < 2.0 ** (1023 - levels))
    k = np.where(live, 53 - levels - np.frexp(peak)[1], 0)
    parts *= np.ldexp(1.0, k)[:, None]
    bound = m * m * _U + np.ldexp(float(m), np.maximum(k, 0) - 1017)
    return np.stack([np.ldexp(1.0, -k), np.where(live, bound, math.inf)])


def _split_sums(x: np.ndarray, high, low, split: np.ndarray) -> None:
    """The split step of the certified sums of the complex rows of x.

    ``x`` (rows, M, 2) is the interleaved layout ``np.multiply`` writes:
    x[i, j] holds the parts of term j of row i, scaled by ``_scale_rows``.
    In place, it writes q = rint(x) into ``split`` (at least ``x.size``
    floats), leaves x the remainders p = x - q, and writes per row the
    complex sum of the q into ``high`` and that of the p into ``low``:
    four passes over the terms.  Runs under the caller's ``np.errstate``.

    Error-free extraction at a granularity of one unit (Rump, Ogita and
    Oishi, 2008).  Let L = (M + 1).bit_length(), so M <= 2**L - 2, and
    u = 2**-53.  ``_scale_rows`` takes 2**(e-1) <= 2*peak < 2**e, peak the
    row's largest part in magnitude, and multiplies the row by s = 2**k,
    k = 53 - L - e.  A term is a part (``csum``) or a component of a
    product with a wave whose parts are at most 1: a unit wave's, as |cos|,
    |sin| <= 1, or a folded wave G of ``_fold_waves``, formed
    from the field times one power of two 2**-e that takes every part of G
    below 1.  The sums are those of the waves as formed: scaling the field
    down (e > 0) rounds its parts below 2**(e - 1022) to the subnormal grid
    before any product is formed, scaling up is exact, and the kernel's
    factor w * 2**e undoes it exactly.  As rounding is monotone, each
    rounded product is at most peak and their sum or difference, fused or
    not, at most 2*peak.  So every scaled term is below 2**(53 - L), each
    q is an integer of magnitude at most 2**(53 - L), and every partial sum
    of the q of one plane, in any order, is an integer below M * 2**(53 -
    L) < 2**53: t = sum(q) is exact.
    p = x - q is exact with |p| <= 1/2, and P' = fl(sum(p)), in any
    order, errs by at most gamma_{M-1} * M/2, below M**2*u/2 for
    M <= 2**26 (no lattice here is wider) and below M**2*u up to 2**50.

    Scaling by s commutes with rounding except in the subnormal range of
    the scaled or the unscaled computation, below lam = max(s, 1)*2**-1022
    in scaled units, where a rounding errs by at most lam*u.  So a scaled
    part or rounded product differs from s times the unscaled one by at
    most 4*lam*u, and only below lam.  A sum or difference of two products
    then rounds both ways to the same double when the other product is at
    least 2**55*lam (a midpoint is 2*lam away or more); otherwise both
    results lie below 2**56*lam, within half an ulp (4*lam) of what they
    round, and differ by under 2**4*lam.  The scaled terms thus sum to s
    times the unscaled sum within M * 2**4 * lam, and the bound of a live
    row, M**2*u + M * max(s, 1) * 2**-1017, is twice both errors, which
    leaves room for the rounding of the bound itself.

    With r = fl(t + P') and its exact residual d (TwoSum), s times the
    exact sum of the unscaled terms lies within |d| + bound of r.  When
    that is strictly less than half the smaller gap from r to a
    neighbouring double, r is its exactly-rounded value, and r/s the
    exactly-rounded unscaled sum if it is a normal double; results at or
    below 2**-1022 once unscaled are refused, as are zeros.

    The bound cannot settle an exact sum at a midpoint, an exact tie, which
    fewer, larger terms make likelier.  But P' is exact, in any order, when
    every nonzero term of its plane is at least 2**(L-2): each p is then a
    multiple of 2**(L-54), the least ulp of such a term, and every partial
    sum, at most M/2 < 2**(L-1), is a double.  Then r rounds t + P', the
    exact sum of the split's terms, once, ties to even; if those terms are
    exactly s times the unscaled ones (no subnormal rounding on either
    side), r/s is the exactly-rounded unscaled sum where it is a normal
    double.  ``_certify_sums`` checks both on each refused sum of a live
    row.

    Both planes of a row share its s, and both sums run on a complex view,
    one ``sum(axis=1)`` each.  A row is dead when 2*peak is zero or not
    finite, below 2**_MIN_EXPONENT, or at least 2**(1023 - L), where an
    unscaled sum could overflow: ``_scale_rows`` leaves it unscaled with
    bound inf, so both its planes are refused.
    """
    flat = x.reshape(len(x), -1)
    q = np.rint(flat, out=split[: x.size].reshape(flat.shape))
    flat -= q
    np.add.reduce(q.view(complex), axis=1, out=high)
    np.add.reduce(flat.view(complex), axis=1, out=low)


def _certify_sums(high, low, bound, scale, terms) -> np.ndarray:
    """The certificate of n sums split by ``_split_sums``, whose ``high`` and
    ``low`` sums it holds, with ``bound`` and ``scale`` (2**-k) from ``_scale_rows``.

    Replaces each high sum by r = fl(high + low) unscaled and returns ``ok``
    (n, 2): whether that is the exactly-rounded sum, plane by plane.  Where
    the bound cannot prove it, ``terms(j, s)`` gives the (M, 2) terms of sum
    j formed from its row times s: at s = 1/scale the split's own, at s = 1
    the original ones.  A refused plane is kept where the split's terms are
    exactly s times the original ones on a live row and its low sum was
    exact (``_split_sums``), which settles exact ties; else it is the
    ``_fsum`` of the original terms.  Overwrites ``low``; runs under the
    caller's ``np.errstate``."""
    t, p = high.view(float).reshape(-1, 2), low.view(float).reshape(-1, 2)
    # Knuth's TwoSum, r + e == t + p exactly, in place in t and p with two
    # temporaries: e = (t - (r - bb)) + (p - bb) for bb = r - t
    r = t + p
    bb = r - t
    p -= bb
    np.subtract(r, bb, out=bb)
    t -= bb
    t += p
    np.abs(t, out=p)
    p += bound[:, None]
    np.multiply(r, scale[:, None], out=t)
    # r becomes the half gap from |r| to the next double toward zero
    np.abs(r, out=r)
    r -= np.nextafter(r, 0.0, out=bb)
    r *= 0.5
    ok = (p < r) & (np.abs(t, out=bb) > 2.0**-1022)
    for j in np.flatnonzero(~ok.all(axis=1)).tolist():
        # a live sum whose split terms are s times the unscaled ones and whose
        # low sum is exact (``_split_sums``) has r exactly rounded, ties too
        up = 1.0 / scale[j]
        scaled = terms(j, up).copy() if bound[j] < math.inf else np.full((1, 2), np.nan)
        planes = terms(j, 1.0)
        # each side scaled up only, which is exact
        exact = (np.array_equal(scaled, planes * up) if up > 1
                 else np.array_equal(scaled * scale[j], planes))
        least = np.abs(scaled).min(axis=0, initial=math.inf, where=scaled != 0)
        least_ok = least >= 2.0 ** ((len(planes) + 1).bit_length() - 2)
        ok[j] |= exact & least_ok & (np.abs(t[j]) > 2.0**-1022)
        for c in np.flatnonzero(~ok[j]).tolist():
            t[j, c] = _fsum(memoryview(np.ascontiguousarray(planes[:, c])))
    return ok


def csum(values: np.ndarray):
    """Exactly-rounded complex sum of a vector, or of each row of a 2-D array.

    A 1-D input gives a complex number (summed as a one-row block), a 2-D
    input (rows, M) one sum per row.  ``values`` is only read: a copy is scaled."""
    values = np.asarray(values)
    if values.ndim == 1:
        return complex(csum(values[None, :])[0])
    if values.ndim != 2:
        raise ParameterError(f"csum takes a 1-D or 2-D array, got {values.ndim}-D")
    if values.size == 0:
        return np.zeros(values.shape[0], dtype=complex)
    values = np.ascontiguousarray(values, dtype=complex)
    terms = values.view(float).reshape(values.shape + (2,))
    r, low, parts = *np.empty((2, len(values)), dtype=complex), terms.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        scale, bound = _scale_rows(parts.reshape(len(r), -1))
        _split_sums(parts, r, low, np.empty(terms.size))
        _certify_sums(r, low, bound, scale, lambda j, s: terms[j] * s)
    return r


def _fsum(values) -> float:
    """``math.fsum`` of a list or memoryview of floats, also where partial sums overflow.

    ``fsum`` refuses such a row even if its exact sum is finite; it is read
    again and summed exactly as integer multiples of 2**-1074, rounded once
    (``int / int`` is correctly rounded).  An exact sum at or beyond the
    midpoint between the largest double and 2**1024 rounds to infinity, as
    IEEE does.  Non-finite terms sum to their IEEE sum, the infinity they
    share or nan (``fsum`` raises for inf and -inf)."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        special = [v for v in values if not math.isfinite(v)]
        if special:
            return sum(special)
        scale = 1 << 1074
        total = sum(num * (scale // den) for num, den in map(float.as_integer_ratio, values))
        if abs(total) >= _OVERFLOW * scale:
            return math.inf if total > 0 else -math.inf
        return total / scale


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """The lattice {-M*dxi, ..., 0, ..., M*dxi}**n, M = floor(xi_max/dxi) >= 1,
    checked at construction; its axis, modes and radii are derived on first use."""

    n: int
    xi_max: float
    dxi: float

    def __post_init__(self):
        m = _half_width(self.n, self.xi_max, self.dxi)
        # frozen: the fields are set past __setattr__, as cached_property does
        self.__dict__.update(n=int(self.n), xi_max=float(self.xi_max), dxi=float(self.dxi), _m=m)

    @property
    def weight(self) -> float:
        """Quadrature weight per mode, dxi**n."""
        return self.dxi**self.n

    @property
    def synthesis_scale(self) -> float:
        """dxi**n / (2*pi)**n, the one factor every synthesized sum is scaled by."""
        return self.weight / (2.0 * math.pi) ** self.n

    @property
    def num_modes(self) -> int:
        return (2 * self._m + 1) ** self.n

    @cached_property
    def axis(self) -> np.ndarray:
        """The 2M+1 coordinates -M*dxi, ..., M*dxi of every axis."""
        axis = self.dxi * np.arange(-self._m, self._m + 1, dtype=float)
        axis.setflags(write=False)
        return axis

    @cached_property
    def modes(self) -> np.ndarray:
        """The (num_modes, n) modes in lexicographic order."""
        mesh = np.meshgrid(*([self.axis] * self.n), indexing="ij")
        modes = np.stack([g.ravel() for g in mesh], axis=-1)
        modes.setflags(write=False)
        return modes

    @cached_property
    def radii(self) -> np.ndarray:
        """|xi_j| for every mode, in mode order."""
        r = np.sqrt(_dot(self.modes, self.modes))
        r.setflags(write=False)
        return r


def _half_width(n: int, xi_max: float, dxi: float) -> int:
    """Check the lattice parameters and return M = floor(xi_max/dxi), so the
    lattice has (2M+1)**n modes."""
    if n not in (1, 2, 3):
        raise ParameterError(f"dimension must be 1, 2 or 3, got {n}")
    if not (math.isfinite(xi_max) and xi_max > 0):
        raise ParameterError(f"xi_max must be positive, got {xi_max}")
    if not (math.isfinite(dxi) and 0 < dxi <= xi_max):
        raise ParameterError(f"dxi must lie in (0, xi_max], got {dxi}")
    if not math.isfinite(xi_max / dxi):
        raise ParameterError(f"xi_max/dxi overflows: {xi_max}/{dxi}")
    return int(math.floor(xi_max / dxi + 1e-9))


def make_grid(n: int, xi_max: float, dxi: float) -> FrequencyGrid:
    """Build the lattice {-M*dxi, ..., 0, ..., M*dxi}**n with M = floor(xi_max/dxi)."""
    return FrequencyGrid(n, xi_max, dxi)


def default_grid() -> FrequencyGrid:
    return make_grid(*DEFAULT_GRID_PARAMS)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """A band-limited function, stored as one complex coefficient per mode."""

    grid: FrequencyGrid
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=complex)
        if coeffs.shape != (self.grid.num_modes,):
            raise ParameterError(
                f"coefficient count {coeffs.shape} does not match "
                f"{self.grid.num_modes} modes"
            )
        if not np.all(np.isfinite(coeffs.real)) or not np.all(np.isfinite(coeffs.imag)):
            raise ParameterError("coefficients must be finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)


def _sobolev_weight(r, s):
    """(1+r*r)**(s/2), the H^s weight at radii r, in the caller's type (a float,
    a numpy scalar or an array); where it overflows the caller's errstate rules."""
    return (1.0 + r * r) ** (0.5 * s)


def sobolev_norm(field: SpectralField, s: float = 0.0) -> float:
    """Weighted spectral norm (sum_j (1+|xi_j|^2)^s |f_j|^2 dxi^n)**(1/2), exactly
    rounded; s = 0 gives the discrete Plancherel (L2) norm."""
    c = field.coefficients
    w = _sobolev_weight(field.grid.radii, 2.0 * s)
    total = _fsum(((c.real * c.real + c.imag * c.imag) * w).tolist())
    return math.sqrt(total * field.grid.weight)


def _products(rows: np.ndarray, waves: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The (rows, P, M) products of each coefficient row with each wave.  The mode
    axis stays last and contiguous, so numpy forms every (row, point) product with
    the same loop over M: a product formed alone has the bits of its block's slice."""
    return np.multiply(rows[:, None, :], waves[None, :, :], out=out)


@contextlib.contextmanager
def _ufunc_buffer():
    """numpy's ufunc buffer at 1,024 elements, with no warning for a value that
    overflows or is NaN.  At numpy's default of 8,192 elements a block's product
    copies its broadcast row into a buffer of several rows, 0.11 MB at 1,025
    modes, and runs about 1.5 times as long; ``_fold_waves`` forms its
    broadcast products of waves under it too."""
    bufsize = np.setbufsize(1024)
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            yield
    finally:
        np.setbufsize(bufsize)


def _wave_sums(waves: np.ndarray, unscale: tuple, num_rows: int, fill) -> np.ndarray:
    """w * 2**e * sum_j c_j w_pj for ``num_rows`` rows c and each wave w_p, a
    row of the (P, F) complex ``waves`` whose parts are at most 1 (the
    ``_split_sums`` proof), with ``unscale`` = (w, e): a (num_rows, P)
    array.  ``fill(i, out)`` writes rows i, ..., i + len(out) - 1 into
    ``out``.

    The rows are filled a batch of R rows at a time, in whole blocks of
    rows, and scaled (``_scale_rows``): R = max(1, (BLOCK_BYTES >> 3) //
    (16*F)) rows rounded to whole blocks, and at most 1,024 (``BLOCK_BYTES
    >> 10``) sums unless one block holds more.  Each block of (row, point)
    products is split in place (``_split_sums``): high sums into the
    result, low sums into a buffer.  ``_certify_sums`` runs once a window,
    the fewest whole batches that hold 1,024 sums, on the window's rows
    with their scales and bounds.  A refused sum's row is filled again
    alone and its products formed there, scaled as the split formed them
    (on a live row, for ``_certify_sums``' tie check) and unscaled for
    ``_fsum``, so ``fill`` must be pure, and it must not raise: its callers check their rows first.
    Rows are formed under ``_ufunc_buffer``.  A row's parts must stay below
    2**1020, so that no product with a wave overflows; a sum not finite at
    a finite wave raises ``ParameterError`` once every sum is formed and
    unscaled.
    """
    num_pts, num_modes = waves.shape
    # r rows at p points: p waves and one row's p products and split, 48*F*p bytes,
    # at most 2*BLOCK_BYTES (so L2-sized), and r rows' products and split, 32*F*p*r
    # bytes, at most BLOCK_BYTES, one row at least; more than one only with every point
    p_step = max(1, min(num_pts, BLOCK_BYTES // (24 * num_modes)))
    r_step = max(1, BLOCK_BYTES // (32 * num_modes * p_step)) if p_step == num_pts else 1
    # a batch of rows holds at most ``cap`` sums unless one block holds more,
    # and a window is the fewest batches that hold ``cap``
    cap, row_sums = max(1, BLOCK_BYTES >> 10), max(1, num_pts)
    batch_rows = min((BLOCK_BYTES >> 3) // (16 * num_modes), cap // row_sums)
    batch_rows = r_step * max(1, batch_rows // r_step)
    window = max(1, min(num_rows, batch_rows * -(-cap // (batch_rows * row_sums))))
    coeffs = np.empty((batch_rows, num_modes), dtype=complex)
    block_buf = np.empty(r_step * p_step * num_modes, dtype=complex)
    split = np.empty(2 * block_buf.size)
    sums = np.empty((num_rows, num_pts), dtype=complex)
    # the scale and bound of each row of a window, and the low sum of each of its sums
    scale_bound, low = np.empty((2, window)), np.empty(window * num_pts, dtype=complex)

    def terms(j, s):
        # sum j of the window from its row times s (as ``_scale_rows`` scales it),
        # formed in the block buffer, whose products are split by now
        i, p = divmod(j, num_pts)
        row = block_buf[:num_modes].reshape(1, num_modes)
        fill(w0 + i, row)
        row.view(float)[...] *= s
        product = _products(row, waves[p : p + 1], out=row[:, None])
        return product.view(float).reshape(num_modes, 2)

    p_starts = range(0, num_pts, p_step)
    with _ufunc_buffer():
        for w0 in range(0, num_rows, window):
            w_rows = min(window, num_rows - w0)
            high = sums[w0 : w0 + w_rows].reshape(-1)
            for r0 in range(0, w_rows, batch_rows):
                formed = coeffs[: min(batch_rows, w_rows - r0)]
                fill(w0 + r0, formed)
                scale_bound[:, r0 : r0 + len(formed)] = _scale_rows(formed.view(float))
                for b0, p0 in itertools.product(range(0, len(formed), r_step), p_starts):
                    rows, chunk = formed[b0 : b0 + r_step], waves[p0 : p0 + p_step]
                    size, start = len(rows) * len(chunk), (r0 + b0) * num_pts + p0
                    block = block_buf[: size * num_modes].reshape(len(rows), len(chunk), -1)
                    _products(rows, chunk, out=block)
                    _split_sums(block.view(float).reshape(size, num_modes, 2),
                                high[start : start + size], low[start : start + size], split)
            scale, bound = np.repeat(scale_bound[:, :w_rows], num_pts, axis=1)
            _certify_sums(high, low[: len(high)], bound, scale, terms)
        _unscale(sums, unscale)
    if np.isfinite(waves[~np.isfinite(sums).all(axis=0)]).all(axis=1).any():
        raise ParameterError("coefficients too large to sample: a sum over the modes overflows")
    return sums


def _unscale(values: np.ndarray, unscale: tuple) -> None:
    """Multiply the float or complex ``values`` in place by w * 2**e, ``unscale``
    = (w, e).  With w * 2**e = m * 2**e', 1/2 <= m < 1, that is the double
    m * 2**min(e', 1024), formed exactly, then 2**max(0, e' - 1024), an
    exact step, so past the double range a part overflows only where its
    exact product does.  Both steps are monotone."""
    m, e = math.frexp(unscale[0])
    values *= math.ldexp(m, min(e + unscale[1], 1024))
    np.ldexp(values.view(float), max(e + unscale[1] - 1024, 0), out=values.view(float))


def _points(grid: FrequencyGrid, x):
    """The sample points x as a (P, n) array, and whether x is one point
    (shape (n,), or a number when n = 1) rather than a (P, n) array."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim <= 1:
        pts = np.atleast_1d(pts)
        if pts.shape != (grid.n,):
            raise ParameterError(f"point has shape {pts.shape}, expected ({grid.n},)")
        return pts.reshape(1, grid.n), True
    if pts.ndim != 2 or pts.shape[1] != grid.n:
        raise ParameterError(f"points have shape {pts.shape}, expected (P, {grid.n})")
    return pts, False


def _fold_waves(field: SpectralField, pts: np.ndarray, fold=None) -> tuple:
    """The (P, F) folded waves of ``field`` at the (P, n) points and their
    unscale (w, e), the sampler input of every sample: ``_wave_sums`` of
    rows c on the fold with them is w * sum_c c_c G_pc, which for c_c =
    e^{i theta_c}, one value on each class, is (2*pi)**(-n) * sum_j f_j
    e^{i(x_p.xi_j + theta_j)} dxi**n.

    ``fold`` is a ``propagation._fold``: its ``index`` keeps F =
    ``num_modes`` modes of the lattice's box, the coordinates <= 0 along a
    folded axes and every coordinate along the others, so each mirror
    class has at most 2**a modes; None is the whole lattice, a = 0 and F
    the mode count.  G_p = sum_class f_j e^{i x_p.xi_j} on each kept mode,
    formed a chunk of points at a time and an axis at a time, the last
    first, as e^{i x.xi} = prod_d e^{i x_d xi_d}: the running products,
    f first, times e^{i x_d xi_d} on the coordinates axis d keeps, and on
    a folded axis the products at +c times the conjugate of the wave at
    -c added onto those at -c.  So the products and folds alternate, and
    a call exponentiates P * sum_d K_d values, K_d the coordinates axis d
    keeps (the products at +c need sin odd and cos even, bit for bit).

    f is first scaled by one power of two 2**-e, e = e_h + a + 2 for h =
    max_j fl(|Re f_j|/2 + |Im f_j|/2) < 2**e_h, which cannot overflow.  F =
    max_j |Re f_j| + |Im f_j| is below 2**(e_h + 1): halving is exact but
    for parts below 2**-1021, whose halves round by at most 2**-1075, and
    the sum of two halves so rounded falls below a power of two that F/2
    reaches only at F = 2**-1073, where h = 0 and e_h = 0.  So every scaled
    f_j has modulus below 2**-(a + 1).  With u = 2**-53, a wave's parts are
    at most 1 and its modulus below 1 + 2u (cos and sin each within an
    ulp); each part of a product z*w, two products and a sum rounded,
    errs by at most (2u + u**2) |z| |w| (Cauchy-Schwarz), so its modulus
    is at most |z| |w| (1 + 3u) <= |z| (1 + 6u); a fold's sum p + q has
    modulus at most (|p| + |q|) (1 + u).  After the n <= 3 products and a
    <= n folds, each part of G, a sum over at most 2**a modes, is below
    2**a * 2**-(a + 1) (1 + 6u)**3 (1 + u)**3 + 2**-1071 <= 1/2 (1 + 22u)
    < 1, roundings in the subnormal range included (the ``_split_sums``
    proof's wave), while 2**e <= 2**(a + 2) F (1 + u) above e's floor: a
    scale one power of two larger would halve every sum against the
    split's fixed error bound, which then certifies fewer of them.  e is
    at least -1021 - e_w, w = m * 2**e_w the synthesis scale, so w * 2**e
    is normal unless it overflows, where ``_wave_sums`` applies it in two
    exact steps.  Scaling up is exact; scaling down rounds f's parts below
    2**(e - 1022) to the subnormal grid.  A point not finite gives a NaN
    wave."""
    grid, w = field.grid, field.grid.synthesis_scale
    index = (slice(None),) * grid.n if fold is None else fold.index
    half = np.max(0.5 * np.abs(field.coefficients.real) + 0.5 * np.abs(field.coefficients.imag))
    e = max(math.frexp(half)[1] + sum(k.stop is not None for k in index) + 2, -1021 - math.frexp(w)[1])
    f = np.ldexp(field.coefficients.view(float), -e).view(complex).reshape((1,) + (len(grid.axis),) * grid.n)
    kept = tuple(len(grid.axis[k]) for k in index)
    step = max(1, BLOCK_BYTES // (16 * grid.num_modes))
    waves = np.empty((len(pts), math.prod(kept)), dtype=complex)
    with _ufunc_buffer():
        for p0 in range(0, len(pts), step):
            x, prod = pts[p0 : p0 + step], f
            for d in reversed(range(grid.n)):
                # e^{i x_d xi_d} on the coordinates axis d keeps, along axis d + 1 of prod
                wave = np.multiply(1j, np.multiply.outer(x[:, d], grid.axis[index[d]]))
                wave = np.exp(wave, out=wave).reshape((len(x),) + (1,) * d + (-1,) + (1,) * (grid.n - 1 - d))
                head, m = (slice(None),) * (d + 1), index[d].stop
                new = np.multiply(prod[head + (index[d],)], wave,
                                  out=waves[p0 : p0 + len(x)].reshape((len(x),) + kept) if d == 0 else None)
                if m:  # the products at +c = M, ..., 1 onto those at -c, with the conjugates
                    # of the waves at -c, each formed in place where it fits
                    neg = head + (slice(m - 1),)
                    conj, onto = np.conjugate(wave[neg], out=wave[neg]), new[neg]
                    onto += np.multiply(prod[head + (slice(None, m - 1, -1),)], conj,
                                        out=conj if conj.shape == onto.shape else None)
                prod = new
    return waves, (w, e)


def synthesize(field: SpectralField, x):
    """Evaluate (2*pi)**(-n) * sum_j e^{i x.xi_j} f_j dxi^n at physical points.

    ``x`` is one point (shape (n,), or a number when n = 1), which gives a
    complex number, or a (P, n) array of points, which gives P values: a
    row of ones summed against the field's waves on the whole lattice.
    """
    pts, single = _points(field.grid, x)
    sums = _wave_sums(*_fold_waves(field, pts), 1, lambda i, out: out.fill(1.0))[0]
    return complex(sums[0]) if single else sums


def random_field(grid: FrequencyGrid, rng) -> SpectralField:
    """Field with i.i.d. standard complex Gaussian coefficients."""
    if not hasattr(rng, "standard_normal"):
        rng = np.random.default_rng(rng)
    coeffs = rng.standard_normal(grid.num_modes) + 1j * rng.standard_normal(grid.num_modes)
    return SpectralField(grid, coeffs)


def _field_header(n: int) -> str:
    return ",".join([f"xi_{i + 1}" for i in range(n)] + ["re", "im"])


def write_field_csv(field: SpectralField, path) -> None:
    """Write the field as CSV (xi_1,...,xi_n,re,im) plus a JSON grid sidecar.

    Every value is written as its shortest round-trip ``repr``, so
    ``read_field_csv`` gets the same bits back, signed zeros included.
    The 2M+1 axis values are formatted once, and the mode columns are
    their n-fold product, which runs in the lexicographic mode order.
    A path whose suffix is ``.json``, the sidecar's own, is refused.
    """
    path = Path(path)
    sidecar_path = path.with_suffix(".json")
    if sidecar_path == path:
        raise ParameterError(f"{path} would be overwritten by its grid sidecar; use another suffix")
    grid = field.grid
    c = field.coefficients
    modes = map(",".join, itertools.product(map(repr, grid.axis.tolist()), repeat=grid.n))
    rows = map(",".join, zip(modes, map(repr, c.real.tolist()), map(repr, c.imag.tolist())))
    path.write_text("\n".join([_field_header(grid.n), *rows]) + "\n")
    sidecar = {"n": grid.n, "xi_max": grid.xi_max, "dxi": grid.dxi}
    sidecar_path.write_text(json.dumps(sidecar) + "\n")


def read_field_csv(path) -> SpectralField:
    """Read a field written by write_field_csv, verifying the mode layout.

    The sidecar must give n as a JSON integer and xi_max and dxi as JSON
    numbers; the CSV must have the header, one row per mode with n + 2
    columns, and mode columns equal to the sidecar grid's.  Cells are
    parsed by ``float()``, so each value comes back bit for bit.
    """
    path = Path(path)
    sidecar_path = path.with_suffix(".json")
    if not sidecar_path.exists():
        raise ParameterError(f"missing grid sidecar {sidecar_path}")
    meta = json.loads(sidecar_path.read_text())
    try:
        n, xi_max, dxi = (meta[key] for key in ("n", "xi_max", "dxi"))
        # JSON numbers, n an integer: int() and float() would read 1.9, true or "1" as 1
        if type(n) is not int or {type(xi_max), type(dxi)} - {int, float}:
            raise TypeError
        xi_max, dxi = float(xi_max), float(dxi)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ParameterError(
            f"grid sidecar {sidecar_path} must give numbers n, xi_max and dxi"
        ) from exc
    # the row count is checked before the modes are built, so a sidecar
    # naming a huge grid fails without allocating them
    grid = make_grid(n, xi_max, dxi)
    lines = path.read_text().strip().splitlines()
    if not lines or lines[0] != _field_header(n):
        raise ParameterError(f"unexpected CSV header in {path}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != grid.num_modes:
        raise GridMismatchError(
            f"{path} has {len(rows)} rows but the sidecar grid has {grid.num_modes} modes"
        )
    for number, row in enumerate(rows, start=2):
        if len(row) != n + 2:
            raise ParameterError(
                f"line {number} of {path} has {len(row)} columns, expected {n + 2}"
            )
    data = np.array(rows, dtype=float)
    if not np.array_equal(data[:, :n], grid.modes):
        raise GridMismatchError(f"mode columns in {path} do not match the sidecar grid")
    # the planes are filled directly: data[:, n] + 1j * data[:, n + 1]
    # would turn -0.0 into 0.0
    coeffs = np.empty(grid.num_modes, dtype=complex)
    coeffs.real = data[:, n]
    coeffs.imag = data[:, n + 1]
    return SpectralField(grid, coeffs)
