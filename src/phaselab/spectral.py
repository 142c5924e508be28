"""Band-limited fields on symmetric frequency lattices.

A field lives purely in frequency space: one complex coefficient per mode
xi_j of the lattice {-M*dxi, ..., M*dxi}**n, which n, xi_max and dxi fix
(M = floor(xi_max/dxi)).  Integrals become finite quadrature sums with
weight dxi**n, so norms and synthesis are exact up to floating point.
Every reduction is exactly rounded: the result is the true sum of the
terms rounded once to the nearest double, so it does not depend on
summation order, runs or thread counts.

``csum`` sums every row of a 2-D block at once (a vector is a one-row
block) in two steps.  The split (``_split_sums``, where the proof lives)
splits each term once against a power of two by error-free extraction
(Rump, Ogita and Oishi, "Accurate floating-point summation part I",
2008): the high parts add up exactly in any order, the low parts are
added in floating point, and it leaves per row a high sum, a low sum and
an error bound.  The certificate (``_certify_sums``) adds them and keeps
the rounded total where the bound proves it the exactly-rounded sum, for
any number of rows at once.  Sums it cannot certify (ties and near-ties,
zeros, non-finite values, terms near overflow or below 2**-960) are
summed again from the original terms with ``math.fsum`` (Shewchuk 1997),
so both paths give the same bits; the rare rows whose partial sums
overflow ``fsum`` are summed exactly in integers and rounded once.
``csum`` only reads its input: it splits a contiguous copy.

``_wave_sums`` evaluates (2*pi)**(-n) * sum_j c_j e^{i x.xi_j} dxi**n for
rows c at points x (checked by ``_points``), the one sampler: a field for
``synthesize``, the evolved datum (``evaluate_shifted``) or residual h_k
(``pointwise_trace``) per time, each row formed with its block.  One wave
per point (``_waves``): the lattice's second half is the conjugate of
its first, since x.(-xi) = -(x.xi) exactly and libm's sin is odd and
its cos even, bit for bit.  The kernel exactly rounds every (row, point)
sum, splitting each block of at most ``BLOCK_BYTES`` of products where
``np.multiply`` wrote it and certifying the sums once at least 1,024 have
been split, at a block's end; a refused sum's products are formed again on
their own for ``fsum``.
Every product over the n <= 3 coordinates (x.xi, mu.xi, |xi|) goes
through ``_dot``, which adds them left to right elementwise, so no BLAS
kernel touches the bits.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

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


#: Cap on the bytes of complex products ``_wave_sums`` sums in one block
#: (one row at least), so a block grows with neither the row nor the point
#: count.  Its sums are certified in batches of ``BLOCK_BYTES >> 10``
#: (1,024), whose deferred low sums and bounds take 24 bytes a sum.
BLOCK_BYTES = 1 << 20

#: Unit roundoff of float64.
_U = 2.0**-53
#: Smallest positive subnormal; absorbs underflow in the error bound.
_TINY = 5e-324
#: Rows whose largest term is below 2**_MIN_EXPONENT go to ``math.fsum``,
#: so the split point and the error bound stay clear of the subnormal range.
_MIN_EXPONENT = -960
#: Widest row the extraction handles; M*(M+2) must stay below 2**54.
_MAX_WIDTH = 2**26
#: ``_split_sums`` splits rows whose largest terms lie within
#: _BAND + 1 binades of each other against one sigma; that loosens the
#: error bound by at most 2**_BAND.
_BAND = 4
#: Exact sums this large round to infinity: the midpoint between the
#: largest double and 2**1024.
_OVERFLOW = 2**1024 - 2**970


def _dot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a_1*b_1 + a_2*b_2 + ... over the last axis of two float arrays
    (broadcast), added left to right element by element, into ``out`` if
    given.  Unlike a BLAS product, its rounding does not depend on the CPU."""
    total = np.multiply(a[..., 0], b[..., 0], out=out)
    for i in range(1, a.shape[-1]):
        total += a[..., i] * b[..., i]
    return total


def _split_sums(x: np.ndarray, high, low, bound, split: np.ndarray) -> None:
    """The split step of the certified sums of the complex rows of x.

    ``x`` (rows, M, 2) is the interleaved layout ``np.multiply`` writes
    into a complex array: x[i, j] holds the real and imaginary parts of
    term j of row i.  The split works in place: it leaves x the low parts
    p and writes the high parts q into ``split`` (at least ``x.size``
    floats), and q + p equals the old x on every live row.  Per row it
    writes the complex sum of the high parts into ``high``, that of the
    low parts into ``low`` and the error bound of the low sum into
    ``bound`` (inf for a dead row): three caller-given arrays of ``rows``
    entries, which ``_certify_sums`` reads.  Runs under the caller's
    ``np.errstate``.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I", 2008).  For each row let 2**(e-1) <= max|x| < 2**e
    over both planes (from ``frexp`` of a contiguous max and min), let
    L = ceil(log2(M + 2)), and let sigma be any power of two with
    sigma >= 2**(e + L).  Then q = fl(fl(x + sigma) - sigma) is exact, q
    is a multiple of u*sigma (u = 2**-53), and p = x - q is exact with
    |p| <= u*sigma.  Every partial sum of the q of one plane, in any
    order, is a multiple of u*sigma no larger than M*(2**e + u*sigma) <=
    sigma (this needs M*(M+2) <= 2**54, so M <= 2**26), hence exact:
    t = sum(q) is exact whatever order numpy adds in.  The p sum
    P' = fl(sum(p)), in any order, errs by at most
    gamma_{M-1} * sum|p| <= 2*(M-1)*u * M*u*sigma < 2*M**2*u**2*sigma;
    bound = 4*M**2*u**2*sigma keeps a factor of 2 spare, and one subnormal
    covers the rounding of the bound when it underflows.  With
    r = fl(t + P') and its exact residual d (TwoSum), the exact sum lies
    within |d| + bound of r.  When that is strictly less than half the
    smaller gap from r to a neighbouring double, r is the exactly-rounded
    sum.  One sigma serves both planes of a row, since the row's e is at
    least each plane's; both sums run on a complex view of the q and the
    p, one ``sum(axis=1)`` each.

    Rows share sigma by bands, so the split adds and subtracts one Python
    float instead of broadcasting a sigma per row, which numpy runs row
    by row.  With top the largest e of the live rows, a row's band is
    the step of _BAND + 1 binades down from top that holds its e, and
    sigma = 2**(b + L) for the band's highest exponent b.  That sigma is
    at most 2**_BAND times the row's own 2**(e + L), so the bound is at
    most that much looser: a row is refused a little more often, and a
    certified result is still the exactly-rounded sum.  When every row is
    live and all fit the top band (every block of trace products does),
    which the block's largest and smallest peak decide as two Python
    floats, the whole block is split against one sigma; otherwise each run
    of adjacent rows in one band is split against its own.

    Dead rows join no band and both their planes are refused (``ok``
    false; their bound is inf): rows whose largest term is zero or not
    finite, rows with e <= _MIN_EXPONENT (near-subnormal rows) or
    e + L > 1023 (sigma would overflow), and every row when M > _MAX_WIDTH.
    Live rows are refused plane by plane when the test above fails (exact
    and near ties, and planes that sum to zero).
    """
    rows, m, _ = x.shape
    flat = x.reshape(rows, 2 * m)
    q = split[: x.size].reshape(rows, 2 * m)
    levels = (m + 1).bit_length()
    # ufunc reductions, not the array methods, save a wrapper call a block
    peak = np.maximum(np.maximum.reduce(flat, axis=1), -np.minimum.reduce(flat, axis=1))
    most, least = float(peak.max()), float(peak.min())
    top = math.frexp(most)[1]
    # comparisons with nan are false, so a block with a non-finite row
    # takes the band path, where that row is dead
    if least >= 2.0**_MIN_EXPONENT and most < 2.0 ** (1023 - levels) and m <= _MAX_WIDTH and (
        top - math.frexp(least)[1] <= _BAND
    ):
        sigma = math.ldexp(1.0, top + levels)
        np.add(flat, sigma, out=q)
        q -= sigma
        bound.fill(4.0 * m * m * _U * _U * sigma + _TINY)
    else:
        live = (peak >= 2.0**_MIN_EXPONENT) & (peak < 2.0 ** (1023 - levels)) & (m <= _MAX_WIDTH)
        e = np.frexp(peak)[1]
        top = int(e.max(where=live, initial=_MIN_EXPONENT))
        # dead rows get sigma 0, which leaves them unsplit
        e = top - (top - e) // (_BAND + 1) * (_BAND + 1)
        sigma = np.where(live, np.ldexp(1.0, e + levels), 0.0)
        edges = [0, *(np.flatnonzero(sigma[1:] != sigma[:-1]) + 1).tolist(), rows]
        for start, stop in zip(edges, edges[1:]):
            run = float(sigma[start])
            np.add(flat[start:stop], run, out=q[start:stop])
            q[start:stop] -= run
        np.copyto(bound, np.where(live, 4.0 * m * m * _U * _U * sigma + _TINY, math.inf))
    flat -= q
    np.add.reduce(q.view(complex), axis=1, out=high)
    np.add.reduce(flat.view(complex), axis=1, out=low)


def _certify_sums(high, low, bound, terms) -> np.ndarray:
    """The certificate of the sums ``_split_sums`` split, for n sums at once.

    ``high``, ``low`` and ``bound`` hold what ``_split_sums`` wrote for n
    sums.  Replaces each high sum by r = fl(high + low) and returns ``ok``
    (n, 2): whether r is the exactly-rounded sum, plane by plane.  Where
    it is not, plane c of sum j is taken again as the ``_fsum`` of plane c
    of ``terms(j)``, the original (M, 2) terms.  ``low`` is overwritten.
    Runs under the caller's ``np.errstate``.
    """
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
    t[...] = r
    # r becomes the half gap from |r| to the next double toward zero
    np.abs(r, out=r)
    r -= np.nextafter(r, 0.0, out=bb)
    r *= 0.5
    ok = p < r
    if not ok.all():
        for j in np.flatnonzero(~ok.all(axis=1)).tolist():
            planes = terms(j)
            for c in np.flatnonzero(~ok[j]).tolist():
                t[j, c] = _fsum(planes[:, c].tolist())
    return ok


def csum(values: np.ndarray):
    """Exactly-rounded complex sum of a vector, or of each row of a 2-D array.

    A 1-D input gives a complex number (it is summed as a one-row block);
    a 2-D input (rows, M) gives a complex array with one sum per row.
    ``values`` is only read: ``_split_sums`` splits a copy, and the rows
    ``_certify_sums`` cannot certify go to ``math.fsum``.
    """
    values = np.asarray(values)
    if values.ndim == 1:
        return complex(csum(values[None, :])[0])
    if values.ndim != 2:
        raise ParameterError(f"csum takes a 1-D or 2-D array, got {values.ndim}-D")
    if values.size == 0:
        return np.zeros(values.shape[0], dtype=complex)
    values = np.ascontiguousarray(values, dtype=complex)
    terms = values.view(float).reshape(values.shape + (2,))
    rows = len(values)
    r, low, bound = np.empty(rows, dtype=complex), np.empty(rows, dtype=complex), np.empty(rows)
    with np.errstate(invalid="ignore", over="ignore"):
        _split_sums(terms.copy(), r, low, bound, np.empty(terms.size))
        _certify_sums(r, low, bound, terms.__getitem__)
    return r


def _fsum(values: list) -> float:
    """``math.fsum``, also for rows whose partial sums overflow.

    ``fsum`` refuses a row of finite terms when a partial sum overflows,
    even if the exact sum is finite.  Such rows are summed exactly as
    integer multiples of 2**-1074 and rounded once (``int / int`` is
    correctly rounded); an exact sum at or beyond the midpoint between the
    largest double and 2**1024 rounds to infinity, as IEEE round-to-nearest
    does.  A row with non-finite terms sums to their IEEE sum, the
    infinity they share or nan (``fsum`` raises for inf and -inf).
    """
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
        """The (num_modes, n) modes in lexicographic order; reversed, they are negated."""
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


def sobolev_norm(field: SpectralField, s: float = 0.0) -> float:
    """Weighted spectral norm (sum_j (1+|xi_j|^2)^s |f_j|^2 dxi^n)**(1/2).

    s = 0 reduces to the discrete Plancherel (L2) norm.  The sum runs in
    the fixed mode order with exactly-rounded accumulation.
    """
    c = field.coefficients
    w = (1.0 + field.grid.radii**2) ** s
    total = _fsum(((c.real * c.real + c.imag * c.imag) * w).tolist())
    return math.sqrt(total * field.grid.weight)


def _products(rows: np.ndarray, waves: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The (rows, P, M) products of each coefficient row with each wave.
    The mode axis stays last and contiguous, so numpy forms every (row,
    point) product with the same loop over M, and a product formed on its
    own has the bits of its slice of a block."""
    return np.multiply(rows[:, None, :], waves[None, :, :], out=out)


def _waves(grid: FrequencyGrid, pts: np.ndarray) -> np.ndarray:
    """The (P, M) plane waves e^{i x.xi_j}, bit for bit ``np.exp(1j *
    _dot(pts[:, None, :], grid.modes))``, formed in place from the first
    ceil(M/2) modes: xi_{M-1-j} = -xi_j, so wave M-1-j is the conjugate of
    wave j, and adding +0.0 turns the -0 a zero phase leaves into the +0
    of ``1j * phase``."""
    num_modes = grid.num_modes
    half = (num_modes + 1) // 2
    waves = np.zeros((len(pts), num_modes), dtype=complex)
    _dot(pts[:, None, :], grid.modes[:half], out=waves.imag[:, :half])
    np.exp(waves[:, :half], out=waves[:, :half])
    np.conjugate(waves[:, : num_modes - half][:, ::-1], out=waves[:, half:])
    np.add(waves.imag, 0.0, out=waves.imag)
    return waves


def _wave_sums(grid: FrequencyGrid, pts: np.ndarray, num_rows: int, row) -> np.ndarray:
    """(2*pi)**(-n) * sum_j c_j e^{i x.xi_j} dxi**n for ``num_rows`` rows c,
    row i given by ``row(i)`` and read one block at a time, at each point x
    of the (P, n) array ``pts``: a (num_rows, P) array.

    The waves are formed once.  Each block of (row, point) products, at
    most ``BLOCK_BYTES``, is split in place by ``_split_sums`` in the layout
    ``np.multiply`` writes; its high sums go straight into the result, its
    low sums and bounds into buffers of one batch and one block.  Blocks
    cover the result in row-major order, and ``_certify_sums`` runs on the
    pending sums at the end of the first block that brings them to a batch
    of ``max(1, BLOCK_BYTES >> 10)`` (1,024 by default), and once more on
    the rest after the last block.  A refused sum's products are formed
    again on their own, from ``row(i)`` (so every row function must be
    pure) and the same multiply, and summed with ``_fsum``.  All buffers
    are allocated once.  Rows are formed under the loop's ``np.errstate``,
    so a row or product that overflows warns nothing; a product or a sum
    that is not finite at a finite wave raises ``ParameterError``.
    """
    num_modes, num_pts = grid.num_modes, len(pts)
    # a non-finite or overflowing point gives a NaN wave, so NaN sums;
    # forming the waves holds one (P, M/2) float temporary when n > 1
    with np.errstate(invalid="ignore", over="ignore"):
        waves = _waves(grid, pts)
    block_rows = max(1, BLOCK_BYTES // (16 * num_modes))
    p_step = max(1, min(num_pts, block_rows))
    r_step = max(1, block_rows // p_step)
    batch = max(1, BLOCK_BYTES >> 10)
    coeffs = np.empty((r_step, num_modes), dtype=complex)
    block_buf = np.empty(r_step * p_step * num_modes, dtype=complex)
    split = np.empty(2 * block_buf.size)
    sums = np.empty((num_rows, num_pts), dtype=complex)
    flat = sums.reshape(-1)
    # the low sums and bounds of the ``pending`` sums from flat[done] on,
    # split but not yet certified: less than a batch (or than all the
    # sums) before a block, plus that block
    low = np.empty(min(batch, sums.size) + r_step * p_step, dtype=complex)
    bound = np.empty(len(low))
    done = pending = 0

    def terms(j):
        i, p = divmod(j, num_pts)
        product = _products(np.asarray(row(i), dtype=complex)[None], waves[p : p + 1])
        if not np.isfinite(product).all() and np.isfinite(waves[p]).all():
            raise ParameterError(
                "coefficients too large to sample: their products with a plane wave overflow"
            )
        return product.view(float).reshape(num_modes, 2)

    def certify(start, count):
        high = flat[start : start + count]
        _certify_sums(high, low[:count], bound[:count], lambda j: terms(start + j))
        overflow = ~np.isfinite(high)
        if overflow.any():
            points = (start + np.flatnonzero(overflow)) % num_pts
            if np.isfinite(waves[points]).all(axis=1).any():
                raise ParameterError(
                    "coefficients too large to sample: a sum over the modes overflows"
                )

    with np.errstate(invalid="ignore", over="ignore"):
        for r0 in range(0, num_rows, r_step):
            rows = coeffs[: min(r_step, num_rows - r0)]
            for i in range(len(rows)):
                rows[i] = row(r0 + i)
            for p0 in range(0, num_pts, p_step):
                chunk = waves[p0 : p0 + p_step]
                size = len(rows) * len(chunk)
                block = block_buf[: size * num_modes].reshape(len(rows), len(chunk), num_modes)
                _products(rows, chunk, out=block)
                start = done + pending
                _split_sums(
                    block.view(float).reshape(size, num_modes, 2),
                    flat[start : start + size],
                    low[pending : pending + size],
                    bound[pending : pending + size],
                    split,
                )
                pending += size
                if pending >= batch:
                    certify(done, pending)
                    done, pending = done + pending, 0
        if pending:
            certify(done, pending)
    sums *= grid.weight / (2.0 * math.pi) ** grid.n
    return sums


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


def synthesize(field: SpectralField, x):
    """Evaluate (2*pi)**(-n) * sum_j e^{i x.xi_j} f_j dxi^n at physical points.

    ``x`` is one point (shape (n,), or a number when n = 1), which gives a
    complex number, or a (P, n) array of points, which gives P values.
    """
    pts, single = _points(field.grid, x)
    sums = _wave_sums(field.grid, pts, 1, lambda i: field.coefficients)[0]
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
    """
    path = Path(path)
    grid = field.grid
    c = field.coefficients
    modes = map(",".join, itertools.product(map(repr, grid.axis.tolist()), repeat=grid.n))
    rows = map(",".join, zip(modes, map(repr, c.real.tolist()), map(repr, c.imag.tolist())))
    path.write_text("\n".join([_field_header(grid.n), *rows]) + "\n")
    sidecar = {"n": grid.n, "xi_max": grid.xi_max, "dxi": grid.dxi}
    path.with_suffix(".json").write_text(json.dumps(sidecar) + "\n")


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
