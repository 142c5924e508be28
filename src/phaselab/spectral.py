"""Band-limited fields on symmetric frequency lattices.

A field lives purely in frequency space: a rectangular lattice of modes
xi_j with spacing dxi and one complex coefficient per mode.  Integrals
become finite quadrature sums with weight dxi**n, so norms and synthesis
are exact up to floating point.  Every reduction is exactly rounded: the
result is the true sum of the terms rounded once to the nearest double,
so it does not depend on summation order, runs or thread counts.

``csum`` sums every row of a 2-D block at once (a vector is a one-row
block).  It splits each row with error-free TwoSum steps
(Ogita, Rump and Oishi, "Accurate Sum and Dot Product", 2005), rounds
the result, and accepts it only when a rigorous error bound proves it is
the exactly-rounded sum; any row the bound cannot certify (ties, zeros,
non-finite values) is summed again with ``math.fsum`` (Shewchuk 1997),
so both paths give the same bits.  Callers keep blocks small:
``pointwise_trace`` caps each block at 1 MiB of complex products and
``synthesize`` at ``SYNTH_BLOCK_BYTES``.

``synthesize`` samples one field at one point, or a sequence of fields on
one grid at a (P, n) array of points.  Each point's plane wave is formed
once, by its own matrix-vector product ``modes @ x`` (a matrix product
over all points can round some phases differently), and every (field,
point) row is summed exactly before the common scale is applied.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

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


#: Cap on the bytes of complex products ``synthesize`` passes to one ``csum``
#: call (one row at least), so a block does not grow with the field or
#: point count.
SYNTH_BLOCK_BYTES = 1 << 17

#: Unit roundoff of float64.
_U = 2.0**-53
#: Smallest positive subnormal; absorbs underflow in the error bound.
_TINY = 5e-324


def _two_sum(a, b):
    """s + e == a + b exactly, with s = fl(a + b) (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    e = s - bb
    np.subtract(a, e, out=e)
    np.subtract(b, bb, out=bb)
    e += bb
    return s, e


def _certified_row_sums(x: np.ndarray):
    """Sums of x (rows, M, planes) over its mode axis, with a certificate.

    Returns ``(r, ok)``, both (rows, planes).  Where ``ok`` holds, ``r`` is
    the exactly-rounded sum; elsewhere the caller must sum again.

    A pairwise TwoSum cascade of R rounds leaves s and M-1 error terms e
    with s + sum(e) equal to the exact sum.  Each |e| is at most u times
    the |s| of its node, and the nodes of one round cover disjoint terms,
    so sum|e| <= R * u * (1+u)^R * sum|x|.  Adding the e in floating
    point errs by at most gamma_M * sum|e|.  For M*u << 1 that is below
    bound = 2 * (M+R) * R * u^2 * A, with A the computed sum of |x| over
    both planes; the factor 2 covers the rounding in A and in the bound,
    and one subnormal covers underflow.  With r = fl(s + sum(e)) and its
    exact residual d, the exact sum lies within |d| + bound of r.  When
    that is strictly less than half the smaller gap from r to a
    neighbouring double, r is the exactly-rounded sum.
    """
    # non-finite rows turn into inf/nan here; they fail the test and go to fsum
    with np.errstate(invalid="ignore", over="ignore"):
        m = n = x.shape[1]
        mag = np.abs(x).sum(axis=(1, 2))[:, None]
        err = None
        rounds = 0
        while n > 1:
            h = n // 2
            s, e = _two_sum(x[:, :h], x[:, h : 2 * h])
            if err is not None:
                e += err[:, :h]
                e += err[:, h : 2 * h]
            if n % 2:
                # fold the unpaired last column into the first sum
                s0, e0 = _two_sum(s[:, 0], x[:, -1])
                s[:, 0] = s0
                e[:, 0] += e0
                if err is not None:
                    e[:, 0] += err[:, -1]
                rounds += 1
            x, err, n = s, e, h
            rounds += 1
        s = x[:, 0]
        r, d = _two_sum(s, err[:, 0] if err is not None else np.zeros_like(s))
        bound = (2.0 * (m + rounds) * rounds * _U * _U) * mag + _TINY
        half_gap = np.abs(r)
        half_gap -= np.nextafter(half_gap, 0.0)
        half_gap *= 0.5
        np.abs(d, out=d)
        d += bound
        return r, (d < half_gap) & np.isfinite(r)


def csum(values: np.ndarray):
    """Exactly-rounded complex sum of a vector, or of each row of a 2-D array.

    A 1-D input gives a complex number (it is summed as a one-row block);
    a 2-D input (rows, M) gives a complex array with one sum per row.
    Rows are summed together by the certified batched kernel; rows it
    cannot certify go to ``math.fsum``.
    """
    values = np.asarray(values)
    if values.ndim == 1:
        return complex(csum(values[None, :])[0])
    if values.ndim != 2:
        raise ParameterError(f"csum takes a 1-D or 2-D array, got {values.ndim}-D")
    if values.shape[1] == 0:
        return np.zeros(values.shape[0], dtype=complex)
    values = np.ascontiguousarray(values, dtype=complex)
    planes = values.view(float).reshape(values.shape[0], values.shape[1], 2)
    r, ok = _certified_row_sums(planes)
    for i, c in zip(*np.nonzero(~ok)):
        r[i, c] = math.fsum(planes[i, :, c].tolist())
    return r.view(complex)[:, 0]


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Symmetric rectangular lattice of frequency modes in dimension n."""

    n: int
    xi_max: float
    dxi: float
    modes: np.ndarray  # (num_modes, n), lexicographically ordered

    @property
    def weight(self) -> float:
        """Quadrature weight per mode, dxi**n."""
        return self.dxi**self.n

    @property
    def num_modes(self) -> int:
        return self.modes.shape[0]

    @cached_property
    def radii(self) -> np.ndarray:
        """|xi_j| for every mode, in mode order."""
        r = np.sqrt(np.einsum("ij,ij->i", self.modes, self.modes))
        r.setflags(write=False)
        return r

    @property
    def extent(self) -> float:
        """Largest axis coordinate present on the lattice."""
        return float(np.max(np.abs(self.modes))) if self.num_modes else 0.0


def make_grid(n: int, xi_max: float, dxi: float) -> FrequencyGrid:
    """Build the lattice {-M*dxi, ..., 0, ..., M*dxi}**n with M = floor(xi_max/dxi).

    The lattice is symmetric about the origin, duplicate-free, and ordered
    lexicographically.
    """
    if n not in (1, 2, 3):
        raise ParameterError(f"dimension must be 1, 2 or 3, got {n}")
    if not (math.isfinite(xi_max) and xi_max > 0):
        raise ParameterError(f"xi_max must be positive, got {xi_max}")
    if not (math.isfinite(dxi) and 0 < dxi <= xi_max):
        raise ParameterError(f"dxi must lie in (0, xi_max], got {dxi}")
    m = int(math.floor(xi_max / dxi + 1e-9))
    axis = dxi * np.arange(-m, m + 1, dtype=float)
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    modes = np.stack([g.ravel() for g in mesh], axis=-1)
    modes.setflags(write=False)
    return FrequencyGrid(n=int(n), xi_max=float(xi_max), dxi=float(dxi), modes=modes)


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
    total = math.fsum((c.real * c.real + c.imag * c.imag) * w)
    return math.sqrt(total * field.grid.weight)


def synthesize(field, x):
    """Evaluate (2*pi)**(-n) * sum_j e^{i x.xi_j} f_j dxi^n at physical points.

    ``field`` is one SpectralField or a sequence of fields on one grid; ``x``
    is one point (shape (n,), or a number when n = 1) or a (P, n) array of
    points.  One field at one point gives a complex number; otherwise the
    result is a complex array with a field axis (for a sequence) followed
    by a point axis (for a (P, n) array).
    """
    one_field = isinstance(field, SpectralField)
    fields = [field] if one_field else list(field)
    if not fields:
        raise ParameterError("synthesize needs at least one field")
    grid = fields[0].grid
    if any(f.grid is not grid for f in fields):
        raise GridMismatchError("the fields to synthesize must share one grid")
    pts = np.asarray(x, dtype=float)
    single = pts.ndim <= 1
    if single:
        pts = np.atleast_1d(pts)
        if pts.shape != (grid.n,):
            raise ParameterError(f"point has shape {pts.shape}, expected ({grid.n},)")
        pts = pts.reshape(1, grid.n)
    elif pts.ndim != 2 or pts.shape[1] != grid.n:
        raise ParameterError(f"points have shape {pts.shape}, expected (P, {grid.n})")
    num_modes, num_pts = grid.num_modes, pts.shape[0]
    coeffs = np.stack([f.coefficients for f in fields])
    # each csum call sums one block of (field, point) rows: all fields
    # against one chunk of points, or whole chunks of fields per point
    # chunk when the points fit; a chunk's waves are formed once and kept
    # only while its blocks are summed
    block_rows = max(1, SYNTH_BLOCK_BYTES // (16 * num_modes))
    p_step = max(1, min(num_pts, block_rows))
    t_step = max(1, block_rows // p_step)
    sums = np.empty((len(fields), num_pts), dtype=complex)
    for p0 in range(0, num_pts, p_step):
        chunk = pts[p0 : p0 + p_step]
        waves = np.empty((len(chunk), num_modes), dtype=complex)
        for i, point in enumerate(chunk):
            waves[i] = np.exp(1j * (grid.modes @ point))
        for t0 in range(0, len(fields), t_step):
            # the mode axis stays last and contiguous, so numpy forms each
            # product with the same loop as a single coefficient * wave
            block = coeffs[t0 : t0 + t_step, None, :] * waves[None, :, :]
            sums[t0 : t0 + t_step, p0 : p0 + p_step] = csum(
                block.reshape(-1, num_modes)
            ).reshape(block.shape[:2])
    sums *= grid.weight / (2.0 * math.pi) ** grid.n
    if one_field:
        sums = sums[0]
    if single:
        sums = sums[..., 0]
    return complex(sums) if sums.ndim == 0 else sums


def random_field(grid: FrequencyGrid, rng) -> SpectralField:
    """Field with i.i.d. standard complex Gaussian coefficients."""
    if not hasattr(rng, "standard_normal"):
        rng = np.random.default_rng(rng)
    coeffs = rng.standard_normal(grid.num_modes) + 1j * rng.standard_normal(grid.num_modes)
    return SpectralField(grid, coeffs)


def write_field_csv(field: SpectralField, path) -> None:
    """Write the field as CSV (xi_1,...,xi_n,re,im) plus a JSON grid sidecar."""
    path = Path(path)
    grid = field.grid
    header = [f"xi_{i + 1}" for i in range(grid.n)] + ["re", "im"]
    lines = [",".join(header)]
    for mode, c in zip(grid.modes, field.coefficients):
        row = [repr(float(v)) for v in mode] + [repr(float(c.real)), repr(float(c.imag))]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")
    sidecar = {"n": grid.n, "xi_max": grid.xi_max, "dxi": grid.dxi}
    path.with_suffix(".json").write_text(json.dumps(sidecar) + "\n")


def read_field_csv(path) -> SpectralField:
    """Read a field written by write_field_csv, verifying the mode layout."""
    path = Path(path)
    sidecar_path = path.with_suffix(".json")
    if not sidecar_path.exists():
        raise ParameterError(f"missing grid sidecar {sidecar_path}")
    meta = json.loads(sidecar_path.read_text())
    grid = make_grid(int(meta["n"]), float(meta["xi_max"]), float(meta["dxi"]))
    lines = path.read_text().strip().splitlines()
    expected_header = ",".join([f"xi_{i + 1}" for i in range(grid.n)] + ["re", "im"])
    if not lines or lines[0] != expected_header:
        raise ParameterError(f"unexpected CSV header in {path}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != grid.num_modes:
        raise GridMismatchError(
            f"{path} has {len(rows)} rows but the sidecar grid has {grid.num_modes} modes"
        )
    data = np.array([[float(v) for v in row] for row in rows])
    if not np.array_equal(data[:, : grid.n], grid.modes):
        raise GridMismatchError(f"mode columns in {path} do not match the sidecar grid")
    coeffs = data[:, grid.n] + 1j * data[:, grid.n + 1]
    return SpectralField(grid, coeffs)
