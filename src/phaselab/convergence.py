"""Summability classification of time sequences and convergence experiments.

A time sequence {t_k} decreasing to 0 qualifies for almost-everywhere
pointwise recovery of the datum when the sum over k of the squared
multiplier envelopes is finite.  Each convergence criterion names a row of
``multipliers.REGIMES`` (``boussinesq`` and ``quartic`` are aliases of
``gamma`` with that catalog law); a row's envelope delta**e makes the
condition sum t_k**q < infinity with q = 2e.  ``required_exponent`` gives
it as a power sum or, for the gamma rows, a gamma-sum with an explicit
summand; the aliases stay power sums, t**q with their gamma row's q.
``sequence_applicable`` decides membership exactly for symbolic
sequences.

The criteria only assert sufficiency: a "no" decision means the
hypotheses are not satisfied, never that the error sum diverges.

``rate_fit`` is the second verdict on a ``multipliers.sweep``: it checks
the measured sup-norm decay against the envelope exponent on a log-log
least-squares fit, computed exactly in rationals and rounded once.
``pointwise_trace`` sums |h_k(x)|^2 over k at sample points, together
with an explicit bound on the truncated tail.  It prints only the running
sums, and ``_square_sums`` certifies them from one BLAS product a batch of
rows and a proven error radius: a h_k(x) is summed exactly, by spectral's
one wave reduction, only where the radius leaves a rounding step of the
running sum open, so the bytes are those of every h_k(x) summed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .errors import NotApplicableError, ParameterError
from .multipliers import (
    REGIMES,
    Family,
    MultiplierSpec,
    Sweep,
    check_reads,
    regime,
    sweep,
)
from .phase_laws import BOUSSINESQ, QUARTIC, PhaseLaw
from .propagation import ShiftSpec, _angles, _checked, _fold, _phase_bound
from .spectral import (BLOCK_BYTES, SpectralField, _fold_waves, _fsum, _points, _ufunc_buffer,
                       _unscale, _wave_sums)

__all__ = [
    "Applicability",
    "ConvergenceCriterion",
    "DEFAULT_K_MAX",
    "DEFAULT_NUM_POINTS",
    "DEFAULT_SEED",
    "RateReport",
    "SummabilityCondition",
    "TimeSequence",
    "TraceResult",
    "default_points",
    "envelope_log_slope",
    "parse_sequence",
    "pointwise_trace",
    "rate_fit",
    "required_exponent",
    "sequence_applicable",
]

#: Seed and size of the documented default sample points, and the terms
#: a trace sums by default.
DEFAULT_SEED = 1729
DEFAULT_NUM_POINTS = 32
DEFAULT_K_MAX = 2048

@dataclass(frozen=True)
class TimeSequence:
    """Symbolic description of a sequence t_k in (0,1) decreasing to 0.

    Kinds: ``power`` with t_k = (k+1)**(-p) (shifted by one so every term
    stays strictly below 1), ``geometric`` with t_k = r**k, and
    ``explicit`` for a finite decreasing list.
    """

    kind: str
    p: float | None = None
    r: float | None = None
    values: tuple | None = None

    def __post_init__(self):
        if self.kind == "power":
            if self.p is None or not (np.isfinite(self.p) and self.p > 0):
                raise ParameterError(f"power sequence requires p > 0, got {self.p}")
        elif self.kind == "geometric":
            if self.r is None or not (0.0 < self.r < 1.0):
                raise ParameterError(f"geometric ratio must lie in (0,1), got {self.r}")
        elif self.kind == "explicit":
            vals = tuple(float(v) for v in (self.values or ()))
            if not vals or any(not (0.0 < v < 1.0) for v in vals):
                raise ParameterError("explicit terms must lie in (0, 1)")
            if any(b >= a for a, b in zip(vals, vals[1:])):
                raise ParameterError("explicit terms must be strictly decreasing")
            object.__setattr__(self, "values", vals)
        else:
            raise ParameterError(f"unknown sequence kind {self.kind!r}")

    @staticmethod
    def power(p: float) -> "TimeSequence":
        return TimeSequence(kind="power", p=float(p))

    @staticmethod
    def geometric(r: float) -> "TimeSequence":
        return TimeSequence(kind="geometric", r=float(r))

    @staticmethod
    def explicit(values) -> "TimeSequence":
        return TimeSequence(kind="explicit", values=tuple(values))

    def terms(self, k_max: int) -> np.ndarray:
        """First k_max terms t_1..t_K (fewer for a short explicit list)."""
        if k_max < 1:
            raise ParameterError(f"k_max must be positive, got {k_max}")
        k = np.arange(1, k_max + 1, dtype=float)
        if self.kind == "power":
            return (k + 1.0) ** (-self.p)
        if self.kind == "geometric":
            return self.r**k
        return np.asarray(self.values[:k_max], dtype=float)

    def describe(self) -> str:
        if self.kind == "power":
            return f"power:p={self.p:g}"
        if self.kind == "geometric":
            return f"geometric:r={self.r:g}"
        return f"explicit[{len(self.values)}]"


def parse_sequence(text: str) -> TimeSequence:
    """Parse ``power:p=2``, ``geometric:r=0.5`` or ``explicit:0.5,0.25,...``."""
    text = text.strip().lower()
    if text.startswith("power:p="):
        return TimeSequence.power(float(text.split("=", 1)[1]))
    if text.startswith("geometric:r="):
        return TimeSequence.geometric(float(text.split("=", 1)[1]))
    if text.startswith("explicit:"):
        return TimeSequence.explicit(float(v) for v in text.split(":", 1)[1].split(","))
    raise ParameterError(f"unknown sequence {text!r}")


class ConvergenceCriterion(str, Enum):
    """Sufficient conditions for a.e. recovery along {t_k}: the regime rows."""

    POWER_HIGH = "power-high"
    POWER_LOW = "power-low"
    POWER_SHIFT_SUB = "power-shift-sub"
    POWER_SHIFT_SUPER = "power-shift-super"
    GAMMA = "gamma"
    GAMMA_SHIFT = "gamma-shift"
    BOUSSINESQ = "boussinesq"  # gamma with the boussinesq law
    QUARTIC = "quartic"  # gamma with the quartic law


#: The criteria that name the gamma row with a catalog law.
_ALIAS_LAWS = {ConvergenceCriterion.BOUSSINESQ: BOUSSINESQ, ConvergenceCriterion.QUARTIC: QUARTIC}


@dataclass(frozen=True)
class SummabilityCondition:
    """The sum a criterion requires to be finite: sum_k t_k**q as a
    ``power-sum``, or a ``gamma-sum`` of the callable ``summand``.

    ``q`` is the power the summand decays with: 2e, with e the row's
    envelope exponent.
    """

    criterion: ConvergenceCriterion
    q: float
    summand: Callable | None = None

    @property
    def form(self) -> str:
        return "power-sum" if self.summand is None else "gamma-sum"


def required_exponent(
    criterion: ConvergenceCriterion,
    *,
    s: float,
    a: float | None = None,
    beta: float | None = None,
    law: PhaseLaw | None = None,
    strict: bool = True,
) -> SummabilityCondition:
    """The summability condition of a criterion's regime row: the sum of the
    squared envelope, sum_k t_k**q with q = 2 * the row's envelope exponent.

    Raises ParameterError when s, a or beta lies outside its domain, when a
    parameter the row reads is missing or one it does not read is given
    (``multipliers.check_reads``), and (strict mode) HypothesisViolation naming
    the failed inequality when the parameters fall outside the row's range
    or, in a gamma row, the law is not eligible (``Regime.check``).
    A gamma-sum's summand raises ParameterError naming the first term t at
    which g(1)/t overflows.
    """
    criterion = ConvergenceCriterion(criterion)
    row = REGIMES["gamma" if criterion in _ALIAS_LAWS else criterion.value]
    reads = () if criterion in _ALIAS_LAWS else row.family.reads
    check_reads(criterion.value, reads, s, a=a, beta=beta, law=law)
    p = SimpleNamespace(s=s, a=a, beta=beta, law=_ALIAS_LAWS.get(criterion, law))
    if strict:
        row.check(p)
    e = row.exponent(p)
    # an alias's summand is within constant factors of t**q (its law's
    # inverse grows like y**rho), so it sums t**q and inverts nothing
    if not row.family.uses_law or criterion in _ALIAS_LAWS:
        return SummabilityCondition(criterion, 2.0 * e)
    law, g1, t_power = p.law, float(p.law(1.0)), 2.0 * row.delta_power(p)

    def summand(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            y = g1 / t
        if not np.isfinite(y).all():
            term = float(t[~np.isfinite(y)].flat[0])
            raise ParameterError(f"g(1)/t overflows for {law.name} at the term t={term!r}")
        return t**t_power * law.inverse(y) ** (-2.0 * s)

    return SummabilityCondition(criterion, 2.0 * e, summand)


@dataclass(frozen=True)
class Applicability:
    decision: str  # "yes" | "no" | "unknown"
    reason: str


def sequence_applicable(seq: TimeSequence, cond: SummabilityCondition) -> Applicability:
    """Decide whether {t_k} satisfies a criterion's summability condition.

    Exact for symbolic sequences, from the summand's decay exponent q:
    power sequences qualify iff p*q > 1 and geometric sequences qualify
    for every positive exponent.  Explicit lists fall back to
    partial sums over all their terms, answering "unknown"
    unless they visibly stabilize.  A summand that is not finite at some
    term, or a partial sum that overflows, raises ParameterError naming
    the term or the partial sum.
    """
    q = cond.q

    if seq.kind == "power":
        product = seq.p * q
        if product > 1.0:
            return Applicability("yes", f"p*q = {product:g} > 1, the power sum converges")
        return Applicability("no", f"p*q = {product:g} <= 1, the power sum diverges")

    if seq.kind == "geometric":
        if q > 0.0:
            return Applicability("yes", f"terms decay geometrically like r**(k*q) with q = {q:g} > 0")
        return Applicability("no", f"nonpositive exponent q = {q:g}")

    # numeric fallback: explicit lists
    t = seq.terms(len(seq.values))
    with np.errstate(over="ignore", invalid="ignore"):
        g = t**q if cond.summand is None else cond.summand(t)
    if not np.isfinite(g).all():
        term = float(t[~np.isfinite(g)][0])
        raise ParameterError(
            f"the summand of {cond.criterion.value} is not finite at the term t={term!r}"
        )
    counts = (max(1, len(g) // 10), len(g))
    head, total = (_fsum(g[:count].tolist()) for count in counts)
    if total == math.inf:
        count = counts[0] if head == math.inf else counts[1]
        raise ParameterError(
            f"the partial sum of the first {count} terms of {cond.criterion.value} overflows"
        )
    growth = total - head
    span = f"{growth:.3e} over the last decade of K={len(g)}"
    if growth < 1e-6:
        return Applicability("yes", f"partial sums stabilized (grew {span})")
    return Applicability("unknown", f"partial sums still growing ({span})")


def envelope_log_slope(template: MultiplierSpec) -> float:
    """d log(envelope) / d log(delta), the theoretical sup-norm decay rate:
    the exponent of the template's regime row, in closed form."""
    return regime(template.family, template.a).exponent(template)


@dataclass(frozen=True)
class RateReport:
    """Verdict on a delta sweep: does log sup|m| fall with the envelope's slope?"""

    sweep: Sweep
    fitted_slope: float
    theoretical_slope: float
    residual: float
    passed: bool


def _line_fit(x, y) -> tuple:
    """Slope and root mean square residual of the least-squares line through
    the points (x_i, y_i).  The closed form is evaluated exactly in rationals
    and the slope and mean squared residual are each rounded once, so no
    CPU-dependent LAPACK kernel is involved."""
    x = [Fraction(v) for v in np.asarray(x, dtype=float).tolist()]
    y = [Fraction(v) for v in np.asarray(y, dtype=float).tolist()]
    n, sx, sy = len(x), sum(x), sum(y)
    slope = (n * sum(a * b for a, b in zip(x, y)) - sx * sy) / (n * sum(a * a for a in x) - sx * sx)
    intercept = (sy - slope * sx) / n
    mean_sq = sum((b - slope * a - intercept) ** 2 for a, b in zip(x, y)) / n
    return float(slope), math.sqrt(float(mean_sq))


def rate_fit(template: MultiplierSpec, deltas, strict: bool = True) -> RateReport:
    """Least-squares slope of log sup|m| against log delta vs the envelope rate.

    Passes iff |fitted - theoretical| <= 0.05.  strict=False skips the
    parameter-range checks of the envelope, as in ``certify``.
    """
    deltas = sorted(float(d) for d in deltas)
    if len(deltas) < 5:
        raise ParameterError("rate fit needs at least 5 delta values")
    if not all(1e-10 < d < 1e-1 for d in deltas):
        raise ParameterError("rate-fit deltas must lie in (1e-10, 1e-1)")
    if deltas[-1] / deltas[0] < 1e4 * (1.0 - 1e-9):
        raise ParameterError("rate-fit deltas must span at least four decades")
    result = sweep(template, deltas, strict)
    sups = [scan.sup for scan in result.scans]
    slope, residual = _line_fit(np.log(np.asarray(deltas)), np.log(np.asarray(sups)))
    theoretical = float(envelope_log_slope(template))
    return RateReport(result, slope, theoretical, residual, abs(slope - theoretical) <= 0.05)


def _matching_criterion(law: PhaseLaw, shift: ShiftSpec | None, s: float):
    """Pick the criterion covering a propagation setup, with its parameters.

    A plain power law takes the first of power-low, power-high and gamma
    whose hypotheses hold; every other setup takes its family's row.
    """
    p = SimpleNamespace(s=s, a=law.power, beta=None if shift is None else shift.beta, law=law)
    if law.power is None:
        row = regime(Family.GAMMA if shift is None else Family.GAMMA_SHIFT)
    elif shift is not None:
        row = regime(Family.POWER_SHIFT, law.power)
    else:
        rows = [REGIMES[name] for name in ("power-low", "power-high", "gamma")]
        row = next((row for row in rows if all(h(p) for h in row.hypotheses.values())), None)
        if row is None:
            raise ParameterError(f"no plain-phase criterion covers s={s}, a={law.power}")
    return ConvergenceCriterion(row.name), {"s": s, **{k: getattr(p, k) for k in row.family.reads}}


@dataclass(frozen=True)
class TraceResult:
    """Partial sums sum_{k<=K} |h_k(x)|^2 per sample point, plus a tail bound."""

    points: np.ndarray  # (P, n)
    partial_sums: np.ndarray  # (P,)
    tail: float | None
    k_max: int


def default_points(n: int, count: int = DEFAULT_NUM_POINTS, seed: int = DEFAULT_SEED) -> np.ndarray:
    """The documented default sample set: uniform points in [-pi, pi]**n."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-math.pi, math.pi, size=(count, n))


def _tail_sum(seq: TimeSequence, x: float, k_max: int) -> float:
    """sum_{k>K} t_k**(2x), K = k_max, or a bound on it, for a symbolic
    sequence: x = 1 for the phase, beta for the drift.

    Geometric: rho**(K+1) / (1 - rho), rho = r**(2x).  Where 2x = m is an
    integer (the phase, beta = 1.5), that is the exact rational num**n /
    (den**(n-m) (den**m - num**m)), r = num/den and n = m (K+1), rounded
    once (``int / int`` rounds correctly), so rho's rounding is not raised
    to the power K+1; it is +0 where r**n < 2**-1140, as 1 - r**m >= 2**-53
    puts the sum below 2**-1087.  Otherwise rho is taken one double up
    (pow is faithful), so its rounding, grown K+1-fold, errs upward.
    Power: sum_{k>K} (k+1)**(-c) <= (K+1)**(1-c) / (c-1), c = 2px.
    """
    if seq.kind != "geometric":
        c = 2.0 * seq.p * x
        return (k_max + 1.0) ** (1.0 - c) / (c - 1.0) if c > 1.0 else math.inf
    if not (2.0 * x).is_integer():
        rho = math.nextafter(seq.r ** (2.0 * x), math.inf)
        return rho ** (k_max + 1) / (1.0 - rho) if rho < 1.0 else math.inf
    m, n = int(2.0 * x), int(2.0 * x) * (k_max + 1)
    num, den = seq.r.as_integer_ratio()
    return 0.0 if n * -math.log2(seq.r) > 1140 else num**n / (den ** (n - m) * (den**m - num**m))


def _tail_bound(field: SpectralField, fold, seq: TimeSequence, k_max: int):
    """Explicit bound on sum_{k>K} ||h_k||_inf^2 for symbolic sequences (maxima from the fold)."""
    if seq.kind == "explicit":
        return None
    # not mass * grid.synthesis_scale: the tail is printed, and that association
    # rounds many masses differently (1,802 of 6,000 random masses and grids)
    mass = _fsum(np.abs(field.coefficients).tolist()) * field.grid.weight / (2.0 * math.pi) ** field.grid.n
    # squares by one rounded product, inf past the double range (libm's pow
    # need not round x**2 correctly, and float ** raises there)
    g = mass * fold.gmax
    tail_sq = g * g * _tail_sum(seq, 1.0, k_max)
    if fold.shift is not None:
        p = mass * fold.pmax
        tail_sq = 2.0 * tail_sq + 2.0 * (p * p) * _tail_sum(seq, fold.shift.beta, k_max)
    return tail_sq


def _squares(z: np.ndarray) -> np.ndarray:
    """re*re + im*im of a complex array: the square the trace sums."""
    return z.real * z.real + z.imag * z.imag


def _square_sums(waves: np.ndarray, unscale: tuple, num_rows: int, fill) -> np.ndarray:
    """np.cumsum(|s|**2, axis=0)[-1], bit for bit, for the (num_rows, P) sums
    s = ``_wave_sums(waves, unscale, num_rows, ...)``: at each point, the
    squares re*re + im*im added in row order.  ``fill(ks, out)`` writes the
    rows of the 1-D index array ``ks`` into ``out``; it must be pure.

    Only these running sums are printed, and a late row's square, far below
    them, moves them through one rounding step, so most sums need not be
    exact.  The rows are filled a batch of max(1, (BLOCK_BYTES >> 3) //
    (16 F)) at a time and multiplied by the (P, F) waves with BLAS, a =
    rows @ waves.T, one product a batch.  BLAS never supplies an output
    bit: it only decides which sums are summed exactly.

    Certificate.  u = 2**-53, gamma_n = n u / (1 - n u).  The one
    assumption about BLAS is that each part of a is some sum of the 2F real
    products of a row's and a wave's parts, each rounded or fused into an
    addition, in any order: any kernel, thread count or FMA, but not a
    Strassen or 3M product.  It then lies within gamma_2F sum |r||G| + F
    2**-1074 of their exact sum (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, section 3.1; the second term
    bounds the subnormal roundings).  ``_wave_sums`` rounds exactly the sum
    T of the products r_c G_c as numpy forms them, each part within gamma_2
    (|.| + |.|) + 2**-1074 of its exact value, fused or not.  By
    Cauchy-Schwarz over the 2F parts, sum |r||G| <= ||r|| ||G|| for either
    part, so |a - T| <= gamma_{2F+2} ||r|| ||G|| + F 2**-1073.  The radius
    rad = fl(fl(n(r) fl(c n(G))) + F 2**-1070), with the double c = (2F +
    2) u (1 + 2**-20) and n(x) = fl(fl(sqrt(s)) + 2**-511), s the sum of
    the 2F squared parts of x in any order, is at least that for F <=
    2**26.  s >= (1 - gamma_2F) ||x||**2 - F 2**-1074, and (sqrt(s) +
    2**-511)**2 >= s + 2**-1022 covers the subnormal term, so n(x) >=
    ||x|| (1 - 2**-25); the factor 1 + 2**-20 covers both norms, the three
    roundings of rad and gamma's 1 / (1 - (2F + 2) u), and the room in F
    2**-1070 the roundings of rad in the subnormal range.
    So T lies in [a - rad, a + rad].  Rounding is monotone, so the exactly
    rounded sum lies between lo and hi, fl(a - rad) one double down and
    fl(a + rad) one double up (formed as -lo, from fl(rad - a) one double
    up); the unscaled sum between lo and hi unscaled (``_unscale``,
    monotone, which for a finite sum gives the magnitude of the complex
    multiply ``_wave_sums`` applies); each of fl(re*re) and fl(im*im)
    between the squares of the least and the largest magnitude in its
    interval, so the square q_k between q_lo and q_hi, the rounded sums of
    those; and each running sum S_k = fl(S_{k-1} + q_k) between the running
    sums of the q_lo and of the q_hi.  Where those two agree at the last
    row, S_K is their value.

    A row is summed exactly (``_wave_sums`` over the index array of such
    rows) where some point leaves its step open, fl(prev + q_lo) != fl(prev
    + q_hi) with prev the running sum of the q_lo, or where an end is not
    finite (a NaN or infinite product or radius, or an end that overflows
    once unscaled), which is never certified: so a point that is not
    finite gets NaN, and a sum that overflows raises ``ParameterError``,
    both from ``_wave_sums``.  Its q_lo = q_hi is then the exact square.  A
    point whose two running sums still differ at the last row (the rows
    were chosen from the q_lo alone) has its whole column summed exactly,
    which settles it: two exact passes at most.  A NaN running sum of the
    q_lo comes from an exact NaN square, and is the point's sum.
    """
    num_pts, num_modes = waves.shape
    batch = max(1, (BLOCK_BYTES >> 3) // (16 * num_modes))
    # c n(G) of each wave, once for each part of its sums
    c = (2 * num_modes + 2) * 2.0**-53 * (1.0 + 2.0**-20)
    wave_norms = np.repeat(c * (np.sqrt(np.vecdot(waves, waves).real) + 2.0**-511), 2)
    # q_lo and q_hi of the rows, after a row 0 of zeros that leaves every running sum's bits
    bounds = np.zeros((2, num_rows + 1, num_pts))
    with _ufunc_buffer():
        for k in range(0, num_rows, batch):
            formed = np.empty((min(batch, num_rows - k), num_modes), dtype=complex)
            fill(np.arange(k, k + len(formed)), formed)
            rad = np.multiply.outer(np.sqrt(np.vecdot(formed, formed).real) + 2.0**-511, wave_norms)
            rad += num_modes * 2.0**-1070
            # -lo and hi: fl(rad - a) = -fl(a - rad), and one double up is one down negated
            ends = np.multiply.outer([-1.0, 1.0], np.matmul(formed, waves.T).view(float)) + rad
            _unscale(np.nextafter(ends, np.inf, out=ends), unscale)
            large = ends.max(axis=0).view(complex)
            bounds[0, k + 1 : k + 1 + len(formed)] = _squares(np.maximum(-ends.min(axis=0), 0.0).view(complex))
            bounds[1, k + 1 : k + 1 + len(formed)] = np.where(np.isfinite(large), _squares(large), np.nan)
        lower = np.cumsum(bounds[0], axis=0)
        exact = np.flatnonzero((lower[1:] != lower[:-1] + bounds[1, 1:]).any(axis=1))
        del lower  # before the exact kernel allocates its buffers
        bounds[:, exact + 1] = _squares(_wave_sums(waves, unscale, exact.size,
                                                   lambda i, out: fill(exact[i : i + len(out)], out)))
        low, high = np.cumsum(bounds, axis=1, out=bounds)[:, -1]
        cols = np.flatnonzero(~((low == high) | np.isnan(low)))
        if cols.size:
            sums = _wave_sums(waves[cols], unscale, num_rows, lambda i, out: fill(np.arange(i, i + len(out)), out))
            low[cols] = np.cumsum(_squares(sums), axis=0)[-1]
    return low


def pointwise_trace(
    field: SpectralField,
    law: PhaseLaw,
    seq: TimeSequence,
    s: float,
    points,
    k_max: int = DEFAULT_K_MAX,
    shift: ShiftSpec | None = None,
) -> TraceResult:
    """Accumulate sum_{k<=K} |h_k(x)|^2 at each sample point in fixed k order.

    Refuses to run unless the sequence satisfies the summability condition
    of the matching criterion.  The sums are nondecreasing in K; the tail
    bounds the discarded remainder through the band-limited sup estimate
    ||h_k||_inf <= (2*pi)^(-n) * sup_j |e^{i theta_j} - 1| * sum_j |f_j| dxi^n.

    Only the rows up to the last whose bound b_k = fl(4 F w 2**e) * P_k
    reaches 2**-539 are formed: F the fold's width and (w, e) the unscale
    of the folded waves G (``spectral._fold_waves``), every part of which,
    a product of up to n unit waves with folds between, is below 1/2 (1 +
    22u), u = 2**-53, and P_k the ``_phase_bound`` of t_k, at
    least every computed |theta_j| (to an ulp of t**beta).  Past it, each
    part of a row's sums is below 2**-538, so its square rounds to +0 and
    leaves the running sum's bits.
    |fl(sin theta)| <= |theta| (faithful, at a double theta), and
    |fl(cos theta) - 1| <= 2|theta|, since |cos theta - 1| <= |theta| and
    cos theta rounds to 1 where |theta| < 2**-27 (it lies within 2**-55 of
    1; glibc's and numpy's do).  So each part of a row e^{i theta_c} - 1 on
    the fold is at most 2 P_k, and the row is 0 where P_k is.  Each part of
    a term (e^{i theta_c} - 1) G_c is then at most 2 P_k (1 + 25u), plus
    2**-1073 for its two products rounded in the subnormal range, which is
    at most 2 P_k where P_k is not 0 (P_k >= 2**-1074).  So the exactly
    rounded sum of the F terms, unscaled, is at most 4 F P_k w 2**e (1 +
    28u) + 2**-1075 <= b_k (1 + 31u) + 2**-1073 < 2**-538: G's bound
    enters only the u terms, and the 4 (twice the row's 2 P_k, for the
    subnormal roundings) holds with room of a factor near 2.
    Rows of a time 0 have P_k = 0.  Row 0 is formed whenever t_0 > 0, so a
    NaN wave (a point not finite) still gives NaN sums.
    """
    if k_max < 16:
        raise ParameterError(f"k_max must be at least 16, got {k_max}")
    criterion, params = _matching_criterion(law, shift, s)
    verdict = sequence_applicable(seq, required_exponent(criterion, **params))
    if verdict.decision != "yes":
        raise NotApplicableError(
            f"sequence {seq.describe()} not accepted for criterion "
            f"{criterion.value}: {verdict.reason}"
        )
    pts = _points(field.grid, points)[0]
    fold = _fold(field.grid, law, shift)  # the law once a trace, not once a time
    times = _checked(fold, seq.terms(k_max))

    def residual(ks, rows):
        _angles(fold, times[ks], rows)
        rows -= 1.0

    waves, (w, e) = _fold_waves(field, pts, fold)
    # see the docstring: the rows past the last b_k >= 2**-539 add +0 to every sum
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 is NaN: a zero row
        scale = np.ldexp(4.0 * fold.num_modes * w, e)
        kept = np.flatnonzero(_phase_bound(fold, times) * scale >= 2.0**-539)
    num_rows = max(int(kept[-1]) + 1 if kept.size else 0, int(times[0] > 0))
    return TraceResult(pts, _square_sums(waves, (w, e), num_rows, residual),
                       _tail_bound(field, fold, seq, len(times)), len(times))
