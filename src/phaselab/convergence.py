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
``pointwise_trace`` sums |h_k(x)|^2 over k at sample points, each h_k(x)
from spectral's one wave reduction, together with an explicit bound on
the truncated tail.
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
from .spectral import SpectralField, _fold_waves, _fsum, _points, _wave_sums

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


def _tail_bound(field: SpectralField, fold, seq: TimeSequence, k_max: int):
    """Explicit bound on sum_{k>K} ||h_k||_inf^2 for symbolic sequences (maxima from the fold)."""
    if seq.kind == "explicit":
        return None
    grid, shift = field.grid, fold.shift
    # not mass * grid.synthesis_scale: the tail is printed, and that association
    # rounds many masses differently (1,802 of 6,000 random masses and grids)
    mass = _fsum(np.abs(field.coefficients).tolist()) * grid.weight / (2.0 * math.pi) ** grid.n

    def tail(x: float) -> float:
        """A bound on sum_{k>K} t_k**(2x): x = 1 for the phase, beta for the drift."""
        if seq.kind == "geometric":
            rho = seq.r ** (2.0 * x)
            return rho ** (k_max + 1) / (1.0 - rho)
        # sum_{k>K} (k+1)^(-c) <= (K+1)^(1-c) / (c-1)
        c = 2.0 * seq.p * x
        if c <= 1.0:
            return math.inf
        return (k_max + 1.0) ** (1.0 - c) / (c - 1.0)

    # squares by one rounded product, inf past the double range (libm's pow
    # need not round x**2 correctly, and float ** raises there)
    g = mass * fold.gmax
    tail_sq = g * g * tail(1.0)
    if shift is not None:
        p = mass * fold.pmax
        tail_sq = 2.0 * tail_sq + 2.0 * (p * p) * tail(shift.beta)
    return tail_sq


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
    grid = field.grid
    pts = _points(grid, points)[0]
    fold = _fold(grid, law, shift)  # the law once a trace, not once a time
    times = _checked(fold, seq.terms(k_max))

    def residual(k, rows):
        _angles(fold, times[k : k + len(rows)], rows)
        rows -= 1.0

    waves, (w, e) = _fold_waves(field, pts, fold)
    # see the docstring: the rows past the last b_k >= 2**-539 add +0 to every sum
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 is NaN: a zero row
        scale = np.ldexp(4.0 * fold.num_modes * w, e)
        kept = np.flatnonzero(_phase_bound(fold, times) * scale >= 2.0**-539)
    num_rows = max(int(kept[-1]) + 1 if kept.size else 0, int(times[0] > 0))
    values = _wave_sums(waves, (w, e), num_rows, residual)
    # np.cumsum adds along k in order, as a running sum would (np.sum pairs
    # terms); a square past the double range is inf, its rounded value
    with np.errstate(over="ignore"):
        squares = values.real * values.real + values.imag * values.imag
        sums = np.cumsum(squares, axis=0)[-1] if len(squares) else np.zeros(len(pts))
    return TraceResult(pts, sums, _tail_bound(field, fold, seq, len(times)), len(times))
