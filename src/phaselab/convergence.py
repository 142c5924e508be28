"""Summability classification of time sequences and convergence experiments.

A time sequence {t_k} decreasing to 0 qualifies for almost-everywhere
pointwise recovery of the datum when a sum over k of multiplier envelopes
is finite.  Each convergence criterion below names one such sufficient
condition; ``required_exponent`` turns it into either a pure power sum
(sum t_k**q < infinity) or a gamma-sum with an explicit summand, and
``sequence_applicable`` decides membership exactly for symbolic sequences.

The criteria only assert sufficiency: a "no" decision means the
hypotheses are not satisfied, never that the error sum diverges.

``rate_fit`` checks the measured sup-norm decay of a multiplier family
against its envelope exponent on a log-log fit, and ``pointwise_trace``
accumulates sum_k |h_k(x)|^2 at sample points together with an explicit
bound on the truncated tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import HypothesisViolation, NotApplicableError, ParameterError
from .multipliers import Family, MultiplierSpec, analytic_envelope, numeric_sup, sweep_specs
from .phase_laws import PhaseLaw, invert_many
from .propagation import ShiftSpec, _angles
from .spectral import SpectralField, csum, csum_scratch

__all__ = [
    "Applicability",
    "ConvergenceCriterion",
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

#: Seed used for the documented default sample points.
DEFAULT_SEED = 1729

#: Cap on the bytes of complex products ``pointwise_trace`` passes to one
#: ``csum`` call (one row at least), so a block does not grow with K or P.
TRACE_BLOCK_BYTES = 1 << 20


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
    """Sufficient conditions for a.e. recovery along {t_k}, by regime."""

    POWER_HIGH = "power-high"  # plain r^a phase, 0 < a < 1, s >= a
    POWER_LOW = "power-low"  # plain r^a phase, 0 < s <= a <= 1
    POWER_SHIFT_SUB = "power-shift-sub"  # drifted point, 0 < a < 1
    POWER_SHIFT_SUPER = "power-shift-super"  # drifted point, a >= 1
    GAMMA = "gamma"  # general eligible phase law
    GAMMA_SHIFT = "gamma-shift"  # general law with drifted point
    BOUSSINESQ = "boussinesq"  # closed-form special case of gamma
    QUARTIC = "quartic"  # closed-form special case of gamma


@dataclass(frozen=True)
class SummabilityCondition:
    """The sum the criterion requires to be finite.

    ``power-sum`` means sum t_k**q; ``gamma-sum`` carries the summand as a
    callable plus, when the law's inverse growth exponent is known, the
    exact power ``power_equivalent`` the summand decays with.
    """

    form: str
    q: float | None = None
    summand: Callable | None = None
    power_equivalent: float | None = None
    description: str = ""


def _require(ok: bool, message: str, strict: bool) -> None:
    if strict and not ok:
        raise HypothesisViolation(message)


def required_exponent(
    criterion: ConvergenceCriterion,
    *,
    s: float,
    a: float | None = None,
    beta: float | None = None,
    law: PhaseLaw | None = None,
    strict: bool = True,
) -> SummabilityCondition:
    """The summability condition attached to a criterion, as an exact exponent.

    Raises HypothesisViolation naming the failed inequality when the
    parameters fall outside the criterion's stated range (strict mode).
    """
    criterion = ConvergenceCriterion(criterion)
    if not (np.isfinite(s) and s > 0):
        raise ParameterError(f"s must be positive, got {s}")

    if criterion is ConvergenceCriterion.POWER_HIGH:
        if a is None:
            raise ParameterError("power-high requires a")
        _require(0 < a < 1, f"0 < a < 1 required (got a={a})", strict)
        _require(s >= a, f"s >= a required (got s={s}, a={a})", strict)
        return SummabilityCondition("power-sum", q=2.0, description="sum t_k**2")

    if criterion is ConvergenceCriterion.POWER_LOW:
        if a is None:
            raise ParameterError("power-low requires a")
        _require(0 < s <= a <= 1, f"0 < s <= a <= 1 required (got s={s}, a={a})", strict)
        return SummabilityCondition(
            "power-sum", q=2.0 * s / a, description="sum t_k**(2s/a)"
        )

    if criterion is ConvergenceCriterion.POWER_SHIFT_SUB:
        if a is None or beta is None:
            raise ParameterError("power-shift-sub requires a and beta")
        _require(0 < a < 1, f"0 < a < 1 required (got a={a})", strict)
        _require(0 < s <= 1, f"0 < s <= 1 required (got s={s})", strict)
        if beta > 1:
            _require(s > 1 - a, f"s > 1 - a required when beta > 1 (got s={s}, 1-a={1 - a})", strict)
            q = 2.0 * (1.0 + (s - 1.0) / a)
        else:
            _require(
                s > 1 - a * beta,
                f"s > 1 - a*beta required when beta <= 1 (got s={s}, 1-a*beta={1 - a * beta})",
                strict,
            )
            q = 2.0 * (beta + (s - 1.0) / a)
        return SummabilityCondition("power-sum", q=q, description="shifted sub-linear phase")

    if criterion is ConvergenceCriterion.POWER_SHIFT_SUPER:
        if a is None or beta is None:
            raise ParameterError("power-shift-super requires a and beta")
        _require(a >= 1, f"a >= 1 required (got a={a})", strict)
        _require(0 < s <= a, f"0 < s <= a required (got s={s}, a={a})", strict)
        if beta > 1:
            q = 2.0 * s / a
        else:
            _require(
                s > a * (1 - beta),
                f"s > a*(1-beta) required when beta <= 1 (got s={s}, a*(1-beta)={a * (1 - beta)})",
                strict,
            )
            q = 2.0 * (beta - 1.0 + s / a)
        return SummabilityCondition("power-sum", q=q, description="shifted super-linear phase")

    if criterion is ConvergenceCriterion.BOUSSINESQ:
        _require(0 < s <= 1, f"0 < s <= 1 required (got s={s})", strict)
        return SummabilityCondition("power-sum", q=s, description="sum t_k**s")

    if criterion is ConvergenceCriterion.QUARTIC:
        _require(0 < s <= 1, f"0 < s <= 1 required (got s={s})", strict)
        return SummabilityCondition("power-sum", q=s / 2.0, description="sum t_k**(s/2)")

    # gamma and gamma-shift
    if law is None:
        raise ParameterError(f"{criterion.value} requires a phase law")
    _require(0 < s <= 1, f"0 < s <= 1 required (got s={s})", strict)
    if criterion is ConvergenceCriterion.GAMMA_SHIFT and beta is None:
        raise ParameterError("gamma-shift requires beta")
    g1 = float(law(1.0))

    shift_power = 0.0
    if criterion is ConvergenceCriterion.GAMMA_SHIFT and beta <= 1:
        shift_power = beta - 1.0

    def summand(t, _law=law, _s=s, _g1=g1, _sp=shift_power):
        t = np.asarray(t, dtype=float)
        base = invert_many(_law, _g1 / t) ** (-2.0 * _s)
        return base if _sp == 0.0 else t**_sp * base

    equivalent = None
    if law.inverse_growth is not None:
        equivalent = 2.0 * s * law.inverse_growth + shift_power
    return SummabilityCondition(
        "gamma-sum",
        summand=summand,
        power_equivalent=equivalent,
        description="sum of inverse-law envelopes",
    )


@dataclass(frozen=True)
class Applicability:
    decision: str  # "yes" | "no" | "unknown"
    reason: str


def sequence_applicable(
    seq: TimeSequence,
    criterion: ConvergenceCriterion,
    *,
    s: float,
    a: float | None = None,
    beta: float | None = None,
    law: PhaseLaw | None = None,
    k_probe: int = 4096,
    strict: bool = True,
) -> Applicability:
    """Decide whether {t_k} satisfies the criterion's summability condition.

    Exact for symbolic sequences whenever the summand's decay exponent is
    known (power sums, and gamma sums over laws with a known inverse
    growth): power sequences qualify iff p*q > 1 and geometric sequences
    qualify for every positive exponent.  Everything else falls back to
    partial sums over the first ``k_probe`` terms, answering "unknown"
    unless they visibly stabilize.
    """
    cond = required_exponent(criterion, s=s, a=a, beta=beta, law=law, strict=strict)
    q = cond.q if cond.form == "power-sum" else cond.power_equivalent

    if q is not None and seq.kind == "power":
        product = seq.p * q
        if product > 1.0:
            return Applicability("yes", f"p*q = {product:g} > 1, the power sum converges")
        return Applicability("no", f"p*q = {product:g} <= 1, the power sum diverges")

    if q is not None and seq.kind == "geometric":
        if q > 0.0:
            return Applicability("yes", f"terms decay geometrically like r**(k*q) with q = {q:g} > 0")
        return Applicability("no", f"nonpositive exponent q = {q:g}")

    # numeric fallback: explicit lists, or laws without a known inverse growth
    t = seq.terms(k_probe if seq.kind != "explicit" else len(seq.values))
    g = cond.summand(t) if cond.form == "gamma-sum" else t**q
    head = math.fsum(g[: max(1, len(g) // 10)])
    total = math.fsum(g)
    growth = total - head
    if growth < 1e-6:
        return Applicability(
            "yes",
            f"partial sums stabilized (grew {growth:.3e} over the last decade of K={len(g)})",
        )
    return Applicability(
        "unknown",
        f"partial sums still growing ({growth:.3e} over the last decade of K={len(g)})",
    )


def envelope_log_slope(template: MultiplierSpec) -> float:
    """d log(envelope) / d log(delta), the theoretical sup-norm decay rate."""
    f = template.family
    if f is Family.POWER:
        return template.s / template.a
    if f is Family.POWER_SHIFT:
        a, s, b = template.a, template.s, template.beta
        if a < 1:
            return 1.0 + (s - 1.0) / a if b > 1 else b + (s - 1.0) / a
        return s / a if b > 1 else b - 1.0 + s / a
    # gamma families: probe the implemented envelope in the asymptotic regime
    e1 = analytic_envelope(template.with_delta(1e-8), strict=False)
    e2 = analytic_envelope(template.with_delta(1e-10), strict=False)
    return float(math.log(e1 / e2) / math.log(1e-8 / 1e-10))


@dataclass(frozen=True)
class RateReport:
    family: Family
    params: dict
    deltas: tuple
    sups: tuple
    envelopes: tuple
    fitted_slope: float
    theoretical_slope: float
    residual: float
    passed: bool

    def sweep_rows(self):
        for d, sup, env in zip(self.deltas, self.sups, self.envelopes):
            yield {"delta": d, "sup": sup, "envelope": env, "ratio": sup / env}

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "params": self.params,
            "fitted_slope": self.fitted_slope,
            "theoretical_slope": self.theoretical_slope,
            "residual": self.residual,
            "pass": self.passed,
            "sweep": list(self.sweep_rows()),
        }


def rate_fit(
    template: MultiplierSpec, deltas, per_decade: int = 32, strict: bool = True
) -> RateReport:
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
    sups = []
    envs = []
    for spec in sweep_specs(template, deltas, strict):
        sups.append(numeric_sup(spec, per_decade=per_decade).sup)
        # sweep_specs validated the delta-independent hypotheses once
        envs.append(analytic_envelope(spec, strict=False))
    logd = np.log(np.asarray(deltas))
    logs = np.log(np.asarray(sups))
    slope, intercept = np.polyfit(logd, logs, 1)
    residual = float(np.sqrt(np.mean((logs - (slope * logd + intercept)) ** 2)))
    theoretical = envelope_log_slope(template)
    params = template.params_dict()
    del params["delta"]
    return RateReport(
        family=template.family,
        params=params,
        deltas=tuple(deltas),
        sups=tuple(sups),
        envelopes=tuple(envs),
        fitted_slope=float(slope),
        theoretical_slope=float(theoretical),
        residual=residual,
        passed=bool(abs(float(slope) - theoretical) <= 0.05),
    )


def _matching_criterion(law: PhaseLaw, shift: ShiftSpec | None, s: float):
    """Pick the criterion covering a propagation setup, with its parameters."""
    if law.power is not None:
        a = law.power
        if shift is None:
            if 0 < s <= a <= 1:
                return ConvergenceCriterion.POWER_LOW, {"s": s, "a": a}
            if a < 1 and s >= a:
                return ConvergenceCriterion.POWER_HIGH, {"s": s, "a": a}
            if a > 1 and 0 < s <= 1:
                return ConvergenceCriterion.GAMMA, {"s": s, "law": law}
            raise ParameterError(f"no plain-phase criterion covers s={s}, a={a}")
        crit = (
            ConvergenceCriterion.POWER_SHIFT_SUB
            if a < 1
            else ConvergenceCriterion.POWER_SHIFT_SUPER
        )
        return crit, {"s": s, "a": a, "beta": shift.beta}
    if shift is None:
        return ConvergenceCriterion.GAMMA, {"s": s, "law": law}
    return ConvergenceCriterion.GAMMA_SHIFT, {"s": s, "law": law, "beta": shift.beta}


@dataclass(frozen=True)
class TraceResult:
    """Partial sums sum_{k<=K} |h_k(x)|^2 per sample point, plus a tail bound."""

    points: np.ndarray  # (P, n)
    partial_sums: np.ndarray  # (P,)
    history: np.ndarray  # (K, P) running partial sums
    tail: float | None
    k_max: int

    def rows(self):
        for x, value in zip(self.points, self.partial_sums):
            yield {
                **{f"x_{i + 1}": float(v) for i, v in enumerate(x)},
                "partial_sum": float(value),
                "tail": float(self.tail) if self.tail is not None else float("nan"),
            }

    def to_dict(self) -> dict:
        return {
            "k": self.k_max,
            "points": [[float(v) for v in x] for x in self.points],
            "partial_sums": [float(v) for v in self.partial_sums],
            "tail": float(self.tail) if self.tail is not None else None,
        }


def default_points(n: int, count: int = 32, seed: int = DEFAULT_SEED) -> np.ndarray:
    """The documented default sample set: uniform points in [-pi, pi]**n."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-math.pi, math.pi, size=(count, n))


def _tail_bound(field: SpectralField, law, shift: ShiftSpec | None, seq: TimeSequence, k_max: int):
    """Explicit bound on sum_{k>K} ||h_k||_inf^2 for symbolic sequences."""
    grid = field.grid
    mass = (
        math.fsum(np.abs(field.coefficients))
        * grid.weight
        / (2.0 * math.pi) ** grid.n
    )
    gmax = float(np.max(np.asarray(law(grid.radii), dtype=float))) if grid.num_modes else 0.0
    proj = float(np.max(np.abs(grid.modes @ shift.mu))) if shift is not None else 0.0

    def power_tail(c: float) -> float:
        # sum_{k>K} (k+1)^(-c) <= (K+1)^(1-c) / (c-1)
        if c <= 1.0:
            return math.inf
        return (k_max + 1.0) ** (1.0 - c) / (c - 1.0)

    def geometric_tail(c: float) -> float:
        rho = seq.r**c
        return rho ** (k_max + 1) / (1.0 - rho)

    if seq.kind == "power":
        tail_sq = (mass * gmax) ** 2 * power_tail(2.0 * seq.p)
        if shift is not None:
            tail_sq = 2.0 * tail_sq + 2.0 * (mass * proj) ** 2 * power_tail(2.0 * seq.p * shift.beta)
        return tail_sq
    if seq.kind == "geometric":
        tail_sq = (mass * gmax) ** 2 * geometric_tail(2.0)
        if shift is not None:
            tail_sq = 2.0 * tail_sq + 2.0 * (mass * proj) ** 2 * geometric_tail(2.0 * shift.beta)
        return tail_sq
    return None


def pointwise_trace(
    field: SpectralField,
    law: PhaseLaw,
    seq: TimeSequence,
    s: float,
    points,
    k_max: int = 2048,
    shift: ShiftSpec | None = None,
) -> TraceResult:
    """Accumulate sum_{k<=K} |h_k(x)|^2 at each sample point in fixed k order.

    Refuses to run unless the sequence satisfies the summability condition
    of the matching criterion.  Terms are nonnegative, so the running sums
    are nondecreasing in K; the returned tail bounds the discarded
    remainder through the band-limited sup estimate
    ||h_k||_inf <= (2*pi)^(-n) * sup_j |e^{i theta_j} - 1| * sum_j |f_j| dxi^n.
    """
    if k_max < 16:
        raise ParameterError(f"k_max must be at least 16, got {k_max}")
    criterion, params = _matching_criterion(law, shift, s)
    verdict = sequence_applicable(seq, criterion, **params)
    if verdict.decision != "yes":
        raise NotApplicableError(
            f"sequence {seq.describe()} not accepted for criterion "
            f"{criterion.value}: {verdict.reason}"
        )
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != field.grid.n:
        raise ParameterError(f"points must have dimension {field.grid.n}")
    grid = field.grid
    norm = grid.weight / (2.0 * math.pi) ** grid.n
    waves = np.exp(1j * (pts @ grid.modes.T))  # (P, M)
    times = seq.terms(k_max)
    k_eff = len(times)
    num_pts, num_modes = waves.shape
    # each csum call sums one block of (k, point) rows, chunked over k and
    # points; the block and csum's work array are allocated once and reused
    block_rows = max(1, TRACE_BLOCK_BYTES // (16 * num_modes))
    k_step = max(1, block_rows // max(num_pts, 1))
    p_step = max(1, min(num_pts, block_rows))
    block_buf = np.empty(k_step * p_step * num_modes, dtype=complex)
    scratch = csum_scratch(k_step * p_step, num_modes)
    history = np.empty((k_eff, num_pts))
    running = np.zeros(num_pts)
    for k0 in range(0, k_eff, k_step):
        ks = range(k0, min(k0 + k_step, k_eff))
        coeffs = np.stack(
            [
                (np.exp(1j * _angles(grid, law, float(times[k]), shift)) - 1.0)
                * field.coefficients
                for k in ks
            ]
        )
        sums = np.empty((len(ks), num_pts), dtype=complex)
        for p0 in range(0, num_pts, p_step):
            # the mode axis stays last and contiguous, so numpy forms each
            # product with the same loop as a per-point coeff * wave
            chunk = waves[p0 : p0 + p_step]
            rows = len(ks) * len(chunk)
            block = block_buf[: rows * num_modes].reshape(rows, num_modes)
            np.multiply(
                coeffs[:, None, :], chunk[None, :, :], out=block.reshape(len(ks), len(chunk), -1)
            )
            sums[:, p0 : p0 + p_step] = csum(block, scratch).reshape(len(ks), -1)
        vals = sums * norm
        terms = vals.real * vals.real + vals.imag * vals.imag
        for j, k in enumerate(ks):
            running += terms[j]
            history[k] = running
    return TraceResult(
        points=pts,
        partial_sums=running.copy(),
        history=history,
        tail=_tail_bound(field, law, shift, seq, k_eff),
        k_max=k_eff,
    )
