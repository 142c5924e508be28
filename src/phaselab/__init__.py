"""phaselab: spectral propagators, multiplier envelopes, convergence experiments."""

from .convergence import (
    Applicability,
    ConvergenceCriterion,
    RateReport,
    SummabilityCondition,
    TimeSequence,
    TraceResult,
    default_points,
    envelope_log_slope,
    parse_sequence,
    pointwise_trace,
    rate_fit,
    required_exponent,
    sequence_applicable,
)
from .errors import (
    GridMismatchError,
    HypothesisViolation,
    NotApplicableError,
    ParameterError,
    UndefinedShiftError,
)
from .multipliers import (
    BoundCertificate,
    Family,
    MultiplierSpec,
    ScanResult,
    Sweep,
    analytic_envelope,
    certify,
    critical_radius,
    extremal_witness,
    multiplier_value,
    numeric_sup,
    sweep,
)
from .phase_laws import (
    BOUSSINESQ,
    CATALOG,
    LINEAR,
    QUARTIC,
    PhaseLaw,
    invert,
    invert_many,
    parse_law,
    power_law,
)
from .propagation import ErrorField, ShiftSpec, apply_phase, error_field, evaluate_shifted
from .spectral import (
    FrequencyGrid,
    SpectralField,
    default_grid,
    make_grid,
    random_field,
    read_field_csv,
    sobolev_norm,
    synthesize,
    write_field_csv,
)

__version__ = "0.1.0"
