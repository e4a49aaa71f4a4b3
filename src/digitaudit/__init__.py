"""digitaudit: significant-digit forensics for numeric datasets.

Evaluates the logarithmic digit laws, applies nonlinear transforms
(x*ln x and relatives), tests observed digit histograms with Pearson
chi-square against logarithmic and uniform references, and fits an
"imperfect" first-digit law whose envelope curls up at large digits.
Ships a batch CLI (``digitaudit``) for auditing CSV time series.
"""

__version__ = "0.1.0"

from .digit_extract import (
    REAL_RENDER_DIGITS,
    SignificantDigits,
    extract,
    extract_from_real,
    significant_digits,
    significant_digits_from_real,
)
from .digit_laws import (
    ALL_DIGITS,
    FIRST_DIGITS,
    DigitLawModel,
    LawKind,
    benford_first_digit_prob,
    first_digit_probs,
    generalized_prob,
    imperfect_counts,
    imperfect_prob,
    nth_digit_prob,
    second_digit_probs,
    string_prob,
    uniform_prob,
)
from .errors import (
    ConfigError,
    DegenerateHistogramWarning,
    DigitAuditError,
    DomainError,
    EmptySeriesError,
    IngestError,
    NonPositiveImageError,
    UnsupportedPositionError,
)
from .gof_tests import (
    CRITICAL_VALUES,
    BatteryResult,
    DigitHistogram,
    GofResult,
    battery_on_histograms,
    chi2_benford,
    chi2_uniform,
    run_battery,
)
from .imperfect_fit import (
    ImperfectFitResult,
    fit_imperfect,
    imperfect_curve,
    minimum_location,
    minimum_value,
)
from .ingest import (
    GOLDEN_RATIO,
    LoadResult,
    bundled_data_dir,
    load_csv,
    load_regimes,
    synth_benford,
)
from .report import AuditConfig, AuditReport, SeriesAudit, VariantAudit, audit_series, run_audit
from .series import Partition, Regime, RegimeSpec, TimeSeries, partition
from .transforms import (
    Scope,
    TheilBase,
    TransformKind,
    TransformName,
    TransformedSeries,
    apply_transform,
    log_relative,
    relative,
    theil_index,
    theil_map,
)

__all__ = [
    "__version__",
    # laws
    "ALL_DIGITS", "FIRST_DIGITS", "DigitLawModel", "LawKind",
    "benford_first_digit_prob", "string_prob", "nth_digit_prob", "uniform_prob",
    "generalized_prob", "imperfect_counts", "imperfect_prob",
    "first_digit_probs", "second_digit_probs",
    # extraction
    "REAL_RENDER_DIGITS", "SignificantDigits", "extract", "extract_from_real",
    "significant_digits", "significant_digits_from_real",
    # transforms
    "Scope", "TheilBase", "TransformKind", "TransformName", "TransformedSeries",
    "apply_transform", "relative", "log_relative", "theil_index", "theil_map",
    # tests
    "CRITICAL_VALUES", "BatteryResult", "DigitHistogram", "GofResult",
    "battery_on_histograms", "chi2_benford", "chi2_uniform", "run_battery",
    # fitting
    "ImperfectFitResult", "fit_imperfect", "imperfect_curve",
    "minimum_location", "minimum_value",
    # series and ingestion
    "GOLDEN_RATIO", "LoadResult", "Partition", "Regime", "RegimeSpec", "TimeSeries",
    "bundled_data_dir", "load_csv", "load_regimes", "partition", "synth_benford",
    # auditing
    "AuditConfig", "AuditReport", "SeriesAudit", "VariantAudit",
    "audit_series", "run_audit",
    # errors
    "ConfigError", "DegenerateHistogramWarning", "DigitAuditError", "DomainError",
    "EmptySeriesError", "IngestError", "NonPositiveImageError",
    "UnsupportedPositionError",
]
