"""digitaudit: significant-digit forensics for numeric datasets.

Evaluates the logarithmic digit laws, applies nonlinear transforms
(x*ln x and relatives), tests observed digit histograms with Pearson
chi-square against logarithmic and uniform references, and fits an
"imperfect" first-digit law whose envelope curls up at large digits.
Ships a batch CLI (``digitaudit``) for auditing CSV time series.

Public names are imported from their home module on first use (PEP 562),
so ``from digitaudit import nth_digit_prob`` loads only the law module.
"""

import importlib

__version__ = "0.1.0"

#: Home module -> the public names it provides. The one list of the API.
_EXPORTS = {
    "digit_laws": (
        "ALL_DIGITS", "FIRST_DIGITS", "DigitLawModel", "LawKind",
        "benford_first_digit_prob", "string_prob", "nth_digit_prob", "uniform_prob",
        "generalized_prob", "imperfect_counts", "imperfect_prob",
        "first_digit_probs", "second_digit_probs",
    ),
    "digit_extract": (
        "REAL_RENDER_DIGITS", "SignificantDigits", "extract", "extract_from_real",
        "significant_digits", "significant_digits_from_real",
    ),
    "transforms": (
        "Scope", "TheilBase", "TransformKind", "TransformName", "TransformedSeries",
        "apply_transform", "relative", "log_relative", "theil_index", "theil_map",
    ),
    "gof_tests": (
        "CRITICAL_VALUES", "DigitHistogram", "GofResult",
        "battery_on_histograms", "chi2_benford", "chi2_uniform",
    ),
    "imperfect_fit": (
        "ImperfectFitResult", "fit_imperfect", "imperfect_curve",
        "minimum_location", "minimum_value",
    ),
    "ingest": (
        "GOLDEN_RATIO", "LoadResult", "bundled_data_dir", "load_csv", "load_regimes",
        "synth_benford",
    ),
    "series": ("Partition", "Regime", "RegimeSpec", "TimeSeries", "partition"),
    "report": (
        "AuditConfig", "AuditReport", "BatteryResult", "SeriesAudit", "VariantAudit",
        "audit_series", "run_audit", "run_battery",
    ),
    "errors": (
        "ConfigError", "DegenerateHistogramWarning", "DigitAuditError", "DomainError",
        "EmptySeriesError", "IngestError", "NonPositiveImageError",
        "UnsupportedPositionError",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """Import a public name or home module on first use and keep it here."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")  # binds it here too
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
