"""Exception and warning taxonomy shared across the package."""


class DigitAuditError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DigitAuditError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NonPositiveImageError(DomainError):
    """A transform maps the input to a non-positive value.

    Digit analysis presumes strictly positive data, so such points are
    rejected and counted instead of silently propagated.
    """

    def __init__(self, value, message=None):
        self.value = value
        super().__init__(message or f"transform image is non-positive for input {value!r}")


class UnsupportedPositionError(DigitAuditError, ValueError):
    """A digit position outside the tested range (1 or 2) was requested."""


class EmptySeriesError(DigitAuditError, ValueError):
    """No data points remain after exclusions."""


class ConfigError(DigitAuditError, ValueError):
    """Invalid configuration (regime intervals, scopes, CLI options)."""


class IngestError(DigitAuditError, ValueError):
    """A data file could not be ingested. Carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DegenerateHistogramWarning(UserWarning):
    """A fit was run on a histogram with all mass on a single digit."""
