"""Nonlinear data transforms applied before digit analysis.

The central map is y = x * ln(x) (optionally x * log10(x); the two differ
by the constant factor ln 10). Unlike rescaling by a mean, this mixes
digits nonlinearly, which makes it a useful second lens on suspect data.
Inputs in (0, 1] map to non-positive values and are rejected with a
counted flag, since digit analysis presumes positive data.

Also provided: relative normalization x/<x>, its logarithm (whose
negative outputs are flagged for the same reason), and the classic
inequality index T = (1/M) * sum (x/<x>) ln(x/<x>). The index itself is
never fed to digit analysis; it is exposed for completeness.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from decimal import Decimal
from itertools import compress
from operator import mul, truediv

from .errors import ConfigError, DomainError, EmptySeriesError, NonPositiveImageError
from .series import RegimeSpec, TimeSeries, partition as partition_series

_LN10 = math.log(10.0)


class TheilBase(enum.Enum):
    NATURAL = "natural"
    DECIMAL = "decimal"


class Scope(enum.Enum):
    WHOLE_RANGE = "whole"
    PER_REGIME = "regime"


class TransformName(enum.Enum):
    IDENTITY = "identity"
    THEIL = "theil"
    RELATIVE = "relative"
    LOG_RELATIVE = "log-relative"


@dataclass(frozen=True)
class TransformKind:
    """A transform selection: which map, which log base, which mean scope."""

    name: TransformName
    base: TheilBase = TheilBase.NATURAL
    scope: Scope = Scope.WHOLE_RANGE

    @classmethod
    def identity(cls) -> "TransformKind":
        return cls(TransformName.IDENTITY)

    @classmethod
    def theil(cls, base: TheilBase = TheilBase.NATURAL) -> "TransformKind":
        return cls(TransformName.THEIL, base=base)

    @classmethod
    def relative(cls, scope: Scope = Scope.WHOLE_RANGE) -> "TransformKind":
        return cls(TransformName.RELATIVE, scope=scope)

    @classmethod
    def log_relative(cls, scope: Scope = Scope.WHOLE_RANGE) -> "TransformKind":
        return cls(TransformName.LOG_RELATIVE, scope=scope)

    def variant_label(self) -> str:
        """Short name used in reports and output files."""
        if self.name is TransformName.IDENTITY:
            return "raw"
        if self.name is TransformName.THEIL:
            return f"theil-{self.base.value}"
        suffix = "" if self.scope is Scope.WHOLE_RANGE else "-regime"
        return self.name.value + suffix


@dataclass(frozen=True)
class TransformedPoint:
    year: int
    value: object  # Decimal for exact variants, float for computed ones
    positive: bool


@dataclass(frozen=True)
class ExcludedPoint:
    year: int
    original: Decimal
    reason: str


@dataclass(frozen=True)
class TransformedSeries:
    """Transform output as aligned columns, rejected points, and exactness.

    years, values and positive hold one entry per output point; rejected
    points are in excluded instead. exact is True when values are
    untouched decimals (identity), so digit extraction can read them
    verbatim; computed values go through the 12-digit real renderer.
    """

    label: str
    kind: TransformKind
    years: tuple[int, ...]
    values: tuple
    positive: tuple[bool, ...]
    excluded: tuple[ExcludedPoint, ...]
    exact: bool

    @functools.cached_property
    def points(self) -> tuple[TransformedPoint, ...]:
        """The output as one TransformedPoint per year, built on first use."""
        return tuple(map(TransformedPoint, self.years, self.values, self.positive))

    @property
    def nonpositive_count(self) -> int:
        return self.positive.count(False)

    @property
    def excluded_for_analysis(self) -> int:
        """Points digit analysis must refuse: rejected plus non-positive."""
        return len(self.excluded) + self.nonpositive_count

    def kept(self) -> tuple[tuple[int, ...], tuple]:
        """(years, values) of the strictly positive outputs, in year order.

        When no output is flagged these are the stored columns themselves.
        """
        if False not in self.positive:
            return self.years, self.values
        return tuple(compress(self.years, self.positive)), tuple(compress(self.values, self.positive))

    def analyzable(self) -> tuple[TransformedPoint, ...]:
        """The strictly positive output points, in year order."""
        return tuple(compress(self.points, self.positive))


def theil_map(x: float, base: TheilBase = TheilBase.NATURAL) -> float:
    """x * ln(x), or x * log10(x) for the decimal base.

    Defined here only for x > 1: non-positive x is a domain error, and
    0 < x <= 1 maps to a non-positive image, which is rejected with a
    dedicated error so callers can count the exclusion. On the admitted
    domain the map is strictly increasing.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"x*ln(x) requires x > 0, got {x}")
    if x <= 1.0:
        raise NonPositiveImageError(x)
    y = x * math.log(x)
    return y / _LN10 if base is TheilBase.DECIMAL else y


def theil_index(series) -> float:
    """Inequality index (1/M) * sum (x/<x>) * ln(x/<x>).

    Nonnegative, zero only for constant data, invariant under rescaling.
    Accepts a TimeSeries or any sequence of positive numbers. Not a digit
    transform: its summands change sign, so it is reported as a scalar
    only and never fed to digit analysis.
    """
    values = _as_floats(series)
    if not values:
        raise EmptySeriesError("cannot compute an inequality index of an empty series")
    if any(not math.isfinite(v) or v <= 0.0 for v in values):
        raise DomainError("inequality index requires strictly positive values")
    if min(values) == max(values):
        return 0.0
    mean = math.fsum(values) / len(values)
    total = math.fsum((v / mean) * math.log(v / mean) for v in values)
    result = total / len(values)
    # Jensen guarantees >= 0; clamp the float-noise epsilon on near-equal data
    return 0.0 if -1e-12 < result < 0.0 else result


def relative(series: TimeSeries, scope: Scope = Scope.WHOLE_RANGE,
             regimes: RegimeSpec | None = None) -> TransformedSeries:
    """Divide each value by the arithmetic mean of its scope.

    Scope is the whole series or the point's own regime; each scope's
    output mean is 1 up to float rounding. Pure rescaling: digit-law
    conformity of the output is the same as the input's. A value whose
    ratio is not a finite positive float (its float is 0.0 or inf, the
    ratio underflows, or the scope's sum overflows) is a DomainError.
    """
    kind = TransformKind.relative(scope)
    values = _ratios(series, kind, regimes)
    return TransformedSeries(series.label, kind, series.years(), values,
                             (True,) * len(values), (), exact=False)


def log_relative(series: TimeSeries, scope: Scope = Scope.WHOLE_RANGE,
                 regimes: RegimeSpec | None = None) -> TransformedSeries:
    """ln(x/<x>) with sign flags.

    Values below (or at) the scope mean map to non-positive outputs; they
    are kept in the output but flagged, and excluded_for_analysis counts
    them so digit analysis can refuse them. A ratio that is not a finite
    positive float is a DomainError, as in relative().
    """
    kind = TransformKind.log_relative(scope)
    values = tuple(map(math.log, _ratios(series, kind, regimes)))
    positive = tuple(y > 0.0 for y in values)
    return TransformedSeries(series.label, kind, series.years(), values,
                             positive, (), exact=False)


def apply_transform(series: TimeSeries, kind: TransformKind,
                    regimes: RegimeSpec | None = None) -> TransformedSeries:
    """Apply any TransformKind to a series, collecting exclusions."""
    series.require_nonempty()
    if kind.name is TransformName.IDENTITY:
        return TransformedSeries(series.label, kind, series.years(), series.values(),
                                 (True,) * len(series), (), exact=True)
    if kind.name is TransformName.RELATIVE:
        return relative(series, kind.scope, regimes)
    if kind.name is TransformName.LOG_RELATIVE:
        return log_relative(series, kind.scope, regimes)
    return _theil(series, kind)


def _theil(series: TimeSeries, kind: TransformKind) -> TransformedSeries:
    """theil_map over the float column; images of x <= 1 become exclusions."""
    years, floats = series.years(), _as_floats(series)
    mask = [1.0 < x < math.inf for x in floats]
    excluded = ()
    if False in mask:
        dropped = [not keep for keep in mask]
        for x in compress(floats, dropped):
            if not 0.0 < x < math.inf:
                theil_map(x, kind.base)  # raises the map's DomainError
        excluded = tuple(
            ExcludedPoint(year, value, "non-positive image")
            for year, value in compress(series.points, dropped)
        )
        years, floats = tuple(compress(years, mask)), list(compress(floats, mask))
    values = map(mul, floats, map(math.log, floats))
    if kind.base is TheilBase.DECIMAL:
        values = (y / _LN10 for y in values)
    values = tuple(values)
    return TransformedSeries(series.label, kind, years, values, (True,) * len(values),
                             excluded, exact=False)


def _as_floats(series) -> list[float]:
    values = series.values() if isinstance(series, TimeSeries) else series
    return list(map(float, values))


def _ratios(series: TimeSeries, kind: TransformKind, regimes: RegimeSpec | None) -> tuple:
    """x/<x> for every point, each a finite positive float, else DomainError.

    A decimal whose float is 0.0 or inf, a ratio that underflows, or a
    scope mean that overflows yields no usable ratio; the error names the
    transform and the first such year.
    """
    floats = _as_floats(series)
    means = _scope_means(series, kind.scope, regimes, floats)
    if 0.0 not in means:
        ratios = tuple(map(truediv, floats, means))
        if all(0.0 < r < math.inf for r in ratios):
            return ratios
    year, x, mean = next(
        (year, x, mean) for year, x, mean in zip(series.years(), floats, means)
        if not (mean > 0.0 and 0.0 < x / mean < math.inf)
    )
    raise DomainError(
        f"{kind.variant_label()}: year {year}: the value {x!r} over its scope "
        f"mean {mean!r} is not a finite positive number"
    )


def _mean(floats: list[float]) -> float:
    """Arithmetic mean, inf when the sum overflows a float."""
    try:
        return math.fsum(floats) / len(floats)
    except OverflowError:
        return math.inf


def _scope_means(series: TimeSeries, scope: Scope, regimes: RegimeSpec | None,
                 floats: list[float]) -> list[float]:
    """Mean of each point's scope, aligned with series.points and floats."""
    series.require_nonempty()
    if scope is Scope.WHOLE_RANGE:
        return [_mean(floats)] * len(floats)
    if regimes is None:
        raise ConfigError("per-regime scope requires a regime specification")
    labels = partition_series(series, regimes).labels
    means: dict[str, float] = {}
    for name in regimes.names():
        group = [floats[i] for i, lab in enumerate(labels) if lab == name]
        if group:
            means[name] = _mean(group)
    out = []
    for i, lab in enumerate(labels):
        if lab is None:
            raise ConfigError(
                f"year {series.points[i][0]} is outside every regime; "
                "per-regime scope needs full coverage"
            )
        out.append(means[lab])
    return out
