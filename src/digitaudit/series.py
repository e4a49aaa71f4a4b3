"""Yearly time series and regime partitioning.

A TimeSeries holds one budget column as aligned years and values
columns; points is a lazy (year, value) view. Values are exact decimals
(never floats), because digit analysis of raw data must read the
reported figures verbatim. Regimes are named, disjoint year intervals
used to break histograms down by growth phase.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation

from .errors import ConfigError, DomainError, EmptySeriesError


@dataclass(frozen=True)
class TimeSeries:
    label: str
    years: tuple[int, ...]
    values: tuple[Decimal, ...]

    def __post_init__(self):
        if len(self.years) != len(self.values):
            raise DomainError(f"series {self.label!r}: {len(self.years)} years, {len(self.values)} values")
        last_year = None
        for year, value in zip(self.years, self.values):
            if last_year is not None and year <= last_year:
                raise DomainError(
                    f"series {self.label!r}: years must be strictly increasing "
                    f"({year} after {last_year})"
                )
            last_year = year
            if not isinstance(value, Decimal) or not value.is_finite() or value <= 0:
                raise DomainError(f"series {self.label!r}, year {year}: value must be a positive decimal")

    @classmethod
    def from_pairs(cls, label: str, pairs) -> "TimeSeries":
        """Build from (year, value) pairs; values may be str, int or Decimal."""
        years, values = [], []
        for year, raw in pairs:
            try:
                value = raw if isinstance(raw, Decimal) else Decimal(str(raw) if isinstance(raw, int) else raw)
            except InvalidOperation as exc:
                raise DomainError(f"series {label!r}, year {year}: not a decimal: {raw!r}") from exc
            years.append(int(year))
            values.append(value)
        return cls(label, tuple(years), tuple(values))

    @functools.cached_property
    def points(self) -> tuple[tuple[int, Decimal], ...]:
        """The series as (year, value) pairs, built on first use."""
        return tuple(zip(self.years, self.values))

    def __len__(self) -> int:
        return len(self.years)

    def require_nonempty(self) -> None:
        if not self.years:
            raise EmptySeriesError(f"series {self.label!r} is empty")


@dataclass(frozen=True)
class Regime:
    name: str
    start_year: int
    end_year: int

    def __post_init__(self):
        if self.end_year < self.start_year:
            raise ConfigError(f"regime {self.name!r}: end year {self.end_year} before start {self.start_year}")

    def contains(self, year: int) -> bool:
        return self.start_year <= year <= self.end_year


@dataclass(frozen=True)
class RegimeSpec:
    """Ordered, disjoint, uniquely named year intervals. May be empty."""

    regimes: tuple[Regime, ...] = field(default_factory=tuple)

    def __post_init__(self):
        prev = None
        names = set()
        for regime in self.regimes:
            if regime.name in names:
                raise ConfigError(f"regime name {regime.name!r} is used twice")
            names.add(regime.name)
            if prev is not None and regime.start_year <= prev.end_year:
                raise ConfigError(
                    f"regime {regime.name!r} overlaps or is out of order with {prev.name!r}"
                )
            prev = regime

    @classmethod
    def from_tuples(cls, triples) -> "RegimeSpec":
        return cls(regimes=tuple(Regime(str(n), int(a), int(b)) for n, a, b in triples))

    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.regimes)

    def label_for(self, year: int) -> str | None:
        for regime in self.regimes:
            if regime.contains(year):
                return regime.name
        return None


@dataclass(frozen=True)
class Partition:
    """Per-point regime labels for one series (None = unassigned)."""

    labels: tuple[str | None, ...]
    counts: tuple[tuple[str, int], ...]
    unassigned: int

    def count_map(self) -> dict[str, int]:
        return dict(self.counts)


def partition(series: TimeSeries, spec: RegimeSpec) -> Partition:
    """Label every point of the series with its regime.

    Points outside all intervals are reported as unassigned rather than
    dropped; interval validity is enforced by RegimeSpec itself. Years
    increase strictly and regimes are ordered and disjoint, so each
    regime covers one contiguous slice of the points.
    """
    years = series.years
    labels = [None] * len(years)
    counts = []
    for regime in spec.regimes:
        lo = bisect_left(years, regime.start_year)
        hi = bisect_right(years, regime.end_year, lo)
        labels[lo:hi] = [regime.name] * (hi - lo)
        counts.append((regime.name, hi - lo))
    assigned = sum(count for _, count in counts)
    return Partition(labels=tuple(labels), counts=tuple(counts), unassigned=len(years) - assigned)
