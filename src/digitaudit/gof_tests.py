"""Pearson chi-square conformity tests for digit histograms.

First-digit counts are tested against the logarithmic law (9 bins, 8
degrees of freedom, critical value 15.5 at the 0.05 level) and second
digits against the position-2 law (10 bins, 9 degrees of freedom,
critical value 16.9). The same machinery compares against a uniform
reference, which conforming data should fail decisively.

The critical values are stored as the rounded tabulated numbers rather
than recomputed, so verdicts are bit-stable; no small-sample correction
is applied, but results flag expected counts below 5 as a caveat.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal

from . import digit_laws
from .digit_extract import REAL_RENDER_DIGITS, significant_digits, significant_digits_from_real
from .errors import DomainError, EmptySeriesError, UnsupportedPositionError

CRITICAL_VALUES = {8: 15.5, 9: 16.9}


@dataclass(frozen=True)
class DigitHistogram:
    """Observed counts of one significant-digit position.

    Domain is {1..9} at position 1 and {0..9} beyond. Counts are normally
    integers; non-negative reals are accepted so that exact (unrounded)
    expectations can be used as synthetic input. An optional breakdown
    maps regime names to per-digit counts that must sum to the totals.
    """

    position: int
    counts: tuple[tuple[int, float], ...]
    regime_breakdown: tuple[tuple[str, tuple[tuple[int, float], ...]], ...] | None = None

    def __post_init__(self):
        if self.position < 1:
            raise DomainError(f"digit position must be >= 1, got {self.position}")
        domain = self.domain()
        seen = set()
        for digit, count in self.counts:
            if digit not in domain:
                raise DomainError(f"digit {digit} outside domain for position {self.position}")
            if digit in seen:
                raise DomainError(f"digit {digit} listed twice")
            seen.add(digit)
            if not (count >= 0) or not math.isfinite(count):
                raise DomainError(f"count for digit {digit} must be a nonnegative number")
        if self.regime_breakdown is not None:
            sums = {d: 0.0 for d in domain}
            for _, regime_counts in self.regime_breakdown:
                for digit, count in regime_counts:
                    sums[digit] += count
            for digit in domain:
                if not math.isclose(sums[digit], self.count(digit), rel_tol=0.0, abs_tol=1e-9):
                    raise DomainError(
                        f"regime breakdown does not sum to total for digit {digit}"
                    )

    @classmethod
    def from_counts(cls, position, counts, regime_breakdown=None) -> "DigitHistogram":
        """Build from a {digit: count} mapping (and optional nested breakdown)."""
        domain = (1, 2, 3, 4, 5, 6, 7, 8, 9) if position == 1 else tuple(range(10))
        stray = sorted(set(counts) - set(domain))
        if stray:
            raise DomainError(f"digits {stray} outside domain for position {position}")
        packed = tuple((d, counts.get(d, 0)) for d in domain)
        breakdown = None
        if regime_breakdown is not None:
            for name, rc in regime_breakdown.items():
                stray = sorted(set(rc) - set(domain))
                if stray:
                    raise DomainError(f"regime {name!r}: digits {stray} outside domain")
            breakdown = tuple(
                (name, tuple((d, rc.get(d, 0)) for d in domain))
                for name, rc in regime_breakdown.items()
            )
        return cls(position=position, counts=packed, regime_breakdown=breakdown)

    @classmethod
    def from_digits(cls, position, digits, regime_labels=None) -> "DigitHistogram":
        """Tally a digit sequence; regime_labels, if given, align with it."""
        digits = list(digits)
        breakdown = None
        if regime_labels is not None:
            regime_labels = list(regime_labels)
            if len(regime_labels) != len(digits):
                raise DomainError("regime labels must align with the digit sequence")
            breakdown = {}
            for (lab, d), count in Counter(zip(regime_labels, digits)).items():
                regime = breakdown.setdefault(lab if lab is not None else "unassigned", {})
                regime[d] = regime.get(d, 0) + count
        return cls.from_counts(position, Counter(digits), breakdown)

    def domain(self) -> tuple[int, ...]:
        return digit_laws.FIRST_DIGITS if self.position == 1 else digit_laws.ALL_DIGITS

    def count(self, digit: int) -> float:
        for d, c in self.counts:
            if d == digit:
                return c
        return 0.0

    @property
    def total(self) -> float:
        return math.fsum(c for _, c in self.counts)

    def count_vector(self) -> tuple[float, ...]:
        return tuple(self.count(d) for d in self.domain())


@dataclass(frozen=True)
class GofResult:
    """One chi-square test outcome."""

    statistic: float
    dof: int
    critical_value: float
    reference: str  # "benford" or "uniform"
    verdict: str  # "consistent" or "rejected"
    small_expected: bool = False  # any expected count below 5

    @staticmethod
    def decide(statistic: float, critical_value: float) -> str:
        return "rejected" if statistic > critical_value else "consistent"


def chi2_benford(hist: DigitHistogram) -> GofResult:
    """Pearson test of a first- or second-digit histogram vs the digit law."""
    probs = _reference_probs(hist.position, "benford")
    return _pearson(hist, probs, "benford")


def chi2_uniform(hist: DigitHistogram) -> GofResult:
    """Pearson test against the uniform reference (1/9 or 1/10 per digit)."""
    probs = _reference_probs(hist.position, "uniform")
    return _pearson(hist, probs, "uniform")


def _reference_probs(position: int, reference: str) -> tuple[float, ...]:
    if position == 1:
        if reference == "benford":
            return digit_laws.first_digit_probs()
        return tuple(1.0 / 9.0 for _ in range(9))
    if position == 2:
        if reference == "benford":
            return digit_laws.second_digit_probs()
        return tuple(1.0 / 10.0 for _ in range(10))
    raise UnsupportedPositionError(
        f"position {position} is not tested (positions 3+ are displayed, not tested)"
    )


def _pearson(hist: DigitHistogram, probs, reference: str) -> GofResult:
    total = hist.total
    if total <= 0:
        raise EmptySeriesError("cannot test an empty histogram")
    observed = hist.count_vector()
    expected = [total * p for p in probs]
    statistic = math.fsum((o - e) ** 2 / e for o, e in zip(observed, expected))
    dof = 8 if hist.position == 1 else 9
    critical = CRITICAL_VALUES[dof]
    return GofResult(
        statistic=statistic,
        dof=dof,
        critical_value=critical,
        reference=reference,
        verdict=GofResult.decide(statistic, critical),
        small_expected=min(expected) < 5.0,
    )


def battery_on_histograms(first: DigitHistogram, second: DigitHistogram) -> dict[str, GofResult]:
    """The four-test grid on prepared position-1 and position-2 histograms."""
    return {
        "first_benford": chi2_benford(first),
        "second_benford": chi2_benford(second),
        "first_uniform": chi2_uniform(first),
        "second_uniform": chi2_uniform(second),
    }


def digits_of_points(values, exact: bool, positions=(1, 2)) -> dict[int, list[int]]:
    """Extract the requested digit positions from a column of values.

    An exact Decimal is read from str(v): the mantissa before any
    exponent, with the point dropped and leading zeros stripped, is its
    significant-digit string. A computed float is rendered once with
    format(v, '.11e'): Python's float formatting rounds the exact binary
    value half-even, as round_real does, so its 12 digits are those of
    significant_digits_from_real. Any other value, and any value the
    checks refuse, takes the significant_digits /
    significant_digits_from_real path.
    """
    if values and any(k < 1 for k in positions):
        raise DomainError(f"digit position must be >= 1, got {min(positions)}")
    if exact:
        rows = list(map(_stored_digits, values))
        # a row shorter than k is an exact decimal padded with zeros
        return {k: [_DIGIT[row[k - 1:k]] for row in rows] for k in positions}
    texts = [
        format(v, ".11e") if type(v) is float and 0.0 < v < math.inf else _rendered(v)
        for v in values
    ]
    out = {}
    for k in positions:
        # "d.ddddddddddde+XX": position 1 at index 0, position k <= 12 at index k
        index = 0 if k == 1 else k
        out[k] = [_DIGIT[t[index]] for t in texts] if k <= REAL_RENDER_DIGITS else [0] * len(texts)
    return out


_DIGIT = {"": 0, **{str(d): d for d in range(10)}}


def _stored_digits(value) -> str:
    """Significant digits of an exact value as a string, leading digit first."""
    if type(value) is Decimal:
        digits = str(value).partition("E")[0].replace(".", "").lstrip("0")
        # refuses "", NaN, Infinity, a sign, and a lower-case exponent
        if digits.isdigit():
            return digits
    return "".join(map(str, significant_digits(value).digits))


def _rendered(value) -> str:
    """A computed real outside the float fast path, in the '.11e' layout."""
    return format(significant_digits_from_real(value).to_decimal(), ".11e")
