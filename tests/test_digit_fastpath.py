"""Digit extraction and tallying against the per-value code they replaced.

digits_of_points reads computed floats from one format(v, '.11e') string
and exact Decimals from their str() mantissa; DigitHistogram.from_digits
tallies with Counter. The oracles are the per-value SignificantDigits path
(significant_digits / significant_digits_from_real, which stay public) and
the dict-loop tally kept below.
"""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from digitaudit.digit_extract import significant_digits, significant_digits_from_real
from digitaudit.errors import DomainError
from digitaudit.gof_tests import DigitHistogram, digits_of_points

POSITIONS = tuple(range(1, 14))


def points_of(values):
    """The value column digits_of_points reads."""
    return tuple(values)


def oracle_digits(values, exact):
    sig = significant_digits if exact else significant_digits_from_real
    sigs = [sig(v) for v in values]
    return {k: [s.digit_at(k) for s in sigs] for k in POSITIONS}


def dict_loop_histogram(position, digits, regime_labels=None):
    """The per-item dict tally from_digits used before Counter."""
    digits = list(digits)
    counts = {}
    for d in digits:
        counts[d] = counts.get(d, 0) + 1
    breakdown = None
    if regime_labels is not None:
        regime_labels = list(regime_labels)
        if len(regime_labels) != len(digits):
            raise DomainError("regime labels must align with the digit sequence")
        breakdown = {}
        for d, lab in zip(digits, regime_labels):
            name = lab if lab is not None else "unassigned"
            breakdown.setdefault(name, {})
            breakdown[name][d] = breakdown[name].get(d, 0) + 1
    return DigitHistogram.from_counts(position, counts, breakdown)


def outcome(fn, *args):
    """fn's result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


positive_floats = st.floats(
    min_value=5e-324, allow_nan=False, allow_infinity=False, allow_subnormal=True,
)
# cells as ingest stores them, trailing zeros and exponent forms included
positive_decimals = st.decimals(
    min_value=Decimal("1E-30"), max_value=Decimal("1E+30"), allow_nan=False,
    allow_infinity=False, places=None,
) | st.builds(
    lambda digits, exp: Decimal((0, tuple(digits), exp)),
    st.lists(st.integers(0, 9), min_size=1, max_size=20).filter(any),
    st.integers(-30, 30),
)

SPECIAL_FLOATS = [
    5e-324,  # smallest subnormal: one significant digit
    2.2250738585072014e-308,  # smallest normal
    1234567890125.0,  # exact tie at the 12th digit: half-even keeps ...012
    0.5**40,  # exact binary fraction with a long decimal expansion
    9.9999999999995e5,  # rounds up across a decade
    9.99999999999949e5,
    1.7976931348623157e308,
    1.0,
    0.1,
]


class TestRealDigits:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(positive_floats, min_size=1, max_size=20))
    @example(values=SPECIAL_FLOATS)
    def test_matches_rendered_decimal(self, values):
        assert digits_of_points(points_of(values), False, POSITIONS) == oracle_digits(values, False)

    def test_tie_rounds_half_even(self):
        got = digits_of_points(points_of([1234567890125.0]), False, POSITIONS)
        assert [got[k][0] for k in (10, 11, 12, 13)] == [0, 1, 2, 0]

    def test_decade_round_up(self):
        got = digits_of_points(points_of([9.9999999999995e5]), False, (1, 2, 12))
        assert got == {1: [1], 2: [0], 12: [0]}

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(
        positive_floats | positive_decimals | st.integers(1, 10**30)
        | positive_floats.map(np.float64), min_size=1, max_size=10,
    ))
    def test_other_types_take_the_old_path(self, values):
        assert digits_of_points(points_of(values), False, POSITIONS) == oracle_digits(values, False)

    @pytest.mark.parametrize("bad", [
        math.nan, math.inf, -math.inf, 0.0, -0.0, -1.5, -5e-324,
        Decimal("0"), Decimal("-3"), Decimal("Infinity"), "abc", None,
    ])
    def test_same_exception_as_old_path(self, bad):
        values = [2.5, bad]
        expected = outcome(oracle_digits, values, False)
        assert isinstance(expected, type) and issubclass(expected, Exception)
        assert outcome(digits_of_points, points_of(values), False, POSITIONS) is expected


class TestExactDigits:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(positive_decimals, min_size=1, max_size=20))
    @example(values=[Decimal("1E+5"), Decimal("1.500"), Decimal("7000.000"),
                     Decimal((0, (0, 0, 1, 2, 3), -2)), Decimal("123456789012345678")])
    def test_matches_significant_digits(self, values):
        assert digits_of_points(points_of(values), True, POSITIONS) == oracle_digits(values, True)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(
        st.integers(1, 10**20) | st.integers(1, 10**9).map(str) | positive_decimals,
        min_size=1, max_size=10,
    ))
    def test_other_types_take_the_old_path(self, values):
        assert digits_of_points(points_of(values), True, POSITIONS) == oracle_digits(values, True)

    @pytest.mark.parametrize("bad", [
        Decimal("NaN"), Decimal("Infinity"), Decimal("-Infinity"), Decimal("0"),
        Decimal("-0"), Decimal("0E+3"), Decimal("-12.5"), Decimal((0, (0, 0), 1)),
        2.5, math.nan, 0, -7, "12,5",
    ])
    def test_same_exception_as_old_path(self, bad):
        values = [Decimal("7.25"), bad]
        expected = outcome(oracle_digits, values, True)
        assert isinstance(expected, type) and issubclass(expected, Exception)
        assert outcome(digits_of_points, points_of(values), True, POSITIONS) is expected


class TestPositions:
    def test_zero_position_rejected(self):
        with pytest.raises(DomainError):
            digits_of_points(points_of([2.5]), False, (0, 1))
        with pytest.raises(DomainError):
            digits_of_points(points_of([Decimal("2.5")]), True, (0, 1))

    def test_no_points(self):
        assert digits_of_points((), False, (1, 2, 13)) == {1: [], 2: [], 13: []}


labels = st.sampled_from(["A", "B", "unassigned", None])


class TestHistogramParity:
    @settings(max_examples=200, deadline=None)
    @given(position=st.sampled_from([1, 2, 3]),
           digits=st.lists(st.integers(0, 9), max_size=60))
    def test_without_labels(self, position, digits):
        expected = outcome(dict_loop_histogram, position, digits)
        assert outcome(DigitHistogram.from_digits, position, digits) == expected

    @settings(max_examples=200, deadline=None)
    @given(position=st.sampled_from([1, 2]),
           pairs=st.lists(st.tuples(st.integers(0, 9), labels), max_size=60))
    def test_with_labels(self, position, pairs):
        digits = [d for d, _ in pairs]
        regime_labels = [lab for _, lab in pairs]
        expected = outcome(dict_loop_histogram, position, digits, regime_labels)
        # equal breakdown tuples also means the same regime order
        assert outcome(DigitHistogram.from_digits, position, digits, regime_labels) == expected

    def test_breakdown_in_order_of_first_appearance(self):
        hist = DigitHistogram.from_digits(1, [5, 1, 1, 2], ["B", None, "A", "B"])
        assert [name for name, _ in hist.regime_breakdown] == ["B", "unassigned", "A"]
        assert hist == dict_loop_histogram(1, [5, 1, 1, 2], ["B", None, "A", "B"])

    def test_none_and_unassigned_merge(self):
        hist = DigitHistogram.from_digits(2, [3, 3, 0], [None, "unassigned", None])
        assert hist == dict_loop_histogram(2, [3, 3, 0], [None, "unassigned", None])
        assert dict(dict(hist.regime_breakdown)["unassigned"])[3] == 2

    def test_zero_at_position_one_rejected(self):
        with pytest.raises(DomainError):
            DigitHistogram.from_digits(1, [1, 0, 2], ["A", "B", "A"])

    def test_misaligned_labels_rejected(self):
        with pytest.raises(DomainError):
            DigitHistogram.from_digits(1, [1, 2], ["A"])
