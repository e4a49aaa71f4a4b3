"""Chi-square conformity machinery and the four-test battery."""

import math

import pytest

from digitaudit import synth_benford
from digitaudit.errors import DomainError, EmptySeriesError, UnsupportedPositionError
from digitaudit.gof_tests import (
    CRITICAL_VALUES,
    DigitHistogram,
    GofResult,
    battery_on_histograms,
    chi2_benford,
    chi2_uniform,
    run_battery,
)
from digitaudit.series import TimeSeries
from digitaudit.transforms import TransformKind


def first_digit_counts(integers):
    """Independent first-digit tally reading integer strings character-wise."""
    counts = {}
    for v in integers:
        d = int(str(v)[0])
        counts[d] = counts.get(d, 0) + 1
    return counts


class TestDigitHistogram:
    def test_totals_and_lookup(self):
        hist = DigitHistogram.from_digits(1, [1, 1, 2, 9])
        assert hist.total == 4
        assert hist.count(1) == 2
        assert hist.count(5) == 0

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            DigitHistogram.from_digits(1, [0, 1])
        with pytest.raises(DomainError):
            DigitHistogram.from_counts(2, {11: 3})

    def test_breakdown_must_sum(self):
        with pytest.raises(DomainError):
            DigitHistogram.from_counts(1, {1: 3}, {"A": {1: 1}})

    def test_breakdown_happy_path(self):
        hist = DigitHistogram.from_digits(1, [1, 1, 2], ["A", "B", "A"])
        by_name = {name: dict(counts) for name, counts in hist.regime_breakdown}
        assert by_name["A"][1] == 1 and by_name["A"][2] == 1
        assert by_name["B"][1] == 1

    def test_unassigned_label(self):
        hist = DigitHistogram.from_digits(1, [3, 3], ["A", None])
        names = [name for name, _ in hist.regime_breakdown]
        assert "unassigned" in names


class TestChiSquare:
    def test_exact_expectation_scores_zero(self):
        counts = {d: 64 * math.log10(1 + 1 / d) for d in range(1, 10)}
        result = chi2_benford(DigitHistogram.from_counts(1, counts))
        assert result.statistic == pytest.approx(0.0, abs=1e-18)
        assert result.verdict == "consistent"

    def test_uniform_integer_zero_case(self):
        result = chi2_uniform(DigitHistogram.from_counts(1, {d: 8 for d in range(1, 10)}))
        assert result.statistic == 0.0
        assert result.verdict == "consistent"

    def test_degenerate_mass_vs_uniform_closed_form(self):
        # all N first digits equal: the statistic collapses to 8N exactly
        hist = DigitHistogram.from_counts(1, {1: 64})
        result = chi2_uniform(hist)
        direct = math.fsum((c - 64 / 9) ** 2 / (64 / 9) for c in [64, 0, 0, 0, 0, 0, 0, 0, 0])
        assert result.statistic == pytest.approx(512.0, abs=1e-9)
        assert result.statistic == pytest.approx(direct, abs=1e-9)
        assert result.verdict == "rejected"

    def test_degenerate_mass_vs_log_law_expansion(self):
        # expansion oracle: N*(1-p1)^2/p1 + N*sum(p_d, d>=2), equal to N*(1-p1)/p1
        p1 = math.log10(2)
        tail = math.fsum(math.log10(1 + 1 / d) for d in range(2, 10))
        expansion = 64 * (1 - p1) ** 2 / p1 + 64 * tail
        assert expansion == pytest.approx(64 * (1 - p1) / p1, abs=1e-9)
        result = chi2_benford(DigitHistogram.from_counts(1, {1: 64}))
        assert result.statistic == pytest.approx(expansion, abs=1e-9)
        assert result.verdict == "rejected"

    def test_powers_of_two_conform(self):
        counts = first_digit_counts([2 ** k for k in range(1, 1001)])
        hist = DigitHistogram.from_counts(1, counts)
        assert chi2_benford(hist).statistic < 15.5
        assert chi2_benford(hist).verdict == "consistent"
        uniform = chi2_uniform(hist)
        assert uniform.statistic > 15.5
        assert uniform.verdict == "rejected"

    def test_dof_and_critical_values(self):
        first = chi2_benford(DigitHistogram.from_counts(1, {1: 10, 2: 5}))
        second = chi2_benford(DigitHistogram.from_counts(2, {0: 10, 5: 5}))
        assert (first.dof, first.critical_value) == (8, 15.5)
        assert (second.dof, second.critical_value) == (9, 16.9)
        assert CRITICAL_VALUES == {8: 15.5, 9: 16.9}

    def test_positions_beyond_second_not_tested(self):
        hist = DigitHistogram.from_digits(3, [0, 1, 2])
        with pytest.raises(UnsupportedPositionError):
            chi2_benford(hist)
        with pytest.raises(UnsupportedPositionError):
            chi2_uniform(hist)

    def test_empty_histogram(self):
        with pytest.raises(EmptySeriesError):
            chi2_benford(DigitHistogram.from_counts(1, {}))

    def test_small_expected_caveat(self):
        small = chi2_benford(DigitHistogram.from_counts(1, {1: 64}))
        assert small.small_expected  # 64 * p(9) is below 5
        big = chi2_benford(DigitHistogram.from_counts(1, {1: 10000}))
        assert not big.small_expected

    def test_verdict_is_pure_threshold(self):
        assert GofResult.decide(15.5, 15.5) == "consistent"
        assert GofResult.decide(15.500001, 15.5) == "rejected"


class TestBattery:
    def test_conforming_series_identity(self):
        series = synth_benford(2000, "weyl", decades=3)
        battery = run_battery(series)
        tests = battery.variants["raw"].tests
        assert tests["first_benford"].verdict == "consistent"
        assert tests["second_benford"].verdict == "consistent"
        assert tests["first_uniform"].verdict == "rejected"
        assert tests["second_uniform"].verdict == "rejected"

    def test_constant_series_rejected(self):
        series = TimeSeries.from_pairs("const", [(1900 + i, "5000") for i in range(64)])
        battery = run_battery(series)
        assert battery.variants["raw"].tests["first_benford"].verdict == "rejected"

    def test_transform_variant_present_with_exclusions(self):
        series = TimeSeries.from_pairs(
            "mixed", [(1900, "0.5"), (1901, "20"), (1902, "300"), (1903, "4000")]
        )
        battery = run_battery(series, TransformKind.theil())
        assert set(battery.variants) == {"raw", "theil-natural"}
        assert battery.variants["theil-natural"].excluded == 1
        assert battery.variants["theil-natural"].histograms[1].total == 3

    def test_all_excluded_is_an_error(self):
        series = TimeSeries.from_pairs("sub", [(1900, "0.2"), (1901, "0.4")])
        with pytest.raises(EmptySeriesError):
            run_battery(series, TransformKind.theil())

    def test_empty_series_is_an_error(self):
        with pytest.raises(EmptySeriesError):
            run_battery(TimeSeries("empty", (), ()))

    def test_battery_on_histograms_keys(self):
        h1 = DigitHistogram.from_digits(1, [1, 2, 3])
        h2 = DigitHistogram.from_digits(2, [0, 5, 9])
        results = battery_on_histograms(h1, h2)
        assert list(results) == [
            "first_benford", "second_benford", "first_uniform", "second_uniform",
        ]
