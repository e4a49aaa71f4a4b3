"""Transforms: the x*ln(x) map, relative normalization, inequality index."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from digitaudit import load_csv, load_regimes
from digitaudit.errors import ConfigError, DomainError, EmptySeriesError, NonPositiveImageError
from digitaudit.series import RegimeSpec, TimeSeries, partition
from digitaudit.transforms import (
    Scope,
    TheilBase,
    TransformKind,
    apply_transform,
    log_relative,
    relative,
    theil_index,
    theil_map,
)

LN10 = math.log(10.0)


def make_series(values, label="t"):
    return TimeSeries.from_pairs(label, [(1900 + i, str(v)) for i, v in enumerate(values)])


class TestTheilMap:
    def test_ten(self):
        assert theil_map(10.0) == pytest.approx(10 * math.log(10), abs=1e-12)

    def test_decimal_base_value(self):
        assert theil_map(7000.0, TheilBase.DECIMAL) == pytest.approx(
            7000 * math.log10(7000), rel=1e-14
        )

    def test_one_maps_to_zero_and_is_rejected(self):
        with pytest.raises(NonPositiveImageError):
            theil_map(1.0)

    def test_subunit_rejected_with_flag(self):
        with pytest.raises(NonPositiveImageError) as excinfo:
            theil_map(0.5)
        assert excinfo.value.value == 0.5

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.nan])
    def test_nonpositive_is_domain_error(self, bad):
        with pytest.raises(DomainError):
            theil_map(bad)

    @pytest.mark.parametrize("base", list(TheilBase))
    def test_overflowing_image_is_domain_error(self, base):
        with pytest.raises(DomainError, match=r"^x\*ln\(x\) of 1e\+308 overflows a float$"):
            theil_map(1e308, base)

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.floats(min_value=1.0 + 1e-9, max_value=1e9),
        step=st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_strictly_increasing(self, x, step):
        assert theil_map(x + step * max(1.0, x * 1e-6)) > theil_map(x)

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(min_value=1.0 + 1e-9, max_value=1e12))
    def test_base_relation(self, x):
        assert theil_map(x, TheilBase.DECIMAL) == pytest.approx(
            theil_map(x, TheilBase.NATURAL) / LN10, rel=1e-12
        )


class TestRelative:
    def test_constant_series(self):
        out = relative(make_series([7, 7, 7]))
        assert [p.value for p in out.points] == [1.0, 1.0, 1.0]

    def test_two_point_series(self):
        out = relative(make_series([2, 4]))
        assert [p.value for p in out.points] == pytest.approx([2 / 3, 4 / 3], abs=1e-15)

    def test_whole_range_mean_is_one(self):
        out = relative(make_series([3, 14, 159, 2.6, 53]))
        mean = math.fsum(p.value for p in out.points) / len(out.points)
        assert abs(mean - 1.0) < 1e-12

    def test_per_regime_means_are_one(self, budget_path, regimes_path):
        series = load_csv(budget_path).series[0]
        regimes = load_regimes(regimes_path)
        out = relative(series, Scope.PER_REGIME, regimes)
        labels = partition(series, regimes).labels
        for name in regimes.names():
            group = [p.value for p, lab in zip(out.points, labels) if lab == name]
            assert group
            assert abs(math.fsum(group) / len(group) - 1.0) < 1e-12

    def test_per_regime_requires_spec(self):
        with pytest.raises(ConfigError):
            relative(make_series([1, 2, 3]), Scope.PER_REGIME)

    def test_per_regime_requires_coverage(self):
        spec = RegimeSpec.from_tuples([("A", 1900, 1901)])
        with pytest.raises(ConfigError):
            relative(make_series([1, 2, 3]), Scope.PER_REGIME, spec)


class TestLogRelative:
    def test_mean_point_is_zero_and_flagged(self):
        out = log_relative(make_series([5, 5, 5]))
        assert all(p.value == 0.0 for p in out.points)
        assert all(not p.positive for p in out.points)
        assert out.excluded_for_analysis == 3

    def test_e_times_mean_maps_to_one(self):
        b = 2 * math.e / (3 - math.e)  # third point sits at e times the mean
        out = log_relative(make_series([1.0, 1.0, b]))
        assert out.points[2].value == pytest.approx(1.0, abs=1e-12)

    def test_geometric_ladder_clusters_near_integers(self):
        values = [7.0 * math.exp(k) for k in (-2, -1, 1, 2)]
        out = log_relative(make_series(values))
        for p in out.points:
            assert abs(p.value - round(p.value)) < 0.1

    def test_counts_nonpositive_outputs(self):
        out = log_relative(make_series([1, 2, 3, 4]))
        below = sum(1 for p in out.points if not p.positive)
        assert below == out.excluded_for_analysis == 2  # 1 and 2 sit below the mean of 2.5


class TestRelativeDomain:
    """Relative maps refuse a value with no finite positive ratio to its scope mean."""

    COVER = RegimeSpec.from_tuples([("all", 1900, 1999)])

    @pytest.mark.parametrize("kind", [
        TransformKind.relative(), TransformKind.relative(Scope.PER_REGIME),
        TransformKind.log_relative(), TransformKind.log_relative(Scope.PER_REGIME),
    ], ids=lambda k: k.variant_label())
    @pytest.mark.parametrize("cells,year", [
        (["1E+400", "20", "30"], 1900),  # float inf: inf / inf is nan
        (["20", "30", "1E-400"], 1902),  # float 0.0
        (["5E-324", "20", "30"], 1900),  # the ratio underflows to 0.0
        (["1E+308", "1E+308", "30"], 1900),  # the sum overflows, so the mean is inf
        (["1E-400"], 1900),  # the scope mean is 0.0
    ])
    def test_domain_error_names_transform_and_year(self, kind, cells, year):
        series = make_series(cells)
        with pytest.raises(DomainError, match=rf"^{kind.variant_label()}: year {year}: "):
            apply_transform(series, kind, self.COVER)

    def test_huge_values_with_a_finite_mean_pass(self):
        out = relative(make_series(["1E+307", "1E+307", "30"]))
        assert out.points[0].value == pytest.approx(1.5, rel=1e-12)


class TestTheilIndex:
    def test_constant_series_is_exactly_zero(self):
        assert theil_index([5.0, 5.0, 5.0]) == 0.0
        assert theil_index(make_series([123, 123])) == 0.0

    def test_two_point_value(self):
        expected = 0.5 * (0.5 * math.log(0.5) + 1.5 * math.log(1.5))
        assert theil_index([1.0, 3.0]) == pytest.approx(expected, abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1, max_size=40))
    def test_nonnegative(self, values):
        assert theil_index(values) >= 0.0

    @pytest.mark.parametrize("c", [0.5, 7.0, 1000.0])
    def test_scale_invariant(self, c):
        values = [3.0, 14.0, 159.0, 2.65, 35.0, 8.9]
        assert theil_index([c * v for v in values]) == pytest.approx(
            theil_index(values), abs=1e-12
        )

    def test_empty_rejected(self):
        with pytest.raises(EmptySeriesError):
            theil_index([])

    def test_overflowing_sum_is_domain_error(self):
        with pytest.raises(DomainError, match=r"^inequality index: "):
            theil_index(make_series(["1E+308", "1E+308", "30"]))

    def test_underflowing_ratio_adds_its_limit(self):
        # 5e-324 over the mean 5e307 is 0.0, whose term x*ln(x) tends to 0
        assert theil_index([5e-324, 1e308]) == pytest.approx(math.log(2.0), rel=1e-15)


class TestApplyTransform:
    def test_identity_keeps_exact_decimals(self):
        series = make_series(["7013", "1.0"])
        out = apply_transform(series, TransformKind.identity())
        assert out.exact
        assert [p.value for p in out.points] == list(series.values)

    def test_theil_counts_subunit_exclusions(self):
        series = make_series(["0.5", "2", "3"])
        out = apply_transform(series, TransformKind.theil())
        assert len(out.points) == 2
        assert len(out.excluded) == 1
        assert out.excluded[0].reason == "non-positive image"
        assert len(out.points) + len(out.excluded) == len(series)

    def test_theil_all_excluded(self):
        series = make_series(["0.1", "0.5", "0.9"])
        out = apply_transform(series, TransformKind.theil())
        assert not out.points
        assert out.excluded_for_analysis == 3

    def test_theil_values(self):
        series = make_series(["10"])
        natural = apply_transform(series, TransformKind.theil())
        decimal = apply_transform(series, TransformKind.theil(TheilBase.DECIMAL))
        assert natural.points[0].value == pytest.approx(23.02585092994046, abs=1e-12)
        assert decimal.points[0].value == pytest.approx(10.0, abs=1e-12)

    def test_variant_labels(self):
        assert TransformKind.identity().variant_label() == "raw"
        assert TransformKind.theil().variant_label() == "theil-natural"
        assert TransformKind.theil(TheilBase.DECIMAL).variant_label() == "theil-decimal"
        assert TransformKind.relative(Scope.PER_REGIME).variant_label() == "relative-regime"
        assert TransformKind.log_relative().variant_label() == "log-relative"
