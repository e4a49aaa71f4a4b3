"""The column pipeline (transforms -> regime labels -> histograms) against
the per-point code it replaced.

TransformedSeries stores years, values and sign flags as tuples, partition
labels regimes by bisecting the sorted years, and _kept_histograms narrows
labels by index. The oracles below are the per-point versions: one frozen
TransformedPoint per value with a per-point try around theil_map, a linear
regime search per year, labels narrowed through a set of kept years, and
digits read through the public SignificantDigits path.
"""

import math
import time
from dataclasses import dataclass
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from digitaudit.digit_extract import significant_digits, significant_digits_from_real
from digitaudit.errors import ConfigError, DomainError, EmptySeriesError, NonPositiveImageError
from digitaudit.gof_tests import DigitHistogram, battery_on_histograms, digits_of_points
from digitaudit.report import (
    AuditConfig,
    BatteryResult,
    VariantAudit,
    _kept_histograms,
    run_audit,
    run_battery,
)
from digitaudit.series import Partition, RegimeSpec, TimeSeries, partition
from digitaudit.transforms import (
    ExcludedPoint,
    Scope,
    TheilBase,
    TransformKind,
    TransformName,
    TransformedPoint,
    apply_transform,
    theil_map,
)

KINDS = [
    TransformKind.identity(),
    TransformKind.theil(),
    TransformKind.theil(TheilBase.DECIMAL),
    TransformKind.relative(),
    TransformKind.relative(Scope.PER_REGIME),
    TransformKind.log_relative(),
    TransformKind.log_relative(Scope.PER_REGIME),
]


# --- the per-point oracle -------------------------------------------------

@dataclass(frozen=True)
class PointSeries:
    points: tuple
    excluded: tuple
    exact: bool

    @property
    def excluded_for_analysis(self):
        return len(self.excluded) + sum(1 for p in self.points if not p.positive)

    def analyzable(self):
        return tuple(p for p in self.points if p.positive)


def point_partition(series, spec):
    labels = tuple(spec.label_for(year) for year in series.years)
    counts = tuple((name, sum(1 for lab in labels if lab == name)) for name in spec.names())
    return Partition(labels=labels, counts=counts, unassigned=sum(1 for lab in labels if lab is None))


def point_mean(floats):
    try:
        return math.fsum(floats) / len(floats)
    except OverflowError:
        return math.inf


def point_scope_means(series, scope, regimes):
    series.require_nonempty()
    floats = [float(v) for v in series.values]
    if scope is Scope.WHOLE_RANGE:
        mean = point_mean(floats)
        return [mean] * len(floats)
    if regimes is None:
        raise ConfigError("per-regime scope requires a regime specification")
    labels = point_partition(series, regimes).labels
    means = {}
    for name in regimes.names():
        group = [floats[i] for i, lab in enumerate(labels) if lab == name]
        if group:
            means[name] = point_mean(group)
    out = []
    for i, lab in enumerate(labels):
        if lab is None:
            raise ConfigError(
                f"year {series.points[i][0]} is outside every regime; "
                "per-regime scope needs full coverage"
            )
        out.append(means[lab])
    return out


def point_apply_transform(series, kind, regimes=None):
    series.require_nonempty()
    if kind.name is TransformName.IDENTITY:
        return PointSeries(tuple(TransformedPoint(y, v, True) for y, v in series.points), (), True)
    if kind.name in (TransformName.RELATIVE, TransformName.LOG_RELATIVE):
        means = point_scope_means(series, kind.scope, regimes)
        ratios = []
        for i, (year, value) in enumerate(series.points):
            x, mean = float(value), means[i]
            if not (mean > 0.0 and 0.0 < x / mean < math.inf):
                raise DomainError(
                    f"{kind.variant_label()}: year {year}: the value {x!r} over its scope "
                    f"mean {mean!r} is not a finite positive number"
                )
            ratios.append((year, x / mean))
        if kind.name is TransformName.RELATIVE:
            return PointSeries(tuple(TransformedPoint(year, r, True) for year, r in ratios),
                               (), False)
        points = []
        for year, r in ratios:
            y = math.log(r)
            points.append(TransformedPoint(year, y, y > 0.0))
        return PointSeries(tuple(points), (), False)
    points, excluded = [], []
    for year, value in series.points:
        try:
            points.append(TransformedPoint(year, theil_map(float(value), kind.base), True))
        except NonPositiveImageError:
            excluded.append(ExcludedPoint(year, value, "non-positive image"))
    return PointSeries(tuple(points), tuple(excluded), False)


def point_kept_histograms(series, labels, kept, exact, positions):
    kept_labels = None
    if labels is not None:
        kept_years = {p.year for p in kept}
        kept_labels = [lab for (year, _), lab in zip(series.points, labels) if year in kept_years]
    sig = significant_digits if exact else significant_digits_from_real
    sigs = [sig(p.value) for p in kept]
    return {
        k: DigitHistogram.from_digits(k, [s.digit_at(k) for s in sigs], kept_labels)
        for k in positions
    }


def point_run_battery(series, transform=None, regimes=None):
    series.require_nonempty()
    labels = point_partition(series, regimes).labels if regimes is not None else None
    kinds = [TransformKind.identity()]
    if transform is not None and transform.name is not TransformName.IDENTITY:
        kinds.append(transform)
    variants = {}
    for kind in kinds:
        outcome = point_apply_transform(series, kind, regimes)
        kept = outcome.analyzable()
        if not kept:
            raise EmptySeriesError(
                f"transform {kind.variant_label()} excluded every point "
                f"({outcome.excluded_for_analysis} of {len(series)})"
            )
        hists = point_kept_histograms(series, labels, kept, outcome.exact, (1, 2))
        variants[kind.variant_label()] = VariantAudit(
            variant=kind.variant_label(),
            analyzed=len(kept),
            excluded=outcome.excluded_for_analysis,
            histograms=hists,
            tests=battery_on_histograms(hists[1], hists[2]),
            fit=None,
        )
    return BatteryResult(label=series.label, variants=variants)


def outcome(fn, *args):
    """fn's result, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - type and message are what is compared
        return type(exc), str(exc)


# --- inputs ------------------------------------------------------------------

# values <= 1 (theil exclusions), log-relative values below their mean,
# decimals whose float is inf or 0.0, and one whose theil image overflows
values = st.one_of(
    st.decimals(min_value=Decimal("0.001"), max_value=Decimal("1E+9"), places=None,
                allow_nan=False, allow_infinity=False).filter(lambda d: d > 0),
    st.sampled_from([Decimal("1"), Decimal("0.5"), Decimal("1.000"), Decimal("7000"),
                     Decimal("2.5E+3"), Decimal("9.99999999999999999")]),
)
extreme_values = st.sampled_from([Decimal("1E+400"), Decimal("1E-400"), Decimal("1E+308")])


@st.composite
def series_and_regimes(draw, extremes=False):
    years = sorted(draw(st.sets(st.integers(1900, 2000), min_size=1, max_size=40)))
    cells = values | extreme_values if extremes else values
    series = TimeSeries.from_pairs("s", tuple((year, draw(cells)) for year in years))
    cuts = sorted(draw(st.sets(st.integers(1899, 2001), max_size=8)))
    if draw(st.booleans()):
        # disjoint intervals with gaps, which leave points unassigned
        regimes = [(f"r{i}", lo, hi) for i, (lo, hi) in enumerate(zip(cuts[::2], cuts[1::2]))]
    else:
        # contiguous intervals covering every year, as per-regime scopes need
        bounds = [1899] + [c for c in cuts if 1899 < c < 2001] + [2001]
        regimes = [(f"r{i}", lo + 1, hi) for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
        regimes[0] = ("r0", 1899, regimes[0][2])
    return series, RegimeSpec.from_tuples(regimes)


# --- differential tests ---------------------------------------------------

class TestAgainstPointPipeline:
    @settings(max_examples=150, deadline=None)
    @given(case=series_and_regimes(extremes=True))
    @example(case=(TimeSeries.from_pairs("s", ((1, Decimal("0.5")), (2, Decimal("1E+400")))),
                   RegimeSpec.from_tuples([("a", 1, 2)])))
    @example(case=(TimeSeries.from_pairs("s", ((1, Decimal("2")), (2, Decimal("1E-400")))),
                   RegimeSpec.from_tuples([("a", 1, 1)])))
    def test_transforms_match(self, case):
        series, regimes = case
        for kind in KINDS:
            new = outcome(apply_transform, series, kind, regimes)
            old = outcome(point_apply_transform, series, kind, regimes)
            if isinstance(old, PointSeries):
                assert not isinstance(new, tuple), (kind, new)
                # repr, so that floats compare as their exact printed values
                assert repr(new.points) == repr(old.points)
                assert new.excluded == old.excluded
                assert new.exact == old.exact
                assert new.excluded_for_analysis == old.excluded_for_analysis
                assert repr(new.kept()) == repr((tuple(p.year for p in old.analyzable()),
                                                 tuple(p.value for p in old.analyzable())))
            else:
                assert new == old, kind

    @settings(max_examples=150, deadline=None)
    @given(case=series_and_regimes(extremes=True))
    def test_partition_matches(self, case):
        series, regimes = case
        assert partition(series, regimes) == point_partition(series, regimes)

    @settings(max_examples=120, deadline=None)
    @given(case=series_and_regimes(extremes=True), with_regimes=st.booleans())
    def test_battery_matches(self, case, with_regimes):
        series, regimes = case
        regimes = regimes if with_regimes else None
        for kind in KINDS:
            assert outcome(run_battery, series, kind, regimes) == \
                outcome(point_run_battery, series, kind, regimes), kind

    @settings(max_examples=100, deadline=None)
    @given(case=series_and_regimes())
    def test_report_histograms_match(self, case):
        series, regimes = case
        labels = point_partition(series, regimes).labels
        for kind in KINDS:
            old = outcome(point_apply_transform, series, kind, regimes)
            if not isinstance(old, PointSeries) or not old.analyzable():
                continue
            new = apply_transform(series, kind, regimes)
            years, kept_values = new.kept()
            assert _kept_histograms(series, labels, years, kept_values, new.exact, (1, 2, 3, 4)) \
                == point_kept_histograms(series, labels, old.analyzable(), old.exact, (1, 2, 3, 4))


# --- properties -------------------------------------------------------------

class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(case=series_and_regimes())
    def test_regime_counts_conserved(self, case):
        series, regimes = case
        part = partition(series, regimes)
        assert sum(count for _, count in part.counts) + part.unassigned == len(series)
        assert part.count_map() == {
            name: part.labels.count(name) for name in regimes.names()
        }
        for kind in (TransformKind.identity(), TransformKind.theil()):
            out = apply_transform(series, kind, regimes)
            years, kept_values = out.kept()
            if not kept_values:
                continue
            hists = _kept_histograms(series, part.labels, years, kept_values, out.exact, (1, 2))
            for hist in hists.values():
                assert hist.total == len(kept_values)
                assert sum(sum(c for _, c in rc) for _, rc in hist.regime_breakdown) == hist.total

    @settings(max_examples=100, deadline=None)
    @given(column=st.lists(values, min_size=1, max_size=30), k=st.integers(-40, 40))
    # 49 significant digits: Decimal.scaleb would round it to 28 and carry into 125000000
    @example(column=[Decimal("124999999.9999999999999999999502121881884912627848")], k=0)
    def test_exact_digits_invariant_under_powers_of_ten(self, column, k):
        positions = tuple(range(1, 14))
        # rescale exactly: scaleb rounds to the context precision
        scaled = [Decimal((v.as_tuple().sign, v.as_tuple().digits, v.as_tuple().exponent + k))
                  for v in column]
        assert digits_of_points(scaled, True, positions) == digits_of_points(column, True, positions)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=series_and_regimes())
    def test_reports_byte_identical_on_rerun(self, case, tmp_path_factory):
        series, regimes = case
        work = tmp_path_factory.mktemp("rerun")
        data, regime_file = work / "data.csv", work / "regimes.csv"
        data.write_text("year,value\n" + "".join(f"{y},{v}\n" for y, v in series.points),
                        encoding="utf-8")
        regime_file.write_text(
            "name,start_year,end_year\n"
            + "".join(f"{r.name},{r.start_year},{r.end_year}\n" for r in regimes.regimes),
            encoding="utf-8",
        )
        outputs = []
        for run in ("one", "two"):
            config = AuditConfig(input_path=str(data), output_dir=str(work / "out"),
                                 regimes_path=str(regime_file),
                                 transforms=tuple(KINDS[:4]) + (KINDS[5],))
            run_audit(config)
            outputs.append({p.name: p.read_bytes() for p in sorted((work / "out").iterdir())})
        assert outputs[0] == outputs[1]


def test_kept_returns_stored_columns_when_nothing_is_flagged():
    series = TimeSeries.from_pairs("s", [(1, "5"), (2, "7")])
    out = apply_transform(series, TransformKind.theil())
    years, kept_values = out.kept()
    assert years is out.years and kept_values is out.values


def test_points_view_is_built_once():
    series = TimeSeries.from_pairs("s", [(1, "5"), (2, "0.5")])
    out = apply_transform(series, TransformKind.log_relative())
    assert out.points is out.points
    assert [p.positive for p in out.points] == list(out.positive)


@pytest.mark.parametrize("kind", [TransformKind.theil(), TransformKind.theil(TheilBase.DECIMAL)])
def test_nonfinite_float_is_domain_error(kind):
    series = TimeSeries.from_pairs("s", [(1, "0.5"), (2, "1E+400")])
    assert outcome(apply_transform, series, kind) == outcome(point_apply_transform, series, kind)
    assert outcome(apply_transform, series, kind)[0].__name__ == "DomainError"


@pytest.mark.parametrize("kind", [TransformKind.theil(), TransformKind.theil(TheilBase.DECIMAL)])
@pytest.mark.parametrize("cells, message", [
    (["0.5", "1E+308", "1E+400"], "x*ln(x) of 1e+308 overflows a float"),
    (["0.5", "1E+400", "1E+308"], "x*ln(x) requires x > 0, got inf"),
    (["1E+308", "2"], "x*ln(x) of 1e+308 overflows a float"),
])
def test_theil_raises_for_the_first_refused_year(kind, cells, message):
    series = TimeSeries.from_pairs("s", [(year, cell) for year, cell in enumerate(cells)])
    assert outcome(apply_transform, series, kind) == (DomainError, message)
    assert outcome(apply_transform, series, kind) == outcome(point_apply_transform, series, kind)


def test_per_regime_means_scale_linearly():
    # 2,000 regimes of 10 years each: a pass over every point per regime
    # took about 2 s on a 2-vCPU VM, one pass over the points about 0.02 s
    series = TimeSeries(
        "s", tuple(range(20_000)), tuple(Decimal(7000 + (i * 7919) % 10_007) for i in range(20_000))
    )
    regimes = RegimeSpec.from_tuples((f"r{k}", 10 * k, 10 * k + 9) for k in range(2_000))
    start = time.perf_counter()
    out = apply_transform(series, TransformKind.relative(Scope.PER_REGIME), regimes)
    assert time.perf_counter() - start < 0.5
    assert len(out.values) == 20_000
