"""Audit orchestration and report emission.

An audit runs, per series and per configured transform: digit histograms
for positions 1-4 (with regime breakdown), the four-test chi-square grid
on positions 1 and 2, and an imperfect-law fit of the first-digit
histogram. Results are written as one structured key-value text document
plus plot-ready histogram CSVs (header: digit,regime,position,count).
The library's run_battery runs the same per-variant step at positions 1
and 2, on the raw series and one transform, without the fit.

Reports are deterministic: identical input and configuration produce
byte-identical output. Nothing time- or environment-dependent is
embedded.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from dataclasses import dataclass, field, replace

from . import __version__ as _version
from .errors import ConfigError, DomainError, EmptySeriesError
from .gof_tests import DigitHistogram, GofResult, battery_on_histograms, digits_of_points
from .imperfect_fit import ImperfectFitResult, fit_imperfect
from .ingest import load_csv, load_regimes
from .series import Partition, RegimeSpec, TimeSeries, partition as partition_series
from .transforms import TransformKind, TransformName, apply_transform

HISTOGRAM_POSITIONS = (1, 2, 3, 4)
HISTOGRAM_CSV_HEADER = "digit,regime,position,count"


@dataclass(frozen=True)
class AuditConfig:
    """Everything an analyze run needs; echoed verbatim into the report."""

    input_path: str
    output_dir: str
    year_column: str = "year"
    columns: tuple[str, ...] | None = None
    regimes_path: str | None = None
    transforms: tuple[TransformKind, ...] = field(
        default_factory=lambda: (TransformKind.identity(), TransformKind.theil())
    )
    report_name: str = "audit_report.txt"


@dataclass(frozen=True)
class VariantAudit:
    """One data variant (raw or transformed) of one series."""

    variant: str
    analyzed: int
    excluded: int
    histograms: dict[int, DigitHistogram]
    tests: dict[str, GofResult] | None
    fit: ImperfectFitResult | None = None
    fit_note: str | None = None
    skipped_reason: str | None = None


@dataclass(frozen=True)
class SeriesAudit:
    label: str
    n_points: int
    rows_skipped: int
    partition: Partition | None
    variants: tuple[VariantAudit, ...]


@dataclass(frozen=True)
class AuditReport:
    config: AuditConfig
    series: tuple[SeriesAudit, ...]

    def render(self) -> str:
        return render_report(self)


@dataclass(frozen=True)
class BatteryResult:
    """Raw-and-transformed test grids for one series."""

    label: str
    variants: dict[str, VariantAudit]


def _variant(series: TimeSeries, labels, kind: TransformKind, regimes: RegimeSpec | None,
             positions) -> VariantAudit:
    """Histograms and the four-test grid of one transform of a series, whose
    points carry the regime labels given (or None); skipped_reason is set,
    and histograms and tests are empty, when the transform excludes every point.
    """
    outcome = apply_transform(series, kind, regimes)
    years, values = outcome.kept()
    hists = {}
    if values:
        hists = _kept_histograms(series, labels, years, values, outcome.exact, positions)
    return VariantAudit(
        variant=kind.variant_label(),
        analyzed=len(values),
        excluded=outcome.excluded_for_analysis,
        histograms=hists,
        tests=battery_on_histograms(hists[1], hists[2]) if values else None,
        skipped_reason=None if values else "all values excluded by transform",
    )


def _kept_histograms(series, labels, years, values, exact, positions) -> dict[int, DigitHistogram]:
    """Digit histograms of a variant's kept (years, values) at each position.

    labels are the regime labels of every series point (or None). Kept
    years are a subsequence of the series' strictly increasing years, so
    each one's label is found by bisection when some points were dropped.
    """
    if labels is not None and len(years) != len(labels):
        all_years = series.years
        labels = [labels[bisect_left(all_years, year)] for year in years]
    digit_map = digits_of_points(values, exact, positions)
    return {k: DigitHistogram.from_digits(k, digit_map[k], labels) for k in positions}


def _with_fit(variant: VariantAudit) -> VariantAudit:
    """The variant with its first-digit imperfect-law fit, or the reason it has none."""
    if variant.skipped_reason:
        return variant
    first = variant.histograms[1]
    if first.total < 9:
        return replace(variant, fit_note="skipped: fewer than 9 analyzable points")
    return replace(variant, fit=fit_imperfect(first))


def audit_series(series: TimeSeries, transforms, regimes: RegimeSpec | None = None,
                 rows_skipped: int = 0) -> SeriesAudit:
    """Audit one series under every configured transform."""
    series.require_nonempty()
    part = partition_series(series, regimes) if regimes is not None else None
    labels = part.labels if part is not None else None
    return SeriesAudit(
        label=series.label,
        n_points=len(series),
        rows_skipped=rows_skipped,
        partition=part,
        variants=tuple(
            _with_fit(_variant(series, labels, kind, regimes, HISTOGRAM_POSITIONS))
            for kind in transforms
        ),
    )


def run_battery(series: TimeSeries, transform: TransformKind | None = None,
                regimes: RegimeSpec | None = None) -> BatteryResult:
    """Run the four-test grid on the raw series and, when a non-identity
    transform is given, on the transformed series as well; each variant is
    a VariantAudit with histograms at positions 1 and 2 and no fit.

    Transform rejections are reported as exclusion counts; a transform
    that excludes every point raises EmptySeriesError.
    """
    series.require_nonempty()
    labels = partition_series(series, regimes).labels if regimes is not None else None
    kinds = [TransformKind.identity()]
    if transform is not None and transform.name is not TransformName.IDENTITY:
        kinds.append(transform)

    variants: dict[str, VariantAudit] = {}
    for kind in kinds:
        variant = _variant(series, labels, kind, regimes, (1, 2))
        if variant.skipped_reason:
            raise EmptySeriesError(
                f"transform {variant.variant} excluded every point "
                f"({variant.excluded} of {len(series)})"
            )
        variants[variant.variant] = variant
    return BatteryResult(label=series.label, variants=variants)


def run_audit(config: AuditConfig) -> AuditReport:
    """Full audit: load, analyze, write the report and histogram CSVs."""
    loaded = load_csv(config.input_path, config.year_column, config.columns)
    regimes = load_regimes(config.regimes_path) if config.regimes_path else None
    skipped = loaded.skipped_map()
    # every histogram file name is checked before any audit work or output
    owners: dict[str, tuple[str, str]] = {}
    for series in loaded.series:
        for kind in config.transforms:
            pair = (series.label, kind.variant_label())
            name = f"hist_{_slug(pair[0])}_{_slug(pair[1])}.csv"
            if name in owners:
                raise ConfigError(f"series {owners[name][0]!r} variant {owners[name][1]!r} and "
                                  f"series {pair[0]!r} variant {pair[1]!r} would both write {name}")
            owners[name] = pair
    csv_names = {pair: name for name, pair in owners.items()}

    audits = tuple(
        audit_series(series, config.transforms, regimes, rows_skipped=skipped[series.label])
        for series in loaded.series
    )
    report = AuditReport(config=config, series=audits)

    os.makedirs(config.output_dir, exist_ok=True)
    report_path = os.path.join(config.output_dir, config.report_name)
    with open(report_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(report.render())
    for series_audit in audits:
        for variant in series_audit.variants:
            if not variant.histograms:
                continue
            csv_path = os.path.join(
                config.output_dir, csv_names[series_audit.label, variant.variant]
            )
            with open(csv_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(render_histogram_csv(variant, regimes))
    return report


def render_histogram_csv(variant: VariantAudit, regimes: RegimeSpec | None) -> str:
    """Plot-ready stacked-histogram rows for one variant."""
    lines = [HISTOGRAM_CSV_HEADER]
    for position in HISTOGRAM_POSITIONS:
        hist = variant.histograms.get(position)
        if hist is None:
            continue
        breakdown = hist.regime_breakdown
        if breakdown is None:
            groups = [("all", dict(hist.counts))]
        else:
            by_name = {name: dict(counts) for name, counts in breakdown}
            order = list(regimes.names()) if regimes is not None else sorted(by_name)
            if "unassigned" in by_name and "unassigned" not in order:
                order.append("unassigned")
            groups = [(name, by_name[name]) for name in order if name in by_name]
        for name, counts in groups:
            for digit in hist.domain():
                count = counts.get(digit, 0)
                lines.append(f"{digit},{name},{position},{_fmt_count(count)}")
    return "\n".join(lines) + "\n"


def render_report(report: AuditReport) -> str:
    """The full audit as an INI-style nested key-value document."""
    out: list[str] = []

    def section(name, pairs):
        out.append(f"[{name}]")
        for key, value in pairs:
            out.append(f"{key} = {value}")
        out.append("")

    config = report.config
    section("audit", [("tool", "digitaudit"), ("version", _version)])
    section("config", [
        ("input", config.input_path),
        ("year_column", config.year_column),
        ("columns", ",".join(config.columns) if config.columns else "(all)"),
        ("regimes", config.regimes_path or "(none)"),
        ("transforms", ",".join(k.variant_label() for k in config.transforms)),
        ("output_dir", config.output_dir),
    ])

    for sa in report.series:
        base = f"series.{sa.label}"
        pairs = [("points", sa.n_points), ("rows_skipped", sa.rows_skipped)]
        if sa.partition is not None:
            pairs.append(("unassigned", sa.partition.unassigned))
        section(base, pairs)
        if sa.partition is not None:
            section(f"{base}.regime_counts", list(sa.partition.counts))
        for variant in sa.variants:
            vbase = f"{base}.variant.{variant.variant}"
            pairs = [
                ("analyzed", variant.analyzed),
                ("excluded", variant.excluded),
            ]
            if variant.skipped_reason:
                pairs.append(("skipped", variant.skipped_reason))
            section(vbase, pairs)
            for position in HISTOGRAM_POSITIONS:
                hist = variant.histograms.get(position)
                if hist is None:
                    continue
                rows = [(f"digit_{d}", _fmt_count(hist.count(d))) for d in hist.domain()]
                rows.append(("total", _fmt_count(hist.total)))
                section(f"{vbase}.histogram.position_{position}", rows)
            if variant.tests is not None:
                for key, result in variant.tests.items():
                    section(f"{vbase}.test.{key}", [
                        ("statistic", _fmt(result.statistic)),
                        ("dof", result.dof),
                        ("critical_value", _fmt(result.critical_value)),
                        ("reference", result.reference),
                        ("verdict", result.verdict),
                        ("small_expected_caveat", str(result.small_expected).lower()),
                    ])
            if variant.fit is not None:
                fit = variant.fit
                section(f"{vbase}.imperfect_fit", [
                    ("s", _fmt(fit.s)),
                    ("n_s", fit.n_s),
                    ("chi2", _fmt(fit.chi2)),
                    ("surface", _fmt(fit.surface)),
                    ("minimum_location", _fmt(fit.minimum_location)),
                    ("degenerate", str(fit.degenerate).lower()),
                ])
            elif variant.fit_note:
                section(f"{vbase}.imperfect_fit", [("note", variant.fit_note)])
    return "\n".join(out)


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return format(float(x), ".12g")


def _fmt_count(x) -> str:
    if float(x) == int(x):
        return str(int(x))
    return format(float(x), ".12g")


def _slug(text: str) -> str:
    cleaned = "".join(ch if ch.isalnum() or ch in "-_." else "-" for ch in text.strip())
    if not cleaned:
        raise DomainError(f"cannot derive a file name from label {text!r}")
    return cleaned
