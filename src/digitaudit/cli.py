"""Command-line interface.

Subcommands:
  analyze    full audit of a CSV file (report + histogram CSVs)
  transform  emit a transformed series as CSV
  fit        imperfect-law fit of a first-digit histogram file
  synth      generate a synthetic digit-law-conforming series

Exit codes: 0 success, 2 configuration/usage, 3 ingestion, 4 domain or
empty data, 1 anything else.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .digit_extract import round_real
from .errors import (
    ConfigError,
    DigitAuditError,
    DomainError,
    EmptySeriesError,
    IngestError,
    UnsupportedPositionError,
)
from .gof_tests import DigitHistogram
from .imperfect_fit import fit_imperfect
from .ingest import load_csv, load_regimes, synth_benford
from .report import AuditConfig, run_audit
from .transforms import Scope, TheilBase, TransformKind, TransformName, apply_transform

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_INGEST = 3
EXIT_DOMAIN = 4


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(exc, EXIT_CONFIG)
    except IngestError as exc:
        return _fail(exc, EXIT_INGEST)
    except (DomainError, EmptySeriesError, UnsupportedPositionError) as exc:
        return _fail(exc, EXIT_DOMAIN)
    except DigitAuditError as exc:
        return _fail(exc, EXIT_ERROR)
    except OSError as exc:
        return _fail(exc, EXIT_INGEST)


def _fail(exc, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digitaudit",
        description="Significant-digit conformity auditing of numeric datasets.",
    )
    sub = parser.add_subparsers(required=True, metavar="command")

    p = sub.add_parser("analyze", help="full audit: tests, fits, histograms, report")
    p.add_argument("--input", required=True, help="input CSV with a year column")
    p.add_argument("--outdir", required=True, help="directory for report and histogram CSVs")
    p.add_argument("--year-column", default="year")
    p.add_argument("--columns", help="comma-separated value columns (default: all)")
    p.add_argument("--regimes", help="regime CSV (name,start_year,end_year)")
    p.add_argument("--transforms", default="identity,theil",
                   help="comma list of identity,theil,relative,log-relative")
    p.add_argument("--theil-base", choices=[b.value for b in TheilBase], default="natural")
    p.add_argument("--scope", choices=[s.value for s in Scope], default="whole",
                   help="mean scope for relative/log-relative")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("transform", help="emit one transformed series as CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--column", required=True, help="value column to transform")
    p.add_argument("--year-column", default="year")
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in TransformName])
    p.add_argument("--theil-base", choices=[b.value for b in TheilBase], default="natural")
    p.add_argument("--scope", choices=[s.value for s in Scope], default="whole")
    p.add_argument("--regimes")
    p.add_argument("--output", help="output CSV (default: stdout)")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("fit", help="imperfect-law fit of a first-digit histogram CSV")
    p.add_argument("--histogram", required=True,
                   help="CSV with digit,count or digit,regime,position,count")
    p.add_argument("--output", help="write the fit as key=value lines to this file")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("synth", help="generate a conforming synthetic series")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--generator", choices=["weyl", "random"], default="weyl")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--decades", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start-year", type=int, default=1)
    p.add_argument("--label", default="synthetic")
    p.add_argument("--output", help="output CSV (default: stdout)")
    p.set_defaults(func=_cmd_synth)

    return parser


def _parse_transforms(names: str, base: str, scope: str) -> tuple[TransformKind, ...]:
    kinds = []
    for name in names.split(","):
        name = name.strip()
        if not name:
            continue
        kinds.append(_make_kind(name, base, scope))
    if not kinds:
        raise ConfigError("no transforms selected")
    return tuple(kinds)


def _make_kind(name: str, base: str, scope: str) -> TransformKind:
    try:
        tname = TransformName(name)
    except ValueError:
        raise ConfigError(
            f"unknown transform {name!r} (expected one of "
            f"{', '.join(k.value for k in TransformName)})"
        ) from None
    return TransformKind(tname, base=TheilBase(base), scope=Scope(scope))


def _cmd_analyze(args) -> int:
    columns = tuple(c.strip() for c in args.columns.split(",")) if args.columns else None
    config = AuditConfig(
        input_path=args.input,
        output_dir=args.outdir,
        year_column=args.year_column,
        columns=columns,
        regimes_path=args.regimes,
        transforms=_parse_transforms(args.transforms, args.theil_base, args.scope),
    )
    report = run_audit(config)
    for sa in report.series:
        for variant in sa.variants:
            if variant.tests is None:
                print(f"{sa.label}/{variant.variant}: skipped ({variant.skipped_reason})")
                continue
            verdicts = "  ".join(
                f"{key}={res.verdict}({res.statistic:.4g})"
                for key, res in variant.tests.items()
            )
            print(f"{sa.label}/{variant.variant}: {verdicts}")
            if variant.fit is not None:
                fit = variant.fit
                print(
                    f"{sa.label}/{variant.variant}: imperfect fit "
                    f"s={fit.s:.6g} n_s={fit.n_s} chi2={fit.chi2:.6g} surface={fit.surface:.6g}"
                )
    print(f"report written to {args.outdir}")
    return EXIT_OK


def _cmd_transform(args) -> int:
    loaded = load_csv(args.input, args.year_column, (args.column,))
    series = loaded.series[0]
    regimes = load_regimes(args.regimes) if args.regimes else None
    kind = _make_kind(args.kind, args.theil_base, args.scope)
    outcome = apply_transform(series, kind, regimes)

    flagged = kind.name is TransformName.LOG_RELATIVE
    lines = ["year,value,nonpositive" if flagged else "year,value"]
    for year, value, positive in zip(outcome.years, outcome.values, outcome.positive):
        if flagged:
            # outputs may be negative here, so use plain float formatting
            lines.append(f"{year},{value:.12g},{str(not positive).lower()}")
        elif outcome.exact:
            lines.append(f"{year},{value}")
        else:
            lines.append(f"{year},{round_real(value)}")
    text = "\n".join(lines) + "\n"

    if outcome.excluded:
        print(
            f"excluded {len(outcome.excluded)} of {len(series)} points (non-positive image)",
            file=sys.stderr,
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_fit(args) -> int:
    hist = _load_histogram(args.histogram)
    fit = fit_imperfect(hist)
    lines = [
        f"s = {fit.s:.10g}",
        f"n_s = {fit.n_s}",
        f"chi2 = {fit.chi2:.10g}",
        f"surface = {fit.surface:.10g}",
        f"minimum_location = {fit.minimum_location:.10g}",
        f"degenerate = {str(fit.degenerate).lower()}",
    ]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    sys.stdout.write(text)
    return EXIT_OK


def _load_histogram(path) -> DigitHistogram:
    """Accept both bare digit,count files and audit histogram exports."""
    counts: dict[int, float] = {}
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        fields = reader.fieldnames or []
        if "digit" not in fields or "count" not in fields:
            raise IngestError(f"{path}: histogram file needs digit,count columns")
        positional = "position" in fields
        for line, row in enumerate(reader, start=2):
            try:
                if positional and int(row["position"]) != 1:
                    continue
                digit = int(row["digit"])
                count = float(row["count"])
            except (TypeError, ValueError) as exc:
                raise IngestError(f"bad histogram row {row!r}", line=line) from exc
            counts[digit] = counts.get(digit, 0) + count
    if 0 in counts and counts[0] == 0:
        counts.pop(0)  # exports at position 1 never carry digit 0
    return DigitHistogram.from_counts(1, counts)


def _cmd_synth(args) -> int:
    series = synth_benford(
        count=args.count,
        generator=args.generator,
        scale=args.scale,
        decades=args.decades,
        seed=args.seed,
        start_year=args.start_year,
        label=args.label,
    )
    lines = ["year,value"] + [f"{year},{value}" for year, value in zip(series.years, series.values)]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
