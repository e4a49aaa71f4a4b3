"""CSV ingestion and synthetic series generation.

Input files are plain CSV with a header row, one year column and one or
more value columns. Values are kept as exact decimals from the file;
they never pass through binary floats. Rows with an empty cell are
skipped for that column (and counted); malformed or non-positive values
are hard errors carrying the line number, as are duplicate years.
"""

from __future__ import annotations

import csv
import logging
import math
import pathlib
import random
from bisect import bisect_left
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

from .digit_extract import round_real
from .errors import ConfigError, DomainError, IngestError
from .series import RegimeSpec, TimeSeries

logger = logging.getLogger(__name__)

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


def bundled_data_dir() -> pathlib.Path:
    """Directory holding the bundled synthetic example files."""
    return pathlib.Path(__file__).resolve().parent / "data"


@dataclass(frozen=True)
class LoadResult:
    """Parsed series plus per-column skip counts."""

    series: tuple[TimeSeries, ...]
    skipped: tuple[tuple[str, int], ...]
    rows: int

    def by_label(self) -> dict[str, TimeSeries]:
        return {s.label: s for s in self.series}

    def skipped_map(self) -> dict[str, int]:
        return dict(self.skipped)


def load_csv(path, year_column: str = "year", value_columns=None) -> LoadResult:
    """Load one TimeSeries per selected value column.

    value_columns defaults to every non-year column, in header order.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise IngestError(f"{path}: empty file, expected a header row")
        if year_column not in header:
            raise IngestError(f"{path}: no {year_column!r} column in header {header}")
        if value_columns is None:
            value_columns = [c for c in header if c != year_column]
        else:
            missing = [c for c in value_columns if c not in header]
            if missing:
                raise IngestError(f"{path}: columns not in header: {missing}")
        if not value_columns:
            raise IngestError(f"{path}: no value columns to load")

        # a name repeated in the header reads its last column
        index = {name: i for i, name in enumerate(header)}
        year_at = index[year_column]
        width = len(header)
        years: dict[str, list[int]] = {c: [] for c in value_columns}
        values: dict[str, list[Decimal]] = {c: [] for c in value_columns}
        cells_at = [(c, index[c], years[c], values[c]) for c in value_columns]
        skipped: dict[str, int] = {c: 0 for c in value_columns}
        rows = 0
        for row in reader:
            if not row:  # blank line
                continue
            rows += 1
            if len(row) < width:
                row += [""] * (width - len(row))
            year_cell = row[year_at].strip()
            if not year_cell:
                for column in value_columns:
                    skipped[column] += 1
                continue
            try:
                year = int(year_cell)
            except ValueError as exc:
                raise IngestError(f"bad year {year_cell!r}", line=reader.line_num) from exc
            for column, at, column_years, column_values in cells_at:
                cell = row[at].strip()
                if not cell:
                    skipped[column] += 1
                    continue
                try:
                    value = Decimal(cell)
                except InvalidOperation as exc:
                    raise IngestError(f"column {column!r}: bad number {cell!r}",
                                      line=reader.line_num) from exc
                if not value.is_finite() or value <= 0:
                    raise IngestError(f"column {column!r}: value must be positive, got {cell!r}",
                                      line=reader.line_num)
                if column_years and year <= column_years[-1]:
                    # the column's years so far increase strictly, so bisect finds a repeat
                    seen = column_years[bisect_left(column_years, year)] == year
                    problem = f"duplicate year {year}" if seen else f"year {year} out of order"
                    raise IngestError(f"column {column!r}: {problem}", line=reader.line_num)
                column_years.append(year)
                column_values.append(value)

    series = tuple(TimeSeries(c, tuple(years[c]), tuple(values[c])) for c in value_columns)
    for column in value_columns:
        if skipped[column]:
            logger.info("%s: column %r: skipped %d rows with empty cells", path, column, skipped[column])
    return LoadResult(
        series=series,
        skipped=tuple((c, skipped[c]) for c in value_columns),
        rows=rows,
    )


def load_regimes(path) -> RegimeSpec:
    """Read a regime file: CSV with header name,start_year,end_year."""
    triples = []
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        required = {"name", "start_year", "end_year"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise IngestError(f"{path}: regime file needs columns name,start_year,end_year")
        for row in reader:
            try:
                triples.append((row["name"].strip(), int(row["start_year"]), int(row["end_year"])))
            except (ValueError, TypeError, AttributeError) as exc:
                # reader.line_num is taken before DictReader skips blank lines
                raise IngestError(f"bad regime row {row!r}", line=reader.reader.line_num) from exc
    return RegimeSpec.from_tuples(triples)


def synth_benford(count: int, generator: str = "weyl", scale: float = 1.0,
                  decades: int = 1, seed: int = 0, start_year: int = 1,
                  label: str = "synthetic") -> TimeSeries:
    """Generate a series whose mantissas are log-uniform, hence conforming.

    generator "weyl": the j-th value is scale * 10^(frac(j*phi) * decades)
    with phi the golden ratio; the fractional parts equidistribute with
    the lowest possible discrepancy, so first-digit frequencies converge
    to the logarithmic law deterministically (no seed involved).

    generator "random": the exponent is uniform from Python's seeded
    Mersenne Twister (random.Random(seed).random()), reproducible across
    runs and platforms for a fixed seed.

    Values are rendered to 12 significant digits; years are consecutive
    from start_year.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    if decades < 1:
        raise DomainError(f"decades must be >= 1, got {decades}")
    if not (float(scale) > 0.0) or not math.isfinite(float(scale)):
        raise DomainError(f"scale must be positive, got {scale}")

    if generator == "weyl":
        exponents = (math.fmod(j * GOLDEN_RATIO, 1.0) * decades for j in range(1, count + 1))
    elif generator == "random":
        rng = random.Random(seed)
        exponents = (rng.random() * decades for _ in range(count))
    else:
        raise ConfigError(f"unknown generator {generator!r} (expected 'weyl' or 'random')")

    values = tuple(round_real(float(scale) * 10.0 ** exponent) for exponent in exponents)
    return TimeSeries(label, tuple(range(start_year, start_year + count)), values)
