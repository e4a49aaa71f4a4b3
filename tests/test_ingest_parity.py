"""load_csv (csv.reader, cells by header index) against the DictReader loader
it replaced, on generated hostile CSV files.

The oracle is the DictReader version with one deliberate difference: it
numbers lines with the underlying reader's line_num, so a blank line no
longer shifts the line an error names. Every file must give the same
LoadResult, or the same error type and message, and `digitaudit analyze`
must exit with a documented code and no traceback.
"""

import contextlib
import csv
import io
import tempfile
from decimal import Decimal, InvalidOperation
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from digitaudit.cli import main
from digitaudit.errors import IngestError
from digitaudit.ingest import LoadResult, load_csv
from digitaudit.series import TimeSeries
from digitaudit.transforms import Scope, TheilBase, TransformKind


def dictreader_load_csv(path, year_column="year", value_columns=None):
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames
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

        points = {c: [] for c in value_columns}
        skipped = {c: 0 for c in value_columns}
        seen_years = {c: set() for c in value_columns}
        last_year = {}
        rows = 0
        for row in reader:
            line = reader.reader.line_num
            rows += 1
            year_cell = (row.get(year_column) or "").strip()
            if not year_cell:
                for column in value_columns:
                    skipped[column] += 1
                continue
            try:
                year = int(year_cell)
            except ValueError as exc:
                raise IngestError(f"bad year {year_cell!r}", line=line) from exc
            for column in value_columns:
                cell = (row.get(column) or "").strip()
                if not cell:
                    skipped[column] += 1
                    continue
                try:
                    value = Decimal(cell)
                except InvalidOperation as exc:
                    raise IngestError(f"column {column!r}: bad number {cell!r}", line=line) from exc
                if not value.is_finite() or value <= 0:
                    raise IngestError(f"column {column!r}: value must be positive, got {cell!r}", line=line)
                if year in seen_years[column]:
                    raise IngestError(f"column {column!r}: duplicate year {year}", line=line)
                if column in last_year and year < last_year[column]:
                    raise IngestError(f"column {column!r}: year {year} out of order", line=line)
                seen_years[column].add(year)
                last_year[column] = year
                points[column].append((year, value))

    series = tuple(TimeSeries.from_pairs(c, points[c]) for c in value_columns)
    return LoadResult(series=series, skipped=tuple((c, skipped[c]) for c in value_columns), rows=rows)


def outcome(fn, *args):
    """fn's result, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - type and message are what is compared
        return type(exc), str(exc)


names = st.sampled_from(["year", "a", "b", "a b", ""])
value_cells = st.one_of(
    st.integers(1, 10**7).map(str),
    st.decimals(min_value=Decimal("0.001"), max_value=Decimal("1E+7"), places=None,
                allow_nan=False, allow_infinity=False).map(str),
    st.sampled_from(["", " ", " 12.5 ", "1e400", "1E-400", "NaN", "-0", "0", "0x10", "-3",
                     "abc", "1E+5", "0.001", "Infinity", '"1,5"', '"7\n"', "1_000",
                     "1E+400", "5E-324", "1E+308"]),
)


@st.composite
def csv_texts(draw):
    header = draw(st.lists(names, min_size=1, max_size=4))
    lines = [",".join(header)]
    year = draw(st.integers(-5, 2000))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "short", "long"]))
        if kind == "blank":
            lines.append("")
            continue
        step = draw(st.sampled_from([1, 1, 1, 2, 0, -1]))
        year += step
        year_cell = draw(st.sampled_from([str(year), str(year), str(year), "", " ", "x", "1.5"]))
        width = len(header) - 1 + {"row": 0, "short": -1, "long": 2}[kind]
        cells = [draw(value_cells) for _ in range(max(width, 0))]
        lines.append(",".join([year_cell] + cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + newline.join(lines) + draw(st.sampled_from(["", newline]))


def write(directory, text, name="data.csv"):
    path = Path(directory) / name
    path.write_bytes(text.encode("utf-8"))
    return str(path)


EXAMPLES = [
    "year,value\n1,10\n\n3,abc\n",
    "\ufeffyear,a,a\r\n1,2,3\r\n\r\n2,4,5\r\n",
    "year,a,year\n5,10,1\n6,20,\n",
    "year,a,b\n1,10\n\n2,20,30,40\n",
    "year,a\n1,1e400\n",
    "year,a\n1,NaN\n",
    "year,a\n1,-0\n",
    "year,a\n1,0x10\n",
    "year,a\n1,\"7\n\"\n2,x\n",
    "",
    "\n",
    "a,b\n1,2\n",
]


@settings(max_examples=300, deadline=None)
@given(text=csv_texts())
@example(text=EXAMPLES[0])
@example(text=EXAMPLES[1])
@example(text=EXAMPLES[2])
@example(text=EXAMPLES[3])
@example(text=EXAMPLES[4])
@example(text=EXAMPLES[5])
@example(text=EXAMPLES[6])
@example(text=EXAMPLES[7])
@example(text=EXAMPLES[8])
@example(text=EXAMPLES[9])
@example(text=EXAMPLES[10])
@example(text=EXAMPLES[11])
def test_load_csv_matches_dictreader(text):
    with tempfile.TemporaryDirectory() as directory:
        path = write(directory, text)
        assert outcome(load_csv, path) == outcome(dictreader_load_csv, path)
        assert outcome(load_csv, path, "year", ("a",)) == \
            outcome(dictreader_load_csv, path, "year", ("a",))


# every transform, base and scope; a per-regime scope without a regime file is
# a configuration error (exit 2)
TRANSFORMS = [(kind.name.value, kind.base.value, kind.scope.value) for kind in (
    TransformKind.identity(),
    TransformKind.theil(),
    TransformKind.theil(TheilBase.DECIMAL),
    TransformKind.relative(),
    TransformKind.relative(Scope.PER_REGIME),
    TransformKind.log_relative(),
    TransformKind.log_relative(Scope.PER_REGIME),
)]
HOSTILE = "year,value\n1,{}\n2,20\n3,30\n"


@settings(max_examples=120, deadline=None)
@given(text=csv_texts(), transform=st.sampled_from(TRANSFORMS), with_regimes=st.booleans())
@example(text=EXAMPLES[0], transform=TRANSFORMS[1], with_regimes=False)
@example(text=EXAMPLES[4], transform=TRANSFORMS[1], with_regimes=False)
@example(text=EXAMPLES[9], transform=TRANSFORMS[1], with_regimes=False)
@example(text=HOSTILE.format("1E+400"), transform=TRANSFORMS[5], with_regimes=False)
@example(text=HOSTILE.format("1E-400"), transform=TRANSFORMS[6], with_regimes=True)
@example(text=HOSTILE.format("5E-324"), transform=TRANSFORMS[5], with_regimes=False)
@example(text="year,value\n1,1E+308\n2,1E+308\n3,30\n", transform=TRANSFORMS[3],
         with_regimes=False)
@example(text="year,value\n1,1E+308\n2,1E+308\n3,30\n", transform=TRANSFORMS[6],
         with_regimes=True)
def test_analyze_exits_with_documented_code(text, transform, with_regimes):
    name, base, scope = transform
    with tempfile.TemporaryDirectory() as directory:
        path = write(directory, text)
        argv = ["analyze", "--input", path, "--outdir", str(Path(directory) / "out"),
                "--transforms", name, "--theil-base", base, "--scope", scope]
        if with_regimes:
            argv += ["--regimes", write(directory, "name,start_year,end_year\nall,-10,3000\n",
                                        "regimes.csv")]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)  # an uncaught exception fails the test with its traceback
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()
