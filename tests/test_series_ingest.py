"""Series types, CSV ingestion, regime partitioning, synthetic generation."""

import math
from decimal import Decimal

import pytest

from digitaudit.errors import ConfigError, DomainError, IngestError
from digitaudit.gof_tests import DigitHistogram, chi2_benford
from digitaudit.ingest import load_csv, load_regimes, synth_benford
from digitaudit.series import Regime, RegimeSpec, TimeSeries, partition

TABLE_REGIMES = RegimeSpec.from_tuples([("I", 1922, 1940), ("II", 1941, 1966), ("III", 1967, 2001)])


class TestTimeSeries:
    def test_from_pairs(self):
        series = TimeSeries.from_pairs("x", [(1922, "7013"), (1923, 8000)])
        assert series.years == (1922, 1923)
        assert series.values == (Decimal("7013"), Decimal("8000"))

    def test_years_strictly_increasing(self):
        with pytest.raises(DomainError):
            TimeSeries.from_pairs("x", [(1922, "1"), (1922, "2")])
        with pytest.raises(DomainError):
            TimeSeries.from_pairs("x", [(1930, "1"), (1925, "2")])

    def test_columns_and_points_view(self):
        with pytest.raises(DomainError, match="2 years, 1 values"):
            TimeSeries("x", (1922, 1923), (Decimal("7013"),))
        series = TimeSeries("x", (1922, 1923), (Decimal("7013"), Decimal("8000")))
        assert series.points is series.points
        assert series.points == tuple(zip(series.years, series.values))

    def test_values_positive(self):
        with pytest.raises(DomainError):
            TimeSeries.from_pairs("x", [(1922, "-5")])
        with pytest.raises(DomainError):
            TimeSeries.from_pairs("x", [(1922, "0")])


class TestRegimes:
    def test_overlap_rejected(self):
        with pytest.raises(ConfigError):
            RegimeSpec.from_tuples([("A", 1920, 1940), ("B", 1935, 1950)])
        with pytest.raises(ConfigError):
            RegimeSpec.from_tuples([("B", 1950, 1960), ("A", 1920, 1940)])

    def test_duplicate_name_rejected(self):
        # two intervals under one name would each count both in partition()
        with pytest.raises(ConfigError, match="'a' is used twice"):
            RegimeSpec.from_tuples([("a", 1, 1), ("b", 2, 2), ("a", 3, 3)])

    def test_backwards_interval_rejected(self):
        with pytest.raises(ConfigError):
            Regime("A", 1940, 1930)

    def test_partition_boundaries(self):
        series = TimeSeries.from_pairs("x", [(1940, "1"), (1941, "2"), (2003, "3")])
        part = partition(series, TABLE_REGIMES)
        assert part.labels == ("I", "II", None)
        assert part.unassigned == 1

    def test_counts_are_slice_lengths(self):
        series = TimeSeries.from_pairs("x", [(y, "1") for y in (1, 2, 5, 6, 7, 12, 20)])
        spec = RegimeSpec.from_tuples([("A", 0, 2), ("B", 4, 6), ("C", 8, 11), ("D", 12, 30)])
        part = partition(series, spec)
        assert part.labels == ("A", "A", "B", "B", None, "D", "D")
        assert part.counts == (("A", 2), ("B", 2), ("C", 0), ("D", 2))
        assert part.unassigned == 1

    def test_empty_spec_assigns_nothing(self):
        series = TimeSeries.from_pairs("x", [(1950, "1")])
        part = partition(series, RegimeSpec())
        assert part.labels == (None,)
        assert part.unassigned == 1


class TestLoadCsv:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_gaps_preserved(self, tmp_path):
        path = self.write(tmp_path, "year,income\n1922,10\n1923,20\n1925,30\n")
        result = load_csv(path)
        series = result.series[0]
        assert len(series) == 3
        assert series.years == (1922, 1923, 1925)

    def test_negative_value_is_row_error(self, tmp_path):
        path = self.write(tmp_path, "year,income\n1922,10\n1923,-5\n")
        with pytest.raises(IngestError, match="line 3"):
            load_csv(path)

    def test_malformed_number_reports_line(self, tmp_path):
        path = self.write(tmp_path, "year,income\n1922,10\n1923,12x4\n")
        with pytest.raises(IngestError, match="line 3"):
            load_csv(path)

    def test_duplicate_year_is_hard_error(self, tmp_path):
        path = self.write(tmp_path, "year,income\n1922,10\n1922,20\n")
        with pytest.raises(IngestError, match="duplicate"):
            load_csv(path)

    def test_revisited_year_is_duplicate_not_out_of_order(self, tmp_path):
        path = self.write(tmp_path, "year,income\n1922,10\n1923,20\n1922,30\n")
        with pytest.raises(IngestError, match="line 4: column 'income': duplicate year 1922"):
            load_csv(path)

    def test_out_of_order_year_rejected(self, tmp_path):
        path = self.write(tmp_path, "year,income\n1930,10\n1925,20\n")
        with pytest.raises(IngestError, match="out of order"):
            load_csv(path)

    def test_empty_cells_skipped_and_counted(self, tmp_path):
        path = self.write(tmp_path, "year,income,expenses\n1922,10,\n1923,,30\n1924,40,50\n")
        result = load_csv(path)
        by_label = result.by_label()
        assert len(by_label["income"]) == 2
        assert len(by_label["expenses"]) == 2
        assert result.skipped_map() == {"income": 1, "expenses": 1}

    def test_column_selection(self, tmp_path):
        path = self.write(tmp_path, "year,a,b\n1922,1,2\n")
        result = load_csv(path, value_columns=("b",))
        assert [s.label for s in result.series] == ["b"]
        with pytest.raises(IngestError):
            load_csv(path, value_columns=("missing",))

    def test_missing_year_column(self, tmp_path):
        path = self.write(tmp_path, "date,income\n1922,10\n")
        with pytest.raises(IngestError):
            load_csv(path)

    def test_line_number_counts_blank_lines(self, tmp_path):
        path = self.write(tmp_path, "year,value\n1,10\n\n3,abc\n")
        with pytest.raises(IngestError, match="line 4: column 'value': bad number 'abc'"):
            load_csv(path)

    def test_blank_rows_not_counted(self, tmp_path):
        path = self.write(tmp_path, "year,value\n\n1,10\n\n\n2,20\n")
        result = load_csv(path)
        assert result.rows == 2
        assert result.skipped_map() == {"value": 0}

    def test_short_row_reads_missing_cells_as_empty(self, tmp_path):
        path = self.write(tmp_path, "year,a,b\n1,10\n2,20,30\n")
        result = load_csv(path)
        assert [len(s) for s in result.series] == [2, 1]
        assert result.skipped_map() == {"a": 0, "b": 1}

    def test_duplicate_header_name_reads_last_column(self, tmp_path):
        path = self.write(tmp_path, "year,a,year\n5,10,1\n6,20,2\n")
        series = load_csv(path, value_columns=("a",)).series[0]
        assert series.years == (1, 2)

    def test_regime_line_number_counts_blank_lines(self, tmp_path):
        path = self.write(tmp_path, "name,start_year,end_year\nA,1,2\n\nB,x,4\n", "regimes.csv")
        with pytest.raises(IngestError, match="line 4: bad regime row"):
            load_regimes(path)

    def test_short_regime_row_is_ingest_error(self, tmp_path):
        path = self.write(tmp_path, "name,start_year,end_year\nA,1\n", "regimes.csv")
        with pytest.raises(IngestError, match="line 2: bad regime row"):
            load_regimes(path)

    def test_bad_year(self, tmp_path):
        path = self.write(tmp_path, "year,income\nabc,10\n")
        with pytest.raises(IngestError, match="line 2"):
            load_csv(path)


class TestBundledExample:
    def test_loads_64_points_per_column(self, budget_path):
        result = load_csv(budget_path)
        assert [s.label for s in result.series] == ["income", "expenses"]
        assert all(len(s) == 64 for s in result.series)

    def test_regime_counts_match_partitioning(self, budget_path, regimes_path):
        series = load_csv(budget_path).series[0]
        part = partition(series, load_regimes(regimes_path))
        assert part.count_map() == {"I": 14, "II": 20, "III": 30}
        assert part.unassigned == 0

    def test_magnitude_span(self, budget_path):
        values = [float(v) for s in load_csv(budget_path).series for v in s.values]
        assert min(values) < 1e4
        assert max(values) > 7e6


class TestSynth:
    def test_weyl_deterministic(self):
        a = synth_benford(9, "weyl")
        b = synth_benford(9, "weyl")
        assert a.points == b.points
        assert len(a) == 9

    def test_seeded_random_reproducible(self):
        a = synth_benford(50, "random", seed=123)
        b = synth_benford(50, "random", seed=123)
        c = synth_benford(50, "random", seed=124)
        assert a.points == b.points
        assert a.points != c.points

    def test_weyl_conforms(self):
        series = synth_benford(2000, "weyl", decades=2)
        digits = [int(str(v).replace(".", "").lstrip("0")[0]) for v in series.values]
        result = chi2_benford(DigitHistogram.from_digits(1, digits))
        assert result.statistic < 15.5

    def test_scale_shifts_values(self):
        base = synth_benford(5, "weyl", scale=1.0)
        scaled = synth_benford(5, "weyl", scale=100.0)
        for (_, v1), (_, v2) in zip(base.points, scaled.points):
            assert math.isclose(float(v2), 100.0 * float(v1), rel_tol=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            synth_benford(0, "weyl")
        with pytest.raises(DomainError):
            synth_benford(5, "weyl", decades=0)
        with pytest.raises(ConfigError):
            synth_benford(5, "sobol")

    def test_regime_file_round_trip(self, regimes_path):
        spec = load_regimes(regimes_path)
        assert spec.names() == ("I", "II", "III")
        assert spec.label_for(1940) == "I"
        assert spec.label_for(1941) == "II"
        assert spec.label_for(2002) is None
