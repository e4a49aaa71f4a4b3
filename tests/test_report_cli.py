"""Audit pipeline: reports, histogram exports, determinism, CLI surface."""

import csv

import pytest

from digitaudit.cli import main
from digitaudit.report import AuditConfig, run_audit
from digitaudit.transforms import TransformKind


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


def run_analyze(budget, regimes, outdir, extra=()):
    return main([
        "analyze", "--input", budget, "--regimes", regimes, "--outdir", str(outdir), *extra,
    ])


class TestRunAudit:
    @pytest.fixture()
    def report(self, budget_path, regimes_path, tmp_path):
        config = AuditConfig(
            input_path=budget_path,
            output_dir=str(tmp_path / "out"),
            regimes_path=regimes_path,
        )
        return run_audit(config)

    def test_count_conservation(self, report):
        for sa in report.series:
            assert sa.n_points == 64
            for variant in sa.variants:
                assert variant.analyzed + variant.excluded == sa.n_points
                for position, hist in variant.histograms.items():
                    assert hist.total == variant.analyzed, position

    def test_regime_totals_match_digitwise(self, report):
        for sa in report.series:
            for variant in sa.variants:
                for hist in variant.histograms.values():
                    assert hist.regime_breakdown is not None
                    sums = {d: 0.0 for d in hist.domain()}
                    for _, counts in hist.regime_breakdown:
                        for digit, count in counts:
                            sums[digit] += count
                    for digit in hist.domain():
                        assert sums[digit] == hist.count(digit)

    def test_histograms_cover_positions_one_to_four(self, report):
        for sa in report.series:
            for variant in sa.variants:
                assert sorted(variant.histograms) == [1, 2, 3, 4]

    def test_fits_present_for_both_variants(self, report):
        for sa in report.series:
            labels = [v.variant for v in sa.variants]
            assert labels == ["raw", "theil-natural"]
            assert all(v.fit is not None for v in sa.variants)

    def test_report_text_structure(self, report, tmp_path):
        text = read(tmp_path / "out" / "audit_report.txt").decode()
        assert "[series.income.regime_counts]" in text
        assert "I = 14" in text and "II = 20" in text and "III = 30" in text
        assert "[series.expenses.variant.theil-natural.test.first_benford]" in text
        assert "[series.income.variant.raw.imperfect_fit]" in text


class TestDeterminism:
    def test_reports_byte_identical(self, budget_path, regimes_path, tmp_path):
        outdir = tmp_path / "out"
        config = AuditConfig(
            input_path=budget_path, output_dir=str(outdir), regimes_path=regimes_path
        )
        run_audit(config)
        first = {p.name: read(p) for p in outdir.iterdir()}
        run_audit(config)
        second = {p.name: read(p) for p in outdir.iterdir()}
        assert first == second
        assert "audit_report.txt" in first and len(first) == 5


class TestHistogramCsv:
    def test_structure_and_cross_check(self, budget_path, regimes_path, tmp_path):
        outdir = tmp_path / "out"
        config = AuditConfig(
            input_path=budget_path, output_dir=str(outdir), regimes_path=regimes_path
        )
        report = run_audit(config)
        path = outdir / "hist_income_raw.csv"
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            assert reader.fieldnames == ["digit", "regime", "position", "count"]
            rows = list(reader)
        # stacked regime rows must sum to the in-memory histogram totals
        income = report.series[0]
        raw = income.variants[0]
        for position in (1, 2, 3, 4):
            total = sum(float(r["count"]) for r in rows if int(r["position"]) == position)
            assert total == raw.histograms[position].total
        regimes = {r["regime"] for r in rows}
        assert regimes == {"I", "II", "III"}


class TestEndToEnd:
    def test_conforming_input_verdicts(self, tmp_path):
        synth_csv = tmp_path / "synth.csv"
        assert main([
            "synth", "--count", "1000", "--generator", "weyl", "--decades", "3",
            "--scale", "7000", "--start-year", "1000", "--output", str(synth_csv),
        ]) == 0
        outdir = tmp_path / "out"
        config = AuditConfig(input_path=str(synth_csv), output_dir=str(outdir))
        report = run_audit(config)
        raw = report.series[0].variants[0]
        assert raw.tests["first_benford"].verdict == "consistent"
        assert raw.tests["second_benford"].verdict == "consistent"
        assert raw.tests["first_uniform"].verdict == "rejected"
        # at 1000 points the second digit cannot separate the law from
        # uniform (their distance is tiny); the statistic ordering still can
        assert raw.tests["second_uniform"].statistic > raw.tests["second_benford"].statistic
        assert raw.fit is not None and raw.fit.s < 0.01

    def test_regime_scoped_transforms_conserve_counts(self, budget_path, regimes_path, tmp_path):
        from digitaudit.transforms import Scope

        config = AuditConfig(
            input_path=budget_path,
            output_dir=str(tmp_path / "out"),
            regimes_path=regimes_path,
            transforms=(
                TransformKind.identity(),
                TransformKind.relative(Scope.PER_REGIME),
                TransformKind.log_relative(Scope.PER_REGIME),
            ),
        )
        report = run_audit(config)
        for sa in report.series:
            labels = [v.variant for v in sa.variants]
            assert labels == ["raw", "relative-regime", "log-relative-regime"]
            for variant in sa.variants:
                assert variant.analyzed + variant.excluded == sa.n_points
            log_rel = sa.variants[2]
            assert 0 < log_rel.excluded < sa.n_points  # values at or below their mean

    def test_all_subunit_values_skip_transform_tests(self, tmp_path):
        data = tmp_path / "sub.csv"
        data.write_text(
            "year,v\n" + "".join(f"{1900 + i},0.{i + 1:02d}\n" for i in range(12)),
            encoding="utf-8",
        )
        outdir = tmp_path / "out"
        report = run_audit(AuditConfig(input_path=str(data), output_dir=str(outdir)))
        theil = report.series[0].variants[1]
        assert theil.analyzed == 0
        assert theil.excluded == 12
        assert theil.tests is None
        assert theil.skipped_reason
        assert (outdir / "audit_report.txt").exists()


class TestCli:
    def test_analyze_exit_ok(self, budget_path, regimes_path, tmp_path, capsys):
        assert run_analyze(budget_path, regimes_path, tmp_path / "o") == 0
        out = capsys.readouterr().out
        assert "income/raw" in out
        assert "report written" in out

    def test_bom_crlf_input(self, budget_path, regimes_path, tmp_path):
        """Spreadsheet exports: a UTF-8 byte-order mark and CRLF line ends."""
        from digitaudit import load_csv, load_regimes

        converted = []
        for source in (budget_path, regimes_path):
            text = open(source, encoding="utf-8").read()
            target = tmp_path / ("bom_" + source.rsplit("/", 1)[-1])
            target.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode("utf-8"))
            converted.append(str(target))
        budget, regimes = converted

        assert load_csv(budget) == load_csv(budget_path)
        assert load_regimes(regimes) == load_regimes(regimes_path)
        assert run_analyze(budget, regimes, tmp_path / "o") == 0

    def test_missing_input_is_ingest_error(self, tmp_path):
        assert main(["analyze", "--input", str(tmp_path / "nope.csv"),
                     "--outdir", str(tmp_path)]) == 3

    def test_overlapping_regimes_is_config_error(self, budget_path, tmp_path):
        bad = tmp_path / "regimes.csv"
        bad.write_text("name,start_year,end_year\nA,1920,1950\nB,1940,1960\n", encoding="utf-8")
        assert main(["analyze", "--input", budget_path, "--regimes", str(bad),
                     "--outdir", str(tmp_path / "o")]) == 2

    def test_duplicate_regime_name_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "ten.csv"
        data.write_text("year,value\n" + "".join(f"{y},{10 * y}\n" for y in range(1, 11)),
                        encoding="utf-8")
        bad = tmp_path / "regimes.csv"
        bad.write_text("name,start_year,end_year\na,1,1\nb,2,2\na,3,3\n", encoding="utf-8")
        assert main(["analyze", "--input", str(data), "--regimes", str(bad),
                     "--outdir", str(tmp_path / "o")]) == 2
        assert "'a' is used twice" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("header, transforms, message", [
        ("year,income", "identity,identity",
         "series 'income' variant 'raw' and series 'income' variant 'raw' "
         "would both write hist_income_raw.csv"),
        ("year,income", "theil,theil", "would both write hist_income_theil-natural.csv"),
        ("year,a b,a-b", "identity", "series 'a b' variant 'raw' and series 'a-b' variant 'raw'"),
    ], ids=["identity-twice", "theil-twice", "slug-collision"])
    def test_colliding_output_names_are_config_error(self, tmp_path, capsys, header,
                                                     transforms, message):
        data = tmp_path / "data.csv"
        data.write_text(header + "\n" + "".join(f"{y},{10 * y},{20 * y}\n" for y in range(1, 21)),
                        encoding="utf-8")
        assert main(["analyze", "--input", str(data), "--outdir", str(tmp_path / "o"),
                     "--transforms", transforms]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_empty_label_writes_nothing(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("year,\n" + "".join(f"{y},{10 * y}\n" for y in range(1, 21)),
                        encoding="utf-8")
        outdir = tmp_path / "o"
        outdir.mkdir()
        assert main(["analyze", "--input", str(data), "--outdir", str(outdir)]) == 4
        assert "cannot derive a file name from label ''" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    def test_unknown_transform_is_config_error(self, budget_path, tmp_path):
        assert main(["analyze", "--input", budget_path, "--outdir", str(tmp_path / "o"),
                     "--transforms", "sqrt"]) == 2

    def test_synth_domain_error(self, tmp_path):
        assert main(["synth", "--count", "0"]) == 4

    def test_transform_stdout_matches_library(self, budget_path, capsys):
        from digitaudit import load_csv
        from digitaudit.transforms import apply_transform

        assert main(["transform", "--input", budget_path, "--column", "income",
                     "--kind", "theil"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "year,value"
        series = load_csv(budget_path, value_columns=("income",)).series[0]
        expected = apply_transform(series, TransformKind.theil())
        year, value = lines[1].split(",")
        assert int(year) == expected.points[0].year
        assert float(value) == pytest.approx(expected.points[0].value, rel=1e-11)

    def test_theil_overflow_is_domain_error(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        data.write_text("year,value\n1,1E+308\n2,20\n3,30\n", encoding="utf-8")
        assert main(["transform", "--input", str(data), "--column", "value",
                     "--kind", "theil"]) == 4
        err = capsys.readouterr().err
        assert err == "error: x*ln(x) of 1e+308 overflows a float\n"

    def test_log_relative_output_carries_flags(self, budget_path, capsys):
        assert main(["transform", "--input", budget_path, "--column", "income",
                     "--kind", "log-relative"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "year,value,nonpositive"
        assert any(line.endswith(",true") for line in lines[1:])
        assert any(line.endswith(",false") for line in lines[1:])

    def test_fit_subcommand(self, tmp_path, capsys):
        hist = tmp_path / "hist.csv"
        hist.write_text(
            "digit,count\n1,19\n2,11\n3,8\n4,6\n5,5\n6,5\n7,4\n8,4\n9,3\n",
            encoding="utf-8",
        )
        assert main(["fit", "--histogram", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "n_s = 63" in out
        assert "s = 0.00224" in out

    def test_fit_bom_crlf_histogram(self, tmp_path, capsys):
        hist = tmp_path / "hist.csv"
        rows = "digit,count\r\n1,19\r\n2,11\r\n3,8\r\n4,6\r\n5,5\r\n6,5\r\n7,4\r\n8,4\r\n9,3\r\n"
        hist.write_bytes(b"\xef\xbb\xbf" + rows.encode("utf-8"))
        assert main(["fit", "--histogram", str(hist)]) == 0
        out = capsys.readouterr().out
        assert "n_s = 63" in out
        assert "s = 0.00224" in out

    def test_fit_absurd_total_is_domain_error(self, tmp_path, capsys):
        hist = tmp_path / "hist.csv"
        hist.write_text("digit,count\n1,1e12\n2,5\n3,4\n", encoding="utf-8")
        assert main(["fit", "--histogram", str(hist)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: histogram total must be at most")
        assert "Traceback" not in err

    def test_fit_accepts_audit_export(self, budget_path, regimes_path, tmp_path, capsys):
        assert run_analyze(budget_path, regimes_path, tmp_path / "o") == 0
        capsys.readouterr()
        assert main(["fit", "--histogram", str(tmp_path / "o" / "hist_income_raw.csv")]) == 0
        assert "n_s = " in capsys.readouterr().out

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    def test_synth_stdout(self, capsys):
        assert main(["synth", "--count", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "year,value"
        assert len(lines) == 4
