import pytest

from prodflow import ModelFormatError
from prodflow.ingest import (
    CsvFormatError,
    ingest_cases,
    ingest_run,
    load_model,
    read_chain_csv,
    read_metrics_csv,
    read_sample_csv,
)


class TestRunCsv:
    def test_valid_run(self, tmp_path):
        p = tmp_path / "run.csv"
        p.write_text("t,u,y\n0,1,0.5\n1,1,0.8\n2,1,0.9\n")
        run = ingest_run(p)
        assert len(run.input) == 3
        assert run.total_time == 2.0
        assert list(run.output.values) == [0.5, 0.8, 0.9]

    def test_explicit_total_time(self, tmp_path):
        p = tmp_path / "run.csv"
        p.write_text("t,u,y\n0,1,0.5\n1,1,0.8\n")
        assert ingest_run(p, total_time=30.0).total_time == 30.0

    def test_duplicate_timestamp_names_row(self, tmp_path):
        p = tmp_path / "run.csv"
        # the blank line counts: rows are the file's line numbers
        for text, row in (("t,u,y\n0,1,0.5\n1,1,0.8\n1,1,0.9\n", 4), ("t,u,y\n0,1,0.5\n\n1,1,0.8\n1,1,0.9\n", 5)):
            p.write_text(text)
            with pytest.raises(CsvFormatError) as exc:
                ingest_run(p)
            assert exc.value.row == row
            assert f"row {row}: timestamp 1.0 does not increase" in str(exc.value)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "run.csv"
        p.write_text("time,u,y\n0,1,0.5\n")
        with pytest.raises(CsvFormatError, match="header"):
            ingest_run(p)

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "run.csv"
        p.write_text("t,u,y\n0,1,0.5\n1,one,0.8\n")
        with pytest.raises(CsvFormatError) as exc:
            ingest_run(p)
        assert exc.value.row == 3

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "run.csv"
        p.write_text("t,u,y\n0,1\n")
        with pytest.raises(CsvFormatError, match="fields"):
            ingest_run(p)


class TestOtherReaders:
    def test_sample(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("y\n1.5\n2.5\n3.5\n")
        assert list(read_sample_csv(p)) == [1.5, 2.5, 3.5]

    def test_sample_too_short(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("y\n1.5\n")
        with pytest.raises(CsvFormatError):
            read_sample_csv(p)

    def test_chain(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("u,ce\n0.8,0.6\n0.5,0.6\n")
        nodes = read_chain_csv(p)
        assert [(n.utilization, n.cv_effective) for n in nodes] == [(0.8, 0.6), (0.5, 0.6)]

    def test_chain_invalid_utilization(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("u,ce\n1.4,0.6\n")
        with pytest.raises(CsvFormatError, match="utilization"):
            read_chain_csv(p)

    def test_metrics_single_row(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("cpk,pp,sigma_d,rate_d,cv\n0.1,0.2,1.0,10.0,0.1\n")
        m = read_metrics_csv(p)
        assert m.cpk == 0.1 and m.variability_class == "low"

    def test_metrics_extra_row_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("cpk,pp,sigma_d,rate_d,cv\n0.1,0.2,1,10,0.1\n0.1,0.2,1,10,0.1\n")
        with pytest.raises(CsvFormatError, match="one data row"):
            read_metrics_csv(p)

    def test_model_loader_reports_line(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("exp 1.0 1.0\nexp 2.0 0.0\n")
        with pytest.raises(ModelFormatError) as exc:
            load_model(p)
        assert exc.value.line == 2


class TestCaseDirs:
    def test_bundled_cases(self, cases_dir):
        cases = ingest_cases(cases_dir)
        assert [c.name for c in cases] == ["Case 1", "Case 2", "Case 3", "Case 4", "Case 5"]
        by_name = {c.name: c for c in cases}
        assert by_name["Case 1"].total_time == 184.0
        assert by_name["Case 1"].metrics.cpk == 0.2438
        assert by_name["Case 5"].note != ""
        assert len(by_name["Case 5"].model.modes) == 2

    def test_missing_required_key(self, tmp_path):
        d = tmp_path / "caseX"
        d.mkdir()
        (d / "case.txt").write_text("name = X\nmodel = m.txt\n")
        (d / "m.txt").write_text("impulse 1\n")
        with pytest.raises(ValueError, match="tt"):
            ingest_cases(tmp_path)

    def test_empty_root_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no case directories"):
            ingest_cases(tmp_path)

    def test_case_without_metrics(self, tmp_path):
        d = tmp_path / "caseY"
        d.mkdir()
        (d / "case.txt").write_text("name = Y\ntt = 5\nmodel = m.txt\n")
        (d / "m.txt").write_text("exp 1.0 2.0\n")
        (case,) = ingest_cases(tmp_path)
        assert case.metrics is None and case.note == ""
