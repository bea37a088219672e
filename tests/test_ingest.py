import csv
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prodflow import ModelFormatError, ingest
from prodflow.ingest import (
    CsvFormatError,
    _read_table,
    ingest_cases,
    ingest_run,
    load_model,
    read_chain_csv,
    read_metrics_csv,
    read_sample_csv,
    write_run_csv,
)


def reference_table(path, columns, timestamps=False):
    """Row-by-row ``_read_table``: one ``float`` per cell and one check per row."""
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvFormatError("empty file", path)
        if [h.strip() for h in header] != list(columns):
            raise CsvFormatError(f"header must be {','.join(columns)!r}", path, 1)
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(columns):
                raise CsvFormatError(f"expected {len(columns)} fields, got {len(row)}", path, lineno)
            try:
                vals = [float(cell) for cell in row]
            except ValueError:
                raise CsvFormatError(f"non-numeric field in {row!r}", path, lineno) from None
            if not all(math.isfinite(v) for v in vals):
                raise CsvFormatError(f"non-finite value in {row!r}", path, lineno)
            if timestamps and rows and vals[0] <= rows[-1][0]:
                raise CsvFormatError(f"timestamp {vals[0]!r} does not increase over the previous row", path, lineno)
            rows.append(vals)
    return np.array(rows, dtype=float).reshape(len(rows), len(columns))


def reference_run_csv(path, t, u, y):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("t", "u", "y"))
        for row in zip(t, u, y):
            writer.writerow([repr(float(v)) for v in row])


_NUMBER = st.one_of(st.floats(-1e6, 1e6).map(repr), st.integers(-3, 3).map(str))
# cells float reads and numpy's loadtxt refuses (1_0, Arabic-Indic one, quotes), numpy strips and
# float does not (0x1c-0x1f), non-finite ones, and ones csv splits or joins across lines
_ODD = st.sampled_from([
    "nan", "-inf", "1e400", "x", "", " 2 ", "1_0", "\u0661", "\xa01\x85", "\x1c1", "1\x1f", "1\r2",
    '"3"', '"  2"', '"4\n"', '" 5 "', '"6\r\n"', '"7,"', '""',
])


@st.composite
def csv_tables(draw):
    """(text, columns, timestamps): mostly valid tables with blank lines, odd cells and bad rows."""
    width = draw(st.integers(1, 3))
    columns = ("t", "u", "y")[:width]
    timestamps = draw(st.booleans())
    header = draw(st.sampled_from([columns] * 4 + [[f'"{c}"' for c in columns]]))
    lines = [draw(st.sampled_from(["", "\ufeff", " "])) + ",".join(header)]
    t = 0
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["row"] * 12 + ["odd"] * 2 + ["blank", "spaces", "tab", "quoted", "short", "long"]))
        t += draw(st.sampled_from([1, 1, 1, 1, 0, -1]))
        cells = [repr(t * 0.5)] + [draw(_NUMBER) for _ in range(width - 1)]
        if kind == "odd":
            cells[draw(st.integers(0, width - 1))] = draw(_ODD)
        elif kind == "short":
            cells = cells[:-1] if width > 1 else []
        elif kind == "long":
            cells.append("1")
        elif kind == "quoted":
            cells = [f'"{c}"' for c in cells]
        lines.append({"blank": "", "spaces": "  ", "tab": "\t\x0c"}.get(kind, ",".join(cells)))
    ends = [draw(st.sampled_from(["\n"] * 5 + ["\r\n"] * 4 + ["\r"])) for _ in lines[1:]]
    ends += [draw(st.sampled_from(["\n", "\r\n", ""]))]  # the last line may have no line end
    return "".join(a + b for a, b in zip(lines, ends)), columns, timestamps


class TestRunCsv:
    def test_valid_run(self, tmp_path):
        p = tmp_path / "run.csv"
        p.write_text("t,u,y\n0,1,0.5\n1,1,0.8\n2,1,0.9\n")
        run = ingest_run(p)
        assert len(run.input) == 3
        assert list(run.output.values) == [0.5, 0.8, 0.9]

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

    def test_byte_order_mark_accepted(self, tmp_path):
        p = tmp_path / "run.csv"
        p.write_bytes("\ufefft,u,y\r\n0,1,0.5\r\n1,1,0.8\r\n".encode("utf-8"))
        assert list(ingest_run(p).output.values) == [0.5, 0.8]

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        p = tmp_path / "run.csv"
        p.write_bytes(b"t,u,y\n0,1,0.5\n1,1,\xff0.8\n")
        with pytest.raises(CsvFormatError) as exc:
            ingest_run(p)
        assert str(exc.value) == f"{p}: not UTF-8 text (invalid start byte)"

    def test_row_is_the_file_line_after_a_multiline_cell(self, tmp_path):
        p = tmp_path / "run.csv"
        p.write_text('t,u,y\n0,1,0.5\n"1\n",1,2\n2,1,0.9\n2,1,1\n')
        with pytest.raises(CsvFormatError) as exc:
            ingest_run(p)
        assert exc.value.row == 6 and "row 6: timestamp 2.0 does not increase" in str(exc.value)


class TestBlocks:
    """The C reader and its csv fallback against row-by-row references, with chunks of a few characters."""

    @settings(max_examples=400, deadline=None)
    @given(table=csv_tables(), chunk=st.sampled_from([3, 8, 1 << 14]))
    def test_read_table_matches_row_by_row(self, tmp_path_factory, table, chunk):
        text, columns, timestamps = table
        p = tmp_path_factory.getbasetemp() / "table.csv"
        p.write_bytes(text.encode("utf-8"))
        try:
            want = reference_table(p, columns, timestamps)
        except CsvFormatError as exc:
            want = exc
        with mock.patch.object(ingest, "_CHUNK", chunk):
            try:
                got = _read_table(p, columns, timestamps)
            except CsvFormatError as exc:
                got = exc
        if isinstance(want, CsvFormatError):
            assert isinstance(got, CsvFormatError), text
            assert (str(got), got.row) == (str(want), want.row)
        else:
            assert isinstance(got, np.ndarray), str(got)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cell,fault", [
        ("\x1c1", "non-numeric field"), ("1\x1f", "non-numeric field"), ("1_0", None), ("\u0661", None), ('"  2"', None),
        ("nan", "non-finite value"), ("-inf", "non-finite value"), ("1e400", "non-finite value"),
    ])
    def test_cells_the_readers_disagree_on(self, tmp_path, cell, fault):
        # 0x1c-0x1f numpy strips and float does not; 1_0, Arabic-Indic one and quotes float reads and numpy refuses
        p = tmp_path / "run.csv"
        p.write_text(f"t,u,y\n0,1,0.5\n1,1,{cell}\n2,1,0.9\n")
        if fault is None:
            assert ingest_run(p).output.values.tolist() == [0.5, float(cell.strip('"')), 0.9]
        else:
            with pytest.raises(CsvFormatError, match=f"row 3: {fault} in"):
                ingest_run(p)

    @pytest.mark.parametrize("cell", ["0" * 200_000 + "1", " " * 140_000 + "1", "1." + "0" * 140_000, '"' + " \n" * 70_000 + '1"'],
                             ids=["zeros", "spaces", "decimals", "quoted-lines"])
    def test_finite_cell_over_the_field_limit_is_refused(self, tmp_path, cell):
        # numpy parses each of these cells as a number, the last one only if it honoured quotes;
        # csv refuses them, so the C reader must not answer
        p = tmp_path / "run.csv"
        p.write_text("t,u,y\n0,1,0.5\n1,1," + cell + "\n2,1,0.9\n")
        with pytest.raises(CsvFormatError) as exc:
            ingest_run(p)
        assert str(exc.value) == f"{p}: field larger than field limit (131072)"

    def test_padded_header_over_the_field_limit_is_refused(self, tmp_path):
        p = tmp_path / "run.csv"
        p.write_text("t,u,y" + " " * 140_000 + "\n0,1,0.5\n1,1,0.8\n")
        with pytest.raises(CsvFormatError) as exc:
            ingest_run(p)
        assert str(exc.value) == f"{p}: field larger than field limit (131072)"

    @settings(deadline=None)
    @given(values=st.lists(st.tuples(*[st.floats(width=64)] * 3), max_size=12), rows=st.integers(1, 4))
    def test_run_csv_bytes_match_csv_writer(self, tmp_path_factory, values, rows):
        t, u, y = (np.array([v[i] for v in values]) for i in range(3))
        base = tmp_path_factory.getbasetemp()
        reference_run_csv(base / "want.csv", t, u, y)
        with mock.patch.object(ingest, "_ROWS", rows):
            write_run_csv(base / "got.csv", t, u, y)
        assert (base / "got.csv").read_bytes() == (base / "want.csv").read_bytes()


def _refuse_csv_fallback(*args):
    raise AssertionError("read by the csv fallback")


class TestCReader:
    """Plain files are parsed by np.loadtxt: a later edit must not send them to the csv fallback."""

    @pytest.mark.parametrize("bom", ["", "\ufeff"])
    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_plain_files_skip_the_csv_fallback(self, tmp_path, monkeypatch, bom, end):
        monkeypatch.setattr(ingest, "_csv_table", _refuse_csv_fallback)
        for name, rows in (("run", ["t,u,y", "0,1,0.5", "1,1,0.8", "", "2.5,1,-1e-3"]), ("sample", ["y", "9", "10", "11"]),
                           ("chain", ["u,ce", "0.8,0.6", "0.5,0.6"]), ("metrics", ["cpk,pp,sigma_d,rate_d,cv", "1,1,0.3,4,0.2"])):
            (tmp_path / f"{name}.csv").write_bytes((bom + end.join(rows) + end).encode("utf-8"))
        assert list(ingest_run(tmp_path / "run.csv").output.values) == [0.5, 0.8, -1e-3]
        assert list(read_sample_csv(tmp_path / "sample.csv")) == [9.0, 10.0, 11.0]
        assert [(n.utilization, n.cv_effective) for n in read_chain_csv(tmp_path / "chain.csv")] == [(0.8, 0.6), (0.5, 0.6)]
        assert read_metrics_csv(tmp_path / "metrics.csv").cv == 0.2

    def test_written_run_of_many_chunks_skips_the_csv_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "_csv_table", _refuse_csv_fallback)
        t = np.arange(3000) * 0.1
        u, y = np.ones_like(t), np.sin(t) / 3
        write_run_csv(tmp_path / "run.csv", t, u, y)
        assert (tmp_path / "run.csv").stat().st_size > 4 * ingest._CHUNK
        run = ingest_run(tmp_path / "run.csv")
        assert run.input.t.tobytes() == t.tobytes() and run.output.values.tobytes() == y.tobytes()

    def test_peak_memory_of_a_long_run_is_near_its_table(self, tmp_path):
        t = np.arange(50_001) * 0.004
        write_run_csv(tmp_path / "run.csv", t, np.ones_like(t), np.exp(-t))
        tracemalloc.start()
        try:
            table = _read_table(tmp_path / "run.csv", ("t", "u", "y"), timestamps=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (50_001, 3) and peak < 1.5 * table.nbytes

    def test_undecodable_byte_past_the_first_megabyte_names_the_file(self, tmp_path):
        p = tmp_path / "run.csv"
        t = np.arange(40_000) * 0.5
        write_run_csv(p, t, np.ones_like(t), np.cos(t))
        data = p.read_bytes()
        cut = data.index(b"\n", 1 << 20) + 1
        p.write_bytes(data[:cut] + b"\xff" + data[cut:])
        with pytest.raises(CsvFormatError) as exc:
            ingest_run(p)
        assert str(exc.value) == f"{p}: not UTF-8 text (invalid start byte)"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
class TestPipes:
    """A pipe is read once, by the csv path: reading it again would find it drained."""

    def read_through_pipe(self, text, reader=ingest_run):
        r, w = os.pipe()
        try:
            os.write(w, text.encode("utf-8"))
            os.close(w)
            return reader(f"/dev/fd/{r}")
        finally:
            os.close(r)

    def test_run_with_a_blank_line_of_spaces(self):
        run = self.read_through_pipe("t,u,y\n0,1,0.5\n  \n1,1,0.8\n2,1,0.9\n")
        assert list(run.output.values) == [0.5, 0.8, 0.9]

    def test_bad_row_names_its_line(self):
        with pytest.raises(CsvFormatError) as exc:
            self.read_through_pipe("y\n1\n\n2\nx\n", read_sample_csv)
        assert exc.value.row == 5 and "row 5: non-numeric field in ['x']" in str(exc.value)


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
