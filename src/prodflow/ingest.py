"""File ingestion: model files, run/sample/chain CSVs, and case directories.

Formats:

* run CSV: header ``t,u,y``, one sample per row, strictly ascending t.
* sample CSV: header ``y``, one output value per row.
* chain CSV: header ``u,ce``, one station per row.
* case directory: a ``case.txt`` of ``key = value`` lines, with the '#'
  comments and blank lines of model files, and keys ``name``, ``tt``,
  ``model`` (path to a model file, relative to the directory) and
  optionally ``metrics`` (path to a one-row CSV with header
  ``cpk,pp,sigma_d,rate_d,cv``) and ``note`` (free text carried into the
  report).

Every input file, CSV, model file or ``case.txt``, is UTF-8 with or
without a byte-order mark.  Undecodable bytes and csv syntax errors, such
as a cell over csv's 131,072-character field limit, end in a one-line
``CsvFormatError`` naming the file.  The CSV grammar is that of
``csv.reader``: comma-separated, cells optionally in double quotes (a
quoted cell may span lines), LF, CRLF or CR line ends, blank lines
skipped.  Each cell is read as Python's ``float`` reads it, so
surrounding spaces, exponents and ``1_0`` are accepted; ``nan``, ``inf``
and values that overflow (``1e400``) are rejected.  A seekable file with
the exact header, LF or CRLF line ends and no quotes is parsed by
``np.loadtxt``, numpy's C reader, which rounds each cell as ``float``
does.  Every other file, and every file the C reader refuses, is read by
``csv.reader`` and ``float``, which give the same values or name the file
line on which the first bad row starts.  ``write_run_csv`` writes CRLF
line ends and each value as its shortest round-trip ``repr``.
"""

from __future__ import annotations

import csv
import math
import warnings
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .flowchain import ChainNode
from .model import ModelFormatError, ProcessRun, ProductivityFunction, TimeSeries, content_lines, parse_model
from .report import CaseRecord
from .spc import METRIC_COLUMNS, ProcessMetrics, classify_variability


_RUN_COLUMNS = ("t", "u", "y")  # a run CSV's header, read and written
_ROWS = 1024  # rows written per block
_CHUNK = 1 << 14  # characters split into lines per block for np.loadtxt


class CsvFormatError(ValueError):
    """A malformed or undecodable input file; carries the path and, for a table, the 1-based row number."""

    def __init__(self, message: str, path, row: int | None = None):
        self.path = str(path)
        self.row = row
        where = self.path if row is None else f"{self.path}, row {row}"
        super().__init__(f"{where}: {message}")


@contextmanager
def _open_input(path: str | Path):
    """An input file as UTF-8 text, byte-order mark dropped and line ends kept for ``csv``.

    Undecodable bytes and ``csv.Error`` raise a one-line ``CsvFormatError`` naming the file.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"not UTF-8 text ({exc.reason})", path) from None
    except csv.Error as exc:
        raise CsvFormatError(str(exc), path) from None


def load_model(path: str | Path) -> ProductivityFunction:
    """The model in a file; a ``ModelFormatError`` keeps its ``line`` and names the file."""
    with _open_input(path) as fh:
        text = fh.read()
    try:
        return parse_model(text)
    except ModelFormatError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _read_table(path: str | Path, columns: tuple[str, ...], timestamps: bool = False) -> np.ndarray:
    """The numeric rows under the header as an (n, len(columns)) array.

    With ``timestamps`` the first column must increase.  A seekable file
    whose header line is exactly the columns is parsed by ``np.loadtxt``,
    numpy's C reader, which rounds each cell as ``float`` does but refuses
    some cells that ``float`` reads.  Its table is returned only if every
    row has the width, every value is finite and, with ``timestamps``, in
    order.  Every other file, and every file the C reader refuses or
    ``_checked_lines`` stops, is read from its start by ``_csv_table``,
    which returns the same values or names the bad row.
    """
    with _open_input(path) as fh:
        if fh.seekable():  # a pipe cannot be read twice
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # loadtxt warns on a file without rows
                try:
                    if fh.readline().rstrip("\r\n") == ",".join(columns):
                        table = np.loadtxt(chain.from_iterable(_checked_lines(fh)), delimiter=",", comments=None, ndmin=2)
                        t = table[:, 0]
                        ordered = not timestamps or (t[1:] > t[:-1]).all()
                        if table.shape[1] == len(columns) and np.isfinite(table).all() and ordered:
                            return table
                except (ValueError, UserWarning):  # UnicodeDecodeError included: _csv_table reports what comes first
                    pass
            fh.seek(0)
        return _csv_table(fh, path, columns, timestamps)


def _checked_lines(fh):
    """The rest of ``fh`` split at LF, ``_CHUNK`` characters at a time, for ``np.loadtxt``.

    Raises ValueError on a chunk with a character from 0x1c to 0x1f, which
    numpy strips around a number and ``float`` does not, or on a full chunk
    with no LF.  So every line that reaches numpy is shorter than
    2 * ``_CHUNK``, and no cell reaches csv's field limit.  A quote or a
    lone CR makes numpy refuse its line.
    """
    tail = ""
    while chunk := fh.read(_CHUNK):
        if any(c in chunk for c in "\x1c\x1d\x1e\x1f") or (len(chunk) == _CHUNK and "\n" not in chunk):
            raise ValueError("a chunk the C reader may read differently from csv")
        *lines, tail = (tail + chunk).split("\n")
        yield lines
    yield [tail]


def _csv_table(fh, path: str | Path, columns: tuple[str, ...], timestamps: bool) -> np.ndarray:
    """``_read_table`` of the open file by ``csv.reader`` and ``float``, one row at a time.

    The first bad row in file order raises, naming the file line on which
    it starts.  Its first fault counts, in this order: width, a
    non-numeric cell, a non-finite value, a timestamp out of order.
    """
    width, rows = len(columns), []
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise CsvFormatError("empty file", path)
    if [h.strip() for h in header] != list(columns):
        raise CsvFormatError(f"header must be {','.join(columns)!r}", path, 1)
    start = reader.line_num + 1
    for row in reader:
        line, start = start, reader.line_num + 1
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != width:
            raise CsvFormatError(f"expected {width} fields, got {len(row)}", path, line)
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            raise CsvFormatError(f"non-numeric field in {row!r}", path, line) from None
        if not all(map(math.isfinite, values)):
            raise CsvFormatError(f"non-finite value in {row!r}", path, line)
        if timestamps and rows and values[0] <= rows[-1][0]:
            raise CsvFormatError(f"timestamp {values[0]!r} does not increase over the previous row", path, line)
        rows.append(values)
    return np.array(rows, dtype=float).reshape(len(rows), width)


def ingest_run(path: str | Path) -> ProcessRun:
    """Read a t,u,y run."""
    table = _read_table(path, _RUN_COLUMNS, timestamps=True)
    if len(table) < 2:
        raise CsvFormatError("a run needs at least 2 samples", path)
    t, u, y = table.T
    return ProcessRun(TimeSeries(t, u), TimeSeries(t, y))


def write_run_csv(path: str | Path, t, u, y) -> None:
    """Write a t,u,y run: CRLF line ends, each value as its shortest round-trip ``repr``."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in (t, u, y)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_RUN_COLUMNS) + "\r\n")
        for lo in range(0, len(table), _ROWS):
            block = table[lo : lo + _ROWS]
            fh.write("%r,%r,%r\r\n" * len(block) % tuple(block.ravel().tolist()))


def read_sample_csv(path: str | Path) -> np.ndarray:
    table = _read_table(path, ("y",))
    if len(table) < 2:
        raise CsvFormatError("a sample needs at least 2 values", path)
    return table[:, 0]


def read_chain_csv(path: str | Path) -> list[ChainNode]:
    table = _read_table(path, ("u", "ce"))
    if not len(table):
        raise CsvFormatError("chain file has no stations", path)
    try:
        return [ChainNode(u, ce) for u, ce in table.tolist()]
    except ValueError as exc:
        raise CsvFormatError(str(exc), path) from None


def read_metrics_csv(path: str | Path) -> ProcessMetrics:
    table = _read_table(path, METRIC_COLUMNS)
    if len(table) != 1:
        raise CsvFormatError("metrics file must have exactly one data row", path)
    values = table[0].tolist()
    try:
        return ProcessMetrics(*values, classify_variability(values[-1]))  # cv is the last column
    except ValueError as exc:
        raise CsvFormatError(str(exc), path) from None


def _parse_keyvalues(path: Path) -> dict[str, str]:
    with _open_input(path) as fh:
        text = fh.read()
    pairs: dict[str, str] = {}
    for lineno, line in content_lines(text):
        if "=" not in line:
            raise ValueError(f"{path}, line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def read_case_dir(case_dir: str | Path) -> CaseRecord:
    """Load one case from its directory (see module docstring for the keys)."""
    case_dir = Path(case_dir)
    meta_path = case_dir / "case.txt"
    if not meta_path.is_file():
        raise ValueError(f"{case_dir}: missing case.txt")
    meta = _parse_keyvalues(meta_path)
    for key in ("name", "tt", "model"):
        if key not in meta:
            raise ValueError(f"{meta_path}: missing required key {key!r}")
    try:
        tt = float(meta["tt"])
    except ValueError:
        raise ValueError(f"{meta_path}: tt must be a number, got {meta['tt']!r}") from None
    model = load_model(case_dir / meta["model"])
    metrics = read_metrics_csv(case_dir / meta["metrics"]) if "metrics" in meta else None
    try:
        return CaseRecord(meta["name"], model, tt, metrics, meta.get("note", ""))
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from None


def ingest_cases(root: str | Path) -> list[CaseRecord]:
    """Load every case directory under root, sorted by directory name."""
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"{root}: not a directory")
    case_dirs = sorted(p for p in root.iterdir() if (p / "case.txt").is_file())
    if not case_dirs:
        raise ValueError(f"{root}: no case directories (each needs a case.txt)")
    return [read_case_dir(p) for p in case_dirs]
