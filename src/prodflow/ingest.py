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
``CsvFormatError`` naming the file.  The CSV readers split rows with
``csv.reader``: comma-separated, cells optionally in double quotes (a
quoted cell may span lines), LF, CRLF or CR line ends, blank lines
skipped.  Each cell is parsed with Python's ``float``, so surrounding
spaces, exponents and ``1_0`` are accepted; ``nan``, ``inf`` and values
that overflow (``1e400``) are rejected.  An error names the file line on
which the bad row starts.  ``write_run_csv`` writes CRLF line ends and
each value as its shortest round-trip ``repr``.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .flowchain import ChainNode
from .model import ModelFormatError, ProcessRun, ProductivityFunction, TimeSeries, content_lines, parse_model
from .report import CaseRecord
from .spc import METRIC_COLUMNS, ProcessMetrics, classify_variability


_ROWS = 1024  # csv records converted, or rows written, per block


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

    With ``timestamps`` the first column must increase.  Rows are split by
    ``csv.reader`` and converted ``_ROWS`` records at a time; the first bad
    row in file order raises, naming the file line on which it starts.
    """
    width = len(columns)
    blocks = []
    last = -math.inf if timestamps else None  # the previous row's timestamp
    with _open_input(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvFormatError("empty file", path)
        if [h.strip() for h in header] != list(columns):
            raise CsvFormatError(f"header must be {','.join(columns)!r}", path, 1)
        record = 2  # csv record number of the block's first row; the header is 1
        while block := list(islice(reader, _ROWS)):
            kept = [i for i, row in enumerate(block) if len(row) > 1 or (row and row[0].strip())]
            rows = block if len(kept) == len(block) else [block[i] for i in kept]
            values, fault = _convert_block(rows, width, last)
            if fault is not None:
                i, message = fault
                raise CsvFormatError(message, path, _line_of(path, record + kept[i]))
            if len(values):
                blocks.append(values)
                if timestamps:
                    last = values[-1, 0]
            record += len(block)
    return np.concatenate(blocks) if blocks else np.empty((0, width))


def _convert_block(rows: list[list[str]], width: int, last: float | None):
    """Parse non-blank rows into an array, up to the first bad row.

    Returns the values and that row's ``(index, message)``, or None when
    every row is good.  ``last`` is the timestamp before the block, or
    None when the first column is no timestamp.
    """
    def parse(stop: int) -> np.ndarray:
        return np.fromiter(map(float, chain.from_iterable(rows[:stop])), float, stop * width).reshape(stop, width)

    stop, fault = len(rows), None
    if set(map(len, rows)) - {width}:
        stop = next(i for i, row in enumerate(rows) if len(row) != width)
        fault = (stop, f"expected {width} fields, got {len(rows[stop])}")
    try:
        values = parse(stop)
    except ValueError:
        stop = next(i for i, row in enumerate(rows) if not _numeric(row))
        fault = (stop, f"non-numeric field in {rows[stop]!r}")
        values = parse(stop)
    bad = ~np.isfinite(values).all(axis=1)
    late = np.zeros(stop, dtype=bool)
    if last is not None and stop:
        t = values[:, 0]
        late = ~(t > np.concatenate(([last], t[:-1])))
    if (bad | late).any():
        i = int(np.argmax(bad | late))  # a row can fail both; its non-finite value is reported first
        if bad[i]:
            fault = (i, f"non-finite value in {rows[i]!r}")
        else:
            fault = (i, f"timestamp {float(values[i, 0])!r} does not increase over the previous row")
    return values, fault


def _numeric(row: list[str]) -> bool:
    try:
        for cell in row:
            float(cell)
    except ValueError:
        return False
    return True


def _line_of(path: str | Path, record: int) -> int:
    """The file line on which csv record ``record`` (the header is 1) starts."""
    line = 1
    with _open_input(path) as fh:
        reader = csv.reader(fh)
        for _ in islice(reader, record - 1):
            line = reader.line_num + 1
    return line


def ingest_run(path: str | Path, total_time: float | None = None) -> ProcessRun:
    """Read a t,u,y run; total_time defaults to the last timestamp."""
    table = _read_table(path, ("t", "u", "y"), timestamps=True)
    if len(table) < 2:
        raise CsvFormatError("a run needs at least 2 samples", path)
    t, u, y = table.T
    tt = total_time if total_time is not None else float(t[-1])
    return ProcessRun(TimeSeries(t, u), TimeSeries(t, y), tt)


def write_run_csv(path: str | Path, t, u, y) -> None:
    """Write a t,u,y run: CRLF line ends, each value as its shortest round-trip ``repr``."""
    table = np.column_stack([np.asarray(c, dtype=float) for c in (t, u, y)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("t,u,y\r\n")
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
    return ProcessMetrics(*values, classify_variability(values[-1]))  # cv is the last column


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
    return CaseRecord(meta["name"], model, tt, metrics, meta.get("note", ""))


def ingest_cases(root: str | Path) -> list[CaseRecord]:
    """Load every case directory under root, sorted by directory name."""
    root = Path(root)
    if not root.is_dir():
        raise ValueError(f"{root}: not a directory")
    case_dirs = sorted(p for p in root.iterdir() if (p / "case.txt").is_file())
    if not case_dirs:
        raise ValueError(f"{root}: no case directories (each needs a case.txt)")
    return [read_case_dir(p) for p in case_dirs]
