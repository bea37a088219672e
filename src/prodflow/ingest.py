"""File ingestion: model files, run/sample/chain CSVs, and case directories.

Formats (all UTF-8):

* run CSV: header ``t,u,y``, one sample per row, ascending t.
* sample CSV: header ``y``, one output value per row.
* chain CSV: header ``u,ce``, one station per row.
* case directory: a ``case.txt`` of ``key = value`` lines ('#' comments)
  with keys ``name``, ``tt``, ``model`` (path to a model file, relative to
  the directory) and optionally ``metrics`` (path to a one-row CSV with
  header ``cpk,pp,sigma_d,rate_d,cv``) and ``note`` (free text carried
  into the report).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .flowchain import ChainNode
from .model import ProcessRun, ProductivityFunction, TimeSeries, parse_model
from .report import CaseRecord
from .spc import ProcessMetrics, classify_variability


class CsvFormatError(ValueError):
    """Malformed tabular input; carries the path and 1-based row number."""

    def __init__(self, message: str, path, row: int | None = None):
        self.path = str(path)
        self.row = row
        where = self.path if row is None else f"{self.path}, row {row}"
        super().__init__(f"{where}: {message}")


def load_model(path: str | Path) -> ProductivityFunction:
    return parse_model(Path(path).read_text(encoding="utf-8"))


def _read_table(path: str | Path, columns: tuple[str, ...], timestamps: bool = False) -> list[list[float]]:
    """The numeric rows under the header; with ``timestamps`` the first column must increase."""
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvFormatError("empty file", path)
        if [h.strip() for h in header] != list(columns):
            raise CsvFormatError(f"header must be {','.join(columns)!r}", path, 1)
        for lineno, row in enumerate(reader, start=2):
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
    return rows


def ingest_run(path: str | Path, total_time: float | None = None) -> ProcessRun:
    """Read a t,u,y run; total_time defaults to the last timestamp."""
    rows = _read_table(path, ("t", "u", "y"), timestamps=True)
    if len(rows) < 2:
        raise CsvFormatError("a run needs at least 2 samples", path)
    t = np.array([r[0] for r in rows])
    u = np.array([r[1] for r in rows])
    y = np.array([r[2] for r in rows])
    tt = total_time if total_time is not None else float(t[-1])
    return ProcessRun(TimeSeries(t, u), TimeSeries(t, y), tt)


def write_run_csv(path: str | Path, t, u, y) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("t", "u", "y"))
        for row in zip(t, u, y):
            writer.writerow([repr(float(v)) for v in row])


def read_sample_csv(path: str | Path) -> np.ndarray:
    rows = _read_table(path, ("y",))
    if len(rows) < 2:
        raise CsvFormatError("a sample needs at least 2 values", path)
    return np.array([r[0] for r in rows])


def read_chain_csv(path: str | Path) -> list[ChainNode]:
    rows = _read_table(path, ("u", "ce"))
    if not rows:
        raise CsvFormatError("chain file has no stations", path)
    try:
        return [ChainNode(u, ce) for u, ce in rows]
    except ValueError as exc:
        raise CsvFormatError(str(exc), path) from None


def read_metrics_csv(path: str | Path) -> ProcessMetrics:
    rows = _read_table(path, ("cpk", "pp", "sigma_d", "rate_d", "cv"))
    if len(rows) != 1:
        raise CsvFormatError("metrics file must have exactly one data row", path)
    cpk, pp, sigma_d, rate_d, cv = rows[0]
    return ProcessMetrics(cpk, pp, sigma_d, rate_d, cv, classify_variability(cv))


def _parse_keyvalues(path: Path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
