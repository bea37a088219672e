"""Case reporting: settling statistics per case, rank correlation, CSV output.

A report row combines the transient statistics computed from a case's
productivity model with the externally measured variability metrics that
came with the case data (capability indices cannot be recomputed without
the raw per-period samples, so they are ingested, not derived).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .model import ProductivityFunction, is_stable
from .spc import METRIC_COLUMNS, ProcessMetrics
from .transient import SettlingConfig, classify_steadiness, percentile_reaction_time, settling_time

REPORT_COLUMNS = ("name", "ts", "tt", "reaction_pct", *METRIC_COLUMNS, "steadiness")


@dataclass(frozen=True)
class CaseRecord:
    name: str
    model: ProductivityFunction
    total_time: float
    metrics: ProcessMetrics | None = None
    note: str = ""

    def __post_init__(self):
        if not (math.isfinite(self.total_time) and self.total_time > 0):
            raise ValueError(f"total_time must be positive, got {self.total_time!r}")


@dataclass(frozen=True)
class ReportRow:
    """One case's report line; ``model`` is the case's model, which ``report --plot`` draws, so rows may share a name."""

    name: str
    settling_time: float
    total_time: float
    reaction_fraction: float
    cpk: float | None
    pp: float | None
    sigma_d: float | None
    rate_d: float | None
    cv: float | None
    steadiness: str
    note: str = ""
    model: ProductivityFunction | None = None


def build_report(cases: Sequence[CaseRecord], cfg: SettlingConfig = SettlingConfig()) -> list[ReportRow]:
    """One row per case, carrying its model, sorted by ascending reaction fraction (name breaks ties).

    A case whose settling computation fails is kept with NaN transient
    fields, and one whose reaction fraction fails with a NaN fraction; the
    failure is appended to its note.
    """
    if not cases:
        raise ValueError("no cases to report")
    rows = []
    for case in cases:
        stable = is_stable(case.model)
        note, frac = case.note, math.nan
        try:
            ts = settling_time(case.model, cfg).settling_time
        except ValueError as exc:
            ts, failure = math.nan, f"settling failed: {exc}"
        else:
            try:
                frac, failure = percentile_reaction_time(ts, case.total_time), ""
            except ValueError as exc:
                failure = str(exc)
        if failure:
            note = f"{note}; {failure}" if note else failure
        steadiness = classify_steadiness(ts, case.total_time, stable)
        metrics = {key: getattr(case.metrics, key) if case.metrics else None for key in METRIC_COLUMNS}
        rows.append(
            ReportRow(case.name, ts, case.total_time, frac, **metrics, steadiness=steadiness, note=note, model=case.model)
        )
    rows.sort(key=lambda r: (math.isnan(r.reaction_fraction), r.reaction_fraction, r.name))
    return rows


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their ranks."""
    _, inverse, counts = np.unique(a, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def spearman_rank(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rho with average ranks for ties."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be 1-d sequences of equal length")
    if len(x) < 2:
        raise ValueError("need at least 2 points")
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError("inputs must not contain NaN")
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        raise ValueError("rank correlation is undefined for a constant vector")
    rx = _average_ranks(x) - (len(x) + 1) / 2.0
    ry = _average_ranks(y) - (len(y) + 1) / 2.0
    return float((rx @ ry) / math.sqrt((rx @ rx) * (ry @ ry)))


def _fmt(value: float | None, spec: str = "%.6g") -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return spec % value


def write_report_csv(rows: Sequence[ReportRow], path: str | Path) -> None:
    """Write rows in the fixed report schema; percentages get 2 decimals."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in rows:
            percent = _fmt(100.0 * r.reaction_fraction, "%.2f")
            metrics = [_fmt(getattr(r, key)) for key in METRIC_COLUMNS]
            writer.writerow([r.name, _fmt(r.settling_time), _fmt(r.total_time), percent, *metrics, r.steadiness])
