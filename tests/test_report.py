import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy import stats

from prodflow import (
    CaseRecord,
    ProductivityFunction,
    SettlingConfig,
    TimeSeries,
    build_report,
    emit_step_plot,
    spearman_rank,
    step_response,
    write_report_csv,
)
from prodflow import svgplot
from prodflow.ingest import ingest_cases
from prodflow.spc import classify_variability
from expected import CASE_ORDER, CASE_TABLE, P1


def table_cases(cases_dir):
    return ingest_cases(cases_dir)


def polyline_points(svg: str) -> list[str]:
    return re.findall(r'points="([^"]*)"', svg)


def reference_points(curves) -> list[str]:
    """Per-point f-strings of each polyline, for curves that are not all flat."""
    x_min = min(float(ts.t[0]) for _, ts in curves)
    x_max = max(float(ts.t[-1]) for _, ts in curves)
    y_min = min(float(ts.values.min()) for _, ts in curves)
    y_max = max(float(ts.values.max()) for _, ts in curves)
    plot_w = svgplot._WIDTH - svgplot._MARGIN_L - svgplot._MARGIN_R
    plot_h = svgplot._HEIGHT - svgplot._MARGIN_T - svgplot._MARGIN_B

    def px(x: float) -> float:
        return svgplot._MARGIN_L + (x - x_min) / (x_max - x_min) * plot_w

    def py(y: float) -> float:
        return svgplot._MARGIN_T + (y_max - y) / (y_max - y_min) * plot_h

    return [" ".join(f"{px(float(x)):.2f},{py(float(y)):.2f}" for x, y in zip(ts.t, ts.values)) for _, ts in curves]


class TestBuildReport:
    def test_bundled_cases_order(self, cases_dir):
        rows = build_report(table_cases(cases_dir))
        assert [r.name for r in rows] == list(CASE_ORDER)

    def test_only_case2_unsteady(self, cases_dir):
        rows = build_report(table_cases(cases_dir))
        flags = {r.name: r.steadiness for r in rows}
        assert flags["Case 2"] == "unsteady"
        assert all(v == "steady" for name, v in flags.items() if name != "Case 2")

    def test_metrics_are_merged(self, cases_dir):
        rows = build_report(table_cases(cases_dir))
        for row in rows:
            assert row.cpk == CASE_TABLE[row.name][3]
            assert row.cv == CASE_TABLE[row.name][7]

    def test_single_case(self):
        rows = build_report([CaseRecord("only", P1, 100.0)])
        assert len(rows) == 1 and rows[0].cpk is None

    def test_equal_fractions_tie_break_by_name(self):
        a = CaseRecord("b-case", P1, 50.0)
        b = CaseRecord("a-case", P1, 50.0)
        rows = build_report([a, b])
        assert [r.name for r in rows] == ["a-case", "b-case"]

    def test_failed_settling_marks_row(self, cases_dir):
        rows = build_report(table_cases(cases_dir), SettlingConfig(band_mode="final"))
        marked = {r.name: r for r in rows}["Case 2"]
        assert math.isnan(marked.settling_time)
        assert "settling failed" in marked.note
        assert marked.steadiness == "unsteady"
        assert rows[-1].name == "Case 2"  # NaN fraction sorts last
        assert len(rows) == 5

    def test_report_is_a_permutation(self, cases_dir):
        cases = table_cases(cases_dir)
        rows = build_report(cases)
        assert sorted(r.name for r in rows) == sorted(c.name for c in cases)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_report([])


class TestSpearman:
    def test_bundled_columns_are_comonotone(self, cases_dir):
        rows = build_report(table_cases(cases_dir))
        frac = [r.reaction_fraction for r in rows]
        assert spearman_rank(frac, [r.cv for r in rows]) == 1.0
        assert spearman_rank(frac, [r.cpk for r in rows]) == -1.0
        assert spearman_rank(frac, [r.pp for r in rows]) == -1.0

    def test_reversed_anti_rank(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert spearman_rank(xs, xs[::-1]) == -1.0

    def test_self_correlation(self):
        assert spearman_rank([3.0, 1.0, 2.0], [3.0, 1.0, 2.0]) == 1.0

    def test_ties_match_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.integers(0, 5, size=12).astype(float)
            y = rng.integers(0, 5, size=12).astype(float)
            if np.ptp(x) == 0 or np.ptp(y) == 0:
                continue
            expected = stats.spearmanr(x, y).statistic
            assert spearman_rank(x, y) == pytest.approx(expected, rel=1e-12)

    @given(st.lists(st.integers(-1000, 1000), min_size=3, max_size=20, unique=True))
    def test_invariant_under_monotone_transform(self, values):
        xs = [float(v) for v in values]
        ys = [x**3 for x in xs]
        base = spearman_rank(xs, ys)
        transformed = spearman_rank([2.0 * x + 5.0 for x in xs], ys)
        assert transformed == base == 1.0

    @pytest.mark.parametrize(
        "xs,ys,match",
        [
            ([1.0, 2.0], [1.0], "equal length"),
            ([1.0], [1.0], "at least 2"),
            ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], "constant"),
            ([1.0, float("nan"), 3.0], [1.0, 2.0, 3.0], "NaN"),
        ],
    )
    def test_rejects(self, xs, ys, match):
        with pytest.raises(ValueError, match=match):
            spearman_rank(xs, ys)


class TestReportCsv:
    def test_columns_and_percent_format(self, cases_dir, tmp_path):
        rows = build_report(table_cases(cases_dir))
        out = tmp_path / "report.csv"
        write_report_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "name,ts,tt,reaction_pct,cpk,pp,sigma_d,rate_d,cv,steadiness"
        first = lines[1].split(",")
        assert first[0] == "Case 1"
        assert first[3] == "2.54"
        assert lines[-1].split(",")[9] == "unsteady"

    def test_marked_rows_leave_blanks(self, tmp_path):
        row_source = [CaseRecord("g", ProductivityFunction(1.0), 5.0)]
        rows = build_report(row_source)
        out = tmp_path / "r.csv"
        write_report_csv(rows, out)
        assert ",,,,," in out.read_text().splitlines()[1]


class TestStepPlot:
    def curves(self, cases_dir):
        return [
            (c.name, step_response(c.model, 10.0, 0.1)) for c in table_cases(cases_dir)
        ]

    def test_five_polylines_and_legend(self, cases_dir, tmp_path):
        out = tmp_path / "fig.svg"
        emit_step_plot(self.curves(cases_dir), out)
        svg = out.read_text()
        assert svg.count("<polyline") == 5
        assert "Case 5" in svg and ">t<" in svg and "output" in svg

    def test_deterministic_bytes(self, cases_dir, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_step_plot(self.curves(cases_dir), a)
        emit_step_plot(self.curves(cases_dir), b)
        assert a.read_bytes() == b.read_bytes()

    def test_flat_curve(self, tmp_path):
        flat = TimeSeries([0.0, 1.0, 2.0], [3.0, 3.0, 3.0])
        out = tmp_path / "flat.svg"
        emit_step_plot([("flat", flat)], out)
        assert out.read_text().count("<polyline") == 1

    @pytest.mark.parametrize("level", [3.0, 9e15, -9e15, 1e300, sys.float_info.max, -sys.float_info.max])
    def test_flat_curves_at_any_magnitude(self, tmp_path, level):
        flat = TimeSeries([0.0, 1.0, 2.0], [level] * 3)
        out = tmp_path / "flat.svg"
        emit_step_plot([("a", flat), ("b", flat)], out)
        svg = out.read_text()
        for points in polyline_points(svg):
            ys = [float(pair.split(",")[1]) for pair in points.split()]
            assert all(24.0 <= y <= 472.0 for y in ys)
        if level == 3.0:  # where +-0.5 survives rounding it is the padding
            assert ">2.5</text>" in svg and ">3.5</text>" in svg

    @pytest.mark.parametrize("level", [1e308, sys.float_info.max])
    def test_range_past_the_float_maximum(self, tmp_path, level):
        out = tmp_path / "wide.svg"
        emit_step_plot([("hi", TimeSeries([0.0, 1.0], [level] * 2)), ("lo", TimeSeries([0.0, 1.0], [-level] * 2))], out)
        svg = out.read_text()
        assert "nan" not in svg and "inf" not in svg
        assert [p.split()[0].split(",")[1] for p in polyline_points(svg)] == ["24.00", "472.00"]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_step_plot([], tmp_path / "x.svg")

    def test_points_match_per_point_format(self, cases_dir, tmp_path):
        # coordinates that are odd multiples of 1/8 sit half-way between two .2f outputs
        n = 596 * 8 + 1
        halves = TimeSeries(np.arange(n) / 8.0, (np.arange(n) % 3585) / 8.0)
        for curves in (self.curves(cases_dir), [("halves", halves)]):
            out = tmp_path / "fig.svg"
            emit_step_plot(curves, out)
            assert polyline_points(out.read_text()) == reference_points(curves)
        x = svgplot._MARGIN_L + halves.t / 596 * 596
        y = svgplot._MARGIN_T + (448 - halves.values) / 448 * 448
        assert np.count_nonzero(x * 8 % 2 == 1) > 1000 and np.count_nonzero(y * 8 % 2 == 1) > 1000

    @given(
        steps=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40),
        values=st.lists(st.floats(-1e12, 1e12), min_size=41, max_size=41),
    )
    def test_points_match_per_point_format_random(self, tmp_path_factory, steps, values):
        t = np.concatenate(([0.0], np.cumsum(steps)))
        ts = TimeSeries(t, values[: len(t)])
        assume(ts.values.min() < ts.values.max())
        out = tmp_path_factory.getbasetemp() / "random.svg"
        emit_step_plot([("r", ts)], out)
        assert polyline_points(out.read_text()) == reference_points([("r", ts)])


def per_point(xy: np.ndarray) -> str:
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in xy.tolist())


def ties_and_neighbours() -> np.ndarray:
    """Exact decimal ties k/800, ties k * 0.005 rounded to binary, and (k + 1/2)/100 with both its neighbours."""
    rng = np.random.default_rng(2)
    near = (rng.integers(0, 100_000, 2000) + 0.5) / 100
    return np.concatenate((rng.integers(0, 800_000, 2000) / 800, rng.integers(0, 200_000, 2000) * 0.005,
                           near, np.nextafter(near, 0.0), np.nextafter(near, np.inf)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPointsText:
    coordinate = st.floats(0.0, 1000.0, exclude_max=True)

    @given(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=60))
    def test_matches_per_point_format(self, points):
        xy = np.array(points)
        assert svgplot._points(xy) == per_point(xy)

    @pytest.mark.parametrize("column", [0, 1])
    def test_ties_and_their_neighbours(self, column):
        values = ties_and_neighbours()
        xy = np.full((len(values), 2), 321.09)
        xy[:, column] = values
        for point in np.split(xy, len(xy)):  # one value each, so that no other decides the path
            assert svgplot._points(point) == per_point(point)

    @pytest.mark.parametrize("values", [
        [999.995, 3.0], [1000.0, 3.0], [3.0, 1e6], [-0.0, 3.0], [3.0, -0.004], [-5.0, -700.25],
        [5e-324, 2.2250738585072014e-308], [1e-310, 0.0], [0.0, 999.994], [0.125, 0.375],
    ])
    @pytest.mark.parametrize("n", [1, 4, 5])
    def test_edge_values(self, values, n):
        xy = np.tile(values, (n, 1)) + np.array([[0.0, 0.0]] + [[100.0, 200.0]] * (n - 1))
        assert svgplot._points(xy) == per_point(xy)

    @pytest.mark.parametrize("odd", [0.125, np.nextafter(0.005, 0.0), 0.005, 999.995, 1000.0, -0.0, -0.004])
    def test_near_ties_and_values_outside_the_tables_take_the_format_string(self, monkeypatch, odd):
        rng = np.random.default_rng(11)
        xy = rng.uniform(24.0, 660.0, (9, 2))
        monkeypatch.setattr(svgplot, "_WHOLE", svgplot._WHOLE[::-1].copy())  # whole parts misspelt
        assert svgplot._points(xy) != per_point(xy)
        xy[4, 1] = odd
        assert svgplot._points(xy) == per_point(xy)


def test_ingested_class_matches_reported_variability(cases_dir):
    for case in table_cases(cases_dir):
        expected = "moderate" if case.name == "Case 2" else "low"
        assert classify_variability(case.metrics.cv) == expected
        assert case.metrics.variability_class == expected
