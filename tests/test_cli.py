import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import prodflow
from prodflow import parse_model
from prodflow.cli import main
from prodflow.svgplot import emit_step_plot
from prodflow.transient import settling_time, step_response


def run_cli(*argv):
    return main(list(argv))


class TestStep:
    def test_writes_run_csv(self, cases_dir, tmp_path):
        out = tmp_path / "step.csv"
        rc = run_cli("step", "--model", str(cases_dir / "case1/model.txt"),
                     "--horizon", "5", "--dt", "0.5", "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,u,y"
        assert len(lines) == 12  # header + 11 samples
        assert lines[1].startswith("0.0,1.0,0.0")

    def test_optional_svg(self, cases_dir, tmp_path):
        out, svg = tmp_path / "s.csv", tmp_path / "s.svg"
        rc = run_cli("step", "--model", str(cases_dir / "case1/model.txt"),
                     "--horizon", "5", "--dt", "0.5", "--out", str(out), "--svg", str(svg))
        assert rc == 0 and svg.read_text().count("<polyline") == 1

    def test_shipped_step_outputs(self, cases_dir, tmp_path, monkeypatch):
        # the checked-in outputs are exactly what this command writes; the model path is the legend
        monkeypatch.chdir(cases_dir.parent)
        out, svg = tmp_path / "s.csv", tmp_path / "s.svg"
        rc = run_cli("step", "--model", "cases/case1/model.txt", "--horizon", "20", "--dt", "0.05",
                     "--out", str(out), "--svg", str(svg))
        assert rc == 0
        shipped = cases_dir.parent / "out"
        assert out.read_bytes() == (shipped / "step_case1.csv").read_bytes()
        assert svg.read_bytes() == (shipped / "step_case1.svg").read_bytes()

    @pytest.mark.parametrize("level", ["9e15", "1e300"])
    def test_flat_plot_at_large_magnitude(self, tmp_path, capsys, level):
        model = tmp_path / "m.txt"
        model.write_text(f"impulse {level}\n")
        out, svg = tmp_path / "s.csv", tmp_path / "s.svg"
        rc = run_cli("step", "--model", str(model), "--horizon", "10", "--dt", "0.5", "--out", str(out), "--svg", str(svg))
        assert rc == 0 and capsys.readouterr().err == ""
        (points,) = re.findall(r'points="([^"]*)"', svg.read_text())
        coords = [float(c) for pair in points.split() for c in pair.split(",")]
        assert len(coords) == 2 * 21 and all(math.isfinite(c) for c in coords)

    def test_a_last_sample_past_the_float_maximum_is_user_error(self, cases_dir, tmp_path, capsys):
        # 3 * fl(max / 3) rounds past the float maximum
        argv = ["step", "--model", str(cases_dir / "case1/model.txt"), "--out", str(tmp_path / "s.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv, "--horizon", "1.7976931348623157e+308", "--dt", "5.992310449541053e+307") == 1
        assert capsys.readouterr() == ("", "error: last sample 0.0 + 5.992310449541053e+307 * 3 overflows\n")

    def test_oversized_grid_is_user_error(self, cases_dir, tmp_path, monkeypatch, capsys):
        import prodflow.cli as cli_mod

        argv = ["step", "--model", str(cases_dir / "case1/model.txt"), "--out", str(tmp_path / "s.csv")]
        # the sample count overflows a float
        assert run_cli(*argv, "--horizon", "1e300", "--dt", "1e-300") == 1
        assert capsys.readouterr().err.splitlines() == ["error: sample count (1e+300 - 0.0) / 1e-300 is not finite"]

        # numpy's refusal of a 74.5 GiB grid, raised without allocating it
        def too_big(pf, horizon, dt):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000001,)")

        monkeypatch.setattr(cli_mod, "step_response", too_big)
        assert run_cli(*argv, "--horizon", "1e10", "--dt", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate 74.5 GiB") and len(err.splitlines()) == 1

    def test_overflowing_response_is_user_error(self, tmp_path, capsys):
        model = tmp_path / "m.txt"
        model.write_text("exp 1 -100\n")
        argv = ["step", "--model", str(model), "--horizon", "10", "--dt", "1", "--out", str(tmp_path / "s.csv")]
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [
            "error: step response overflows over this horizon; shorten the horizon"
        ]


class TestSettle:
    def test_reports_reaction(self, cases_dir, capsys):
        rc = run_cli("settle", "--model", str(cases_dir / "case1/model.txt"),
                     "--total-time", "184")
        assert rc == 0
        out = capsys.readouterr().out
        assert "settling_time: 4.674421084273087" in out
        assert "reaction_pct: 2.54%" in out
        assert "steadiness: steady" in out

    def test_growing_model_prints_undefined(self, cases_dir, capsys):
        rc = run_cli("settle", "--model", str(cases_dir / "case2/model.txt"),
                     "--total-time", "20")
        assert rc == 0
        out = capsys.readouterr().out
        assert "steady_state: undefined" in out
        assert "steadiness: unsteady" in out

    def test_final_band_on_unstable_is_user_error(self, cases_dir, capsys):
        rc = run_cli("settle", "--model", str(cases_dir / "case2/model.txt"), "--band", "final")
        assert rc == 1
        assert "stable" in capsys.readouterr().err

    @pytest.mark.parametrize("band", ["amplitude", "final"])
    def test_overflowing_model_is_user_error(self, tmp_path, capsys, band):
        model = tmp_path / "m.txt"
        model.write_text("exp 1e308 1e-308\n")
        assert run_cli("settle", "--model", str(model), "--band", band) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "overflows" in captured.err

    @pytest.mark.parametrize(
        "model",
        # half = 1e-300 * 1e-30 underflows to 0; half = 1e-280 is far below the rounding of ss = 1e20,
        # where the response stays outside the band until t = 645 and no sample could show it
        ["exp 1e-30 1.0\n", "impulse 1e20\nexp 1.0 1.0\n"],
        ids=["underflowing", "below-rounding"],
    )
    def test_a_final_band_narrower_than_the_rounding_of_the_steady_state_is_user_error(self, tmp_path, capsys, model):
        path = tmp_path / "m.txt"
        path.write_text(model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("settle", "--model", str(path), "--band", "final", "--epsilon", "1e-300") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "final-value band is degenerate" in captured.err

    def test_overflowing_reaction_fraction_is_user_error(self, cases_dir, capsys):
        rc = run_cli("settle", "--model", str(cases_dir / "case1/model.txt"), "--total-time", "1e-320")
        assert rc == 1
        err = capsys.readouterr().err
        assert "reaction fraction" in err and "not finite" in err and len(err.splitlines()) == 1

    def test_a_rate_near_the_float_maximum_settles_quietly_in_the_final_band(self, tmp_path, capsys):
        # the fast mode's exponent -rate * t overflows to -inf on the scan grid, and exp(-inf) = 0 is its limit
        model = tmp_path / "m.txt"
        model.write_text("exp 1.0 1e308\nexp 1.0 1.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("settle", "--model", str(model), "--band", "final") == 0
        assert capsys.readouterr() == (
            "settling_time: 3.912023008412783\nsteady_state: 1.0\nband_low: 0.98\nband_high: 1.02\nstable: true\n",
            "",
        )

    def test_a_reaction_percentage_past_the_float_maximum_is_user_error(self, cases_dir, capsys):
        # ts / tt = 4.7e307 is finite, 100 times it is not
        rc = run_cli("settle", "--model", str(cases_dir / "case1/model.txt"), "--total-time", "1e-307")
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: reaction fraction 4.674421084273087 / 1e-307 is not finite in percent\n"

    def test_a_reaction_percentage_error_prints_no_result(self, cases_dir, capsys):
        # the fraction and the verdict come before any line, so a script reading stdout gets nothing
        assert run_cli("settle", "--model", str(cases_dir / "case1/model.txt"), "--total-time", "1e-307") == 1
        assert capsys.readouterr().out == ""

    def test_missing_file(self, capsys):
        assert run_cli("settle", "--model", "/no/such/file.txt") == 1
        assert "file" in capsys.readouterr().err.lower()

    def test_byte_order_mark_model_loads(self, tmp_path, capsys):
        model = tmp_path / "m.txt"
        model.write_bytes("\ufeffimpulse 1.5\nexp 1 0.5\n".encode("utf-8"))
        assert run_cli("settle", "--model", str(model)) == 0
        assert "steady_state: 3.5" in capsys.readouterr().out

    def test_undecodable_model_names_the_file(self, tmp_path, capsys):
        model = tmp_path / "m.txt"
        model.write_bytes("# café\nexp 1 0.5\n".encode("latin-1"))
        assert run_cli("settle", "--model", str(model)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {model}: not UTF-8 text (invalid continuation byte)\n"

    def test_model_syntax_error_names_the_file(self, tmp_path, capsys):
        model = tmp_path / "m.txt"
        model.write_text("impulse 1\nexp 1\n")
        assert run_cli("settle", "--model", str(model)) == 1
        assert capsys.readouterr().err == f"error: {model}: line 2: exp takes a gain and a decay rate\n"


class TestMetrics:
    def test_with_limits(self, tmp_path, capsys):
        sample = tmp_path / "s.csv"
        sample.write_text("y\n9\n10\n11\n")
        rc = run_cli("metrics", "--sample", str(sample), "--usl", "12", "--lsl", "8")
        assert rc == 0
        out = capsys.readouterr().out
        assert "cpk: 0.666666666666666" in out
        assert "variability_class: low" in out

    def test_limits_must_come_together(self, tmp_path, capsys):
        sample = tmp_path / "s.csv"
        sample.write_text("y\n9\n10\n11\n")
        assert run_cli("metrics", "--sample", str(sample), "--usl", "12") == 1
        assert "together" in capsys.readouterr().err

    def test_overflowing_spread_is_user_error(self, tmp_path, capsys):
        sample = tmp_path / "s.csv"
        sample.write_text("y\n1e200\n2e200\n")
        assert run_cli("metrics", "--sample", str(sample)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "overflows" in captured.err

    def test_overflowing_performance_is_user_error(self, tmp_path, capsys):
        # the limits' width over 6 sigma = 4.2e-150 overflows
        sample = tmp_path / "s.csv"
        sample.write_text("y\n0\n1e-150\n")
        assert run_cli("metrics", "--sample", str(sample), "--usl", "1e300", "--lsl", "0") == 1
        assert capsys.readouterr() == (
            "", "error: cpk, pp or cv overflows; the sample's spread is too small against the limits or its mean\n"
        )


class TestChain:
    def test_propagates(self, tmp_path, capsys):
        spec = tmp_path / "chain.csv"
        spec.write_text("u,ce\n0.8,0.6\n0.5,0.6\n")
        rc = run_cli("chain", "--spec", str(spec), "--ca0", "0.0273")
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "node,u,ce,ca,cd"
        assert lines[1].endswith("0.48027940243154305")
        assert lines[2].endswith("0.5128364537549959")

    @pytest.mark.parametrize("rows,ca0", [("0.5,1e308\n", "1.0"), ("0.5,1.0\n", "1e200")])
    def test_overflow_is_user_error(self, tmp_path, capsys, rows, ca0):
        spec = tmp_path / "chain.csv"
        spec.write_text("u,ce\n" + rows)
        assert run_cli("chain", "--spec", str(spec), "--ca0", ca0) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "departure CV is not finite" in captured.err


class TestFit:
    def test_a_constant_output_that_no_fit_reproduces_is_user_error(self, tmp_path, capsys):
        run_csv, fitted = tmp_path / "run.csv", tmp_path / "fit.txt"
        run_csv.write_text("t,u,y\n0.0,0.0,1.0\n1.0,1.0,1.0\n")
        assert run_cli("fit", "--run", str(run_csv), "--out", str(fitted)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not fitted.exists()
        assert captured.err == (
            "error: gof is undefined: the output is constant, or nearly so, and a fit does not reproduce it\n"
        )

    def test_fits_generated_run(self, cases_dir, tmp_path, capsys):
        run_csv = tmp_path / "run.csv"
        rc = run_cli("step", "--model", str(cases_dir / "case1/model.txt"),
                     "--horizon", "20", "--dt", "0.1", "--out", str(run_csv))
        assert rc == 0
        model_out = tmp_path / "fit.txt"
        rc = run_cli("fit", "--run", str(run_csv), "--out", str(model_out))
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["gof"] >= summary["fdp_gof"]
        assert summary["gof"] > 0.999
        fitted = parse_model(model_out.read_text())
        assert fitted.modes[0].decay_rate == pytest.approx(0.8369, rel=0.01)

    def test_overflowing_sum_of_squares_is_user_error(self, tmp_path, capsys):
        run_csv = tmp_path / "run.csv"
        run_csv.write_text("t,u,y\n0,1e300,1e300\n1,1e300,1e300\n2,1e300,1e300\n")
        assert run_cli("fit", "--run", str(run_csv), "--out", str(tmp_path / "fit.txt")) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "fit.txt").exists()
        assert len(captured.err.splitlines()) == 1 and "overflows" in captured.err

    def test_values_near_the_overflow_limit_fit_without_warnings(self, tmp_path, capsys):
        # finite sums of squares, but growing-mode responses up to e^150 times the input
        run_csv = tmp_path / "run.csv"
        run_csv.write_text("t,u,y\n0,1e150,1e150\n1,1e150,2e150\n2,1e150,3e150\n3,1e150,1.5e150\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("fit", "--run", str(run_csv), "--out", str(tmp_path / "fit.txt")) == 0
        summary = json.loads(capsys.readouterr().out)
        fitted = parse_model((tmp_path / "fit.txt").read_text())
        assert all(math.isfinite(v) for v in summary.values())
        assert math.isfinite(fitted.impulse_gain) and all(math.isfinite(m.gain) for m in fitted.modes)

    @pytest.mark.parametrize("span", ["1e156", "1e200", "1e307"])
    @pytest.mark.parametrize("extra", [[], ["--max-modes", "1"]], ids=["default", "one-mode"])
    def test_a_span_past_the_float_range_of_the_responses_fits_without_warnings(self, span, extra, tmp_path, capsys):
        # every candidate's squared response norm overflows: none is left, and the impulse alone is fitted
        run_csv = tmp_path / "run.csv"
        run_csv.write_text(f"t,u,y\n0,1,1\n{float(span) / 2!r},1,2\n{span},1,2.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("fit", "--run", str(run_csv), *extra, "--out", str(tmp_path / "fit.txt")) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["modes"] == 0 and summary["impulse_gain"] == summary["fdp_alpha"]
        assert summary["gof"] == summary["fdp_gof"]

    @pytest.mark.parametrize("span", ["1e156", "1e200", "1e307"])
    def test_a_span_past_the_float_range_of_the_responses_without_the_impulse_is_user_error(self, span, tmp_path, capsys):
        # no candidate is left and nothing else may be fitted: the error names the span
        run_csv = tmp_path / "run.csv"
        run_csv.write_text(f"t,u,y\n0,1,1\n{float(span) / 2!r},1,2\n{span},1,2.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("fit", "--run", str(run_csv), "--no-impulse", "--out", str(tmp_path / "fit.txt")) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "fit.txt").exists()
        assert len(captured.err.splitlines()) == 1
        assert f"time span of {float(span):g}; rescale the time axis" in captured.err

    @pytest.mark.parametrize("span", [1e200, 1e204, 1e250])
    @pytest.mark.parametrize("impulse", [True, False], ids=["impulse", "no-impulse"])
    def test_a_run_whose_input_moments_overflow_fits_without_warnings(self, span, impulse, tmp_path, capsys):
        # the search's block moments of dt * u overflow, and inf meets the Toeplitz matrices' zeros:
        # every norm is NaN, so no candidate is left, as when the norms overflow
        t, u = np.linspace(0.0, span, 34), 10.0 ** np.linspace(-150.0, 150.0, 34)
        run_csv = tmp_path / "run.csv"
        run_csv.write_text("t,u,y\n" + "".join(f"{a!r},{b!r},{k}\n" for k, (a, b) in enumerate(zip(t.tolist(), u.tolist()), 1)))
        extra = [] if impulse else ["--no-impulse"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli("fit", "--run", str(run_csv), *extra, "--out", str(tmp_path / "fit.txt"))
        captured = capsys.readouterr()
        if impulse:
            assert rc == 0 and json.loads(captured.out)["modes"] == 0
        else:
            assert rc == 1 and f"time span of {span:g}; rescale the time axis" in captured.err

    def test_a_kept_rate_whose_kernel_exponent_overflows_fits_without_warnings(self, tmp_path, capsys):
        # the fastest candidates keep a finite response although -rate * tau overflows in their kernels
        run_csv = tmp_path / "run.csv"
        run_csv.write_text("t,u,y\n0.0,1.0,0.0\n8.98846567431158e+304,7.470416624247145e-197,1.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("fit", "--run", str(run_csv), "--out", str(tmp_path / "fit.txt")) == 0
        assert json.loads(capsys.readouterr().out)["modes"] == 1

    def test_cell_over_the_csv_field_limit_is_user_error(self, tmp_path, capsys):
        run_csv = tmp_path / "run.csv"
        run_csv.write_text("t,u,y\n0,1,0.5\n1,1," + "1" * 200_000 + "\n2,1,0.9\n")
        assert run_cli("fit", "--run", str(run_csv), "--out", str(tmp_path / "fit.txt")) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "fit.txt").exists()
        assert captured.err == f"error: {run_csv}: field larger than field limit (131072)\n"

    def test_gains_past_the_float_range_are_user_error(self, tmp_path, capsys):
        # y / u is about 1e310: every gain that fits overflows
        run_csv = tmp_path / "run.csv"
        run_csv.write_text("t,u,y\n0,1e-160,1e150\n1,1e-160,2e150\n2,1e-160,3e150\n3,1e-160,1.5e150\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("fit", "--run", str(run_csv), "--out", str(tmp_path / "fit.txt")) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "fit.txt").exists()
        assert len(captured.err.splitlines()) == 1 and "gains overflow" in captured.err

    def test_a_run_ending_at_zero_fits_as_the_same_rows_from_zero(self, tmp_path, capsys):
        # the fit reads only t - t[0], so the two files give the same model, byte for byte
        values = [(1.0, 0.5), (1.0, 0.8), (1.0, 0.9), (1.0, 0.95)]
        written = []
        for name, t0 in (("ending", -3), ("starting", 0)):
            run_csv = tmp_path / f"{name}.csv"
            run_csv.write_text("t,u,y\n" + "".join(f"{t0 + i},{u},{y}\n" for i, (u, y) in enumerate(values)))
            assert run_cli("fit", "--run", str(run_csv), "--out", str(tmp_path / f"{name}.txt")) == 0
            written.append((capsys.readouterr().out, (tmp_path / f"{name}.txt").read_bytes()))
        assert written[0] == written[1]

    def test_a_resampled_grid_past_four_times_the_rows_is_user_error(self, tmp_path, capsys):
        # 4 rows with one long gap: resampling at the median step would take 2,000,001 samples
        run_csv = tmp_path / "run.csv"
        run_csv.write_text("t,u,y\n0,1,0.5\n0.0005,1,0.6\n0.001,1,0.7\n1000,1,0.9\n")
        start = time.perf_counter()
        assert run_cli("fit", "--run", str(run_csv), "--max-modes", "1", "--out", str(tmp_path / "fit.txt")) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "fit.txt").exists()
        assert len(captured.err.splitlines()) == 1 and "2000001 samples" in captured.err and " 4 samples" in captured.err


class TestReport:
    def test_full_report(self, cases_dir, tmp_path, capsys):
        out, plot = tmp_path / "r.csv", tmp_path / "r.svg"
        rc = run_cli("report", "--cases", str(cases_dir), "--out", str(out), "--plot", str(plot))
        assert rc == 0
        lines = out.read_text().splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == ["Case 1", "Case 4", "Case 5", "Case 3", "Case 2"]
        assert plot.read_text().count("<polyline") == 5
        notes = capsys.readouterr().out
        assert "note [Case 5]" in notes and "1.23" in notes
        assert notes.splitlines()[-3:] == [
            "spearman(ts/tt, cv): +1.0000",
            "spearman(ts/tt, cpk): -1.0000",
            "spearman(ts/tt, pp): -1.0000",
        ]
        # the checked-in outputs are exactly what this command writes
        shipped = cases_dir.parent / "out"
        assert out.read_bytes() == (shipped / "flow_table.csv").read_bytes()
        assert plot.read_bytes() == (shipped / "step_responses.svg").read_bytes()

    def test_no_rank_summary_without_metrics(self, cases_dir, tmp_path, capsys):
        cases = tmp_path / "cases"
        shutil.copytree(cases_dir, cases)
        (cases / "case6").mkdir()
        (cases / "case6/model.txt").write_text("impulse 1.5\n")
        (cases / "case6/case.txt").write_text("name = Case 6\ntt = 10\nmodel = model.txt\n")
        out, plot = tmp_path / "r.csv", tmp_path / "r.svg"
        rc = run_cli("report", "--cases", str(cases), "--out", str(out), "--plot", str(plot))
        assert rc == 0
        assert len(out.read_text().splitlines()) == 1 + 6
        assert plot.read_text().count("<polyline") == 6
        assert "spearman" not in capsys.readouterr().out

    def test_shipped_final_band_report(self, cases_dir, tmp_path):
        out, plot = tmp_path / "r.csv", tmp_path / "r.svg"
        rc = run_cli("report", "--cases", str(cases_dir), "--band", "final", "--out", str(out), "--plot", str(plot))
        assert rc == 0
        assert out.read_bytes() == (cases_dir.parent / "out" / "flow_table_final.csv").read_bytes()
        # the plot horizons are 1.5 times the settling times, so the plot pins them at full precision
        assert plot.read_bytes() == (cases_dir.parent / "out" / "step_responses_final.svg").read_bytes()

    def test_byte_order_mark_case_file_loads(self, tmp_path, capsys):
        case = tmp_path / "cases" / "c1"
        case.mkdir(parents=True)
        (case / "model.txt").write_text("exp 1 0.5\n")
        (case / "case.txt").write_bytes("\ufeffname = Case B\ntt = 10\nmodel = model.txt\n".encode("utf-8"))
        out = tmp_path / "r.csv"
        assert run_cli("report", "--cases", str(tmp_path / "cases"), "--out", str(out)) == 0
        assert out.read_text().splitlines()[1].startswith("Case B,7.82")

    def test_model_syntax_error_names_the_file(self, tmp_path, capsys):
        cases = tmp_path / "cases"
        for name, model in (("c1", "exp 1 0.5\n"), ("c2", "exp 1\n")):
            (cases / name).mkdir(parents=True)
            (cases / name / "model.txt").write_text(model)
            (cases / name / "case.txt").write_text(f"name = {name}\ntt = 10\nmodel = model.txt\n")
        assert run_cli("report", "--cases", str(cases), "--out", str(tmp_path / "r.csv")) == 1
        err = capsys.readouterr().err
        assert err == f"error: {cases / 'c2' / 'model.txt'}: line 1: exp takes a gain and a decay rate\n"

    def test_a_degenerate_final_band_is_a_note(self, tmp_path, capsys):
        case = tmp_path / "cases" / "c1"
        case.mkdir(parents=True)
        (case / "model.txt").write_text("exp 1e-30 1.0\n")
        (case / "case.txt").write_text("name = Case T\ntt = 10\nmodel = model.txt\n")
        out = tmp_path / "r.csv"
        argv = ["report", "--cases", str(tmp_path / "cases"), "--band", "final", "--epsilon", "1e-300", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        (note,) = captured.out.splitlines()
        assert note.startswith("note [Case T]: settling failed: final-value band is degenerate")
        assert out.read_text().splitlines()[1] == "Case T,,10,,,,,,,steady"

    def test_rows_that_share_a_name_are_each_drawn_with_their_own_model(self, tmp_path):
        cases, models = tmp_path / "cases", ("exp 1.0 1.0\n", "exp 5.0 0.1\n")
        for name, model in zip(("c1", "c2"), models):
            (cases / name).mkdir(parents=True)
            (cases / name / "model.txt").write_text(model)
            (cases / name / "case.txt").write_text("name = Same\ntt = 100\nmodel = model.txt\n")
        out, plot, expected = tmp_path / "r.csv", tmp_path / "r.svg", tmp_path / "e.svg"
        assert run_cli("report", "--cases", str(cases), "--out", str(out), "--plot", str(plot)) == 0
        rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
        assert rows == [["Same", "3.91202"], ["Same", "39.1202"]]
        curves = []
        for model in map(parse_model, models):
            horizon = 1.5 * settling_time(model).settling_time
            curves.append(("Same", step_response(model, horizon, horizon / 400.0)))
        emit_step_plot(curves, expected)
        assert plot.read_text() == expected.read_text()

    def test_a_rate_near_the_float_maximum_reports_quietly_in_the_final_band(self, tmp_path, capsys):
        case = tmp_path / "cases" / "c1"
        case.mkdir(parents=True)
        (case / "model.txt").write_text("exp 1.0 1e308\nexp 1.0 1.0\n")
        (case / "case.txt").write_text("name = Edge\ntt = 10\nmodel = model.txt\n")
        out = tmp_path / "r.csv"
        argv = ["report", "--cases", str(tmp_path / "cases"), "--band", "final", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv, "--plot", str(tmp_path / "r.svg")) == 0
        assert capsys.readouterr() == ("", "")
        assert out.read_text().splitlines()[1] == "Edge,3.91202,10,39.12,,,,,,steady"

    def test_a_reaction_fraction_past_the_float_maximum_keeps_the_settling_time(self, tmp_path, capsys):
        # ts = 3.912 is found; ts / tt = 3.9e320 is not finite, so the row is unsteady with no percentage
        case = tmp_path / "cases" / "c1"
        case.mkdir(parents=True)
        (case / "model.txt").write_text("exp 1.0 1.0\n")
        (case / "case.txt").write_text("name = Tiny\ntt = 1e-320\nmodel = model.txt\n")
        out = tmp_path / "r.csv"
        assert run_cli("report", "--cases", str(tmp_path / "cases"), "--out", str(out)) == 0
        note = "note [Tiny]: reaction fraction 3.912023005428146 / 1e-320 is not finite in percent\n"
        assert capsys.readouterr() == (note, "")
        assert out.read_text().splitlines()[1] == "Tiny,3.91202,9.99989e-321,,,,,,,unsteady"

    @pytest.mark.parametrize(
        "tt,why",
        [("5e-324", "its 400 steps underflow"), ("1000", "its step response is not finite there")],
        ids=["underflow", "overflow"],
    )
    def test_a_plot_that_cannot_be_drawn_names_the_case(self, tmp_path, capsys, tt, why):
        # a growing model has no final band, so its plot spans tt; the CSV is written before the plot
        case = tmp_path / "cases" / "c1"
        case.mkdir(parents=True)
        (case / "model.txt").write_text("exp 1.0 -1.0\n")
        (case / "case.txt").write_text(f"name = Grows\ntt = {tt}\nmodel = model.txt\n")
        out, plot = tmp_path / "r.csv", tmp_path / "r.svg"
        argv = ["report", "--cases", str(tmp_path / "cases"), "--band", "final", "--out", str(out), "--plot", str(plot)]
        assert run_cli(*argv) == 1
        err = f"error: cannot plot case 'Grows' over its horizon {float(tt)!r}: {why}\n"
        assert capsys.readouterr() == ("note [Grows]: settling failed: final-value band needs a stable model\n", err)
        assert out.read_text().splitlines()[1].startswith("Grows,,") and not plot.exists()

    @pytest.mark.parametrize("tt", ["-3", "nan", "inf"])
    def test_a_bad_total_time_names_the_case_file(self, tmp_path, capsys, tt):
        case = tmp_path / "cases" / "c1"
        case.mkdir(parents=True)
        (case / "model.txt").write_text("exp 1 0.5\n")
        (case / "case.txt").write_text(f"name = C\ntt = {tt}\nmodel = model.txt\n")
        assert run_cli("report", "--cases", str(tmp_path / "cases"), "--out", str(tmp_path / "r.csv")) == 1
        err = f"error: {case / 'case.txt'}: total_time must be positive, got {float(tt)!r}\n"
        assert capsys.readouterr() == ("", err)

    def test_a_negative_cv_names_the_metrics_file(self, tmp_path, capsys):
        case = tmp_path / "cases" / "c1"
        case.mkdir(parents=True)
        (case / "model.txt").write_text("exp 1 0.5\n")
        (case / "metrics.csv").write_text("cpk,pp,sigma_d,rate_d,cv\n1.1,1.2,0.5,10,-0.5\n")
        (case / "case.txt").write_text("name = C\ntt = 10\nmodel = model.txt\nmetrics = metrics.csv\n")
        assert run_cli("report", "--cases", str(tmp_path / "cases"), "--out", str(tmp_path / "r.csv")) == 1
        assert capsys.readouterr() == ("", f"error: {case / 'metrics.csv'}: cv must be nonnegative, got -0.5\n")

    def test_bad_cases_dir(self, tmp_path, capsys):
        assert run_cli("report", "--cases", str(tmp_path), "--out", str(tmp_path / "x.csv")) == 1


class TestHeaderOnlyFiles:
    @pytest.mark.parametrize("argv,header", [
        (["fit", "--run", "{path}", "--out", "{path}.txt"], "t,u,y"),
        (["metrics", "--sample", "{path}"], "y"),
        (["chain", "--spec", "{path}", "--ca0", "1"], "u,ce"),
    ])
    def test_one_line_error_and_no_warning(self, tmp_path, capsys, argv, header):
        path = tmp_path / "data.csv"
        path.write_text(header + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(*(a.format(path=path) for a in argv)) == 1
        captured = capsys.readouterr()
        assert caught == [] and captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith(f"error: {path}: ")


class TestExitCodes:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("step", "--model", "M", "--dt", "0.5", "--out", "OUT", "--horizon"),
            ("step", "--model", "M", "--horizon", "5", "--out", "OUT", "--dt"),
            ("settle", "--model", "M", "--epsilon"),
            ("settle", "--model", "M", "--total-time"),
            ("metrics", "--sample", "S", "--lsl", "8", "--usl"),
            ("metrics", "--sample", "S", "--usl", "12", "--lsl"),
            ("chain", "--spec", "C", "--ca0"),
            ("report", "--cases", "CASES", "--out", "OUT", "--epsilon"),
        ],
    )
    def test_non_finite_float_option_is_usage_error(self, cases_dir, tmp_path, capsys, argv, value):
        sample, spec = tmp_path / "s.csv", tmp_path / "chain.csv"
        sample.write_text("y\n9\n10\n11\n")
        spec.write_text("u,ce\n0.8,0.6\n")
        paths = {"M": cases_dir / "case1/model.txt", "S": sample, "C": spec,
                 "CASES": cases_dir, "OUT": tmp_path / "out.csv"}
        # "--opt=-inf", since argparse reads a bare "-inf" as an option name
        assert run_cli(*[str(paths.get(a, a)) for a in argv[:-1]], f"{argv[-1]}={value}") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "not a finite number" in captured.err
        assert not (tmp_path / "out.csv").exists()

    def test_usage_error_is_one(self, capsys):
        assert run_cli("settle") == 1  # missing --model
        assert "model" in capsys.readouterr().err

    def test_unknown_command_is_one(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_help_is_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "prodflow" in capsys.readouterr().out

    def test_version_is_zero(self, capsys):
        assert run_cli("--version") == 0

    def test_one_parser_serves_every_call_like_a_fresh_one(self, cases_dir, tmp_path, monkeypatch, capsys):
        import prodflow.cli as cli_mod

        fitted = tmp_path / "fit.txt"
        calls = [
            ("settle",),
            ("--version",),
            ("fit", "--run", str(cases_dir.parent / "out/step_case1.csv"), "--max-modes", "1", "--out", str(fitted)),
            ("settle", "--model", str(fitted), "--band", "final"),
        ]
        builds = []
        build = cli_mod._build_parser
        monkeypatch.setattr(cli_mod, "_build_parser", lambda: builds.append(1) or build())

        def outcomes(fresh):
            fitted.unlink(missing_ok=True)
            seen = []
            for argv in calls:
                if fresh:
                    monkeypatch.setattr(cli_mod, "_parser", None)
                rc = run_cli(*argv)
                seen.append((rc, *capsys.readouterr(), fitted.read_bytes() if fitted.exists() else None))
            return seen

        monkeypatch.setattr(cli_mod, "_parser", None)
        reused = outcomes(fresh=False)
        assert len(builds) == 1
        assert reused == outcomes(fresh=True) and len(builds) == 1 + len(calls)
        assert [rc for rc, *_ in reused] == [1, 0, 0, 0]

    def test_the_command_line_imports_nothing_beyond_numpy_and_the_listed_stdlib(self):
        # setup_s is a benchmark metric: a new import must be added to this list on purpose;
        # locale: argparse's messages go through gettext, which imports it when the parser first runs
        preloaded = [
            "numpy", "numpy.linalg", "argparse", "csv", "json", "math", "sys", "traceback", "warnings",
            "collections.abc", "contextlib", "dataclasses", "itertools", "pathlib", "typing", "__future__", "locale",
        ]
        code = (
            f"import importlib, sys\nfor name in {preloaded!r}:\n    importlib.import_module(name)\n"
            "before = set(sys.modules)\nfrom prodflow.cli import main\nassert main(['--version']) == 0\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(prodflow.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        loaded = done.stdout.splitlines()[-1].split()
        assert "prodflow.cli" in loaded
        assert [m for m in loaded if m != "prodflow" and not m.startswith("prodflow.")] == []

    def test_internal_error_is_two(self, cases_dir, monkeypatch, capsys):
        import prodflow.cli as cli_mod

        def boom(path):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli_mod, "load_model", boom)
        rc = run_cli("settle", "--model", str(cases_dir / "case1/model.txt"))
        assert rc == 2
        assert "wires crossed" in capsys.readouterr().err
