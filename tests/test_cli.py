import json
import math
import re
import shutil
import warnings

import pytest

from prodflow import parse_model
from prodflow.cli import main


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

    def test_overflowing_reaction_fraction_is_user_error(self, cases_dir, capsys):
        rc = run_cli("settle", "--model", str(cases_dir / "case1/model.txt"), "--total-time", "1e-320")
        assert rc == 1
        err = capsys.readouterr().err
        assert "reaction fraction" in err and "not finite" in err and len(err.splitlines()) == 1

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

    def test_bad_cases_dir(self, tmp_path, capsys):
        assert run_cli("report", "--cases", str(tmp_path), "--out", str(tmp_path / "x.csv")) == 1


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

    def test_internal_error_is_two(self, cases_dir, monkeypatch, capsys):
        import prodflow.cli as cli_mod

        def boom(path):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli_mod, "load_model", boom)
        rc = run_cli("settle", "--model", str(cases_dir / "case1/model.txt"))
        assert rc == 2
        assert "wires crossed" in capsys.readouterr().err
