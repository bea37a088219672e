"""prodflow command line: transient, capability, chain, fit, and report tools.

Exit codes: 0 success, 1 user error (bad arguments or bad input files),
2 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback

import numpy as np

from . import __version__
from .identify import FitConfig, fit_fdp, fit_productivity
from .ingest import ingest_cases, ingest_run, load_model, read_chain_csv, read_sample_csv, write_run_csv
from .flowchain import propagate_chain
from .model import format_model, is_stable
from .report import build_report, spearman_rank, write_report_csv
from .spc import METRIC_COLUMNS, SpecLimits, sample_metrics
from .svgplot import emit_step_plot
from .transient import BAND_MODES, SettlingConfig, classify_steadiness, percentile_reaction_time, settling_time, step_response


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this tool reserves 2 for internal errors
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _finite(text: str) -> float:
    """argparse type of every float option: a finite number."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _build_parser() -> _Parser:
    parser = _Parser(prog="prodflow", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"prodflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("step", help="sample a model's unit-step response")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--horizon", required=True, type=_finite, help="last sample time")
    p.add_argument("--dt", required=True, type=_finite, help="sample step")
    p.add_argument("--out", required=True, help="output run CSV (t,u,y with u=1)")
    p.add_argument("--svg", help="also plot the response to this SVG file")
    p.set_defaults(func=_cmd_step)

    p = sub.add_parser("settle", help="settling time and steadiness of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--epsilon", type=_finite, default=SettlingConfig.epsilon, help="band half-width fraction")
    p.add_argument("--band", choices=BAND_MODES, default=SettlingConfig.band_mode)
    p.add_argument("--total-time", type=_finite, help="total process time, enables reaction %%")
    p.set_defaults(func=_cmd_settle)

    p = sub.add_parser("metrics", help="capability/variability statistics of a sample CSV")
    p.add_argument("--sample", required=True, help="CSV with header 'y'")
    p.add_argument("--usl", type=_finite, help="upper specification limit")
    p.add_argument("--lsl", type=_finite, help="lower specification limit")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("chain", help="propagate flow variability down a chain CSV")
    p.add_argument("--spec", required=True, help="CSV with header 'u,ce', one station per row")
    p.add_argument("--ca0", required=True, type=_finite, help="arrival CV at the first station")
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("fit", help="fit a productivity function to a recorded run")
    p.add_argument("--run", required=True, help="CSV with header 't,u,y'")
    p.add_argument("--max-modes", type=int, default=FitConfig.max_modes)
    p.add_argument("--no-impulse", action="store_true", help="forbid the feedthrough term")
    p.add_argument("--stable-only", action="store_true", help="forbid growing modes")
    p.add_argument("--out", required=True, help="write the fitted model file here")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("report", help="settling/variability report over a case directory")
    p.add_argument("--cases", required=True, help="directory of case subdirectories")
    p.add_argument("--out", required=True, help="report CSV path")
    p.add_argument("--plot", help="also write the step responses to this SVG file")
    p.add_argument("--epsilon", type=_finite, default=SettlingConfig.epsilon)
    p.add_argument("--band", choices=BAND_MODES, default=SettlingConfig.band_mode)
    p.set_defaults(func=_cmd_report)
    return parser


def _cmd_step(args) -> int:
    pf = load_model(args.model)
    response = step_response(pf, args.horizon, args.dt)
    write_run_csv(args.out, response.t, np.ones(len(response)), response.values)
    if args.svg:
        emit_step_plot([(args.model, response)], args.svg)
    return 0


def _cmd_settle(args) -> int:
    pf = load_model(args.model)
    cfg = SettlingConfig(epsilon=args.epsilon, band_mode=args.band)
    result = settling_time(pf, cfg)
    stable = is_stable(pf)
    lines = [
        f"settling_time: {result.settling_time!r}",
        f"steady_state: {'undefined' if result.steady_state_value is None else repr(result.steady_state_value)}",
        f"band_low: {result.band_low!r}",
        f"band_high: {result.band_high!r}",
        f"stable: {str(stable).lower()}",
    ]
    if args.total_time is not None:  # computed before anything is printed, so an error leaves stdout empty
        frac = percentile_reaction_time(result.settling_time, args.total_time)
        lines.append(f"reaction_pct: {100.0 * frac:.2f}%")
        lines.append(f"steadiness: {classify_steadiness(result.settling_time, args.total_time, stable)}")
    print("\n".join(lines))
    return 0


def _cmd_metrics(args) -> int:
    if (args.usl is None) != (args.lsl is None):
        raise UsageError("--usl and --lsl must be given together")
    limits = SpecLimits(args.usl, args.lsl) if args.usl is not None else None
    m = sample_metrics(read_sample_csv(args.sample), limits)
    for key in METRIC_COLUMNS:
        print(f"{key}: {getattr(m, key)!r}")
    print(f"variability_class: {m.variability_class}")
    return 0


def _cmd_chain(args) -> int:
    nodes = read_chain_csv(args.spec)
    result = propagate_chain(args.ca0, nodes)
    print("node,u,ce,ca,cd")
    for i, (node, ca, cd) in enumerate(zip(nodes, result.arrivals, result.departures), start=1):
        print(f"{i},{node.utilization!r},{node.cv_effective!r},{ca!r},{cd!r}")
    return 0


def _cmd_fit(args) -> int:
    run = ingest_run(args.run)
    cfg = FitConfig(
        max_modes=args.max_modes,
        allow_impulse=not args.no_impulse,
        allow_unstable=not args.stable_only,
    )
    baseline = fit_fdp(run)
    result = fit_productivity(run, cfg)
    if not (math.isfinite(result.gof) and math.isfinite(baseline.gof)):
        raise ValueError("gof is undefined: the output is constant, or nearly so, and a fit does not reproduce it")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(format_model(result.model))
    print(
        json.dumps(
            {
                "gof": result.gof,
                "residual_norm": result.residual_norm,
                "modes": len(result.model.modes),
                "impulse_gain": result.model.impulse_gain,
                "fdp_alpha": baseline.alpha,
                "fdp_gof": baseline.gof,
            }
        )
    )
    return 0


def _cmd_report(args) -> int:
    cases = ingest_cases(args.cases)
    cfg = SettlingConfig(epsilon=args.epsilon, band_mode=args.band)
    rows = build_report(cases, cfg)
    write_report_csv(rows, args.out)
    for row in rows:
        if row.note:
            print(f"note [{row.name}]: {row.note}")
    # the rank correlations only when every case has a settling time and metrics
    frac = [row.reaction_fraction for row in rows]
    try:
        rhos = [(key, spearman_rank(frac, [getattr(row, key) for row in rows])) for key in ("cv", "cpk", "pp")]
    except ValueError:
        rhos = []
    for key, rho in rhos:
        print(f"spearman(ts/tt, {key}): {rho:+.4f}")
    if args.plot:
        curves = []
        for row in rows:
            ts = row.settling_time
            horizon = 1.5 * ts if math.isfinite(ts) and ts > 0 else row.total_time
            try:
                curves.append((row.name, step_response(row.model, horizon, horizon / 400.0)))
            except ValueError:
                why = "its 400 steps underflow" if horizon / 400.0 == 0.0 else "its step response is not finite there"
                raise ValueError(f"cannot plot case {row.name!r} over its horizon {horizon!r}: {why}") from None
        emit_step_plot(curves, args.plot)
    return 0


# built by the first main() call, not at import, then reused: a build costs about 30 parses
_parser: _Parser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help/--version
        return exc.code or 0
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
