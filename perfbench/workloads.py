"""The four benchmark workloads: input generation, the op, and its output checks.

Generation runs in the parent process with numpy only; it never calls
prodflow, so a change to the program cannot change the inputs.  Every
number comes from ``numpy.random.default_rng(seed)`` and is written with
``repr``, so one seed gives byte-identical files.

An op is what one closed-loop client does before it sends the next
request: an in-process ``prodflow.cli.main(argv)`` call, or a short chain
of public library calls, on files generated before timing starts.  Checks
run after the op, outside its timing, and use library functions captured
at import, so the traced run never records spans for them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

NAMES = ("fit_short", "fit_long", "portfolio_report", "validate_long")

# Every fit record spans the same 20 time units; the sample count sets dt.
SPAN = 20.0
# Fit records come from a fixed catalogue of kernels and inputs; the seed
# scales each catalogue number by a factor within exp(+-JITTER).
CATALOGUE_SEED = 20171023
JITTER = 0.1
# fit_short cycles through every (shape, length) pair in this fixed order,
# so each run fits the same mix of model structures and record lengths
# whatever the seed; the seed only moves parameters and noise.
FIT_SHORT_SIZES = (200, 360, 520, 680, 840, 1000)
# (decaying modes, growing modes, impulse).  Two thirds of the ops have two
# decaying modes, so the median op is one of them whatever the seed.  One
# shape has a single true mode: the second fitted mode is spurious, and
# whether its refinement converges or runs all 50 sweeps depends on the
# noise.  The growing shape mostly runs all 50 sweeps.
FIT_SHORT_SHAPES = ((2, 0, True), (1, 0, True), (2, 0, False), (1, 1, True), (2, 0, True), (2, 0, False))
FIT_SHORT_MAX_MODES = 2
FIT_LONG_SIZE = 16_000
# the last shape has two true modes, so a one-mode fit is a model mismatch
FIT_LONG_SHAPES = ((1, 0, True), (1, 0, False), (0, 1, True), (2, 0, False))
FIT_LONG_MAX_MODES = 1
FIT_LONG_POOL = 8
PORTFOLIO_CASES = 300
PORTFOLIO_SAMPLE_ROWS = 10_000
PORTFOLIO_CHAIN_STATIONS = 1_000
PORTFOLIO_USL, PORTFOLIO_LSL = 115.0, 85.0
VALIDATE_SAMPLES = 50_000
VALIDATE_MODELS = 4

SMOKE = {
    "fit_short": {"sizes": (60, 90), "shapes": FIT_SHORT_SHAPES[:2]},
    "fit_long": {"size": 400, "pool": 2},
    "portfolio_report": {"cases": 8, "rows": 50, "stations": 10},
    "validate_long": {"samples": 2_000, "models": 2},
}


# ---------------------------------------------------------------- generation


def _fmt_model(impulse: float, modes) -> str:
    lines = [f"impulse {impulse!r}"] if impulse != 0.0 else []
    lines += [f"exp {g!r} {r!r}" for g, r in modes]
    return "\n".join(lines) + "\n"


def _trapezoid(kernel: np.ndarray, u: np.ndarray, dt: float) -> np.ndarray:
    # The benchmark's own copy of the trapezoid convolution, so that the
    # generated outputs stay fixed when the program's convolution changes.
    n = len(u)
    m = 1 << (2 * n - 1).bit_length()
    full = np.fft.irfft(np.fft.rfft(kernel, m) * np.fft.rfft(u, m), m)[:n]
    full -= 0.5 * (kernel[0] * u + kernel * u[0])
    return full * dt


def _truth(base, decays: int, grows: int, impulse: bool) -> dict:
    """Parameters of one catalogue record: kernel (gain, rate) pairs, impulse, input shape."""
    modes = []
    slow = 1.0 / (SPAN * base.uniform(0.08, 0.2))
    for j in range(decays):
        rate = slow if j == 0 else slow * base.uniform(3.0, 6.0)
        amp = base.uniform(0.6, 1.4) if j == 0 else base.choice((-1.0, 1.0)) * base.uniform(0.3, 0.6)
        modes.append((amp * rate, rate))
    for _ in range(grows):
        rate = -base.uniform(0.3, 1.0) / SPAN
        modes.append((base.uniform(0.3, 0.8) * -rate, rate))
    return {"modes": modes, "impulse": base.uniform(0.2, 0.6) if impulse else 0.0,
            "onset": base.uniform(0.05, 0.15) * SPAN, "period": base.uniform(0.5, 1.5) * SPAN,
            "phase": base.uniform(0.0, 2.0 * np.pi)}


def _fit_record(rng, n: int, shape, entry: int) -> str:
    """A run CSV: a delayed step with slow variation through a kernel, plus 1 % noise.

    The kernel and input come from catalogue entry ``entry``; the seed's
    ``rng`` scales each of their numbers by up to JITTER either way and
    draws the noise, so every seed fits different records of the same
    difficulty.
    """
    p = _truth(np.random.default_rng([CATALOGUE_SEED, entry]), *shape)

    def jitter(x):
        return x * float(np.exp(rng.uniform(-JITTER, JITTER)))

    dt = SPAN / n
    t = dt * np.arange(n)
    u = np.where(t >= jitter(p["onset"]),
                 1.0 + 0.2 * np.sin(2.0 * np.pi * t / jitter(p["period"]) + jitter(p["phase"])), 0.0)
    y = jitter(p["impulse"]) * u
    for gain, rate in p["modes"]:
        y = y + jitter(gain) * _trapezoid(np.exp(-jitter(rate) * t), u, dt)
    y = y + 0.01 * float(np.std(y)) * rng.standard_normal(n)
    lines = ["t,u,y"] + [f"{a!r},{b!r},{c!r}" for a, b, c in zip(t.tolist(), u.tolist(), y.tolist())]
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _gen_fit_short(rng, work: Path, smoke: bool) -> dict:
    sizes = SMOKE["fit_short"]["sizes"] if smoke else FIT_SHORT_SIZES
    shapes = SMOKE["fit_short"]["shapes"] if smoke else FIT_SHORT_SHAPES
    # shape index advances every op, size index every op plus once per full
    # lap of shapes, so consecutive ops differ in both and all pairs appear
    combos = [(shapes[i % len(shapes)], sizes[(i + i // len(shapes)) % len(sizes)])
              for i in range(len(shapes) * len(sizes))]
    runs = []
    for i, (shape, n) in enumerate(combos):
        path = work / f"run{i:02d}.csv"
        _write(path, _fit_record(rng, n, shape, i))
        runs.append(str(path))
    return {"runs": runs, "max_modes": FIT_SHORT_MAX_MODES}


def _gen_fit_long(rng, work: Path, smoke: bool) -> dict:
    n = SMOKE["fit_long"]["size"] if smoke else FIT_LONG_SIZE
    pool = SMOKE["fit_long"]["pool"] if smoke else FIT_LONG_POOL
    runs = []
    for i in range(pool):
        path = work / f"run{i:02d}.csv"
        _write(path, _fit_record(rng, n, FIT_LONG_SHAPES[i % len(FIT_LONG_SHAPES)], 100 + i))
        runs.append(str(path))
    return {"runs": runs, "max_modes": FIT_LONG_MAX_MODES}


def _portfolio_model(rng, kind: int) -> tuple[float, list[tuple[float, float]]]:
    """Kinds in rotation: 1, 2 and 3 decaying modes, impulse only, growing, 2 modes + impulse."""
    slow = 10.0 ** rng.uniform(-2.0, 0.5)
    if kind == 3:
        return float(rng.uniform(0.5, 2.0)), []
    if kind == 4:
        return 0.0, [(float(slow * rng.uniform(0.5, 1.5)), float(slow)),
                     (float(0.05 * slow), float(-0.2 * slow))]
    count = {0: 1, 1: 2, 2: 3, 5: 2}[kind]
    modes = [(float(slow * rng.uniform(0.5, 1.5)), float(slow))]
    for _ in range(count - 1):
        rate = slow * rng.uniform(2.0, 20.0)
        modes.append((float(rate * rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.4)), float(rate)))
    impulse = float(rng.uniform(0.1, 1.0)) if kind in (0, 5) else 0.0
    return impulse, modes


def _gen_portfolio(rng, work: Path, smoke: bool) -> dict:
    size = SMOKE["portfolio_report"] if smoke else {
        "cases": PORTFOLIO_CASES, "rows": PORTFOLIO_SAMPLE_ROWS, "stations": PORTFOLIO_CHAIN_STATIONS}
    cases = work / "cases"
    for i in range(size["cases"]):
        d = cases / f"c{i:03d}"
        impulse, modes = _portfolio_model(rng, i % 6)
        _write(d / "model.txt", _fmt_model(impulse, modes))
        slow = min((abs(r) for _, r in modes), default=1.0)
        meta = [f"name = Case {i:03d}", f"tt = {float(rng.uniform(0.5, 20.0) / slow)!r}", "model = model.txt"]
        if i % 5 != 4:  # every fifth case has no metrics.csv
            cpk, pp, sigma, rate, cv = rng.uniform(0.2, 2.0, size=5).tolist()
            _write(d / "metrics.csv", f"cpk,pp,sigma_d,rate_d,cv\n{cpk!r},{pp!r},{sigma!r},{rate!r},{cv!r}\n")
            meta.append("metrics = metrics.csv")
        if i % 7 == 0:
            meta.append(f"note = generated case {i}")
        _write(d / "case.txt", "\n".join(meta) + "\n")
    sample = rng.normal(100.0, 5.0, size["rows"])
    _write(work / "sample.csv", "y\n" + "".join(f"{v!r}\n" for v in sample.tolist()))
    u = rng.uniform(0.3, 0.95, size["stations"]).tolist()
    ce = rng.uniform(0.2, 1.5, size["stations"]).tolist()
    _write(work / "chain.csv", "u,ce\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(u, ce)))
    return {"cases": str(cases), "sample": str(work / "sample.csv"), "chain": str(work / "chain.csv"),
            "ca0": float(rng.uniform(0.1, 1.0)), "usl": PORTFOLIO_USL, "lsl": PORTFOLIO_LSL}


def _gen_validate(rng, work: Path, smoke: bool) -> dict:
    samples = SMOKE["validate_long"]["samples"] if smoke else VALIDATE_SAMPLES
    count = SMOKE["validate_long"]["models"] if smoke else VALIDATE_MODELS
    models = []
    for i in range(count):
        # stable with a positive steady state: 1, 2 and 3 modes, and 2 modes + impulse
        impulse, modes = _portfolio_model(rng, (0, 1, 2, 5)[i % 4])
        path = work / f"model{i}.txt"
        _write(path, _fmt_model(impulse, modes))
        horizon = 5.0 * math.log(50.0) / min(r for _, r in modes)
        models.append({"path": str(path), "horizon": horizon, "dt": horizon / samples})
    return {"models": models}


GENERATORS = {"fit_short": _gen_fit_short, "fit_long": _gen_fit_long,
              "portfolio_report": _gen_portfolio, "validate_long": _gen_validate}


def generate(name: str, seed: int, work: Path, smoke: bool = False) -> dict:
    """Write the inputs of one workload under ``work``; return its manifest."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    return GENERATORS[name](rng, work, smoke)


def digest(work: Path) -> str:
    """sha256 over every generated file, by relative path and content."""
    h = hashlib.sha256()
    for p in sorted(q for q in work.rglob("*") if q.is_file()):
        h.update(p.relative_to(work).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


# ------------------------------------------------------------ ops and checks


class Outcome:
    """Result of one op as the checks see it."""

    def __init__(self):
        self.codes: list[int] = []
        self.stdout = ""
        self.extra: dict = {}


def _cli(lib, outcome: Outcome, argv: list[str]) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        outcome.codes.append(lib.cli.main(argv))
    outcome.stdout += buf.getvalue()


class Lib:
    """The prodflow modules, plus untraced references for the checks."""

    def __init__(self):
        import prodflow.cli
        from prodflow import flowchain, identify, ingest, model, report, spc, transient

        # the modules whose globals the tracer patches
        self.cli, self.identify, self.ingest, self.transient, self.report = (
            prodflow.cli, identify, ingest, transient, report)
        # captured before any patching: checks must not record spans
        self.parse_model = model.parse_model
        self.load_model = ingest.load_model
        self.ingest_cases = ingest.ingest_cases
        self.read_sample_csv = ingest.read_sample_csv
        self.read_chain_csv = ingest.read_chain_csv
        self.settling_time = transient.settling_time
        self.SettlingConfig = transient.SettlingConfig
        self.step_response = transient.step_response
        self.step_values = transient.step_values
        self.steady_state_gain = model.steady_state_gain
        self.sample_metrics = spc.sample_metrics
        self.SpecLimits = spc.SpecLimits
        self.propagate_chain = flowchain.propagate_chain


class Workload:
    """One op over the generated inputs, and the checks of its outputs."""

    def __init__(self, lib: Lib, manifest: dict, work: Path):
        self.lib, self.m, self.work = lib, manifest, work

    def op(self, i: int) -> Outcome:
        raise NotImplementedError

    def check(self, i: int, out: Outcome) -> tuple[list[str], float | None]:
        """Return (failed check messages, gof of the op or None)."""
        raise NotImplementedError

    def pool(self) -> int:
        """Number of distinct inputs; op i uses input i mod pool()."""
        return 1


class Fit(Workload):
    def pool(self):
        return len(self.m["runs"])

    def op(self, i):
        out = Outcome()
        dest = self.work / "fitted.txt"
        out.extra["model"] = dest
        _cli(self.lib, out, ["fit", "--run", self.m["runs"][i % self.pool()],
                             "--max-modes", str(self.m["max_modes"]), "--out", str(dest)])
        return out

    def check(self, i, out):
        if out.codes != [0]:
            return [f"fit exited {out.codes}"], None
        errors = []
        try:
            pf = self.lib.parse_model(out.extra["model"].read_text(encoding="utf-8"))
        except ValueError as exc:
            return [f"written model does not parse: {exc}"], None
        summary = json.loads(out.stdout.strip().splitlines()[-1])
        gof = summary["gof"]
        if not math.isfinite(gof):
            return [f"gof is not finite: {gof!r}"], None
        if gof < summary["fdp_gof"] - 1e-12:
            errors.append(f"gof {gof!r} below the static baseline {summary['fdp_gof']!r}")
        if summary["modes"] != len(pf.modes) or len(pf.modes) > self.m["max_modes"]:
            errors.append(f"mode count {summary['modes']} disagrees with the written model")
        return errors, gof


def _polylines(svg: bytes) -> list[np.ndarray]:
    """(points, 2) arrays of every polyline; raises ET.ParseError on bad XML."""
    root = ET.fromstring(svg)
    return [np.array(p.get("points").replace(",", " ").split(), dtype=float).reshape(-1, 2)
            for p in root.iter("{http://www.w3.org/2000/svg}polyline")]


def _plot_gof(lines: list[np.ndarray], curves: list[np.ndarray]) -> float:
    """How well the plotted y pixels reproduce the data, up to an affine axis map."""
    py = np.concatenate([p[:, 1] for p in lines])
    ref = np.concatenate(curves)
    A = np.column_stack([py, np.ones_like(py)])
    coef, *_ = np.linalg.lstsq(A, ref, rcond=None)
    den = float(np.linalg.norm(ref - ref.mean()))
    return 1.0 - float(np.linalg.norm(ref - A @ coef)) / den


class Portfolio(Workload):
    """report --band final --plot over the cases, then metrics and chain."""

    def __init__(self, lib, manifest, work):
        super().__init__(lib, manifest, work)
        self.csv, self.svg = work / "report.csv", work / "report.svg"
        self.verified: dict[str, tuple[list[str], float]] = {}
        m = manifest
        lim = lib.SpecLimits(m["usl"], m["lsl"])
        sm = lib.sample_metrics(lib.read_sample_csv(m["sample"]), lim)
        self.metrics_text = "".join(f"{k}: {getattr(sm, k)!r}\n" for k in ("cpk", "pp", "sigma_d", "rate_d", "cv"))
        self.metrics_text += f"variability_class: {sm.variability_class}\n"
        nodes = lib.read_chain_csv(m["chain"])
        res = lib.propagate_chain(m["ca0"], nodes)
        self.chain_text = "node,u,ce,ca,cd\n" + "".join(
            f"{i},{n.utilization!r},{n.cv_effective!r},{a!r},{d!r}\n"
            for i, (n, a, d) in enumerate(zip(nodes, res.arrivals, res.departures), start=1))

    def op(self, i):
        out = Outcome()
        m = self.m
        _cli(self.lib, out, ["report", "--cases", m["cases"], "--out", str(self.csv),
                             "--band", "final", "--plot", str(self.svg)])
        start = len(out.stdout)
        _cli(self.lib, out, ["metrics", "--sample", m["sample"], "--usl", repr(m["usl"]), "--lsl", repr(m["lsl"])])
        out.extra["metrics"] = out.stdout[start:]
        start = len(out.stdout)
        _cli(self.lib, out, ["chain", "--spec", m["chain"], "--ca0", repr(m["ca0"])])
        out.extra["chain"] = out.stdout[start:]
        return out

    def check(self, i, out):
        if out.codes != [0, 0, 0]:
            return [f"report/metrics/chain exited {out.codes}"], None
        errors = []
        if out.extra["metrics"] != self.metrics_text:
            errors.append("metrics output differs from the library recompute")
        if out.extra["chain"] != self.chain_text:
            errors.append("chain output differs from the library recompute")
        # report outputs depend only on the inputs: bytes already verified
        # in this run need no second verification
        key = hashlib.sha256(self.csv.read_bytes() + b"\0" + self.svg.read_bytes()).hexdigest()
        if key not in self.verified:
            self.verified[key] = self._check_report()
        report_errors, gof = self.verified[key]
        return errors + report_errors, gof

    def _check_report(self) -> tuple[list[str], float]:
        lib = self.lib
        cfg = lib.SettlingConfig(epsilon=0.02, band_mode="final")
        cases = {c.name: c for c in lib.ingest_cases(self.m["cases"])}
        with open(self.csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        errors = []
        if sorted(r["name"] for r in rows) != sorted(cases):
            return [f"report has {len(rows)} rows for {len(cases)} cases"], math.nan
        fracs = [float(r["reaction_pct"]) if r["reaction_pct"] else math.inf for r in rows]
        if any(b < a for a, b in zip(fracs, fracs[1:])):
            errors.append("report rows are not sorted by reaction fraction")
        curves = []
        for r in rows:
            case = cases[r["name"]]
            try:
                ts = lib.settling_time(case.model, cfg).settling_time
                want = "%.6g" % ts
            except ValueError:
                ts, want = math.nan, ""
            if r["ts"] != want:  # the CSV carries 6 significant digits
                errors.append(f"{r['name']}: ts {r['ts']!r}, library gives {want!r}")
            horizon = 1.5 * ts if math.isfinite(ts) and ts > 0 else case.total_time
            curves.append(lib.step_response(case.model, horizon, horizon / 400.0).values)
        try:
            lines = _polylines(self.svg.read_bytes())
        except ET.ParseError as exc:
            return errors + [f"SVG does not parse: {exc}"], math.nan
        if len(lines) != len(rows):
            return errors + [f"SVG has {len(lines)} polylines for {len(rows)} cases"], math.nan
        if any(len(p) != len(c) for p, c in zip(lines, curves)):
            errors.append("an SVG polyline has the wrong number of points")
            return errors, math.nan
        return errors, _plot_gof(lines, curves)


class Validate(Workload):
    """step writes a long run CSV and SVG; read it back, fit_fdp, simulate, gof."""

    def pool(self):
        return len(self.m["models"])

    def op(self, i):
        lib, spec = self.lib, self.m["models"][i % self.pool()]
        out = Outcome()
        csv_path, svg_path = self.work / "step.csv", self.work / "step.svg"
        _cli(lib, out, ["step", "--model", spec["path"], "--horizon", repr(spec["horizon"]),
                        "--dt", repr(spec["dt"]), "--out", str(csv_path), "--svg", str(svg_path)])
        if out.codes != [0]:
            return out
        pf = lib.ingest.load_model(spec["path"])
        run = lib.ingest.ingest_run(csv_path)
        fdp = lib.identify.fit_fdp(run)
        sim = lib.transient.simulate_response(pf, run.input, spec["dt"])
        out.extra.update(pf=pf, run=run, fdp=fdp, sim=sim, svg=svg_path,
                         gof=lib.identify.goodness_of_fit(sim, run.output))
        return out

    def check(self, i, out):
        if out.codes != [0]:
            return [f"step exited {out.codes}"], None
        lib, spec, x = self.lib, self.m["models"][i % self.pool()], out.extra
        ref = lib.step_response(lib.load_model(spec["path"]), spec["horizon"], spec["dt"])
        run = x["run"]
        errors = []
        if not (np.array_equal(run.output.t, ref.t) and np.array_equal(run.output.values, ref.values)
                and np.all(run.input.values == 1.0)):
            errors.append("ingested run differs from the written step response")
        ss = lib.steady_state_gain(x["pf"])
        err = float(np.max(np.abs(x["sim"].values - lib.step_values(x["pf"], x["sim"].t))))
        if not err <= 1e-3 * abs(ss):
            errors.append(f"simulate_response is off by {err!r} (steady state {ss!r})")
        if not math.isfinite(x["fdp"].gof):
            errors.append(f"fdp gof is not finite: {x['fdp'].gof!r}")
        try:
            lines = _polylines(x["svg"].read_bytes())
        except ET.ParseError as exc:
            return errors + [f"SVG does not parse: {exc}"], None
        if len(lines) != 1 or len(lines[0]) != len(ref):
            errors.append("step SVG must hold one polyline with every sample")
        gof = x["gof"]
        if not math.isfinite(gof):
            errors.append(f"gof is not finite: {gof!r}")
        return errors, gof


WORKLOADS = {"fit_short": Fit, "fit_long": Fit, "portfolio_report": Portfolio, "validate_long": Validate}
