"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and then
asserts, so a red run still reports every criterion's verdict.
"""

import numpy as np
import pytest

from prodflow import (
    ChainNode,
    FitConfig,
    ProcessRun,
    SettlingResult,
    TimeSeries,
    build_report,
    classify_variability,
    coefficient_of_variation,
    fit_fdp,
    fit_productivity,
    process_capability_index,
    process_performance,
    propagate_one,
    segment_changeover,
    settling_time,
    simulate_response,
    spearman_rank,
    steady_state_gain,
    step_response,
    SpecLimits,
)
from prodflow.ingest import ingest_cases, load_model

from expected import CASE_ORDER, CASE_TABLE


def _verdict(num: int, ok: bool, desc: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def cases(cases_dir):
    return ingest_cases(cases_dir)


@pytest.fixture(scope="module")
def report_rows(cases):
    return build_report(cases)


def test_criterion_1_settling_times(report_rows):
    ts = {r.name: r.settling_time for r in report_rows}
    checks = []
    for name in ("Case 1", "Case 2", "Case 3", "Case 4"):
        ref = CASE_TABLE[name][0]
        checks.append(abs(ts[name] - ref) / ref <= 0.005)
    case5_ref = CASE_TABLE["Case 5"][0]
    checks.append(abs(ts["Case 5"] - case5_ref) / case5_ref <= 0.10)
    note = {r.name: r.note for r in report_rows}["Case 5"]
    checks.append("1.23" in note and "1.14" in note)
    _verdict(
        1,
        all(checks),
        f"settling times {[round(ts[n], 4) for n in CASE_ORDER]} match the reported "
        "values (0.5%; Case 5 within 10%, discrepancy noted in report output)",
    )


def test_criterion_2_reaction_times(report_rows):
    frac = {r.name: r.reaction_fraction for r in report_rows}
    checks = []
    for name in ("Case 1", "Case 2", "Case 3", "Case 4"):
        ref = CASE_TABLE[name][2] / 100.0
        checks.append(abs(frac[name] - ref) / ref <= 0.005)
    ref5 = CASE_TABLE["Case 5"][2] / 100.0
    checks.append(abs(frac["Case 5"] - ref5) / ref5 <= 0.10)
    _verdict(
        2,
        all(checks),
        f"reaction times {[f'{100 * frac[n]:.2f}%' for n in CASE_ORDER]} match the "
        "reported percentages (0.5%; Case 5 within 10%)",
    )


def test_criterion_3_report_order_and_steadiness(report_rows):
    order_ok = [r.name for r in report_rows] == list(CASE_ORDER)
    flags_ok = all(
        (r.steadiness == "unsteady") == (r.name == "Case 2") for r in report_rows
    )
    _verdict(3, order_ok and flags_ok, "report sorts Case 1, 4, 5, 3, 2 and flags only Case 2 unsteady")


def test_criterion_4_rank_correlations(report_rows):
    frac = [r.reaction_fraction for r in report_rows]
    rho_cv = spearman_rank(frac, [r.cv for r in report_rows])
    rho_cpk = spearman_rank(frac, [r.cpk for r in report_rows])
    rho_pp = spearman_rank(frac, [r.pp for r in report_rows])
    _verdict(
        4,
        rho_cv == 1.0 and rho_cpk == -1.0 and rho_pp == -1.0,
        f"Spearman rho vs cv/cpk/pp = {rho_cv:+.1f}/{rho_cpk:+.1f}/{rho_pp:+.1f} (exactly +1/-1/-1)",
    )


def _u_monotonicity(cd, CA, CE):
    # cd rises with utilization where the station is the more variable side,
    # falls where the arrivals are
    du = np.diff(cd, axis=2)
    toward = np.broadcast_to(CE > CA, du.shape)
    away = np.broadcast_to(CE < CA, du.shape)
    return bool(np.all(du[toward] >= -1e-12) and np.all(du[away] <= 1e-12))


def test_criterion_5_variability_propagation_grid():
    ca_grid = np.linspace(0.0, 2.0, 101)
    ce_grid = np.linspace(0.0, 2.0, 101)
    u_grid = np.linspace(0.0, 1.0, 11)
    cd = np.empty((101, 101, 11))
    for j, ce in enumerate(ce_grid):
        for k, u in enumerate(u_grid):
            node = ChainNode(u, ce)
            cd[:, j, k] = [propagate_one(ca, node) for ca in ca_grid]

    CA = ca_grid[:, None, None]
    CE = ce_grid[None, :, None]
    U = u_grid[None, None, :]
    checks = {
        "idle boundary u=0: cd == ca": np.allclose(cd[:, :, 0], np.broadcast_to(CA[:, :, 0], (101, 101)), rtol=1e-14, atol=1e-15),
        "busy boundary u=1: cd == ce": np.allclose(cd[:, :, -1], np.broadcast_to(CE[:, :, 0], (101, 101)), rtol=1e-14, atol=1e-15),
        "fixed point ca == ce": np.allclose(cd[np.arange(101), np.arange(101), :], np.broadcast_to(ca_grid[:, None], (101, 11)), rtol=1e-14, atol=1e-15),
        "bounded by min/max(ca, ce)": bool(
            np.all(cd >= np.minimum(CA, CE) - 1e-12) and np.all(cd <= np.maximum(CA, CE) + 1e-12)
        ),
        "monotone in ca": bool(np.all(np.diff(cd, axis=0) >= -1e-12)),
        "monotone in ce": bool(np.all(np.diff(cd, axis=1) >= -1e-12)),
        "monotone in u toward ce": _u_monotonicity(cd, CA, CE),
        "squared form to 1e-12": bool(
            np.all(np.abs(cd**2 - (U**2 * CE**2 + (1 - U**2) * CA**2)) <= 1e-12)
        ),
    }
    for label, ok in checks.items():
        if not ok:
            print(f"  grid check failed: {label}")
    _verdict(5, all(checks.values()), "variability-propagation grid suite (101x101x11): boundaries, fixed point, bounds, monotonicity, squared form")


def test_criterion_6_convolution_oracle(cases_dir):
    fixtures = {
        "Case 1": load_model(cases_dir / "case1/model.txt"),
        "Case 2 (decaying)": load_model(cases_dir / "case2/model_decaying.txt"),
        "Case 3": load_model(cases_dir / "case3/model.txt"),
        "Case 4": load_model(cases_dir / "case4/model.txt"),
        "Case 5": load_model(cases_dir / "case5/model.txt"),
    }
    ok = True
    details = []
    for name, pf in fixtures.items():
        ss = steady_state_gain(pf)
        horizon = 1.5 * settling_time(pf).settling_time
        errs = []
        for dt in (1e-3, 5e-4):
            ref = step_response(pf, horizon, dt)
            u = TimeSeries(ref.t, np.ones(len(ref)))
            sim = simulate_response(pf, u, dt)
            errs.append(float(np.abs(sim.values - ref.values).max()))
        within = errs[0] <= 1e-3 * abs(ss)
        shrinks = errs[1] < errs[0]
        ok = ok and within and shrinks
        details.append(f"{name}: {errs[0]:.2e}")
        if not (within and shrinks):
            print(f"  convolution check failed for {name}: errs={errs}, tol={1e-3 * abs(ss):.2e}")
    _verdict(6, ok, "unit-step convolution matches the analytic response (<=1e-3*|ss| at dt=1e-3, halving dt shrinks error)")


def _synthetic_run(pf, noise=0.0, seed=0):
    lam_max = max(abs(m.decay_rate) for m in pf.modes)
    horizon = min(1.5 * settling_time(pf).settling_time, 20.0)
    dt = min(0.1 / lam_max, horizon / 100.0)
    resp = step_response(pf, horizon, dt)
    y = resp.values.copy()
    if noise:
        rng = np.random.default_rng(seed)
        y = y + noise * np.abs(y).max() * rng.standard_normal(len(y))
    return ProcessRun(TimeSeries(resp.t, np.ones(len(resp))), TimeSeries(resp.t, y))


def test_criterion_7_identification_recovery(cases):
    models = {c.name: c.model for c in cases}
    p1 = models["Case 1"]

    clean = fit_productivity(_synthetic_run(p1))
    mode = min(clean.model.modes, key=lambda m: abs(abs(m.decay_rate) - 0.8369))
    clean_ok = (
        abs(mode.decay_rate - 0.8369) / 0.8369 <= 0.01
        and abs(mode.gain - 0.8417) / 0.8417 <= 0.01
    )

    noisy = fit_productivity(_synthetic_run(p1, noise=0.01, seed=20260811), FitConfig(max_modes=1))
    nmode = noisy.model.modes[0]
    noisy_ok = (
        abs(nmode.decay_rate - 0.8369) / 0.8369 <= 0.05
        and abs(nmode.gain - 0.8417) / 0.8417 <= 0.05
    )

    beats_fdp = True
    for name, pf in models.items():
        run = _synthetic_run(pf)
        if fit_productivity(run).gof < fit_fdp(run).gof - 1e-12:
            beats_fdp = False
            print(f"  fit worse than the static baseline on {name}")
    _verdict(
        7,
        clean_ok and noisy_ok and beats_fdp,
        f"identification: clean recovery (rate {mode.decay_rate:.4f}, gain {mode.gain:.4f}) within 1%, "
        f"1%-noise recovery within 5%, fit gof >= baseline gof on all five synthetic runs",
    )


def test_criterion_8_spc_formulas():
    checks = []
    # Cpk: symmetric 3-sigma limits; asymmetric minimum; zero-spread error
    checks.append(abs(process_capability_index([-1.0, 0.0, 1.0], SpecLimits(3.0, -3.0)) - 1.0) <= 1e-9)
    checks.append(abs(process_capability_index([95.0, 100.0, 105.0], SpecLimits(115.0, 94.0)) - 0.4) <= 1e-9)
    try:
        process_capability_index([5.0, 5.0], SpecLimits(6.0, 4.0))
        checks.append(False)
    except ValueError:
        checks.append(True)
    # Pp: definitional identity; 2% default band; degenerate default band error
    checks.append(abs(process_performance([-1.0, 0.0, 1.0], SpecLimits(3.0, -3.0)) - 1.0) <= 1e-9)
    checks.append(abs(process_performance([98.0, 100.0, 102.0]) - 1.0 / 3.0) <= 1e-9)
    try:
        process_performance([-1.0, 0.0, 1.0])
        checks.append(False)
    except ValueError:
        checks.append(True)
    # CV against the reported case statistics, to the 4th decimal place
    checks.append(abs(coefficient_of_variation(95.22, 3481.40) - 0.0273) < 1e-4)
    checks.append(abs(coefficient_of_variation(278.44, 458.68) - 0.6070) < 1e-4)
    # variability classes of the reported CVs
    for name, row in CASE_TABLE.items():
        expected = "moderate" if name == "Case 2" else "low"
        checks.append(classify_variability(row[7]) == expected)
    _verdict(8, all(checks), "Cpk/Pp examples to 1e-9, CV values to 4 decimals, variability classes match")


def test_criterion_9_changeover_tiling():
    rng = np.random.default_rng(99)
    failures = 0
    for _ in range(1000):
        w0 = float(rng.uniform(-100.0, 100.0))
        cleanup_len = float(rng.uniform(0.0, 30.0))
        setup_len = float(rng.uniform(0.0, 30.0))
        ts = float(rng.uniform(0.0, 50.0))
        if cleanup_len > 1e-6:
            k = int(rng.integers(3, 30))
            prev = TimeSeries(
                np.linspace(w0, w0 + cleanup_len, k),
                np.linspace(float(rng.uniform(0.5, 20.0)), 0.0, k),
            )
        else:
            cleanup_len = 0.0
            prev = TimeSeries([w0, w0 + 1.0], [0.0, 0.0])
        kickoff = w0 + cleanup_len + setup_len
        inp = TimeSeries([w0 - 1.0, kickoff, kickoff + 1.0], [0.0, 1.0, 1.0])
        stages = segment_changeover(prev, inp, SettlingResult(ts, 1.0, 0.98, 1.02))
        tiles = (
            stages.cleanup[0] <= stages.cleanup[1]
            and stages.cleanup[1] == stages.setup[0]
            and stages.setup[0] <= stages.setup[1]
            and stages.setup[1] == stages.startup[0]
            and stages.startup[0] <= stages.startup[1]
            and stages.cleanup == (w0, w0 + cleanup_len)
            and stages.startup == (kickoff, kickoff + ts)
        )
        failures += 0 if tiles else 1
    _verdict(9, failures == 0, f"changeover stages tile 1000 randomized windows ({failures} failures)")
