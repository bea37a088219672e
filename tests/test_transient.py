import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from prodflow import (
    ChangeoverOverlapError,
    ExponentialMode,
    ProductivityFunction,
    SettlingConfig,
    SettlingResult,
    TimeSeries,
    classify_steadiness,
    percentile_reaction_time,
    segment_changeover,
    settling_time,
    simulate_response,
    step_response,
    steady_state_gain,
)
from expected import (
    LN50,
    P1,
    P2_DECAYING,
    P2_GROWING,
    P2_GROWING_Y20,
    P3,
    P4,
    P5,
    SS_P1,
    STABLE_MODELS,
    TS_CASE1,
    TS_CASE2,
    TS_CASE3,
    TS_CASE4,
)
from prodflow import transient
from prodflow.model import parse_model, uniform_grid
from prodflow.transient import _SCAN_CHUNK, _settle_final_band, step_values, trapezoid_convolve

STABLE_CASE_MODELS = [
    p for p in sorted((Path(__file__).resolve().parents[1] / "cases").glob("*/model*.txt"))
    if steady_state_gain(parse_model(p.read_text())) is not None
]


def unit_step(horizon: float, dt: float) -> TimeSeries:
    n = int(round(horizon / dt))
    t = dt * np.arange(n + 1)
    return TimeSeries(t, np.ones(n + 1))


class TestStepResponse:
    def test_p1_approaches_steady_state(self):
        resp = step_response(P1, 40.0, 0.5)
        assert resp.values[-1] == pytest.approx(SS_P1, rel=1e-9)

    @pytest.mark.parametrize("pf", list(STABLE_MODELS.values()) + [P2_GROWING])
    def test_starts_at_impulse_gain(self, pf):
        resp = step_response(pf, 1.0, 0.1)
        assert resp.values[0] == pf.impulse_gain

    def test_growing_variant_closed_form(self):
        # frozen from the closed form 1.699 - (0.04910796/0.07004)(e^(0.07004*20) - 1),
        # cross-checked by trapezoid quadrature of the kernel at dt=1e-5
        dt = 1e-5
        tau = dt * np.arange(int(round(20 / dt)) + 1)
        kern = -0.04910796 * np.exp(0.07004 * tau)
        oracle = 1.699 + np.trapezoid(kern, dx=dt)
        assert oracle == pytest.approx(P2_GROWING_Y20, abs=1e-9)
        resp = step_response(P2_GROWING, 20.0, 0.5)
        assert resp.t[-1] == 20.0
        assert resp.values[-1] == pytest.approx(P2_GROWING_Y20, rel=1e-12)

    def test_grid_truncates_to_horizon(self):
        resp = step_response(P1, 1.0, 0.4)
        assert list(resp.t) == pytest.approx([0.0, 0.4, 0.8])

    @pytest.mark.parametrize("horizon,dt", [(0.0, 0.1), (-1.0, 0.1), (1.0, 0.0), (1.0, 2.0)])
    def test_rejects_bad_grid(self, horizon, dt):
        with pytest.raises(ValueError):
            step_response(P1, horizon, dt)


class TestSimulateResponse:
    def test_unit_step_matches_analytic(self):
        # oracle: the closed-form step response on the same grid
        dt = 1e-3
        sim = simulate_response(P1, unit_step(20.0, dt), dt)
        ref = step_response(P1, 20.0, dt)
        assert np.array_equal(sim.t, ref.t)
        assert np.abs(sim.values - ref.values).max() <= 1e-3 * abs(SS_P1)

    def test_error_shrinks_with_dt(self):
        errs = []
        for dt in (2e-3, 1e-3, 5e-4):
            sim = simulate_response(P1, unit_step(20.0, dt), dt)
            ref = step_response(P1, 20.0, dt)
            errs.append(np.abs(sim.values - ref.values).max())
        assert errs[0] > errs[1] > errs[2]

    def test_zero_input_zero_output(self):
        inp = TimeSeries(np.linspace(0, 5, 51), np.zeros(51))
        out = simulate_response(P5, inp, 0.1)
        assert np.all(out.values == 0.0)

    def test_impulse_only_feedthrough(self):
        pf = ProductivityFunction(1.699)
        out = simulate_response(pf, unit_step(5.0, 0.1), 0.1)
        assert np.allclose(out.values, 1.699, rtol=0, atol=0)

    def test_resamples_nonuniform_input(self):
        inp = TimeSeries([0.0, 0.3, 1.0, 5.0], [1.0, 1.0, 1.0, 1.0])
        sim = simulate_response(P1, inp, 1e-3)
        ref = step_response(P1, 5.0, 1e-3)
        assert np.abs(sim.values - ref.values).max() <= 1e-3 * abs(SS_P1)

    def test_too_coarse_grid_rejected(self):
        inp = TimeSeries([0.0, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError):
            simulate_response(P1, inp, 2.0)

    def test_growing_mode_overflow_guard(self):
        inp = unit_step(15000.0, 10.0)
        with pytest.raises(ValueError, match="overflow"):
            simulate_response(P2_GROWING, inp, 10.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_response_is_one_value_error(self):
        # every kernel value is at most 1, but the response to 1e300 passes the float maximum
        pf = ProductivityFunction(0.0, (ExponentialMode(1e300, 0.5),))
        inp = TimeSeries(np.linspace(0.0, 5.0, 51), np.full(51, 1e300))
        with pytest.raises(ValueError, match="^response overflows"):
            simulate_response(pf, inp, 0.1)


def direct_trapezoid(kernel, u, dt):
    """The trapezoid rule term by term."""
    return np.array([dt * (np.dot(kernel[: k + 1], u[k::-1]) - 0.5 * (kernel[0] * u[k] + kernel[k] * u[0]))
                     for k in range(len(u))])


class TestTrapezoidConvolve:
    # growing and decaying, up to e^25 over the longest record
    RATES = np.array([-0.05, -0.004, 0.02, 0.7, 9.0])

    # 5001 samples with derivatives take 4 groups of 80 blocks: both rows carry across groups
    @pytest.mark.parametrize("n", [2, 3, 200, 1001, 5001])
    def test_matches_direct_sum_and_stacks_row_by_row(self, n):
        rng = np.random.default_rng(n)
        u, dt, k = rng.normal(size=n), 0.1, len(self.RATES)
        u[0] = 1.3  # the trapezoid's u[0] end term counts
        tau = dt * np.arange(n)
        rows = trapezoid_convolve(self.RATES, u, dt, derivatives=True)
        assert rows.shape == (2 * k, n)
        for rate, row, deriv in zip(self.RATES, rows[:k], rows[k:]):
            kernel = np.exp(-rate * tau)
            direct = direct_trapezoid(kernel, u, dt)
            np.testing.assert_allclose(row, direct, rtol=0, atol=1e-13 * n * np.abs(direct).max())
            # the derivative with respect to log|rate| is rate times the one with respect to rate
            direct = rate * direct_trapezoid(-tau * kernel, u, dt)
            np.testing.assert_allclose(deriv, direct, rtol=0, atol=1e-13 * n * np.abs(direct).max())
        without = trapezoid_convolve(self.RATES, u, dt)
        np.testing.assert_allclose(without, rows[:k], rtol=0, atol=1e-14 * np.abs(without).max())

    def test_successive_stacks_of_different_heights_match_one_kernel_calls(self):
        rng = np.random.default_rng(5)
        u, dt = rng.normal(size=50), 0.2
        # nothing is carried from one call to the next, whatever the number of rates
        for rows in (2, 1, 3, 2):
            rates = rng.uniform(-0.5, 5.0, size=rows)
            got = trapezoid_convolve(rates, u, dt)
            for rate, row in zip(rates, got):
                np.testing.assert_allclose(row, trapezoid_convolve([rate], u, dt)[0], rtol=0, atol=1e-14 * np.abs(row).max())

    def test_growing_mode_matches_a_long_double_recursion(self):
        # the input is off for 50 samples, so the early response is e^8 below the last one
        n, dt, rate = 16_000, 0.05, -0.01
        tau = dt * np.arange(n)
        u = np.where(np.arange(n) >= 50, 1.0 + 0.5 * np.sin(0.3 * tau), 0.0)
        ld = np.longdouble
        a, z, ref = np.exp(-ld(rate) * ld(dt)), ld(0.0), np.empty(n, dtype=ld)
        for i, x in enumerate(u):
            z = a * z + ld(x)
            ref[i] = ld(dt) * (z - ld(0.5) * ld(x))  # u[0] is 0
        err = np.abs(trapezoid_convolve([rate], u, dt)[0] - ref)
        nonzero = ref != 0
        assert (err[nonzero] <= 1e-12 * np.abs(ref[nonzero])).all() and (err[~nonzero] == 0).all()
        assert err.max() <= 1e-13 * np.abs(ref).max()


class TestSettlingTime:
    def test_case1(self):
        res = settling_time(P1, SettlingConfig(epsilon=0.02))
        assert res.settling_time == pytest.approx(TS_CASE1, rel=1e-12)
        assert res.steady_state_value == pytest.approx(SS_P1, rel=1e-12)

    def test_unit_rate_forced_by_epsilon(self):
        pf = ProductivityFunction(0.0, (ExponentialMode(1.0, 1.0),))
        assert settling_time(pf).settling_time == pytest.approx(LN50, rel=1e-12)

    def test_case2_same_for_both_signs(self):
        grow = settling_time(P2_GROWING)
        decay = settling_time(P2_DECAYING)
        assert grow.settling_time == decay.settling_time == pytest.approx(TS_CASE2, rel=1e-12)
        assert grow.steady_state_value is None and math.isnan(grow.band_low)
        assert decay.steady_state_value is not None

    def test_cases_3_and_4(self):
        assert settling_time(P4).settling_time == pytest.approx(TS_CASE4, rel=1e-12)
        assert settling_time(P3).settling_time == pytest.approx(TS_CASE3, rel=1e-12)

    def test_impulse_only_settles_immediately(self):
        res = settling_time(ProductivityFunction(2.0))
        assert res.settling_time == 0.0 and res.steady_state_value == 2.0

    def test_final_band_matches_amplitude_for_pure_mode(self):
        # single mode without feedthrough: both conventions use the same band
        res_a = settling_time(P1)
        res_f = settling_time(P1, SettlingConfig(band_mode="final"))
        assert res_f.settling_time == pytest.approx(res_a.settling_time, rel=1e-6)
        assert res_f.reached_within is not None

    def test_final_band_respects_last_exit(self):
        cfg = SettlingConfig(band_mode="final")
        res = settling_time(P5, cfg)
        ss = res.steady_state_value
        t = np.linspace(res.settling_time * (1 + 1e-6), res.settling_time * 10, 500)
        y = step_values(P5, t)
        assert np.all(np.abs(y - ss) <= 0.02 * abs(ss) * (1 + 1e-9))

    def test_final_band_rejects_unstable(self):
        with pytest.raises(ValueError, match="stable"):
            settling_time(P2_GROWING, SettlingConfig(band_mode="final"))

    def test_final_band_rejects_zero_steady_state(self):
        pf = ProductivityFunction(1.0, (ExponentialMode(-2.0, 2.0),))
        assert steady_state_gain(pf) == 0.0
        with pytest.raises(ValueError, match="degenerate"):
            settling_time(pf, SettlingConfig(band_mode="final"))

    @pytest.mark.parametrize("name,pf", list(STABLE_MODELS.items()))
    def test_band_holds_beyond_settling(self, name, pf):
        res = settling_time(pf)
        ss = res.steady_state_value
        slowest = min(pf.modes, key=lambda m: abs(m.decay_rate))
        amp = abs(slowest.gain / slowest.decay_rate)
        t = np.linspace(res.settling_time, res.settling_time + 5 / abs(slowest.decay_rate), 200)
        assert np.all(np.abs(step_values(pf, t) - ss) <= 0.02 * amp * (1 + 1e-9))

    @given(st.floats(0.1, 10), st.floats(0.1, 10), st.floats(1e-3, 1e3))
    def test_invariant_under_gain_scaling(self, gain, rate, k):
        pf = ProductivityFunction(0.0, (ExponentialMode(gain, rate),))
        scaled = ProductivityFunction(0.0, (ExponentialMode(k * gain, rate),))
        assert settling_time(pf).settling_time == settling_time(scaled).settling_time

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            SettlingConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SettlingConfig(epsilon=1.0)
        with pytest.raises(ValueError):
            SettlingConfig(band_mode="tight")


def one_step_final_band(pf, cfg, ss):
    """The final-band settle on the whole grid, bisected one midpoint per step_values call."""
    half = cfg.epsilon * abs(ss)
    rate_min = min(m.decay_rate for m in pf.modes)
    ts_guess = math.log(1.0 / cfg.epsilon) / rate_min
    total_amp = sum(abs(m.gain / m.decay_rate) for m in pf.modes)
    if total_amp <= half:
        return SettlingResult(0.0, ss, ss - half, ss + half, 0.0)
    horizon = 1.1 * max(math.log(total_amp / half) / rate_min, ts_guess)
    t = uniform_grid(0.0, horizon, ts_guess / 1e4)
    outside = np.abs(step_values(pf, t) - ss) > half
    if not outside.any():
        return SettlingResult(0.0, ss, ss - half, ss + half, horizon)
    k = int(np.flatnonzero(outside)[-1])
    lo, hi = float(t[k]), float(t[min(k + 1, len(t) - 1)])
    while hi - lo > 1e-9 * max(hi, 1e-30):
        mid = 0.5 * (lo + hi)
        if abs(float(step_values(pf, np.array([mid]))[0]) - ss) > half:
            lo = mid
        else:
            hi = mid
    return SettlingResult(hi, ss, ss - half, ss + half, horizon)


def assert_same_bits(got: SettlingResult, want: SettlingResult):
    assert got == want
    assert type(got.settling_time) is float and got.settling_time.hex() == want.settling_time.hex()


EPSILONS = (0.001, 0.02, 0.3, 0.9)
mode = st.builds(
    ExponentialMode,
    st.floats(0.05, 5.0) | st.floats(-5.0, -0.05),
    st.floats(0.01, 10.0),
)


class TestFinalBandSettle:
    @given(
        modes=st.lists(mode, min_size=1, max_size=3),
        impulse=st.just(0.0) | st.floats(-2.0, 2.0),
        epsilon=st.sampled_from(EPSILONS),
    )
    def test_matches_the_one_step_bisection_bit_for_bit(self, modes, impulse, epsilon):
        pf = ProductivityFunction(impulse, tuple(modes))
        ss = steady_state_gain(pf)
        # a steady state far below the modes' amplitudes makes the grid long, not the test stronger
        assume(abs(ss) >= 1e-3 * sum(abs(m.gain / m.decay_rate) for m in pf.modes))
        cfg = SettlingConfig(epsilon, "final")
        assert_same_bits(_settle_final_band(pf, cfg, ss), one_step_final_band(pf, cfg, ss))

    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_last_exit_after_a_reentry_and_before_an_in_band_stretch(self, epsilon):
        pf = ProductivityFunction(0.0, (ExponentialMode(-1.5, 0.4), ExponentialMode(3.0, 0.5), ExponentialMode(-2.5, 7.0)))
        ss, cfg = steady_state_gain(pf), SettlingConfig(epsilon, "final")
        want = one_step_final_band(pf, cfg, ss)
        assert_same_bits(_settle_final_band(pf, cfg, ss), want)
        if epsilon == 0.02:  # out, in, out again, then in for more than two scan chunks
            t = uniform_grid(0.0, want.reached_within, math.log(1.0 / epsilon) / 0.4 / 1e4)
            outside = np.abs(step_values(pf, t) - ss) > epsilon * ss
            assert outside[0] and np.count_nonzero(np.diff(outside)) == 3
            assert len(t) - 1 - np.flatnonzero(outside)[-1] > 2 * _SCAN_CHUNK

    @pytest.mark.parametrize("path", STABLE_CASE_MODELS, ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_cases_take_few_evaluations(self, path, monkeypatch):
        pf = parse_model(path.read_text())
        ss = steady_state_gain(pf)
        calls = []

        def counted(pf, t):
            calls.append(len(t))
            return step_values(pf, t)

        monkeypatch.setattr(transient, "step_values", counted)
        for epsilon in EPSILONS:
            cfg = SettlingConfig(epsilon, "final")
            calls.clear()
            assert_same_bits(_settle_final_band(pf, cfg, ss), one_step_final_band(pf, cfg, ss))
            assert max(calls, default=0) <= _SCAN_CHUNK
            if epsilon == 0.02:
                assert 1 <= len(calls) <= 8

    def test_memory_is_bounded_on_a_fine_grid(self):
        # about 8.5e7 grid samples: holding the grid would take 680 MB per array
        pf = ProductivityFunction(0.0, (ExponentialMode(1000.0, 1.0), ExponentialMode(-1099.0, 1.1)))
        tracemalloc.start()
        try:
            res = settling_time(pf, SettlingConfig(0.999, "final"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.settling_time == 6.237379522303385
        assert peak < 8e6


class TestReactionTime:
    def test_case1_fraction(self):
        assert percentile_reaction_time(TS_CASE1, 184.0) == pytest.approx(0.025404462414527648, rel=1e-12)

    def test_case2_fraction_over_one(self):
        assert percentile_reaction_time(TS_CASE2, 20.0) == pytest.approx(2.792706314554644, rel=1e-12)

    def test_zero_transient(self):
        assert percentile_reaction_time(0.0, 7.0) == 0.0

    @pytest.mark.parametrize("tt", [0.0, -1.0])
    def test_rejects_nonpositive_total(self, tt):
        with pytest.raises(ValueError):
            percentile_reaction_time(1.0, tt)

    @given(st.one_of(st.just(0.0), st.floats(1e-6, 1e12)), st.floats(1e-6, 1e12))
    def test_product_identity(self, ts, tt):
        assert percentile_reaction_time(ts, tt) * tt == pytest.approx(ts, rel=1e-12, abs=0)


class TestSteadiness:
    def test_case2_unsteady(self):
        assert classify_steadiness(55.85, 20.0, False) == "unsteady"

    def test_case1_steady(self):
        assert classify_steadiness(4.674, 184.0, True) == "steady"

    def test_boundary_favors_steady(self):
        assert classify_steadiness(5.0, 5.0, True) == "steady"

    def test_unstable_is_unsteady_even_if_quick(self):
        assert classify_steadiness(0.1, 100.0, False) == "unsteady"


class TestSegmentChangeover:
    def settle(self, ts):
        return SettlingResult(ts, 1.0, 0.98, 1.02)

    def test_three_stage_window(self):
        prev = TimeSeries([10.0, 11.0, 12.0, 13.0], [5.0, 2.0, 0.0, 0.0])
        inp = TimeSeries([10.0, 15.0, 16.0], [0.0, 1.0, 1.0])
        stages = segment_changeover(prev, inp, self.settle(3.0))
        assert stages.cleanup == (10.0, 12.0)
        assert stages.setup == (12.0, 15.0)
        assert stages.startup == (15.0, 18.0)

    def test_degenerate_cleanup(self):
        prev = TimeSeries([3.0, 4.0], [0.0, 0.0])
        inp = TimeSeries([3.0, 5.0, 6.0], [0.0, 1.0, 1.0])
        stages = segment_changeover(prev, inp, self.settle(2.0))
        assert stages.cleanup == (3.0, 3.0)
        assert stages.setup == (3.0, 5.0)
        assert stages.startup == (5.0, 7.0)

    def test_overlap_error(self):
        prev = TimeSeries([10.0, 16.0], [5.0, 5.0])
        inp = TimeSeries([10.0, 15.0], [0.0, 1.0])
        with pytest.raises(ChangeoverOverlapError):
            segment_changeover(prev, inp, self.settle(1.0))

    def test_cleanup_finishing_after_kickoff_is_overlap(self):
        prev = TimeSeries([10.0, 16.0], [5.0, 0.0])
        inp = TimeSeries([10.0, 15.0], [0.0, 1.0])
        with pytest.raises(ChangeoverOverlapError):
            segment_changeover(prev, inp, self.settle(1.0))

    def test_no_kickoff(self):
        prev = TimeSeries([0.0, 1.0], [1.0, 0.0])
        inp = TimeSeries([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="kick-off"):
            segment_changeover(prev, inp, self.settle(1.0))

    def test_custom_zero_tolerance(self):
        prev = TimeSeries([0.0, 1.0, 2.0], [5.0, 0.05, 0.05])
        inp = TimeSeries([0.0, 3.0], [0.0, 1.0])
        stages = segment_changeover(prev, inp, self.settle(1.0), zero_tolerance=0.1)
        assert stages.cleanup == (0.0, 1.0)

    @given(
        st.floats(-50, 50),
        st.floats(0.01, 20),
        st.floats(0, 20),
        st.floats(0, 30),
    )
    def test_stages_tile_the_window(self, w0, cleanup_len, setup_len, ts):
        prev_t = np.linspace(w0, w0 + cleanup_len, 12)
        prev = TimeSeries(prev_t, np.linspace(4.0, 0.0, 12))
        kickoff = w0 + cleanup_len + setup_len
        inp = TimeSeries([w0 - 1.0, kickoff, kickoff + 1.0], [0.0, 1.0, 1.0])
        stages = segment_changeover(prev, inp, self.settle(ts))
        assert stages.cleanup[1] == stages.setup[0]
        assert stages.setup[1] == stages.startup[0]
        assert stages.cleanup[0] <= stages.cleanup[1] <= stages.setup[1] <= stages.startup[1]
