import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
from prodflow.transient import TrapezoidConvolver, step_values, trapezoid_convolve


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


class TestTrapezoidConvolve:
    @pytest.mark.parametrize("n", [2, 3, 200, 1001])
    def test_matches_direct_sum_and_stacks_row_by_row(self, n):
        rng = np.random.default_rng(n)
        u, kernels, dt = rng.normal(size=n), rng.normal(size=(3, n)), 0.1
        stacked = TrapezoidConvolver(u, dt)(kernels)
        for kernel, row in zip(kernels, stacked):
            # the trapezoid rule term by term, as the reference
            direct = [dt * (np.dot(kernel[: k + 1], u[k::-1]) - 0.5 * (kernel[0] * u[k] + kernel[k] * u[0]))
                      for k in range(n)]
            np.testing.assert_allclose(trapezoid_convolve(kernel, u, dt), direct, rtol=0, atol=1e-12 * n)
            assert np.array_equal(row, trapezoid_convolve(kernel, u, dt))

    def test_successive_stacks_of_different_heights_match_one_kernel_calls(self):
        rng = np.random.default_rng(5)
        u, dt = rng.normal(size=50), 0.2
        conv = TrapezoidConvolver(u, dt)
        # one convolver serves stacks that shrink and grow, with nothing carried from one to the next
        for rows in (2, 1, 3, 2):
            kernels = rng.normal(size=(rows, 50))
            got = conv(kernels)
            assert all(np.array_equal(row, trapezoid_convolve(kernel, u, dt)) for row, kernel in zip(got, kernels))


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
