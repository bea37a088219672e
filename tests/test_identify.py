import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prodflow import (
    ExponentialMode,
    FitConfig,
    ProcessRun,
    ProductivityFunction,
    TimeSeries,
    fit_fdp,
    fit_productivity,
    goodness_of_fit,
    step_response,
)
from prodflow.identify import (
    Candidates,
    ModeBasis,
    extend_rate_set,
    project,
    rate_grid,
    refine,
)
from prodflow.transient import trapezoid_convolve
from expected import P1

# coarse grid keeps unit tests quick; the acceptance suite runs the default
CHEAP = FitConfig(points_per_decade=12)


def step_run(pf, horizon, dt, noise=0.0, seed=0):
    resp = step_response(pf, horizon, dt)
    y = resp.values.copy()
    if noise:
        rng = np.random.default_rng(seed)
        y = y + noise * np.abs(y).max() * rng.standard_normal(len(y))
    u = TimeSeries(resp.t, np.ones(len(resp)))
    return ProcessRun(u, TimeSeries(resp.t, y), float(resp.t[-1]))


class TestFdp:
    def test_exact_proportionality(self):
        t = np.linspace(0, 10, 50)
        u = TimeSeries(t, np.sin(t) + 2.0)
        y = TimeSeries(t, 2.0 * u.values)
        fit = fit_fdp(ProcessRun(u, y, 10.0))
        assert fit.alpha == pytest.approx(2.0, rel=1e-12)
        assert fit.gof == 1.0

    def test_offset_pulls_gof_below_one(self):
        # step starts mid-record; offset breaks proportionality:
        # alpha = sum(u(u+1))/sum(u^2) = 2, gof = 1 - sqrt(2) by hand
        t = np.arange(100.0)
        u = np.concatenate([np.zeros(50), np.ones(50)])
        run = ProcessRun(TimeSeries(t, u), TimeSeries(t, u + 1.0), 99.0)
        fit = fit_fdp(run)
        assert fit.alpha == pytest.approx(2.0, rel=1e-12)
        assert fit.gof == pytest.approx(1.0 - math.sqrt(2.0), rel=1e-12)
        assert fit.gof < 1.0

    def test_zero_input_rejected(self):
        t = np.linspace(0, 5, 20)
        run = ProcessRun(TimeSeries(t, np.zeros(20)), TimeSeries(t, np.ones(20)), 5.0)
        with pytest.raises(ValueError, match="zero"):
            fit_fdp(run)

    @given(st.floats(0.1, 10), st.floats(0.1, 10))
    @settings(max_examples=25)
    def test_alpha_scale_equivariance(self, ky, ku):
        t = np.linspace(0, 10, 40)
        u = np.sin(t) + 2.0
        y = 1.7 * u + 0.3
        base = fit_fdp(ProcessRun(TimeSeries(t, u), TimeSeries(t, y), 10.0))
        scaled_y = fit_fdp(ProcessRun(TimeSeries(t, u), TimeSeries(t, ky * y), 10.0))
        scaled_u = fit_fdp(ProcessRun(TimeSeries(t, ku * u), TimeSeries(t, y), 10.0))
        assert scaled_y.alpha == pytest.approx(ky * base.alpha, rel=1e-9)
        assert scaled_u.alpha == pytest.approx(base.alpha / ku, rel=1e-9)


class TestGoodnessOfFit:
    def test_exact_match(self):
        a = TimeSeries([0.0, 1.0, 2.0], [3.0, 4.0, 5.0])
        assert goodness_of_fit(a, a) == 1.0

    def test_mean_predictor_scores_zero(self):
        obs = TimeSeries([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        pred = TimeSeries([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        assert goodness_of_fit(pred, obs) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        obs = TimeSeries([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        pred = TimeSeries([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])
        assert goodness_of_fit(pred, obs) == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), rel=1e-12)

    def test_constant_observation_sentinel(self):
        obs = TimeSeries([0.0, 1.0], [2.0, 2.0])
        assert goodness_of_fit(TimeSeries([0.0, 1.0], [2.0, 2.0]), obs) == 1.0
        assert goodness_of_fit(TimeSeries([0.0, 1.0], [2.0, 3.0]), obs) == -math.inf

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            goodness_of_fit(
                TimeSeries([0.0, 1.0], [1.0, 1.0]), TimeSeries([0.0, 2.0], [1.0, 1.0])
            )

    def test_invariant_under_affine_retiming(self):
        obs = TimeSeries([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        pred = TimeSeries([0.0, 1.0, 2.0], [0.0, 1.0, 3.0])
        obs2 = TimeSeries(3.0 * obs.t + 5.0, obs.values)
        pred2 = TimeSeries(3.0 * pred.t + 5.0, pred.values)
        assert goodness_of_fit(pred2, obs2) == goodness_of_fit(pred, obs)


class TestFitProductivity:
    def test_noise_free_single_mode_recovery(self):
        # default config, as the recovery guarantee is stated for it
        run = step_run(P1, 20.0, 0.1)
        result = fit_productivity(run)
        assert len(result.model.modes) == 1
        mode = result.model.modes[0]
        assert mode.decay_rate == pytest.approx(0.8369, rel=0.01)
        assert mode.gain == pytest.approx(0.8417, rel=0.01)
        assert result.gof > 0.999

    @pytest.mark.parametrize(
        "gain,rate",
        [(0.2955, 0.2984), (-0.04910796, 0.07004)],
        ids=["slow-positive", "small-negative-gain"],
    )
    def test_one_mode_recovery_across_fixtures(self, gain, rate):
        # dt <= 0.1/rate and horizon >= 5/rate keep the sampling honest
        pf = ProductivityFunction(0.0, (ExponentialMode(gain, rate),))
        run = step_run(pf, 5.5 / rate, 0.1 / rate)
        result = fit_productivity(run, CHEAP)
        mode = result.model.modes[0]
        assert mode.decay_rate == pytest.approx(rate, rel=0.01)
        assert mode.gain == pytest.approx(gain, rel=0.01)

    def test_constant_output_prefers_impulse_only(self):
        t = np.arange(0.0, 10.0, 0.1)
        u = TimeSeries(t, np.ones(len(t)))
        y = TimeSeries(t, np.full(len(t), 1.699))
        result = fit_productivity(ProcessRun(u, y, 10.0), CHEAP)
        assert result.model.modes == ()
        assert result.model.impulse_gain == pytest.approx(1.699, rel=1e-12)
        assert result.gof == 1.0

    def test_never_worse_than_fdp(self):
        run = step_run(P1, 20.0, 0.2, noise=0.05, seed=3)
        assert fit_productivity(run, CHEAP).gof >= fit_fdp(run).gof - 1e-12

    def test_deterministic(self):
        run = step_run(P1, 12.0, 0.2, noise=0.02, seed=11)
        a = fit_productivity(run, CHEAP)
        b = fit_productivity(run, CHEAP)
        assert a.model == b.model and a.gof == b.gof

    def test_stable_only_never_returns_growing_modes(self):
        from expected import P2_GROWING

        run = step_run(P2_GROWING, 20.0, 0.2)
        result = fit_productivity(run, FitConfig(points_per_decade=12, allow_unstable=False))
        assert all(m.decay_rate > 0 for m in result.model.modes)

    def test_growing_mode_recovered_when_allowed(self):
        from expected import P2_GROWING

        run = step_run(P2_GROWING, 20.0, 0.2)
        result = fit_productivity(run, CHEAP)
        assert result.gof > 0.99999
        assert any(m.decay_rate < 0 for m in result.model.modes)

    def test_no_impulse_config(self):
        run = step_run(P1, 20.0, 0.1)
        result = fit_productivity(run, FitConfig(points_per_decade=12, allow_impulse=False))
        assert result.model.impulse_gain == 0.0
        assert result.model.modes[0].decay_rate == pytest.approx(0.8369, rel=0.02)

    def test_zero_output_rejected(self):
        t = np.arange(0.0, 5.0, 0.1)
        run = ProcessRun(TimeSeries(t, np.ones(len(t))), TimeSeries(t, np.zeros(len(t))), 5.0)
        with pytest.raises(ValueError, match="zero"):
            fit_productivity(run, CHEAP)

    def test_residual_norm_consistent_with_gof(self):
        run = step_run(P1, 12.0, 0.2, noise=0.02, seed=5)
        result = fit_productivity(run, CHEAP)
        y = run.output.values
        den = np.linalg.norm(y - y.mean())
        assert result.gof == pytest.approx(1.0 - result.residual_norm / den, rel=1e-9)

    def test_ramp_input_recovery(self):
        # the output-error basis must work for arbitrary recorded inputs,
        # not just steps
        from prodflow import simulate_response

        t = np.arange(0.0, 10.0 + 1e-9, 0.05)
        ramp = TimeSeries(t, 0.3 * t)
        y = simulate_response(P1, ramp, 0.05)
        run = ProcessRun(ramp, y, 10.0)
        result = fit_productivity(run, CHEAP)
        mode = result.model.modes[0]
        assert mode.decay_rate == pytest.approx(0.8369, rel=0.02)
        assert result.gof > 0.9999

    def test_three_mode_search_space(self):
        pf = ProductivityFunction(
            2.0, (ExponentialMode(1.0, 0.5), ExponentialMode(-0.5, 5.0))
        )
        run = step_run(pf, 10.0, 0.02)
        cfg = FitConfig(max_modes=3, points_per_decade=6, rate_min=0.05, rate_max=50.0)
        result = fit_productivity(run, cfg)
        assert len(result.model.modes) <= 3
        assert result.gof > 0.9999

    @pytest.mark.parametrize("seed", range(4))
    def test_single_sample_input_never_worse_than_fdp(self, seed):
        # fast modes respond to a lone input sample with spikes far below
        # the FFT rounding floor, so their fitted gains are huge; the
        # prediction must still match the residual the search minimised
        rng = np.random.default_rng(seed)
        t = 0.0867 * np.arange(76)
        u = np.where(t == 0.0, 1.0, 0.0)
        run = ProcessRun(TimeSeries(t, u), TimeSeries(t, rng.standard_normal(76)), 7.0)
        result = fit_productivity(run, FitConfig(points_per_decade=6))
        assert result.gof >= fit_fdp(run).gof - 1e-12

    def test_search_memory_does_not_grow_with_record_length(self):
        # the same span at 4x the samples; a search that held every candidate's
        # response (R x n) would peak about 4x higher
        def peak(n):
            run = step_run(P1, 100.0, 100.0 / n, noise=0.01, seed=1)
            tracemalloc.start()
            try:
                fit_productivity(run, FitConfig(max_modes=1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(32000) < 2 * peak(8000)

    def test_mismatched_grids_are_resampled(self):
        t_in = np.arange(0.0, 10.0 + 1e-9, 0.1)
        t_out = np.arange(0.0, 10.0 + 1e-9, 0.15)
        run = ProcessRun(
            TimeSeries(t_in, np.ones(len(t_in))),
            TimeSeries(t_out, step_response(P1, 10.0, 0.15).values),
            10.0,
        )
        baseline = fit_fdp(run)
        assert math.isfinite(baseline.alpha) and baseline.gof <= 1.0
        result = fit_productivity(run, CHEAP)
        # linear resampling of a curved response biases the estimate a little
        assert result.model.modes[0].decay_rate == pytest.approx(0.8369, rel=0.05)
        assert result.gof >= baseline.gof - 1e-12


class TestConfig:
    def test_rate_grid_shape(self):
        grid = rate_grid(FitConfig())
        assert grid[0] == pytest.approx(1e-3, rel=1e-9)
        assert grid[-1] == pytest.approx(1e3, rel=1e-9)
        assert np.all(np.diff(grid) > 0)
        assert len(grid) == 361

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_modes": 0},
            {"rate_min": 0.0},
            {"rate_min": 2.0, "rate_max": 1.0},
            {"points_per_decade": 0},
            {"refine_iterations": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FitConfig(**kwargs)


def mode_record(pf, dt, n):
    """Noise-free response of ``pf`` to a step-plus-sinusoid input from t = 1."""
    from prodflow import simulate_response

    t = dt * np.arange(n)
    u = np.where(t >= 1.0, 1.0 + 0.2 * np.sin(0.7 * t), 0.0)
    return ModeBasis(t, u, dt), simulate_response(pf, TimeSeries(t, u), dt).values


def unit_responses(basis, rates):
    S = trapezoid_convolve(rates, basis.u, basis.dt)
    return S / np.linalg.norm(S, axis=1)[:, None]


def recursion_responses(basis, rates):
    """Reference: the rectangle sums by recursion, z[i] = a z[i - 1] + u[i], and the trapezoid ends."""
    a, u, dt = np.exp(-rates * basis.dt), basis.u, basis.dt
    S, z = np.empty((len(rates), len(u))), np.zeros(len(rates))
    for i, x in enumerate(u):
        z = a * z + x
        S[:, i] = dt * (z - 0.5 * (x + np.exp(-rates * basis.tau[i]) * u[0]))
    return S


def search_stats(S, prev):
    """What extend_rate_set reads of the explicit unit responses S: S [q, r] and S S'."""
    return S @ np.column_stack([prev.q, prev.r]), S @ S.T


def brute_force_extension(basis, y, prev_rates, allow_impulse, cands, m):
    """Reference: one np.linalg.solve per added set, the first set wins ties."""
    A = np.vstack(([basis.u] if allow_impulse else []) + [unit_responses(basis, np.append(prev_rates, cands))])
    A /= np.linalg.norm(A, axis=1)[:, None]
    fixed = list(range(len(A) - len(cands)))
    best_res, best_set = math.inf, None
    for added in itertools.combinations(range(len(cands)), m):
        idx = fixed + [len(fixed) + a for a in added]
        G, c = A[idx] @ A[idx].T, A[idx] @ y
        if np.linalg.det(G) <= 1e-10:
            continue
        res = float(y @ y - c @ np.linalg.solve(G, c))
        if res < best_res:
            best_res, best_set = res, added
    return best_res, sorted([*prev_rates, *cands[list(best_set)]])


class TestModeBasis:
    # 20 growing rates up to rate * span = 49, and 280 decaying ones; n = 700 takes three
    # groups of 256 samples, the last one ending in a partial block of 12
    RATES = np.concatenate([-np.geomspace(0.1, 1.4, 20), np.geomspace(1e-3, 1e3, 280)])

    def basis(self):
        # the input starts away from 0, so the trapezoid's u[0] end term counts
        tau = 0.05 * np.arange(700)
        return ModeBasis(tau, 1.0 + 0.5 * np.sin(0.3 * tau), 0.05)

    def test_unit_responses_match_one_stacked_convolution(self):
        basis = self.basis()
        raw = recursion_responses(basis, self.RATES)
        S = raw / np.linalg.norm(raw, axis=1)[:, None]
        cands = Candidates(basis, self.RATES, gram=True)
        assert cands.rates is self.RATES and Candidates(basis, self.RATES).gram is None
        assert cands.norms == pytest.approx(np.linalg.norm(raw, axis=1), rel=1e-12)
        assert np.abs(cands.gram - S @ S.T).max() < 1e-12

    def test_correlation_form_matches_the_explicit_products(self):
        basis = self.basis()
        V = np.random.default_rng(4).standard_normal((700, 3))
        S = recursion_responses(basis, self.RATES)
        S /= np.linalg.norm(S, axis=1)[:, None]
        # unit rows: every product is at most |v| ~ 26 in size
        assert np.abs(Candidates(basis, self.RATES).dot(V) - S @ V).max() < 1e-12

    def test_growing_kernels_stay_accurate_after_leading_zeros(self):
        # the input is off until t = 5, so the rate -7 response starts e^35 below its end
        tau = 0.05 * np.arange(400)
        u = np.where(tau >= 5.0, 1.0 + 0.2 * np.sin(tau), 0.0)
        rates = np.array([-7.0, -3.0, 0.5])
        basis = ModeBasis(tau, u, 0.05)
        S = recursion_responses(basis, rates)
        cands = Candidates(basis, rates)
        assert cands.norms == pytest.approx(np.linalg.norm(S, axis=1), rel=1e-12)
        V = np.random.default_rng(5).standard_normal((400, 2))
        expected = S / np.linalg.norm(S, axis=1)[:, None] @ V
        assert np.abs(cands.dot(V) - expected).max() < 1e-12

    def test_fast_decaying_candidates_match_a_long_double_reference(self):
        # a lone input sample: the rate 464 response at sample 1 is e^-40 of its kernel's head,
        # far below the rounding that an FFT of the heads would leave
        dt = 0.0867
        tau = dt * np.arange(76)
        u = np.where(tau == 0.0, 1.0, 0.0)
        rates = rate_grid(FitConfig(points_per_decade=6))[-9:]  # 46.4 to 1000, with 146.8 and 464.2
        # reference: the rectangle sums by recursion in long double, and the trapezoid ends
        ld = np.longdouble
        S = np.empty((len(rates), len(u)), dtype=ld)
        for row, rate in zip(S, rates):
            a, z = np.exp(-ld(rate) * ld(dt)), ld(0.0)
            for i, x in enumerate(u):
                z = a * z + ld(x)
                row[i] = ld(dt) * (z - ld(0.5) * (ld(x) + np.exp(-ld(rate) * ld(tau[i])) * ld(u[0])))
        norms = np.sqrt((S * S).sum(axis=1))
        S /= norms[:, None]
        V = np.random.default_rng(6).standard_normal((len(u), 2))
        basis = ModeBasis(tau, u, dt)
        cands = Candidates(basis, rates, gram=True)
        assert cands.norms == pytest.approx(norms.astype(float), rel=1e-12, abs=0.0)
        assert np.abs(cands.gram - (S @ S.T).astype(float)).max() < 1e-12
        assert np.abs(cands.dot(V) - (S @ V).astype(float)).max() < 1e-12
        assert np.abs(Candidates(basis, rates, V=V).products - (S @ V).astype(float)).max() < 1e-12

    def test_rates_without_a_response_are_dropped(self):
        t = np.linspace(0.0, 1.0, 10)
        cands = Candidates(ModeBasis(t, np.zeros(10), t[1]), np.array([0.5, 2.0]), gram=True)
        assert cands.rates.shape == (0,) and cands.gram.shape == (0, 0)
        assert cands.dot(np.ones((10, 2))).shape == (0, 2)

    def test_a_fit_and_a_simulation_need_no_fft(self, monkeypatch):
        from prodflow import simulate_response

        def refuse(*args, **kwargs):
            raise AssertionError("an FFT was taken")

        monkeypatch.setattr(np.fft, "rfft", refuse)
        monkeypatch.setattr(np.fft, "irfft", refuse)
        two = ProductivityFunction(0.3, (ExponentialMode(0.8, 0.9), ExponentialMode(-0.2, 0.15)))
        run = step_run(two, 30.0, 0.1, noise=0.01, seed=3)
        fit = fit_productivity(run, FitConfig(max_modes=2))
        assert len(fit.model.modes) == 2 and fit.gof > 0.9
        sim = simulate_response(fit.model, run.input, 0.1)
        assert goodness_of_fit(sim, run.output) == pytest.approx(fit.gof, abs=1e-12)


class TestGridScan:
    """extend_rate_set, the one search step, against one np.linalg.solve per set."""

    PF = ProductivityFunction(0.4, (ExponentialMode(1.0, 0.3), ExponentialMode(-0.5, 2.0)))
    CANDS = np.array([-0.05, 0.01, 0.04, 1.0, 2.5, 9.0, 40.0])
    # (start, m) extensions whose result has k rates; "refined" is a refined one-mode fit
    EXTENSIONS = {0: [("empty", 0)], 1: [("empty", 1)], 2: [("empty", 2), ("refined", 1)], 3: [("refined", 2)]}

    def check_extensions(self, k, seed, allow_impulse):
        basis, y = mode_record(self.PF, 0.1, 200)
        y = y + 0.05 * np.random.default_rng(seed).standard_normal(len(y))
        for start, m in self.EXTENSIONS[k]:
            if start == "refined":
                prev = refine(basis, y, [0.5], FitConfig(allow_impulse=allow_impulse))
            else:
                prev = project(basis, y, np.empty(0), allow_impulse)
            ref_res, ref_rates = brute_force_extension(basis, y, list(prev.rates), allow_impulse, self.CANDS, m)
            S = unit_responses(basis, self.CANDS)
            rates = extend_rate_set(self.CANDS, *search_stats(S, prev), prev, m) if m else prev.rates
            assert list(rates) == ref_rates
            assert project(basis, y, rates, allow_impulse).residual == pytest.approx(ref_res, rel=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_brute_force(self, seed, k):
        self.check_extensions(k, seed, allow_impulse=False)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_eliminating_the_first_unknown_keeps_the_scan(self, seed, k):
        # the impulse is in every set and projected out before the scan
        self.check_extensions(k, seed, allow_impulse=True)

    def test_exact_tie_goes_to_the_first_set(self):
        cands = np.array([0.02, 0.1, 0.5, 0.7, 3.0, 12.0])
        basis, _ = mode_record(self.PF, 0.1, 200)
        S = unit_responses(basis, cands)
        S[3] = S[1]  # candidates 1 and 3 have the same response
        y = S[1] + 0.4 * S[4] + 0.002 * np.random.default_rng(7).standard_normal(len(basis.u))
        prev = project(basis, y, np.empty(0), False)
        assert list(extend_rate_set(cands, *search_stats(S, prev), prev, 1)) == [0.1]
        # (1, 4) and (3, 4) score bit for bit the same; (1, 3) is singular
        assert list(extend_rate_set(cands, *search_stats(S, prev), prev, 2)) == [0.1, 3.0]

    def test_all_singular_is_none(self):
        t = np.linspace(0.0, 1.0, 10)
        basis = ModeBasis(t, np.linspace(1.0, 2.0, 10), t[1])
        # the candidates differ from the input column by angles near 1e-6:
        # Gram determinants near 1e-12, below the threshold but not 0
        S = basis.u + 1e-6 * np.random.default_rng(3).standard_normal((3, 10))
        S /= np.linalg.norm(S, axis=1)[:, None]
        cands = np.array([0.1, 1.0, 10.0])
        prev = project(basis, np.ones(10), np.empty(0), False)
        assert extend_rate_set(cands, *search_stats(S, prev), prev, 2) is None
        # every candidate nearly repeats the impulse column
        prev = project(basis, np.ones(10), np.empty(0), True)
        assert extend_rate_set(cands, *search_stats(S, prev), prev, 1) is None

    def test_pair_start_finds_what_single_additions_miss(self):
        # a difference of two close exponentials: the best single rate plus
        # one more refines to gof 0.82 only; the best pair reaches the truth
        pf = ProductivityFunction(0.0, (ExponentialMode(1.0, 0.3), ExponentialMode(-2.0, 0.5)))
        basis, y = mode_record(pf, 0.1, 200)
        run = ProcessRun(TimeSeries(basis.tau, basis.u), TimeSeries(basis.tau, y), float(basis.tau[-1]))
        fit = fit_productivity(run, CHEAP)
        assert [m.decay_rate for m in fit.model.modes] == pytest.approx([0.3, 0.5], rel=1e-8)
        assert fit.gof == pytest.approx(1.0, abs=1e-9)

    def test_recovers_noise_free_three_mode_model(self):
        pf = ProductivityFunction(
            0.4, (ExponentialMode(0.8, 0.08), ExponentialMode(1.0, 0.6), ExponentialMode(-0.5, 4.0))
        )
        basis, y = mode_record(pf, 0.05, 400)
        run = ProcessRun(TimeSeries(basis.tau, basis.u), TimeSeries(basis.tau, y), float(basis.tau[-1]))
        model = fit_productivity(run, FitConfig(max_modes=3)).model
        assert [m.decay_rate for m in model.modes] == pytest.approx([0.08, 0.6, 4.0], rel=1e-9)
        assert [m.gain for m in model.modes] == pytest.approx([0.8, 1.0, -0.5], rel=1e-9)
        assert model.impulse_gain == pytest.approx(0.4, rel=1e-9)


class TestRefine:
    PF = ProductivityFunction(0.4, (ExponentialMode(1.0, 0.3), ExponentialMode(-0.5, 2.0)))

    def record(self, dt=0.05, n=400):
        return mode_record(self.PF, dt, n)

    def test_recovers_noise_free_two_mode_model(self):
        basis, y = self.record()
        fit = refine(basis, y, [0.22, 2.9])
        assert fit.rates == pytest.approx([0.3, 2.0], rel=1e-8)
        assert fit.gains == pytest.approx([1.0, -0.5], rel=1e-8)
        assert fit.impulse == pytest.approx(0.4, rel=1e-8)

    @pytest.mark.parametrize(
        "start", [[0.22, 2.9], [0.01, 50.0], [0.5, 0.51], [-0.02, 1.0], [3.0], [-0.1], [0.05, 0.3, 5.0]]
    )
    @pytest.mark.parametrize("iterations", [0, 1, 5, 50])
    def test_never_above_the_start(self, start, iterations):
        basis, y = self.record(dt=0.1, n=200)
        y = y + 0.02 * np.random.default_rng(1).standard_normal(len(y))
        start_res = project(basis, y, np.array(start), True).residual
        fit = refine(basis, y, start, FitConfig(refine_iterations=iterations))
        assert fit.residual <= start_res
        assert np.all(np.sign(fit.rates) == np.sign(start))
        assert np.all((1e-3 <= np.abs(fit.rates)) & (np.abs(fit.rates) <= 1e3))
        if iterations == 0:
            assert fit.residual == start_res

    def test_extend_rate_set_matches_brute_force(self):
        basis, y = self.record(dt=0.1, n=200)
        y = y + 0.02 * np.random.default_rng(2).standard_normal(len(y))
        prev = project(basis, y, np.array([0.35]), True)
        cands = np.array([-0.05, 0.01, 0.1, 0.35, 1.0, 2.5, 9.0])
        S = unit_responses(basis, cands)
        # the candidate equal to the previous rate is singular and skipped
        ref = min((project(basis, y, np.sort([0.35, r]), True).residual, r) for r in cands if r != 0.35)
        assert list(extend_rate_set(cands, *search_stats(S, prev), prev)) == sorted([0.35, ref[1]])

    def test_singular_start_is_none(self):
        basis, y = self.record()
        assert refine(basis, y, [0.3, 0.3]) is None

    def test_growing_mode_stays_within_the_cutoff(self):
        basis, y = self.record(dt=0.1, n=200)
        # the best fit, rate -9, lies past the cutoff of 150 / span = 7.5
        fit = refine(basis, np.exp(9.0 * basis.tau), [-1.0])
        assert 140.0 < abs(fit.rates[0]) * basis.tau[-1] <= 150.0 * (1 + 1e-12)

    @pytest.mark.parametrize("seed,start", [(0, [0.02, 0.3]), (2, [0.3, 5.0])])
    def test_rates_stay_in_the_configured_range(self, seed, start):
        # one true mode fitted with two: unbounded, the spare mode drifts
        # to rate 0 (seed 0) or to 85 (seed 2)
        basis, _ = self.record(dt=0.1, n=200)
        one = ProductivityFunction(0.4, (ExponentialMode(1.0, 0.3),))
        from prodflow import simulate_response

        y = simulate_response(one, TimeSeries(basis.tau, basis.u), 0.1).values
        y = y + 0.01 * np.random.default_rng(seed).standard_normal(len(y))
        fit = refine(basis, y, start, FitConfig(rate_min=0.01, rate_max=10.0))
        assert np.all((0.01 <= fit.rates) & (fit.rates <= 10.0))
