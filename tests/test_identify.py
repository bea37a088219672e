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
    extend_rate_set,
    project,
    rate_grid,
    refine,
)
from prodflow.transient import response_moments, trapezoid_convolve
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
    return ProcessRun(u, TimeSeries(resp.t, y))


class TestFdp:
    def test_exact_proportionality(self):
        t = np.linspace(0, 10, 50)
        u = TimeSeries(t, np.sin(t) + 2.0)
        y = TimeSeries(t, 2.0 * u.values)
        fit = fit_fdp(ProcessRun(u, y))
        assert fit.alpha == pytest.approx(2.0, rel=1e-12)
        assert fit.gof == 1.0

    def test_offset_pulls_gof_below_one(self):
        # step starts mid-record; offset breaks proportionality:
        # alpha = sum(u(u+1))/sum(u^2) = 2, gof = 1 - sqrt(2) by hand
        t = np.arange(100.0)
        u = np.concatenate([np.zeros(50), np.ones(50)])
        run = ProcessRun(TimeSeries(t, u), TimeSeries(t, u + 1.0))
        fit = fit_fdp(run)
        assert fit.alpha == pytest.approx(2.0, rel=1e-12)
        assert fit.gof == pytest.approx(1.0 - math.sqrt(2.0), rel=1e-12)
        assert fit.gof < 1.0

    def test_zero_input_rejected(self):
        t = np.linspace(0, 5, 20)
        run = ProcessRun(TimeSeries(t, np.zeros(20)), TimeSeries(t, np.ones(20)))
        with pytest.raises(ValueError, match="zero"):
            fit_fdp(run)

    @given(st.floats(0.1, 10), st.floats(0.1, 10))
    @settings(max_examples=25)
    def test_alpha_scale_equivariance(self, ky, ku):
        t = np.linspace(0, 10, 40)
        u = np.sin(t) + 2.0
        y = 1.7 * u + 0.3
        base = fit_fdp(ProcessRun(TimeSeries(t, u), TimeSeries(t, y)))
        scaled_y = fit_fdp(ProcessRun(TimeSeries(t, u), TimeSeries(t, ky * y)))
        scaled_u = fit_fdp(ProcessRun(TimeSeries(t, ku * u), TimeSeries(t, y)))
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
        result = fit_productivity(ProcessRun(u, y), CHEAP)
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
        run = ProcessRun(TimeSeries(t, np.ones(len(t))), TimeSeries(t, np.zeros(len(t))))
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
        run = ProcessRun(ramp, y)
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
        run = ProcessRun(TimeSeries(t, u), TimeSeries(t, rng.standard_normal(76)))
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
        )
        baseline = fit_fdp(run)
        assert math.isfinite(baseline.alpha) and baseline.gof <= 1.0
        result = fit_productivity(run, CHEAP)
        # linear resampling of a curved response biases the estimate a little
        assert result.model.modes[0].decay_rate == pytest.approx(0.8369, rel=0.05)
        assert result.gof >= baseline.gof - 1e-12

    def test_growing_candidates_follow_the_growth_cutoff_at_every_span(self, monkeypatch):
        # the candidate set against the rule written out: every grid rate, and the negative of each
        # one with rate * span <= 150; the two may differ only where rate * span rounds to 150.  The
        # first pass takes exactly the rule's candidates of every third grid index, and no later pass
        # takes a rate outside the rule's set
        import prodflow.identify

        cfg = FitConfig(max_modes=1)
        grid = rate_grid(cfg).tolist()
        index = {r: i for i, r in enumerate(grid)}
        seen, moments = [], prodflow.identify.response_moments

        def recording(rates, *args):
            seen.append(rates)
            return moments(rates, *args)

        monkeypatch.setattr(prodflow.identify, "response_moments", recording)
        # log-uniform over the float range, and over the spans where the cutoff splits the grid
        rng = np.random.default_rng(22)
        spans = 10.0 ** np.concatenate([rng.uniform(-300.0, math.log10(1e307), 50), rng.uniform(-1.0, 6.0, 20)])
        for span in [*spans.tolist(), 1e155, 1e156, 1e307]:
            t = np.array([0.0, span / 2, span])
            seen.clear()
            fit_productivity(ProcessRun(TimeSeries(t, np.ones(3)), TimeSeries(t, np.array([1.0, 2.0, 2.5]))), cfg)
            want = sorted(grid + [-r for r in grid if r * span <= 150.0])
            near = {-r for r in grid if abs(r * span - 150.0) <= 2 * math.ulp(150.0)}
            coarse = [r for r in want if index[abs(r)] % 3 == 0 and r not in near]
            assert [r for r in seen[0].tolist() if r not in near] == coarse
            assert len(seen) > 1 and set(np.concatenate(seen[1:]).tolist()) <= set(want) | near

    def test_the_search_scores_the_coarse_grid_and_zooms_in_on_its_picks(self, monkeypatch):
        # three modes: the pair steps of orders 2 and 3 and the two passes for the order 1 and 2 fits
        import prodflow.identify as identify

        cfg = FitConfig(max_modes=3)
        two = ProductivityFunction(0.3, (ExponentialMode(0.8, 0.9), ExponentialMode(-0.2, 0.15)))
        run = step_run(two, 20.0, 0.05, noise=0.01, seed=4)
        grid = rate_grid(cfg)
        index = {r: i for i, r in enumerate(grid.tolist())}
        fine = np.concatenate([-grid[grid <= growth_cutoff(run.output.t)][::-1], grid])
        coarse = fine[[index[abs(r)] % 3 == 0 for r in fine.tolist()]]
        log, moments, best_sets = [], identify.response_moments, identify._best_sets

        def record_moments(rates, *args):
            log.append(("pass", rates))
            return moments(rates, *args)

        def record_sets(SV, G, prev_det, m, keep):
            sets = best_sets(SV, G, prev_det, m, keep)
            if keep > 1:  # a step's coarse picks, not extend_rate_set's pick among the zoom's
                log.append(("picks", coarse[sets.ravel()]))
            return sets

        monkeypatch.setattr(identify, "response_moments", record_moments)
        monkeypatch.setattr(identify, "_best_sets", record_sets)
        fit_productivity(run, cfg)
        kinds = [kind for kind, _ in log]
        # the first pass, then for orders 1 to 3 the pair step (from order 2) and the single step, each
        # a set of picks and its zoom's pass, and below order 3 the pass for the order's fit
        assert kinds == ["pass", "picks", "pass", "pass", *["picks", "pass"] * 2, "pass", *["picks", "pass"] * 2]
        for (kind, rates), (_, after) in zip(log, log[1:]):
            if kind == "picks":
                step = np.abs(np.array([[index[abs(r)] for r in rates.tolist()]]) - [[index[abs(r)]] for r in after])
                same = np.sign(after)[:, None] == np.sign(rates)
                assert ((step <= 2) & same).any(axis=1).all()
                assert set(rates.tolist()) <= set(after.tolist()) <= set(fine.tolist())
        # the passes that follow no picks: the first pass and the passes for the order 1 and 2 fits
        before = [""] + kinds[:-1]
        passes = [rates for (kind, rates), prev in zip(log, before) if kind == "pass" and prev != "picks"]
        assert len(passes) == 3 and all(np.array_equal(rates, coarse) for rates in passes)

    @pytest.mark.parametrize("offset", [1, 2])
    def test_rates_off_the_coarse_grid_come_back_on_the_fine_grid(self, offset):
        # noise-free records whose rates are fine grid points between coarse ones: the search alone,
        # without refinement, lands on them exactly
        grid = rate_grid(FitConfig())
        for i in range(60 + offset, 258, 15):  # rates 0.01 to 20 on a 20-unit record
            for impulse in (0.0, 0.3):
                pf = ProductivityFunction(impulse, (ExponentialMode(1.0, grid[i]),))
                tau, u, _, y = mode_record(pf, 0.05, 400)
                run = ProcessRun(TimeSeries(tau, u), TimeSeries(tau, y))
                fit = fit_productivity(run, FitConfig(max_modes=1, refine_iterations=0))
                assert [m.decay_rate for m in fit.model.modes] == [grid[i]]
        # two modes and an impulse.  At (120, 201) the fast mode's small weight leaves its coarse
        # neighbours some 200 places down the coarse pair ranking, so there only refinement finds it
        for i, j in [(90, 171), (120, 201), (150, 231), (75, 216), (105, 186)]:
            slow, fast = grid[i + offset], grid[j + 3 - offset]
            pf = ProductivityFunction(0.4, (ExponentialMode(1.0, slow), ExponentialMode(-0.5, fast)))
            tau, u, _, y = mode_record(pf, 0.05, 400)
            run = ProcessRun(TimeSeries(tau, u), TimeSeries(tau, y))
            fit = fit_productivity(run, FitConfig(refine_iterations=0))
            if (i, j) != (120, 201):
                assert [m.decay_rate for m in fit.model.modes] == [slow, fast]
            fit = fit_productivity(run)
            assert [m.decay_rate for m in fit.model.modes] == pytest.approx([slow, fast], rel=1e-9)


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
    """(tau, u, dt, y): the noise-free response y of ``pf`` to a step-plus-sinusoid input u from t = 1."""
    from prodflow import simulate_response

    t = dt * np.arange(n)
    u = np.where(t >= 1.0, 1.0 + 0.2 * np.sin(0.7 * t), 0.0)
    return t, u, dt, simulate_response(pf, TimeSeries(t, u), dt).values


def growth_cutoff(tau, cfg=FitConfig()):
    """``fit_productivity``'s grow_max for lag times tau."""
    return min(cfg.rate_max, 150.0 / float(tau[-1]))


def unit_responses(u, dt, rates):
    S = trapezoid_convolve(rates, u, dt)
    return S / np.linalg.norm(S, axis=1)[:, None]


def recursion_responses(tau, u, dt, rates):
    """Reference: the rectangle sums by recursion, z[i] = a z[i - 1] + u[i], and the trapezoid ends."""
    a = np.exp(-rates * dt)
    S, z = np.empty((len(rates), len(u))), np.zeros(len(rates))
    for i, x in enumerate(u):
        z = a * z + x
        S[:, i] = dt * (z - 0.5 * (x + np.exp(-rates * tau[i]) * u[0]))
    return S


def search_stats(S, prev):
    """What extend_rate_set reads of the explicit unit responses S: S [q, r] and S S'."""
    return S @ np.column_stack([prev.q, prev.r]), S @ S.T


def assert_moments(moments, S, V, tol=1e-12):
    """``response_moments``' (squared norms, G or None, S V) against explicit responses S, each to
    ``tol`` relative to the responses' norms."""
    sq, G, SV = moments
    norms = np.sqrt((S * S).sum(axis=1))
    assert np.sqrt(sq) == pytest.approx(norms.astype(float), rel=tol, abs=0.0)
    if G is not None:
        assert (np.abs(G - S @ S.T) <= tol * np.outer(norms, norms)).all()
    assert (np.abs(SV - S @ V.astype(S.dtype)) <= tol * norms[:, None]).all()


def brute_force_extension(u, dt, y, prev_rates, allow_impulse, cands, m):
    """Reference: one np.linalg.solve per added set, the first set wins ties."""
    A = np.vstack(([u] if allow_impulse else []) + [unit_responses(u, dt, np.append(prev_rates, cands))])
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

    def record(self):
        # the input starts away from 0, so the trapezoid's u[0] end term counts
        tau = 0.05 * np.arange(700)
        return tau, 1.0 + 0.5 * np.sin(0.3 * tau), 0.05

    def test_unit_responses_match_one_stacked_convolution(self):
        tau, u, dt = self.record()
        V = np.empty((700, 0))
        moments = response_moments(self.RATES, u, dt, V, True)
        assert response_moments(self.RATES, u, dt, V)[1] is None
        assert_moments(moments, recursion_responses(tau, u, dt, self.RATES), V)

    def test_correlation_form_matches_the_explicit_products(self):
        tau, u, dt = self.record()
        V = np.random.default_rng(4).standard_normal((700, 3))
        moments = response_moments(self.RATES, u, dt, V)
        assert_moments(moments, recursion_responses(tau, u, dt, self.RATES), V)

    @staticmethod
    def record_walks(monkeypatch):
        """The ``form`` of every ``transient._walk`` from here on, one entry per walk."""
        import prodflow.transient

        forms, walk = [], prodflow.transient._walk

        def recording(u, dt, kernels, form):
            forms.append(form)
            return walk(u, dt, kernels, form)

        monkeypatch.setattr(prodflow.transient, "_walk", recording)
        return forms

    def test_passes_without_a_gram_matrix_form_no_responses(self, monkeypatch):
        forms = self.record_walks(monkeypatch)
        tau, u, dt = self.record()
        V = np.random.default_rng(7).standard_normal((700, 3))
        raw = recursion_responses(tau, u, dt, self.RATES)
        assert_moments(response_moments(self.RATES, u, dt, V), raw, V)
        assert_moments(response_moments(self.RATES, u, dt, V[:, :0]), raw, V[:, :0])
        assert forms == [False, False]

    def test_the_gram_pass_forms_its_responses_in_the_moment_walk(self, monkeypatch):
        forms = self.record_walks(monkeypatch)
        tau, u, dt = self.record()
        V = np.random.default_rng(8).standard_normal((700, 3))
        raw = recursion_responses(tau, u, dt, self.RATES)
        moments = response_moments(self.RATES, u, dt, V, True)
        # one walk forms the responses for G and reads the norms and products too
        assert forms == [True]
        assert_moments(moments, raw, V)
        assert_moments(response_moments(self.RATES, u, dt, V), raw, V)
        assert forms == [True, False]

    @pytest.mark.parametrize("n", [3, 17, 700, 3001])
    def test_norms_and_products_do_not_depend_on_the_gram_matrix(self, n):
        tau = 0.05 * np.arange(n)
        u = 1.0 + 0.5 * np.sin(0.3 * tau)
        V = np.random.default_rng(n).standard_normal((n, 2))
        sq, _, SV = response_moments(self.RATES, u, 0.05, V, True)
        sq_alone, _, SV_alone = response_moments(self.RATES, u, 0.05, V)
        assert sq.tobytes() == sq_alone.tobytes()
        assert SV.tobytes() == SV_alone.tobytes()

    @pytest.mark.parametrize("n", [3, 16, 17, 700, 3001])
    def test_signed_input_matches_a_long_double_recursion(self, n):
        # n < 16, one block, a one-sample last block and several groups of blocks; the input
        # changes sign, so a block's own sums and the sum carried into it can cancel
        dt = 0.05
        tau = dt * np.arange(n)
        rng = np.random.default_rng(n)
        u = np.where(np.cos(2.0 * np.pi * tau / 5.0) >= 0.0, 1.0, -1.0) + 0.01 * rng.standard_normal(n)
        # growing rates up to the search's growth cutoff, rate * span = 150
        rates = np.concatenate([-np.geomspace(1e-3, min(1e3, 150.0 / tau[-1]), 10), np.geomspace(1e-3, 1e3, 40)])
        ld = np.longdouble
        a, z = np.exp(-rates.astype(ld) * ld(dt)), np.zeros(len(rates), dtype=ld)
        S = np.empty((len(rates), n), dtype=ld)
        for i, x in enumerate(u.astype(ld)):
            z = a * z + x
            S[:, i] = ld(dt) * (z - ld(0.5) * (x + np.exp(-rates.astype(ld) * ld(tau[i])) * ld(u[0])))
        V = rng.standard_normal((n, 2))
        assert_moments(response_moments(rates, u, dt, V, True), S, V, 1e-13)

    def test_growing_kernels_stay_accurate_after_leading_zeros(self):
        # the input is off until t = 5, so the rate -7 response starts e^35 below its end
        tau = 0.05 * np.arange(400)
        u = np.where(tau >= 5.0, 1.0 + 0.2 * np.sin(tau), 0.0)
        rates = np.array([-7.0, -3.0, 0.5])
        V = np.random.default_rng(5).standard_normal((400, 2))
        assert_moments(response_moments(rates, u, 0.05, V), recursion_responses(tau, u, 0.05, rates), V)

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
        V = np.random.default_rng(6).standard_normal((len(u), 2))
        assert_moments(response_moments(rates, u, dt, V, True), S, V, 1e-13)
        assert_moments(response_moments(rates, u, dt, V), S, V, 1e-13)

    def test_rates_without_a_response_are_dropped(self, monkeypatch):
        # one input sample at t = 0 with dt = 1: every rate above about 745 has a zero response
        import prodflow.identify

        seen, extend = [], prodflow.identify.extend_rate_set

        def recording(rates, *args):
            seen.append(rates)
            return extend(rates, *args)

        monkeypatch.setattr(prodflow.identify, "extend_rate_set", recording)
        t = np.arange(20.0)
        u = np.where(t == 0.0, 1.0, 0.0)
        result = fit_productivity(ProcessRun(TimeSeries(t, u), TimeSeries(t, 0.5**t)), CHEAP)
        assert math.isfinite(result.gof) and math.isfinite(result.model.impulse_gain)
        assert all(math.isfinite(m.gain) for m in result.model.modes)
        assert seen and seen[0].max() < 745.0 < rate_grid(CHEAP).max()
        for rates in seen:
            assert trapezoid_convolve(rates, u, 1.0).any(axis=1).all()

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
        tau, u, dt, y = mode_record(self.PF, 0.1, 200)
        y = y + 0.05 * np.random.default_rng(seed).standard_normal(len(y))
        for start, m in self.EXTENSIONS[k]:
            if start == "refined":
                cfg = FitConfig(allow_impulse=allow_impulse)
                prev = refine(u, dt, y, [0.5], growth_cutoff(tau, cfg), cfg)
            else:
                prev = project(u, dt, y, np.empty(0), allow_impulse)
            ref_res, ref_rates = brute_force_extension(u, dt, y, list(prev.rates), allow_impulse, self.CANDS, m)
            S = unit_responses(u, dt, self.CANDS)
            rates = extend_rate_set(self.CANDS, *search_stats(S, prev), prev, m) if m else prev.rates
            assert list(rates) == ref_rates
            assert project(u, dt, y, rates, allow_impulse).residual == pytest.approx(ref_res, rel=1e-9)

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
        _, u, dt, _ = mode_record(self.PF, 0.1, 200)
        S = unit_responses(u, dt, cands)
        S[3] = S[1]  # candidates 1 and 3 have the same response
        y = S[1] + 0.4 * S[4] + 0.002 * np.random.default_rng(7).standard_normal(len(u))
        prev = project(u, dt, y, np.empty(0), False)
        assert list(extend_rate_set(cands, *search_stats(S, prev), prev, 1)) == [0.1]
        # (1, 4) and (3, 4) score bit for bit the same; (1, 3) is singular
        assert list(extend_rate_set(cands, *search_stats(S, prev), prev, 2)) == [0.1, 3.0]

    def test_all_singular_is_none(self):
        t = np.linspace(0.0, 1.0, 10)
        u, dt = np.linspace(1.0, 2.0, 10), t[1]
        # the candidates differ from the input column by angles near 1e-6:
        # Gram determinants near 1e-12, below the threshold but not 0
        S = u + 1e-6 * np.random.default_rng(3).standard_normal((3, 10))
        S /= np.linalg.norm(S, axis=1)[:, None]
        cands = np.array([0.1, 1.0, 10.0])
        prev = project(u, dt, np.ones(10), np.empty(0), False)
        assert extend_rate_set(cands, *search_stats(S, prev), prev, 2) is None
        # every candidate nearly repeats the impulse column
        prev = project(u, dt, np.ones(10), np.empty(0), True)
        assert extend_rate_set(cands, *search_stats(S, prev), prev, 1) is None

    @staticmethod
    def scan_stats(R, seed, nan=False):
        """(rates, SV, G, prev) of R unit-norm candidates against an impulse-only projection.  Every
        tenth row repeats the input column, so all its sets are singular; candidates 3 and 70 have the
        same response, and y is mostly that response plus candidate 120's, so (3, 120) and (70, 120)
        tie bit for bit as the best sets, across a panel edge at heights 7 and 64."""
        rng = np.random.default_rng(seed)
        u = 1.0 + rng.random(30)
        S = rng.standard_normal((R, 30))
        singular = rng.choice(np.setdiff1d(np.arange(R), [3, 70, 120]), R // 10, replace=False)
        S[singular] = u
        S /= np.linalg.norm(S, axis=1)[:, None]
        S[70] = S[3]
        prev = project(u, 0.1, S[3] + 0.5 * S[120] + 0.01 * rng.standard_normal(30), np.empty(0), True)
        SV, G = search_stats(S, prev)
        if nan:
            SV[rng.choice(np.setdiff1d(np.arange(R), singular)), -1] = math.nan
        return np.linspace(0.01, 100.0, R), SV, G, prev

    @staticmethod
    def flat_scan(rates, SV, G, prev):
        """Reference: the pair scan over np.triu_indices, every set's score in one flat array;
        ((i, j) of the pick, the scores), or None when every set is singular."""
        SQ, c = SV[:, :-1], SV[:, -1]
        D = G - SQ @ SQ.T
        i, j = np.triu_indices(len(rates), 1)
        d, dij = np.diagonal(D), D[i, j]
        det = d[i] * d[j] - dij * dij
        num = d[j] * c[i] * c[i] - 2.0 * dij * c[i] * c[j] + d[i] * c[j] * c[j]
        ok = prev.det * det > 1e-10
        if not ok.any():
            return None
        drop = np.full(len(det), -math.inf)
        drop[ok] = num[ok] / det[ok]
        best = int(np.argmax(drop))
        return (int(i[best]), int(j[best])), drop

    @pytest.mark.parametrize("panel", [1, 7, 64, 150, 1000])
    @pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
    def test_the_pair_does_not_depend_on_the_panel_height(self, panel, nan, monkeypatch):
        import prodflow.identify

        monkeypatch.setattr(prodflow.identify, "_PANEL", panel)
        for seed in range(30):
            rates, SV, G, prev = stats = self.scan_stats(150, seed, nan)
            pair, scores = self.flat_scan(*stats)
            if nan:  # np.argmax takes the first NaN score
                assert np.isnan(scores).any() and pair != (3, 120)
            else:
                assert (scores == scores.max()).sum() == 2 and pair == (3, 120)
            assert (scores == -math.inf).sum() > len(scores) // 10
            # a set scored as (j, i) rounds differently: on some seeds (70, 120) would beat (3, 120)
            assert prodflow.identify._best_pair(SV[:, :-1], SV[:, -1], G, prev.det) == pair
            assert list(extend_rate_set(*stats, m=2)) == list(rates[list(pair)])
            assert extend_rate_set(rates, np.zeros_like(SV), np.zeros_like(G), prev, 2) is None

    def test_the_pair_scan_holds_one_gram_sized_array(self):
        # R = 594 is the default grid with its growing mirror on a 20-unit record
        rates, SV, G, prev = self.scan_stats(594, 0)
        tracemalloc.start()
        try:
            extend_rate_set(rates, SV, G, prev, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * G.nbytes

    def test_pair_start_finds_what_single_additions_miss(self):
        # a difference of two close exponentials: the best single rate plus
        # one more refines to gof 0.82 only; the best pair reaches the truth
        pf = ProductivityFunction(0.0, (ExponentialMode(1.0, 0.3), ExponentialMode(-2.0, 0.5)))
        tau, u, _, y = mode_record(pf, 0.1, 200)
        run = ProcessRun(TimeSeries(tau, u), TimeSeries(tau, y))
        fit = fit_productivity(run, CHEAP)
        assert [m.decay_rate for m in fit.model.modes] == pytest.approx([0.3, 0.5], rel=1e-8)
        assert fit.gof == pytest.approx(1.0, abs=1e-9)

    def test_recovers_noise_free_three_mode_model(self):
        pf = ProductivityFunction(
            0.4, (ExponentialMode(0.8, 0.08), ExponentialMode(1.0, 0.6), ExponentialMode(-0.5, 4.0))
        )
        tau, u, _, y = mode_record(pf, 0.05, 400)
        run = ProcessRun(TimeSeries(tau, u), TimeSeries(tau, y))
        model = fit_productivity(run, FitConfig(max_modes=3)).model
        assert [m.decay_rate for m in model.modes] == pytest.approx([0.08, 0.6, 4.0], rel=1e-9)
        assert [m.gain for m in model.modes] == pytest.approx([0.8, 1.0, -0.5], rel=1e-9)
        assert model.impulse_gain == pytest.approx(0.4, rel=1e-9)


class TestRefine:
    PF = ProductivityFunction(0.4, (ExponentialMode(1.0, 0.3), ExponentialMode(-0.5, 2.0)))

    def record(self, dt=0.05, n=400):
        return mode_record(self.PF, dt, n)

    def test_recovers_noise_free_two_mode_model(self):
        tau, u, dt, y = self.record()
        fit = refine(u, dt, y, [0.22, 2.9], growth_cutoff(tau))
        assert fit.rates == pytest.approx([0.3, 2.0], rel=1e-8)
        assert fit.gains == pytest.approx([1.0, -0.5], rel=1e-8)
        assert fit.impulse == pytest.approx(0.4, rel=1e-8)

    @pytest.mark.parametrize(
        "start", [[0.22, 2.9], [0.01, 50.0], [0.5, 0.51], [-0.02, 1.0], [3.0], [-0.1], [0.05, 0.3, 5.0]]
    )
    @pytest.mark.parametrize("iterations", [0, 1, 5, 50])
    def test_never_above_the_start(self, start, iterations):
        tau, u, dt, y = self.record(dt=0.1, n=200)
        y = y + 0.02 * np.random.default_rng(1).standard_normal(len(y))
        start_res = project(u, dt, y, np.array(start), True).residual
        fit = refine(u, dt, y, start, growth_cutoff(tau), FitConfig(refine_iterations=iterations))
        assert fit.residual <= start_res
        assert np.all(np.sign(fit.rates) == np.sign(start))
        assert np.all((1e-3 <= np.abs(fit.rates)) & (np.abs(fit.rates) <= 1e3))
        if iterations == 0:
            assert fit.residual == start_res

    def test_extend_rate_set_matches_brute_force(self):
        _, u, dt, y = self.record(dt=0.1, n=200)
        y = y + 0.02 * np.random.default_rng(2).standard_normal(len(y))
        prev = project(u, dt, y, np.array([0.35]), True)
        cands = np.array([-0.05, 0.01, 0.1, 0.35, 1.0, 2.5, 9.0])
        S = unit_responses(u, dt, cands)
        # the candidate equal to the previous rate is singular and skipped
        ref = min((project(u, dt, y, np.sort([0.35, r]), True).residual, r) for r in cands if r != 0.35)
        assert list(extend_rate_set(cands, *search_stats(S, prev), prev)) == sorted([0.35, ref[1]])

    def test_singular_start_is_none(self):
        tau, u, dt, y = self.record()
        assert refine(u, dt, y, [0.3, 0.3], growth_cutoff(tau)) is None

    def test_a_singular_set_projects_to_none(self):
        _, u, dt, y = self.record()
        assert project(u, dt, y, np.array([0.3, 0.3]), True) is None

    def test_growing_mode_stays_within_the_cutoff(self):
        tau, u, dt, _ = self.record(dt=0.1, n=200)
        # the best fit, rate -9, lies past the cutoff of 150 / span = 7.5
        fit = refine(u, dt, np.exp(9.0 * tau), [-1.0], growth_cutoff(tau))
        assert 140.0 < abs(fit.rates[0]) * tau[-1] <= 150.0 * (1 + 1e-12)

    @pytest.mark.parametrize("seed,start", [(0, [0.02, 0.3]), (2, [0.3, 5.0])])
    def test_rates_stay_in_the_configured_range(self, seed, start):
        # one true mode fitted with two: unbounded, the spare mode drifts
        # to rate 0 (seed 0) or to 85 (seed 2)
        tau, u, dt, _ = self.record(dt=0.1, n=200)
        one = ProductivityFunction(0.4, (ExponentialMode(1.0, 0.3),))
        from prodflow import simulate_response

        y = simulate_response(one, TimeSeries(tau, u), 0.1).values
        y = y + 0.01 * np.random.default_rng(seed).standard_normal(len(y))
        cfg = FitConfig(rate_min=0.01, rate_max=10.0)
        fit = refine(u, dt, y, start, growth_cutoff(tau, cfg), cfg)
        assert np.all((0.01 <= fit.rates) & (fit.rates <= 10.0))
