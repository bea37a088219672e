"""Transient analysis: step responses, settling times, changeover stages.

The settling (transient) time of a process is how long its output takes,
after a unit-step input, to stay inside a tolerance band around the
steady-state value.  Two band conventions are supported:

* ``"amplitude"`` (default): the band half-width is epsilon times the
  amplitude of the slowest mode, which gives the closed form
  ts = ln(1/epsilon) / min|decay_rate| and is defined even for growing
  models (the envelope shrinks to epsilon of itself either way).
* ``"final"``: the band is steady_state * (1 +/- epsilon); the settling
  time is the last time the analytic step response leaves that band,
  located numerically.  Requires a stable model with nonzero steady state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ProductivityFunction, TimeSeries, resample, steady_state_gain, uniform_grid

BAND_MODES = ("amplitude", "final")  # the first is the default


class ChangeoverOverlapError(ValueError):
    """Previous process output was still nonzero at the new kick-off."""


@dataclass(frozen=True)
class SettlingConfig:
    """Band settings for settling-time measurement."""

    epsilon: float = 0.02
    band_mode: str = BAND_MODES[0]

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon!r}")
        if self.band_mode not in BAND_MODES:
            raise ValueError(f"band_mode must be one of {BAND_MODES}, got {self.band_mode!r}")


@dataclass(frozen=True)
class SettlingResult:
    settling_time: float
    steady_state_value: float | None
    band_low: float
    band_high: float
    reached_within: float | None = None

    def __post_init__(self):
        if self.settling_time < 0:
            raise ValueError("settling_time must be nonnegative")


@dataclass(frozen=True)
class ChangeoverStages:
    """The three stages of a changeover as contiguous time intervals."""

    cleanup: tuple[float, float]
    setup: tuple[float, float]
    startup: tuple[float, float]

    def __post_init__(self):
        for name, (a, b) in (("cleanup", self.cleanup), ("setup", self.setup), ("startup", self.startup)):
            if b < a:
                raise ValueError(f"{name} interval has negative length")
        if self.cleanup[1] != self.setup[0] or self.setup[1] != self.startup[0]:
            raise ValueError("stages must be contiguous")


def step_values(pf: ProductivityFunction, t: np.ndarray) -> np.ndarray:
    """Analytic unit-step response at the given times (step applied at t=0)."""
    t = np.asarray(t, dtype=float)
    y = np.full(t.shape, pf.impulse_gain)
    for m in pf.modes:
        y += (m.gain / m.decay_rate) * (1.0 - np.exp(-m.decay_rate * t))
    return y


def step_response(pf: ProductivityFunction, horizon: float, dt: float) -> TimeSeries:
    """Unit-step response sampled at t = 0, dt, ..., horizon.

    Evaluated in closed form, so the samples are exact to machine
    precision at any dt.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    if not (0 < dt <= horizon):
        raise ValueError(f"dt must be in (0, horizon], got {dt!r}")
    t = uniform_grid(0.0, horizon, dt)
    with np.errstate(all="ignore"):
        y = step_values(pf, t)
    if not np.isfinite(y).all():
        raise ValueError("step response overflows over this horizon; shorten the horizon")
    return TimeSeries(t, y)


class TrapezoidConvolver:
    """``trapezoid_convolve`` of one input with stacks of kernels, taking the input's FFT once."""

    def __init__(self, u: np.ndarray, dt: float):
        self.u, self.dt, self.nfft = u, dt, 1 << max(2 * len(u) - 1, 2).bit_length()
        self.u_hat = np.fft.rfft(u, self.nfft)

    def __call__(self, kernels: np.ndarray) -> np.ndarray:
        """The responses of a stack of ``kernels`` (rows, n), one row each."""
        n = kernels.shape[1]
        spec = np.fft.rfft(kernels, self.nfft)
        spec *= self.u_hat  # in place: a call holds one spectrum at a time
        full = np.fft.irfft(spec, self.nfft)
        # the columns of full past the result (nfft >= 2n) hold the products k[0] u[i]
        head_u = np.multiply(kernels[:, :1], self.u, out=full[:, n : 2 * n])
        return trapezoid_ends(full[:, :n], head_u, kernels, self.u[0], self.dt, np.empty(kernels.shape))


def trapezoid_ends(rect, head_u, kernels, u0, dt, out):
    """The trapezoid rule's endpoint terms and scale: dt * (rect - (head_u + kernels * u0) / 2) into ``out``.

    ``rect`` holds rectangle-rule sums sum_j k[j] u[i - j] at times i, ``head_u`` the products
    k[0] u[i], and ``kernels`` the kernel values k[i] at the same times; ``u0`` is the input at
    lag 0.  ``out`` may be ``kernels``.  Every trapezoid convolution (``TrapezoidConvolver``, and
    the block pass of ``identify.Candidates``) weights its ends here.
    """
    np.multiply(kernels, u0, out=out)
    out += head_u
    out *= -0.5
    out += rect
    out *= dt
    return out


def trapezoid_convolve(kernel: np.ndarray, u: np.ndarray, dt: float) -> np.ndarray:
    """Discrete convolution integral of one kernel with u on a uniform grid.

    ``kernel`` is sampled like ``u``; stacks of kernels go through
    ``TrapezoidConvolver``.  Trapezoidal weights, FFT-based so long records
    stay fast: the rectangle-rule convolution minus half of the two endpoint products, times dt.
    """
    return TrapezoidConvolver(u, dt)(kernel[None])[0]


def simulate_response(pf: ProductivityFunction, input: TimeSeries, dt: float) -> TimeSeries:
    """Output of the process for a recorded input, by numeric convolution.

    The input is linearly resampled onto a uniform grid with step dt
    spanning its record (and treated as zero before the record starts);
    the exponential part of the kernel is convolved with trapezoidal
    weights and the impulse term feeds the input through directly.
    """
    grid = uniform_grid(input.t[0], input.t[-1], dt)
    if len(grid) < 2:
        raise ValueError("fewer than 2 samples on the resampled grid; decrease dt")
    u = resample(input, grid)
    y = pf.impulse_gain * u
    if pf.modes:
        tau = grid - grid[0]
        with np.errstate(over="raise"):
            try:
                kernel = np.zeros_like(tau)
                for m in pf.modes:
                    kernel += m.gain * np.exp(-m.decay_rate * tau)
            except FloatingPointError:
                raise ValueError("growing mode overflows over this record; shorten the horizon") from None
        y = y + trapezoid_convolve(kernel, u, dt)
    return TimeSeries(grid, y)


def settling_time(pf: ProductivityFunction, cfg: SettlingConfig = SettlingConfig()) -> SettlingResult:
    """Settling time of the unit-step response under the configured band.

    An impulse-only model settles immediately.  See the module docstring
    for the two band conventions.  Raises ValueError when the settling
    time, the steady state or the band overflows to a non-finite value;
    a growing model has no steady state and its amplitude band is NaN.
    """
    ss = steady_state_gain(pf)
    if not pf.modes:
        result = SettlingResult(0.0, ss, ss, ss)
    elif cfg.band_mode == BAND_MODES[0]:
        slowest = min(pf.modes, key=lambda m: abs(m.decay_rate))
        ts = math.log(1.0 / cfg.epsilon) / abs(slowest.decay_rate)
        if ss is None:
            lo = hi = math.nan
        else:
            half = cfg.epsilon * abs(slowest.gain / slowest.decay_rate)
            lo, hi = ss - half, ss + half
        result = SettlingResult(ts, ss, lo, hi)
    else:
        result = _settle_final_band(pf, cfg, ss)
    checked = [result.settling_time]
    if ss is not None:
        checked += [ss, result.band_low, result.band_high]
    if not all(math.isfinite(x) for x in checked):
        raise ValueError("settling time, steady state or band overflows; model values are out of range")
    return result


def _settle_final_band(pf: ProductivityFunction, cfg: SettlingConfig, ss: float | None) -> SettlingResult:
    """Last band exit for the final-value convention, sampled then bisected."""
    if ss is None:
        raise ValueError("final-value band needs a stable model")
    if ss == 0.0:
        raise ValueError("final-value band is degenerate: steady state is 0")
    half = cfg.epsilon * abs(ss)
    rate_min = min(m.decay_rate for m in pf.modes)
    ts_guess = math.log(1.0 / cfg.epsilon) / rate_min
    total_amp = sum(abs(m.gain / m.decay_rate) for m in pf.modes)
    if total_amp <= half:
        # response never leaves the band
        return SettlingResult(0.0, ss, ss - half, ss + half, 0.0)
    horizon = 1.1 * max(math.log(total_amp / half) / rate_min, ts_guess)
    if not math.isfinite(horizon):
        raise ValueError("settling-time search horizon overflows; model values are out of range")
    step = ts_guess / 1e4
    t = uniform_grid(0.0, horizon, step)
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


def percentile_reaction_time(ts: float, tt: float) -> float:
    """Settling time as a fraction of the total process time."""
    if tt <= 0:
        raise ValueError(f"total time must be positive, got {tt!r}")
    if ts < 0:
        raise ValueError(f"settling time must be nonnegative, got {ts!r}")
    frac = ts / tt
    if not math.isfinite(frac):
        raise ValueError(f"reaction fraction {ts!r} / {tt!r} is not finite")
    return frac


def classify_steadiness(ts: float, tt: float, stable: bool) -> str:
    """Verdict "unsteady" when the run ends before settling (ts/tt > 1) or the model grows.

    A reaction fraction of exactly 1 still counts as steady.
    """
    if tt <= 0:
        raise ValueError(f"total time must be positive, got {tt!r}")
    return "unsteady" if (not stable or ts / tt > 1.0) else "steady"


def segment_changeover(
    prev_output: TimeSeries,
    input: TimeSeries,
    settling: SettlingResult,
    zero_tolerance: float | None = None,
) -> ChangeoverStages:
    """Split a changeover window into cleanup, setup, and startup.

    Cleanup runs from the start of the previous process' output window to
    the first sample where that output has died out (<= zero_tolerance,
    default 1e-9 of its peak magnitude).  Setup runs from there to the new
    process' kick-off (first nonzero input), and startup from kick-off
    until the new process settles.
    """
    kick = np.flatnonzero(input.values > 0)
    if len(kick) == 0:
        raise ValueError("no kick-off: input never becomes positive")
    kickoff = float(input.t[kick[0]])
    tol = zero_tolerance if zero_tolerance is not None else 1e-9 * float(np.abs(prev_output.values).max())
    dead = np.flatnonzero(prev_output.values <= tol)
    if len(dead) == 0 or float(prev_output.t[dead[0]]) > kickoff:
        raise ChangeoverOverlapError(
            "previous output is still positive at kick-off; cleanup overruns setup"
        )
    start = float(prev_output.t[0])
    t_zero = float(prev_output.t[dead[0]])
    return ChangeoverStages(
        cleanup=(start, t_zero),
        setup=(t_zero, kickoff),
        startup=(kickoff, kickoff + settling.settling_time),
    )
