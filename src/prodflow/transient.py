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
  The sampling grid is scanned backwards in chunks, so memory stays bounded
  whatever epsilon, and the last exit is bisected several levels per
  evaluation, with the same midpoints and result as one midpoint at a time
  (``_settle_final_band``).

Responses to recorded inputs come from one routine, ``trapezoid_convolve``:
exact block sums of exponential kernels, which identification uses too.
Every pass of the search is one call of ``response_moments``.  Both routines
walk the same groups of blocks (``_walk``) under the same block matrices
(``_block_kernels``).  ``response_moments`` reads the norms and products of
responses from moments of the input without forming them; only for the
Gram matrix does its walk form each group's responses as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ProductivityFunction, TimeSeries, grid_count, resample, steady_state_gain, uniform_grid

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
    """Analytic unit-step response at the given times (step applied at t=0).

    Quiet on overflow: an exponent -rate * t that overflows gives exp(-inf) = 0, its exact limit,
    and a term that overflows is left inf or nan for callers, which check what must be finite.
    """
    t = np.asarray(t, dtype=float)
    y = np.full(t.shape, pf.impulse_gain)
    with np.errstate(over="ignore", invalid="ignore"):
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
    y = step_values(pf, t)
    if not np.isfinite(y).all():
        raise ValueError("step response overflows over this horizon; shorten the horizon")
    return TimeSeries(t, y)


# samples per block, and blocks per group at the least: the groups that both routines walk (``_walk``)
_BLOCK = 16
_CARRY = 1 << 16  # values in a group's carry matrices: few rates take more blocks per group


def _toeplitz(heads: np.ndarray, m: int, shift: int = 0) -> np.ndarray:
    """(..., m, m) lower-triangular Toeplitz matrices, heads[..., i - j + shift] where i >= j, else 0.

    Copied from a strided view of the heads after m - 1 zeros, so no index arrays are built.
    """
    padded = np.zeros(heads.shape[:-1] + (2 * m - 1,))
    padded[..., m - 1 :] = heads[..., shift : shift + m]
    step = padded.itemsize  # entry (i, j) reads padded[..., m - 1 + i - j]
    shape, strides = heads.shape[:-1] + (m, m), padded.strides[:-1] + (step, -step)
    return np.ndarray(shape, padded.dtype, padded, (m - 1) * step, strides).copy()


def _block_kernels(rates: np.ndarray, dt: float, n: int, derivatives: bool = False):
    """(tau, heads, toep, carry): the trapezoid-rule block matrices of the kernels exp(-rate * tau).

    A block is L = min(16, n) samples of the n and a group M blocks: 16, or more while few rates keep
    the carry matrices within ``_CARRY`` values, and no more than the record takes.  tau = dt * (0 ..
    L) and heads[i, j] = a^j = exp(-rates[i] * tau[j]), from exp, never from powers of a rounded a.
    toep[0, i] is rate i's L x L Toeplitz matrix of the heads a^(j - q) with 1/2 on its diagonal, the
    trapezoid weights of a block, and carry[0, i] the M x M Toeplitz matrix of the block factors,
    carry[0, i, m, p] = a^(L (m - p + 1)) = exp(-rates[i] * L dt (m - p + 1)) for p <= m.  With
    ``derivatives`` toep[1] and carry[1] follow for the kernels tau * exp(-rate * tau).
    """
    k, L = 2 if derivatives else 1, min(_BLOCK, n)
    M = min(-(-n // L), max(_BLOCK, math.isqrt(_CARRY // (k * len(rates)))))
    tau, tau_blocks = dt * np.arange(L + 1), (L * dt) * np.arange(M + 1)
    # a decaying kernel's overflowing exponent gives exp(-inf) = 0, its limit; a growing one's inf is dropped or checked
    with np.errstate(over="ignore"):
        heads = np.exp(np.multiply.outer(-rates, tau))
        factors = np.exp(np.multiply.outer(-rates, tau_blocks))
    half = heads[:, :L].copy()
    half[:, 0] = 0.5
    toep = _toeplitz(np.stack([half, heads[:, :L] * tau[:L]][:k]), L)
    carry = _toeplitz(np.stack([factors, factors * tau_blocks][:k]), M, 1)
    return tau, heads, toep, carry


def _walk(u: np.ndarray, dt: float, kernels, form: bool):
    """The groups of blocks of ``u`` under the ``_block_kernels`` ``kernels``, and with ``form`` their responses.

    Yields (lo, b, X, into, S) for each group of samples lo .. lo + b - 1.  Row m of X is block m's
    L samples of dt * u, the first of the record halved, zero past its end.  into[0, i, m] is rate
    i's full sum c[p] = sum_q a^(p - q) x[q] at the sample p = lo + m L - 1 before block m, and
    into[..., nb] the one at the group's end; with derivatives into[1] holds the sums of the kernels
    tau * exp(-rate * tau).  With ``form`` S[i, j, m] is row i's response at sample lo + m L + j,
    the derivative rows after the rates', zero at t = 0 and past the record's end; else S is None.
    All three are overwritten by the next group.

    Each rate's L x L Toeplitz matrix of kernel heads has 1/2 on its diagonal, and the first input
    sample is halved once: the trapezoid weights.  A block's own full sums at its end are g x_m, g
    the last rows of those matrices with the 1/2 made whole.  They carry into the next block,
    S[lo + j] += a^(j + 1) c[lo - 1] (Stockham 1966), over a group's blocks by one product with the
    Toeplitz matrix of the block factors a^(L d) = exp(-rate * tau[L d]).  The derivative sums w carry
    as w[lo + j] += a^(j + 1) (w[lo - 1] + tau[j + 1] c[lo - 1]).  One matrix product forms every
    rate's responses in a group.  Every sum is formed from its own terms, so a response far below its
    kernel's head, growing or decaying, keeps its relative accuracy.  For R rates and n samples this
    costs O(R n) time and O(R L^2 + R M^2) memory for M blocks per group, and with ``form`` O(R L n)
    more time and O(R M L) more memory.
    """
    tau, heads, toep, carry = kernels
    k, R, L, M, n = *toep.shape[:3], carry.shape[-1], len(u)
    g = toep[:, :, -1].copy()
    g[0, :, -1] = 1.0
    g, toep = g.reshape(k * R, L), toep.reshape(k * R * L, L)
    x, buf, S = np.zeros(M * L), np.empty(k * R * M * L) if form else None, None
    ends = np.zeros((k, R, M + 1))  # the sum before the group, then each block's own at its end
    for lo in range(0, n, M * L):
        b = min(M * L, n - lo)
        nb = -(-b // L)
        x[:b], x[b:] = u[lo : lo + b] * dt, 0.0
        if lo == 0:
            x[0] *= 0.5
        X = x[: nb * L].reshape(nb, L)
        ends[:, :, 1 : nb + 1] = (g @ X.T).reshape(k, R, nb)
        into = ends[..., : nb + 1].copy()
        into[..., 1:] += np.matmul(carry[0, :, :nb, :nb], ends[..., :nb, None])[..., 0]
        if k == 2:
            into[1, :, 1:] += np.matmul(carry[1, :, :nb, :nb], ends[0, :, :nb, None])[..., 0]
        ends[:, :, 0] = into[:, :, nb]
        if form:
            S = np.matmul(toep, X.T, out=buf[: k * R * L * nb].reshape(k * R * L, nb)).reshape(k, R, L, nb)
            if k == 2:
                S[1] += heads[:, 1:, None] * tau[1:, None] * into[0, :, None, :nb]
            S += heads[:, 1:, None] * into[:, :, None, :nb]
            if lo == 0:
                S[:, :, 0, 0] = 0.0
            S[..., b - (nb - 1) * L :, -1] = 0.0
            S = S.reshape(k * R, L, nb)
        yield lo, b, X, into, S


def response_moments(rates: np.ndarray, u: np.ndarray, dt: float, V: np.ndarray, gram: bool = False):
    """(squared norms, S S' or None, S V) of the trapezoid-rule responses S of exp(-rate * tau) to ``u``.

    The responses of ``trapezoid_convolve``, in the same groups of blocks (``_walk``), with the norms
    and products read from moments of the input.  With blocks x_m of L samples of dt * u (the first
    halved), c[m - 1] the full sum carried into block m, T the rate's Toeplitz matrix and
    h[j] = a^(j + 1) (``_block_kernels``), block m's response is s_m = T x_m + c[m - 1] h.  So,
    summed over the blocks between the record's first and last,
      |s|^2 = <T'T, X> + 2 (T'h) . sum_m c[m - 1] x_m + |h|^2 sum_m c[m - 1]^2,  X = sum_m x_m x_m',
      s . v = <T, sum_m v_m x_m'> + h . sum_m c[m - 1] v_m,
    where X and the sums of v_m x_m' are shared by every rate.  The first block (its response at
    t = 0 is 0) and the last (its response is 0 past the record's end) are formed explicitly.
    Along the record each rate takes only its block-end sums and their carry:
    O(R n (k + 3)) time for R rates and k columns of V, and O(R L^2 + R M^2) memory for M blocks
    per group, whatever n.  With ``gram`` the walk also forms each group's responses s_m, in one
    reused buffer of R M L values, and adds their products to the Gram matrix S S':
    O(R L n + R^2 n) more time and O(R M L + R^2) more memory.  The norms and products do not
    depend on ``gram``.
    """
    R, n, k = len(rates), len(u), V.shape[1]
    sq, SV, G = np.zeros(R), np.zeros((R, k)), np.zeros((R, R)) if gram else None
    if not R:
        return sq, G, SV
    kernels = _, heads, toep, carry = _block_kernels(rates, dt, n)
    toep, h, L, M = toep[0], heads[:, 1:], toep.shape[-1], carry.shape[-1]
    v = np.zeros((M * L, k))
    Z = np.empty((M, L * (1 + k)))  # row m: block m's inputs x_m, then its rows v_m of V
    XZ = np.zeros((L * (1 + k), L))  # sum_m z_m x_m'
    CZ, cc = np.zeros((R, L * (1 + k))), np.zeros(R)  # sum_m c[m - 1] z_m, sum_m c[m - 1]^2
    for lo, b, X, into, S in _walk(u, dt, kernels, gram):
        nb, into = len(X), into[0]
        v[:b], v[b:] = V[lo : lo + b], 0.0
        Z[:nb, :L] = X
        Z[:nb, L:] = v[: nb * L].reshape(nb, L * k)
        first, last = lo == 0, lo + b == n
        if gram:
            S = S.reshape(R, L * nb)
            G += S @ S.T
        edges = {0} if first else set()  # the record's first and last blocks, formed explicitly
        if last:
            edges.add(nb - 1)
        mid = slice(int(first), nb - int(last))
        XZ += Z[mid].T @ Z[mid, :L]
        CZ += into[:, mid] @ Z[mid]
        cc += np.einsum("ij,ij->i", into[:, mid], into[:, mid])
        for m in edges:
            s = toep @ Z[m, :L] + into[:, m, None] * h
            if first and m == 0:
                s[:, 0] = 0.0
            s[:, b - m * L :] = 0.0
            sq += np.einsum("ij,ij->i", s, s)
            SV += s @ Z[m, L:].reshape(L, k)
    Th = np.einsum("ijq,ij->iq", toep, h)
    sq += np.einsum("ijq,ijq->i", toep @ XZ[:L], toep) + 2.0 * np.einsum("iq,iq->i", Th, CZ[:, :L])
    sq += np.einsum("ij,ij->i", h, h) * cc
    P = XZ[L:].reshape(L, k, L).transpose(1, 0, 2).reshape(k, L * L)  # sum_m v_m x_m' per column
    SV += toep.reshape(R, L * L) @ P.T + np.einsum("ij,ijk->ik", h, CZ[:, L:].reshape(R, L, k))
    return sq, G, SV


def trapezoid_convolve(rates, u: np.ndarray, dt: float, derivatives: bool = False) -> np.ndarray:
    """Trapezoid-rule convolutions of u with the kernels exp(-rate * tau), one row per rate.

    ``u`` is sampled at tau = 0, dt, 2 dt, ...  With ``derivatives`` one row per rate follows
    with the response's derivative with respect to log|rate|, the convolution of
    -rate * tau * exp(-rate * tau) with u.  Computed exactly in blocks (``_walk``).
    """
    rates, u = np.asarray(rates, dtype=float), np.asarray(u, dtype=float)
    out = np.empty(((2 if derivatives else 1) * len(rates), len(u)))
    if len(rates):
        for lo, b, _, _, S in _walk(u, dt, _block_kernels(rates, dt, len(u), derivatives), True):
            out[:, lo : lo + b] = S.transpose(0, 2, 1).reshape(len(out), S.shape[1] * S.shape[2])[:, :b]
    if derivatives:
        out[len(rates) :] *= -rates[:, None]
    return out


def simulate_response(pf: ProductivityFunction, input: TimeSeries, dt: float) -> TimeSeries:
    """Output of the process for a recorded input, by numeric convolution.

    The input is linearly resampled onto a uniform grid with step dt spanning its record (and
    treated as zero before the record starts).  Each mode's trapezoid-rule response comes from
    ``trapezoid_convolve`` and is scaled by its gain; the impulse term feeds the input through
    directly.  Raises ValueError when the response overflows.
    """
    grid = uniform_grid(input.t[0], input.t[-1], dt)
    if len(grid) < 2:
        raise ValueError("fewer than 2 samples on the resampled grid; decrease dt")
    u = resample(input, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        y = pf.impulse_gain * u
        if pf.modes:
            rates, gains = np.array([(m.decay_rate, m.gain) for m in pf.modes]).T
            y += gains @ trapezoid_convolve(rates, u, dt)
    if not np.isfinite(y).all():
        raise ValueError("response overflows over this record; shorten the horizon or scale the input down")
    return TimeSeries(grid, y)


def settling_time(pf: ProductivityFunction, cfg: SettlingConfig = SettlingConfig()) -> SettlingResult:
    """Settling time of the unit-step response under the configured band.

    An impulse-only model settles immediately.  See the module docstring
    for the two band conventions.  Raises ValueError when the settling
    time, the steady state or the band overflows to a non-finite value,
    and, in the final band, when the band is degenerate: its edges
    epsilon * |steady state| away round to the steady state itself.  A
    growing model has no steady state and its amplitude band is NaN.
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


# grid samples per chunk of the final-band scan, and bisection levels per evaluation
_SCAN_CHUNK = 2048
_BISECT_LEVELS = 6


def _settle_final_band(pf: ProductivityFunction, cfg: SettlingConfig, ss: float | None) -> SettlingResult:
    """Last band exit for the final-value convention, sampled then bisected.

    The response is sampled on ``uniform_grid(0, horizon, step)``, scanned backwards in chunks of
    ``_SCAN_CHUNK`` samples built as step * arange(start, stop), so that every sample equals the
    grid's and memory stays O(chunk) however fine the grid.  The scan stops at the first chunk with
    a sample outside the band.  That last out-of-band sample and the next one bracket the exit,
    which is then bisected until hi - lo <= 1e-9 hi, ``_BISECT_LEVELS`` levels per evaluation: each
    level puts 0.5 * (e[q] + e[q + 1]) between the edges e of the level before, so the edges hold
    every midpoint the next levels can reach, formed as a one-midpoint-at-a-time loop forms them.
    One ``step_values`` call evaluates them all, and the path through them is walked with the stop
    test before each step.  np.exp of an element does not depend on the length of its array or its
    place in it, so the result equals that loop's bit for bit.
    """
    if ss is None:
        raise ValueError("final-value band needs a stable model")
    half = cfg.epsilon * abs(ss)
    # no band at ss = 0, at a half-width that underflows or at one below half an ulp of ss;
    # a non-finite ss goes on to settling_time's overflow error
    if math.isfinite(ss) and not ss - half < ss < ss + half:
        raise ValueError(f"final-value band is degenerate: its half-width {half!r} is below the rounding of {ss!r}")
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
    n = grid_count(0.0, horizon, step)

    def outside(t: np.ndarray) -> np.ndarray:
        return np.abs(step_values(pf, t) - ss) > half

    for stop in range(n, 0, -_SCAN_CHUNK):
        start = max(stop - _SCAN_CHUNK, 0)
        hits = np.flatnonzero(outside(step * np.arange(start, stop)))
        if len(hits):
            break
    else:
        return SettlingResult(0.0, ss, ss - half, ss + half, horizon)
    k = start + int(hits[-1])
    lo, hi = step * k, step * min(k + 1, n - 1)  # the grid's samples: 0.0 + step * k is step * k
    width = 1 << _BISECT_LEVELS
    edges = np.empty(width + 1)
    a = w = 0  # (lo, hi) is (e[a], e[a + w]) in the evaluated edges e; w <= 1 leaves no midpoint there
    while hi - lo > 1e-9 * max(hi, 1e-30):
        if w <= 1:
            edges[0], edges[width] = lo, hi
            s = width // 2
            while s:
                edges[s :: 2 * s] = 0.5 * (edges[: -s : 2 * s] + edges[2 * s :: 2 * s])
                s //= 2
            e, out = edges.tolist(), outside(edges).tolist()
            a, w = 0, width
        w //= 2
        if out[a + w]:
            a += w
        lo, hi = e[a], e[a + w]
    return SettlingResult(hi, ss, ss - half, ss + half, horizon)


def percentile_reaction_time(ts: float, tt: float) -> float:
    """Settling time as a fraction of the total process time, finite also in percent, as reports print it."""
    if tt <= 0:
        raise ValueError(f"total time must be positive, got {tt!r}")
    if ts < 0:
        raise ValueError(f"settling time must be nonnegative, got {ts!r}")
    frac = ts / tt
    if not math.isfinite(100.0 * frac):
        raise ValueError(f"reaction fraction {ts!r} / {tt!r} is not finite in percent")
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
