"""Fitting productivity functions from recorded runs.

Two estimators:

* ``fit_fdp`` regresses the output directly on the input, y = alpha * u,
  the first-degree-polynomial baseline whose goodness of fit sets the
  benchmark any dynamic model has to beat.
* ``fit_productivity`` searches for an impulse-plus-exponential-sum kernel
  whose simulated response to the recorded input best matches the recorded
  output (output-error least squares).  Decay rates come from a geometric
  candidate grid (optionally mirrored to negative, growing rates); for
  every rate combination the gains and the impulse gain are a linear
  least-squares solve, scored in closed form for one and two modes.  The
  grid's best rate set of each order is the one with the lowest residual;
  exact ties go to the lexicographically first index set.  That set, and
  from two modes up also the previous order's refined rates plus the best
  added candidate, are refined by variable projection (Golub & Pereyra
  1973): Levenberg-Marquardt over log|rate| with every sign fixed, the
  gains projected out at each iterate and Kaufman's (1975) Jacobian.  The
  lower refined residual wins, the grid start on a tie.  Between orders
  the lowest residual wins, and ties go to the smaller model.  The whole
  procedure is deterministic: same run and config, same model.

Goodness of fit is NRMSE, 1 - ||y - yhat|| / ||y - mean(y)||: 1 is an
exact match, 0 means no better than the mean.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import ExponentialMode, ProcessRun, ProductivityFunction, TimeSeries, resample, uniform_grid
from .transient import trapezoid_convolve

# growing-mode candidates faster than exp(150) over the record overflow
# normal equations well before they could ever be a sane fit
_MAX_GROWTH_EXPONENT = 150.0
# a normalised Gram determinant at or below this marks a rate set as
# singular, in the grid search and in refinement alike
_SINGULAR_DET = 1e-10
# refinement stops once an accepted step gains less than this fraction
_REL_TOL = 1e-10
# refinement moves each log|rate| by at most this much per step
_MAX_LOG_STEP = 1.0
# float64 elements per FFT block when building the candidate responses
_BLOCK_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class FdpFit:
    alpha: float
    gof: float


@dataclass(frozen=True)
class FitConfig:
    """Search space and effort knobs for fit_productivity."""

    max_modes: int = 2
    allow_impulse: bool = True
    allow_unstable: bool = True
    rate_min: float = 1e-3
    rate_max: float = 1e3
    points_per_decade: int = 60
    # Levenberg-Marquardt trial steps per model order; 0 keeps the grid rates
    refine_iterations: int = 50

    def __post_init__(self):
        if self.max_modes < 1:
            raise ValueError("max_modes must be >= 1")
        if not (0 < self.rate_min < self.rate_max):
            raise ValueError("need 0 < rate_min < rate_max")
        if self.points_per_decade < 1:
            raise ValueError("points_per_decade must be >= 1")
        if self.refine_iterations < 0:
            raise ValueError("refine_iterations must be >= 0")


@dataclass(frozen=True)
class FitResult:
    model: ProductivityFunction
    gof: float
    residual_norm: float


def rate_grid(cfg: FitConfig = FitConfig()) -> np.ndarray:
    """Geometric grid of candidate decay rates, strictly increasing."""
    decades = math.log10(cfg.rate_max / cfg.rate_min)
    n = int(round(decades * cfg.points_per_decade))
    return cfg.rate_min * 10.0 ** (np.arange(n + 1) / cfg.points_per_decade)


def goodness_of_fit(predicted: TimeSeries, observed: TimeSeries) -> float:
    """NRMSE of a prediction against an observation on the same grid."""
    if len(predicted) != len(observed) or not np.array_equal(predicted.t, observed.t):
        raise ValueError("predicted and observed series must share the same time grid")
    return _nrmse(observed.values, predicted.values)


def _nrmse(y: np.ndarray, yhat: np.ndarray) -> float:
    den = float(np.linalg.norm(y - y.mean()))
    num = float(np.linalg.norm(y - yhat))
    # residuals at rounding-noise level count as exact; otherwise a perfect
    # feedthrough fit of a constant signal would score num/den on pure dust
    if num <= 1e-12 * max(float(np.linalg.norm(y)), den):
        return 1.0
    if den == 0.0:
        return -math.inf
    return 1.0 - num / den


def _common_grid(run: ProcessRun) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Input and output resampled onto one uniform grid; returns (t, u, y, dt)."""
    inp, out = run.input, run.output
    din, dout = np.diff(inp.t), np.diff(out.t)
    same = len(inp) == len(out) and np.array_equal(inp.t, out.t)
    if same and np.allclose(din, din[0], rtol=1e-9, atol=0.0):
        return inp.t.copy(), inp.values.copy(), out.values.copy(), float(din.mean())
    t0 = max(inp.t[0], out.t[0])
    t1 = min(inp.t[-1], out.t[-1])
    dt = float(min(np.median(din), np.median(dout)))
    grid = uniform_grid(t0, t1, dt)
    if len(grid) < 2:
        raise ValueError("input and output overlap on fewer than 2 samples")
    return grid, resample(inp, grid), resample(out, grid), dt


def fit_fdp(run: ProcessRun) -> FdpFit:
    """Least-squares static gain y = alpha * u and its goodness of fit."""
    _, u, y, _ = _common_grid(run)
    uu = float(u @ u)
    if uu == 0.0:
        raise ValueError("input is identically zero; alpha undefined")
    alpha = float(u @ y) / uu
    return FdpFit(alpha, _nrmse(y, alpha * u))


class ModeBasis:
    """Trapezoid-rule responses of exponential kernels to one recorded input.

    Holds the record's lag times ``tau``, input ``u`` and step ``dt``, and
    the FFT length ``nfft`` that ``trapezoid_convolve`` pads to, which
    sizes the blocks of candidate responses.
    """

    def __init__(self, tau: np.ndarray, u: np.ndarray, dt: float):
        self.tau, self.u, self.dt = tau, u, dt
        self.nfft = 1 << max(2 * len(u) - 1, 2).bit_length()

    def convolve(self, kernels: np.ndarray) -> np.ndarray:
        """Responses to ``u`` of a stack of kernels sampled on ``tau``."""
        return trapezoid_convolve(kernels, self.u, self.dt)


def eliminate_first(G: np.ndarray, c: np.ndarray, yy: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Gram system of the other unknowns with the first one projected out.

    Schur complement of G[0, 0]: for any index set S of the rest, the
    residual of S plus the first unknown equals the reduced system's
    residual of S, and the full determinant is G[0, 0] times the reduced
    one.  Returns (G', c', yy', G[0, 0]).
    """
    g0, a = float(G[0, 0]), G[1:, 0]
    return G[1:, 1:] - np.outer(a, a) / g0, c[1:] - a * (c[0] / g0), yy - float(c[0]) ** 2 / g0, g0


def _combo_chunks(n: int, k: int, chunk: int):
    """Size-k index combinations in lexicographic order, as (rows, k) blocks.

    Streamed so that large k never materializes the whole combination set.
    """
    it = itertools.combinations(range(n), k)
    while block := list(itertools.islice(it, chunk)):
        yield np.array(block, dtype=np.intp)


def best_grid_combo(
    G: np.ndarray, c: np.ndarray, yy: float, k: int, min_det: float = _SINGULAR_DET
) -> tuple[float, np.ndarray] | None:
    """Lowest-residual size-k index set of a Gram system.

    The residual of a set S is yy - c_S' G_SS^-1 c_S; sets with
    |det G_SS| <= min_det are singular and skipped.  One and two indices
    are scored in closed form, larger sets by batched solves.  Sets are
    visited in lexicographic order and the first wins exact ties.
    Returns (residual, indices), or None when every set is singular.
    """
    if k == 0:
        return yy, np.empty(0, dtype=np.intp)
    if k <= 2:
        d = np.diagonal(G)
        if k == 1:
            det, num = d, c * c
        else:
            i, j = np.triu_indices(len(c), 1)
            gij, ci, cj = G[i, j], c[i], c[j]
            det = d[i] * d[j] - gij * gij
            num = d[j] * ci * ci - 2.0 * gij * ci * cj + d[i] * cj * cj
        ok = np.abs(det) > min_det
        res = np.full(len(det), math.inf)
        res[ok] = yy - num[ok] / det[ok]
        best = int(np.argmin(res))
        if not math.isfinite(res[best]):
            return None
        return float(res[best]), (np.array([best]) if k == 1 else np.array([i[best], j[best]]))
    best_res, best_set = math.inf, None
    for part in _combo_chunks(len(c), k, 200_000):
        Gs = G[part[:, :, None], part[:, None, :]]
        cs = c[part]
        res = np.full(len(part), math.inf)
        ok = np.abs(np.linalg.det(Gs)) > min_det
        if ok.any():
            theta = np.linalg.solve(Gs[ok], cs[ok][..., None])[..., 0]
            res[ok] = yy - np.einsum("ij,ij->i", theta, cs[ok])
        j = int(np.argmin(res))
        if res[j] < best_res:
            best_res, best_set = float(res[j]), part[j]
    return None if best_set is None else (best_res, best_set)


@dataclass(frozen=True)
class Projection:
    """Least-squares state of one rate set with the gains projected out.

    ``r`` is the residual vector and ``residual`` its squared norm.
    ``jacobian`` holds Kaufman's columns, dr/d(log|rate_j|) ~
    -gain_j * P_perp * D_j.  ``q`` is an orthonormal basis of the columns
    (impulse first) and ``det`` their normalised Gram determinant.
    """

    rates: np.ndarray
    residual: float
    impulse: float
    gains: np.ndarray
    r: np.ndarray
    jacobian: np.ndarray
    q: np.ndarray
    det: float


def project(
    basis: ModeBasis, y: np.ndarray, rates: np.ndarray, allow_impulse: bool, min_det: float | None = None
) -> Projection | None:
    """Gains, residual and Jacobian of y for fixed rates.

    The mode columns and their derivatives with respect to log|rate| (the
    convolution of -rate*tau*exp(-rate*tau) with u) come from one batched
    FFT, the gains from a QR solve.  With ``min_det`` a set whose
    normalised Gram determinant is at or below it counts as singular.
    None when the set is singular or anything is non-finite.
    """
    k = len(rates)
    if k:
        E = np.exp(-np.outer(rates, basis.tau))
        cols = basis.convolve(np.vstack([E, -(rates[:, None] * basis.tau) * E]))
        phi, deriv = cols[:k], cols[k:]
    else:
        phi = deriv = np.empty((0, len(y)))
    A = np.vstack([basis.u, phi]).T if allow_impulse else phi.T
    Q, R = np.linalg.qr(A)
    norms = np.linalg.norm(A, axis=0)
    if not norms.all():
        return None
    det = float(np.prod((np.diagonal(R) / norms) ** 2))
    if min_det is not None and det <= min_det:
        return None
    qy = Q.T @ y
    try:
        theta = np.linalg.solve(R, qy)
    except np.linalg.LinAlgError:
        return None
    r = y - Q @ qy
    residual = float(r @ r)
    if not (math.isfinite(residual) and np.isfinite(theta).all()):
        return None
    gains = theta[1:] if allow_impulse else theta
    dT = deriv.T
    jacobian = -(dT - Q @ (Q.T @ dT)) * gains
    return Projection(rates, residual, float(theta[0]) if allow_impulse else 0.0, gains, r, jacobian, Q, det)


def refine(basis: ModeBasis, y: np.ndarray, rates0, cfg: FitConfig = FitConfig()) -> Projection | None:
    """Variable-projection Levenberg-Marquardt refinement of a rate set.

    Optimises log|rate| jointly with every rate's sign fixed and the gains
    projected out at each iterate (Golub & Pereyra 1973), using Kaufman's
    (1975) Jacobian.  A step is taken only if it strictly lowers the
    residual, so the result is never worse than ``rates0``.  Trial rates
    are clipped to the configured search space, [rate_min, rate_max] in
    magnitude and the growth cutoff for growing modes; a trial that makes
    the rate set singular fails like any other.  At most
    ``cfg.refine_iterations`` trial steps.  Returns None only when
    ``rates0`` itself is singular.
    """
    rates0 = np.asarray(rates0, dtype=float)
    cur = project(basis, y, rates0, cfg.allow_impulse)
    if cur is None or not len(rates0):
        return cur
    signs, logs = np.sign(rates0), np.log(np.abs(rates0))
    grow_max = min(cfg.rate_max, _MAX_GROWTH_EXPONENT / float(basis.tau[-1]))
    hi = np.where(signs < 0, grow_max, cfg.rate_max)
    log_lo, log_hi = math.log(cfg.rate_min), np.log(hi)
    lam = 1e-3
    for _ in range(cfg.refine_iterations):
        J = cur.jacobian
        JTJ = J.T @ J
        try:
            step = np.linalg.solve(JTJ + lam * np.diag(np.diagonal(JTJ)), -(J.T @ cur.r))
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(step).all():
            break
        # clip before exp: each log|rate| moves by at most _MAX_LOG_STEP
        trial_logs = np.clip(logs + np.clip(step, -_MAX_LOG_STEP, _MAX_LOG_STEP), log_lo, log_hi)
        rates = signs * np.clip(np.exp(trial_logs), cfg.rate_min, hi)
        trial = project(basis, y, rates, cfg.allow_impulse, _SINGULAR_DET)
        if trial is not None and trial.residual < cur.residual:
            gain = cur.residual - trial.residual
            cur, logs = trial, trial_logs
            lam = max(lam / 10.0, 1e-12)
            if gain <= _REL_TOL * cur.residual:
                break
        else:
            lam *= 10.0
            if lam > 1e10:
                break
    return cur


def extend_rate_set(S: np.ndarray, rates: np.ndarray, prev: Projection) -> np.ndarray | None:
    """``prev``'s rates plus the candidate rate that lowers the residual most.

    ``S`` holds the candidates' unit-norm responses, one row per entry of
    ``rates``.  Candidate s lowers ``prev``'s squared residual by
    (s.r)^2 / (1 - |q's|^2).  Candidates that make the set singular are
    skipped, and the first of equal candidates wins.  None when every
    candidate is singular.
    """
    SQ = S @ prev.q
    rest = 1.0 - np.einsum("ij,ij->i", SQ, SQ)
    ok = prev.det * rest > _SINGULAR_DET
    if not ok.any():
        return None
    drop = np.full(len(rates), -math.inf)
    drop[ok] = (S[ok] @ prev.r) ** 2 / rest[ok]
    return np.sort(np.append(prev.rates, rates[int(np.argmax(drop))]))


def fit_productivity(run: ProcessRun, cfg: FitConfig = FitConfig()) -> FitResult:
    """Best impulse-plus-exponential-sum model for a recorded run.

    With allow_impulse the static baseline is inside the search space
    (the zero-mode candidate), so the returned gof never falls below
    fit_fdp's.  Ties between model orders go to the smaller model;
    grid ties go to the lexicographically first candidate index set.
    """
    t, u, y, dt = _common_grid(run)
    if float(u @ u) == 0.0:
        raise ValueError("input is identically zero; nothing to identify")
    yy = float(y @ y)
    if yy == 0.0:
        raise ValueError("output is identically zero; nothing to identify")
    grid = rate_grid(cfg)
    if len(grid) < cfg.max_modes:
        raise ValueError("rate grid has fewer points than max_modes")
    tau = t - t[0]
    span = float(tau[-1])
    rates = list(grid)
    if cfg.allow_unstable:
        rates += [-r for r in grid if r * span <= _MAX_GROWTH_EXPONENT]
    rates = np.sort(np.asarray(rates))

    # candidate mode responses, FFT-batched in blocks to bound memory, and
    # normalised so the combination Gram matrices stay well conditioned
    basis = ModeBasis(tau, u, dt)
    offset = 1 if cfg.allow_impulse else 0
    B = np.empty((offset + len(rates), len(t)))
    block = max(1, _BLOCK_ELEMENTS // basis.nfft)
    for lo in range(0, len(rates), block):
        B[offset + lo : offset + lo + block] = basis.convolve(np.exp(-np.outer(rates[lo : lo + block], tau)))
    norms = np.linalg.norm(B[offset:], axis=1)
    usable = norms > 0
    if not usable.all():
        rates, norms = rates[usable], norms[usable]
        B = B[np.concatenate([np.ones(offset, dtype=bool), usable])]
    B[offset:] /= norms[:, None]
    if offset:
        B[0] = u / np.linalg.norm(u)
    G = B @ B.T
    c = B @ y
    # higher orders also start from the previous order's rates plus one
    S = B[offset:] if cfg.max_modes >= 2 else None
    del B
    min_det = _SINGULAR_DET
    if cfg.allow_impulse:
        # the impulse column is in every set: project it out once
        G, c, yy_rest, g0 = eliminate_first(G, c, yy)
        min_det /= g0
    else:
        yy_rest = yy
    tie_tol = 1e-12 * yy

    best = prev = None
    for k in range(0 if cfg.allow_impulse else 1, cfg.max_modes + 1):
        starts = []
        found = best_grid_combo(G, c, yy_rest, k, min_det)
        if found is not None:
            starts.append(rates[found[1]])
        if prev is not None and len(prev.rates):
            seed = extend_rate_set(S, rates, prev)
            if seed is not None and not any(np.array_equal(seed, s) for s in starts):
                starts.append(seed)
        fit = None
        for start in starts:
            trial = refine(basis, y, start, cfg)
            if trial is not None and (fit is None or trial.residual < fit.residual):
                fit = trial
        if fit is None:
            continue
        prev = fit
        if best is None or fit.residual < best.residual - tie_tol:
            best = fit
    if best is None:
        raise ValueError("rate grid exhausted without a finite residual")
    if not len(best.rates) and best.impulse == 0.0:
        raise ValueError("output is orthogonal to every candidate response; nothing to identify")
    modes = tuple(ExponentialMode(g, r) for r, g in sorted(zip(best.rates, best.gains)))
    # one convolution per mode, scaled afterwards: a summed kernel would
    # carry FFT rounding of its largest gain into every sample
    predicted = best.impulse * u
    for m in modes:
        predicted = predicted + m.gain * trapezoid_convolve(np.exp(-m.decay_rate * tau), u, dt)
    return FitResult(
        ProductivityFunction(best.impulse, modes),
        _nrmse(y, predicted),
        float(np.linalg.norm(y - predicted)),
    )
