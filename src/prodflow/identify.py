"""Fitting productivity functions from recorded runs.

Two estimators:

* ``fit_fdp`` regresses the output directly on the input, y = alpha * u,
  the first-degree-polynomial baseline whose goodness of fit sets the
  benchmark any dynamic model has to beat.
* ``fit_productivity`` searches for an impulse-plus-exponential-sum kernel
  whose simulated response to the recorded input best matches the recorded
  output (output-error least squares).  Decay rates come from a geometric
  candidate grid (optionally mirrored to negative, growing rates).  Each
  model order grows from the lower ones by forward selection (orthogonal
  least squares; Chen, Billings & Luo 1989): order k starts from the
  order k-2 fit plus the best pair of candidates and from the order k-1
  fit plus the best single candidate, each scored in closed form against
  that fit's projection, the first candidate set winning exact ties.  Both
  starts are refined by variable projection (Golub & Pereyra 1973):
  Levenberg-Marquardt over log|rate| with every sign fixed, the gains
  projected out at each iterate and Kaufman's (1975) Jacobian.  The lower
  refined residual wins, the pair start on a tie.  Between orders the
  lowest residual wins, and ties go to the smaller model.  All responses
  are the exact block sums of ``transient.response_groups``, and the fit's
  residual is the refined projection's.  The search never holds them: a
  pass gives the candidates' norms, for the pair scan their Gram matrix,
  and their products with the order 0 fit's projection; each later order
  takes one more pass for the previous fit's.  Refinement takes each rate
  set's modes and log-rate derivatives from ``trapezoid_convolve``.  For R
  candidates, n samples and blocks of L = 16 a pass costs O(R L n) time,
  the Gram matrix O(R^2 n) once per fit, and search memory is O(R L^2 + R^2)
  whatever n.  The fit runs on copies of the input and output
  scaled by powers of two, which is exact, so that growing-mode responses
  to values near the overflow limit stay finite.  The whole procedure is
  deterministic at a fixed BLAS thread count: same run, config and thread
  count, same model.  Threaded BLAS sums dot products in an order set by
  the thread count, so on long records the last digits of a fit can
  change with it.

Goodness of fit is NRMSE, 1 - ||y - yhat|| / ||y - mean(y)||: 1 is an
exact match, 0 means no better than the mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ExponentialMode, ProcessRun, ProductivityFunction, TimeSeries, resample, uniform_grid
from .transient import response_groups, trapezoid_convolve

# growing-mode candidates faster than exp(150) over the record overflow
# normal equations well before they could ever be a sane fit
_MAX_GROWTH_EXPONENT = 150.0
# a normalised Gram determinant at or below this marks a rate set as
# singular, in the search and in refinement alike
_SINGULAR_DET = 1e-10
# refinement stops once an accepted step gains less than this fraction
_REL_TOL = 1e-10
# refinement moves each log|rate| by at most this much per step
_MAX_LOG_STEP = 1.0


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
    y = observed.values
    return _nrmse(y, y - predicted.values, float(y @ y))


def _nrmse(y: np.ndarray, r: np.ndarray, yy: float) -> float:
    """NRMSE of y against its residual r."""
    den = float(np.linalg.norm(y - y.mean()))
    num = float(np.linalg.norm(r))
    # residuals at rounding-noise level count as exact; otherwise a perfect
    # feedthrough fit of a constant signal would score num/den on pure dust
    if num <= 1e-12 * max(math.sqrt(yy), den):
        return 1.0
    if den == 0.0:
        return -math.inf
    return 1.0 - num / den


def _common_grid(run: ProcessRun) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float, float]:
    """(t, u, y, dt, u @ u, y @ y): input and output on one uniform grid, ValueError if a sum overflows."""
    inp, out = run.input, run.output
    din, dout = np.diff(inp.t), np.diff(out.t)
    same = len(inp) == len(out) and np.array_equal(inp.t, out.t)
    if same and np.allclose(din, din[0], rtol=1e-9, atol=0.0):
        t, u, y, dt = inp.t.copy(), inp.values.copy(), out.values.copy(), float(din.mean())
    else:
        dt = float(min(np.median(din), np.median(dout)))
        t = uniform_grid(max(inp.t[0], out.t[0]), min(inp.t[-1], out.t[-1]), dt)
        if len(t) < 2:
            raise ValueError("input and output overlap on fewer than 2 samples")
        u, y = resample(inp, t), resample(out, t)
    with np.errstate(over="ignore"):
        uu, yy = float(u @ u), float(y @ y)
    if not (math.isfinite(uu) and math.isfinite(yy)):
        raise ValueError("sum of squares of the input or output overflows; values are out of range")
    return t, u, y, dt, uu, yy


def fit_fdp(run: ProcessRun) -> FdpFit:
    """Least-squares static gain y = alpha * u and its goodness of fit."""
    _, u, y, _, uu, yy = _common_grid(run)
    if uu == 0.0:
        raise ValueError("input is identically zero; alpha undefined")
    alpha = float(u @ y) / uu
    return FdpFit(alpha, _nrmse(y, y - alpha * u, yy))


class ModeBasis:
    """A recorded input ``u`` with step ``dt`` and its lag times ``tau``, whose modes a fit convolves."""

    def __init__(self, tau: np.ndarray, u: np.ndarray, dt: float):
        self.tau, self.u, self.dt = tau, u, dt


class Candidates:
    """What the search reads of the candidates' unit-norm responses S, without holding S.

    Row i of S is the response of the kernel exp(-rates[i] * tau) to the basis's input, at unit norm.
    One pass over the record gives the responses' ``norms``, with ``gram`` the Gram matrix ``gram``
    = S S' (else None), and the ``products`` S V for the columns V given (else for none); ``dot``
    gives S V for further columns in one more pass.  A pass reduces the exact responses of
    ``transient.response_groups`` one group of samples at a time, so it costs O(R L n) time for R
    rates and n samples, plus O(R^2 n) for the Gram matrix, and O(R L^2 + R^2) memory whatever n.
    Rates without a response are dropped.
    """

    def __init__(self, basis: ModeBasis, rates: np.ndarray, gram: bool = False, V: np.ndarray | None = None):
        V = np.empty((len(basis.u), 0)) if V is None else V
        sq, G, SV = _block_pass(basis, rates, V, gram)
        norms = np.sqrt(sq)
        keep = norms > 0
        if not keep.all():
            rates, norms, SV = rates[keep], norms[keep], SV[keep]
            G = None if G is None else G[np.ix_(keep, keep)]
        if G is not None:
            G /= norms[:, None]
            G /= norms
        SV /= norms[:, None]
        self.basis, self.rates, self.norms, self.gram, self.products = basis, rates, norms, G, SV

    def dot(self, V: np.ndarray) -> np.ndarray:
        """S V for the columns of V (n, k), in one more pass."""
        SV = _block_pass(self.basis, self.rates, V, False)[2]
        SV /= self.norms[:, None]
        return SV


def _block_pass(basis: ModeBasis, rates: np.ndarray, V: np.ndarray, gram: bool):
    """(squared norms, S S' or None, S V) of the candidates' responses S before normalising.

    Each group's responses stay in ``response_groups``' [rate, j, m] layout, for the sample
    lo + m L + j; the sums over its samples run in that order.
    """
    R, k = len(rates), V.shape[1]
    sq, SV, G = np.zeros(R), np.zeros((R, k)), np.zeros((R, R)) if gram else None
    for lo, b, S in response_groups(rates, basis.u, basis.dt):
        L, nb = S.shape[1:]
        vb = np.zeros((nb * L, k))  # the group's columns, zero past the record's end
        vb[:b] = V[lo : lo + b]
        S = S.reshape(R, L * nb)
        sq += np.einsum("ij,ij->i", S, S)
        SV += S @ vb.reshape(nb, L, k).transpose(1, 0, 2).reshape(L * nb, k)
        if gram:
            G += S @ S.T
    return sq, G, SV


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
    convolution of -rate*tau*exp(-rate*tau) with u) come from one call of
    ``trapezoid_convolve``, the gains from a QR solve.  With ``min_det`` a set whose
    normalised Gram determinant is at or below it counts as singular.
    None when the set is singular or anything is non-finite.
    """
    k = len(rates)
    cols = trapezoid_convolve(rates, basis.u, basis.dt, derivatives=True)
    phi, deriv = cols[:k], cols[k:]
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
    ``rates0`` itself is singular, by the same determinant test.
    """
    rates0 = np.asarray(rates0, dtype=float)
    cur = project(basis, y, rates0, cfg.allow_impulse, _SINGULAR_DET)
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


def extend_rate_set(
    rates: np.ndarray, SV: np.ndarray, G: np.ndarray | None, prev: Projection, m: int = 1
) -> np.ndarray | None:
    """``prev``'s rates plus the ``m`` in {1, 2} candidates that lower the residual most.

    The candidates' unit-norm responses S, one row per entry of ``rates``, enter through
    SV = S [prev.q, prev.r] and, for pairs, their Gram matrix G = S S' (``Candidates``).
    Against ``prev``'s projection candidate s has residual correlation c = s.r and squared
    norm d = 1 - |q's|^2, and it lowers the squared residual by c^2 / d.  A pair lowers it
    by c' D^-1 c, where D is the pair's block of the reduced Gram matrix G - (S q)(S q)'.
    Sets with prev.det * det <= _SINGULAR_DET are singular and skipped, and the first set
    in lexicographic order wins exact ties.  None when every set is singular.
    """
    SQ, c = SV[:, :-1], SV[:, -1]
    if m == 1:
        det = 1.0 - np.einsum("ij,ij->i", SQ, SQ)
        num = c * c
    else:
        D = G - SQ @ SQ.T
        i, j = np.triu_indices(len(rates), 1)
        d, dij = np.diagonal(D), D[i, j]
        det = d[i] * d[j] - dij * dij
        num = d[j] * c[i] * c[i] - 2.0 * dij * c[i] * c[j] + d[i] * c[j] * c[j]
    ok = prev.det * det > _SINGULAR_DET
    if not ok.any():
        return None
    drop = np.full(len(det), -math.inf)
    drop[ok] = num[ok] / det[ok]
    best = int(np.argmax(drop))
    added = rates[best] if m == 1 else rates[[i[best], j[best]]]
    return np.sort(np.append(prev.rates, added))


def fit_productivity(run: ProcessRun, cfg: FitConfig = FitConfig()) -> FitResult:
    """Best impulse-plus-exponential-sum model for a recorded run.

    Order 0 is the impulse alone (no term at all without allow_impulse).
    Order k refines two starts, in this order: the best candidate pair
    added to the order k-2 fit and the best single candidate added to the
    order k-1 fit (``extend_rate_set``); the lower refined residual wins,
    the first start on a tie.  With allow_impulse the static baseline is
    inside the search space (order 0), so the returned gof never falls
    below fit_fdp's.  Ties between model orders go to the smaller model.
    """
    t, u, y, dt, uu, yy = _common_grid(run)
    if uu == 0.0:
        raise ValueError("input is identically zero; nothing to identify")
    if yy == 0.0:
        raise ValueError("output is identically zero; nothing to identify")
    grid = rate_grid(cfg)
    if len(grid) < cfg.max_modes:
        raise ValueError("rate grid has fewer points than max_modes")
    tau = t - t[0]
    rates = list(grid)
    if cfg.allow_unstable:
        rates += [-r for r in grid if r * float(tau[-1]) <= _MAX_GROWTH_EXPONENT]
    rates = np.sort(np.asarray(rates))

    # the search runs on u and y scaled by powers of two into [0.5, 1) at
    # their largest: exact, and growing-mode responses cannot overflow
    eu, ey = math.frexp(float(np.abs(u).max()))[1], math.frexp(float(np.abs(y).max()))[1]
    basis, ys = ModeBasis(tau, np.ldexp(u, -eu), dt), np.ldexp(y, -ey)

    # fits[k] is the refined fit of order k, None when it has no start, and
    # SV[k] the candidates' products S [q, r] with it, one pass each
    fits = [project(basis, ys, np.empty(0), cfg.allow_impulse)]
    cands = Candidates(basis, rates, cfg.max_modes >= 2, np.column_stack([fits[0].q, fits[0].r]))
    SV = [cands.products]
    for k in range(1, cfg.max_modes + 1):
        starts = []
        for j, m in ((k - 2, 2), (k - 1, 1)):
            if j >= 0 and fits[j] is not None:
                seed = extend_rate_set(cands.rates, SV[j], cands.gram, fits[j], m)
                if seed is not None and not any(np.array_equal(seed, s) for s in starts):
                    starts.append(seed)
        fit = None
        for start in starts:
            trial = refine(basis, ys, start, cfg)
            if trial is not None and (fit is None or trial.residual < fit.residual):
                fit = trial
        fits.append(fit)
        if k < cfg.max_modes:
            SV.append(None if fit is None else cands.dot(np.column_stack([fit.q, fit.r])))
    tie_tol = 1e-12 * math.ldexp(yy, -2 * ey)
    best = None
    for fit in fits[0 if cfg.allow_impulse else 1 :]:
        if fit is not None and (best is None or fit.residual < best.residual - tie_tol):
            best = fit
    if best is None:
        raise ValueError("rate grid exhausted without a finite residual")
    if not len(best.rates) and best.impulse == 0.0:
        raise ValueError("output is orthogonal to every candidate response; nothing to identify")
    try:
        impulse, gains = math.ldexp(best.impulse, ey - eu), [math.ldexp(g, ey - eu) for g in best.gains]
    except OverflowError:
        raise ValueError("fitted gains overflow; input and output scales are too far apart") from None
    modes = tuple(ExponentialMode(g, r) for r, g in sorted(zip(best.rates, gains)))
    r = np.ldexp(best.r, ey)  # the residual of y, exactly
    return FitResult(ProductivityFunction(impulse, modes), _nrmse(y, r, yy), float(np.linalg.norm(r)))
