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
  that fit's projection, the first candidate set winning exact ties.  The
  search runs coarse to fine: it scores the candidates of every third grid
  index, then the fine candidates between a member of its 96 best coarse
  pairs (3 best singles) and that member's coarse neighbours, and picks
  the start among those.  Both starts are refined by variable projection
  (Golub & Pereyra 1973): Levenberg-Marquardt over log|rate| with every
  sign fixed, the gains projected out at each iterate and Kaufman's (1975)
  Jacobian, Nielsen's damping, a rate held at its bound left out of the
  step, and a stop on the relative offset (Bates & Watts 1981).  The
  lower refined residual wins, the pair start on a tie.  Between orders
  the lowest residual wins, and ties go to the smaller model.  All
  responses are the exact trapezoid-rule block sums of ``transient``, and
  the fit's residual is the refined projection's.  The search never holds
  them: a pass gives the coarse candidates' norms, for the pair scan their
  Gram matrix, and their products with the order 0 fit's projection; each
  later order takes one more pass for the previous fit's, and each search
  step one small pass over its zoom, with the zoom's Gram matrix for a
  pair.  Every pass is one walk of
  ``transient.response_moments``, which reads the norms and products from
  block moments of the input in O(R n) time for R candidates and n
  samples, the same with or without the Gram matrix.  Only the Gram passes
  form the responses, in blocks of L = 16 within the same walk,
  O(R L n + R^2 n); the other passes never form them.  R is the coarse
  count (199 of the 594 fine candidates on the default grid for a 20-unit
  record) or the zoom's (about 20 for a single, 100 to 300 for a pair).
  Search memory is O(R L^2 + R^2) whatever n.  Refinement takes each rate
  set's modes and log-rate derivatives from ``trapezoid_convolve``, and a
  projection keeps O(k n) memory for k rates.  The fit runs on copies of
  the input and output scaled by powers of two, which is exact, so that
  growing-mode responses to values near the overflow limit stay finite.
  The whole procedure is deterministic at a fixed BLAS thread count: same
  run, config and thread count, same model.  Threaded BLAS sums dot
  products in an order set by the thread count, so on long records the
  last digits of a fit can change with it.

Goodness of fit is NRMSE, 1 - ||y - yhat|| / ||y - mean(y)||: 1 is an
exact match, 0 means no better than the mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ExponentialMode, ProcessRun, ProductivityFunction, TimeSeries, grid_count, resample, uniform_grid
from .transient import response_moments, trapezoid_convolve

# growing-mode candidates faster than exp(150) over the record overflow
# normal equations well before they could ever be a sane fit
_MAX_GROWTH_EXPONENT = 150.0
# a normalised Gram determinant at or below this marks a rate set as
# singular, in the search and in refinement alike
_SINGULAR_DET = 1e-10
# refinement stops once the fit's relative offset (Bates & Watts 1981) is at most this
_REL_OFFSET = 1e-3
# refinement stops once an accepted step gains less than this fraction
_REL_TOL = 1e-10
# refinement moves each log|rate| by at most this much per step
_MAX_LOG_STEP = 1.0
# a non-uniform run is resampled onto at most this many times the samples of its longer series
_MAX_RESAMPLE = 4
# the pair scan scores this many rows i of candidate pairs (i, j) at a time
_PANEL = 64
# the search scores the candidates of every _STRIDE-th grid index; each step then zooms in on the fine
# candidates within _ZOOM grid indices, of the same sign, of a member of its _KEEP[m] best coarse sets of
# m candidates: those between the member and its coarse neighbours
_STRIDE = 3
_ZOOM = _STRIDE - 1
_KEEP = {1: 3, 2: 96}


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
    # Levenberg-Marquardt trial steps per refinement of a start (an order refines up to two starts);
    # 0 keeps the grid rates
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
        t, u, y, dt = inp.t, inp.values, out.values, float(din.mean())
    else:
        dt = float(min(np.median(din), np.median(dout)))
        t0, t1, longer = max(inp.t[0], out.t[0]), min(inp.t[-1], out.t[-1]), max(len(inp), len(out))
        count = grid_count(t0, t1, dt)
        if count > _MAX_RESAMPLE * longer:
            raise ValueError(
                f"resampling at step {dt!r} needs {count} samples, more than {_MAX_RESAMPLE} times "
                f"the {longer} samples of the longer series"
            )
        t = uniform_grid(t0, t1, dt)
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


@dataclass(frozen=True)
class Projection:
    """Least-squares state of one rate set with the gains projected out.

    ``q`` is an orthonormal basis of the columns (impulse first) and ``det``
    their normalised Gram determinant.  ``r`` is the residual vector
    y - q q'y, formed from ``q`` and ``y`` on each read, and ``residual``
    its squared norm.  ``jtj`` and ``jtr`` are J'J and J'r for Kaufman's
    Jacobian J, dr/d(log|rate_j|) ~ -gain_j * P_perp * D_j, which itself is
    not kept: a projection holds O(k n) memory for k rates and n samples.
    """

    rates: np.ndarray
    residual: float
    impulse: float
    gains: np.ndarray
    q: np.ndarray
    det: float
    y: np.ndarray
    jtj: np.ndarray
    jtr: np.ndarray

    @property
    def r(self) -> np.ndarray:
        return self.y - self.q @ (self.q.T @ self.y)


def project(u: np.ndarray, dt: float, y: np.ndarray, rates: np.ndarray, allow_impulse: bool) -> Projection | None:
    """Gains, residual and Jacobian of y for fixed rates, with u the input sampled at step dt.

    The mode columns and their derivatives with respect to log|rate| (the
    convolution of -rate*tau*exp(-rate*tau) with u) come from one call of
    ``trapezoid_convolve``, the gains from a QR solve.  A set whose normalised Gram
    determinant is at or below ``_SINGULAR_DET`` always counts as singular.
    None when the set is singular or anything is non-finite.
    """
    k = len(rates)
    cols = trapezoid_convolve(rates, u, dt, derivatives=True)
    if allow_impulse:  # u joins the modes and derivatives in one array, so no second copy of the modes is held
        cols = np.concatenate([u[None], cols])
    A, dT = cols[: len(cols) - k].T, cols[len(cols) - k :].T
    Q, R = np.linalg.qr(A)
    norms = np.linalg.norm(A, axis=0)
    if not norms.all():
        return None
    det = float(np.prod((np.diagonal(R) / norms) ** 2))
    if det <= _SINGULAR_DET:
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
    J = Q @ (Q.T @ dT)
    np.subtract(dT, J, out=J)
    np.negative(J, out=J)
    J *= gains
    impulse = float(theta[0]) if allow_impulse else 0.0
    return Projection(rates, residual, impulse, gains, Q, det, y, J.T @ J, J.T @ r)


def refine(
    u: np.ndarray, dt: float, y: np.ndarray, rates0, grow_max: float, cfg: FitConfig = FitConfig()
) -> Projection | None:
    """Variable-projection Levenberg-Marquardt refinement of a rate set.

    Optimises log|rate| jointly with every rate's sign fixed and the gains
    projected out at each iterate (Golub & Pereyra 1973), using Kaufman's
    (1975) Jacobian.  A step is taken only if it strictly lowers the
    residual, so the result is never worse than ``rates0``.  The damping
    follows Nielsen (1999): an accepted step scales it by
    max(1/3, 1 - (2 rho - 1)^3), rho being the gain over the linear
    model's, and refused ones by 2, 4, 8, ...  Rates are bounded to
    [rate_min, rate_max] in magnitude, and growing ones to at most
    ``grow_max``, the caller's growth cutoff.  A rate at a bound whose
    gradient points out of the range is held there for the step, which
    solves for the other rates (a projected step); trial rates are still
    clipped to the range.  A trial that makes the rate set singular
    (``project``'s determinant test, always on) fails like any other.
    Refinement stops when the fit's relative offset over the free rates
    (Bates & Watts 1981) is at most ``_REL_OFFSET``, when an accepted step
    gains less than ``_REL_TOL`` of the residual, when every rate is held,
    or after ``cfg.refine_iterations`` trial steps for this start.  Returns
    None only when ``rates0`` itself is singular, by the same test.
    """
    rates0 = np.asarray(rates0, dtype=float)
    cur = project(u, dt, y, rates0, cfg.allow_impulse)
    if cur is None or not len(rates0):
        return cur
    signs, logs = np.sign(rates0), np.log(np.abs(rates0))
    hi = np.where(signs < 0, grow_max, cfg.rate_max)
    log_lo, log_hi = math.log(cfg.rate_min), np.log(hi)
    lam, nu, moved = 1e-3, 2.0, True
    for _ in range(cfg.refine_iterations):
        if moved:  # cur is new: the rates it leaves free, and its relative offset over them
            g = cur.jtr
            free = ((logs > log_lo) | (g <= 0)) & ((logs < log_hi) | (g >= 0))
            JTJ, gf = cur.jtj[np.ix_(free, free)], g[free]
            p = len(gf)
            if not p or _converged(JTJ, gf, cur.residual, len(y) - p):
                break
            moved = False
        try:
            step = np.linalg.solve(JTJ + lam * np.diag(np.diagonal(JTJ)), -gf)
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(step).all():
            break
        # clip before exp: each log|rate| moves by at most _MAX_LOG_STEP
        move = np.zeros_like(logs)
        move[free] = np.clip(step, -_MAX_LOG_STEP, _MAX_LOG_STEP)
        trial_logs = np.clip(logs + move, log_lo, log_hi)
        rates = signs * np.clip(np.exp(trial_logs), cfg.rate_min, hi)
        trial = project(u, dt, y, rates, cfg.allow_impulse)
        if trial is not None and trial.residual < cur.residual:
            # Nielsen's update from rho, the gain over the linear model's for the step as clipped; at
            # rho >= 1 the factor is 1/3 already, so capping rho there keeps the cube finite
            gain = cur.residual - trial.residual
            d = trial_logs - logs
            predicted = -2.0 * (d @ g) - d @ cur.jtj @ d
            rho = min(gain / predicted, 1.0) if predicted > 0 else 1.0
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu, moved = 2.0, True
            cur, logs = trial, trial_logs
            if gain <= _REL_TOL * cur.residual:
                break
        else:
            lam *= nu
            nu *= 2.0
            if lam > 1e10:
                break
    return cur


def _converged(JTJ: np.ndarray, g: np.ndarray, residual: float, dof: int) -> bool:
    """Whether the relative offset (Bates & Watts 1981) of a fit is at most ``_REL_OFFSET``.

    Its square is g' JTJ^-1 g / p over residual / dof for p rates with J'J = ``JTJ`` and J'r = ``g``:
    the part of the residual in the tangent plane against the rest, per degree of freedom.
    """
    if dof <= 0:
        return False
    try:
        tangent = float(g @ np.linalg.solve(JTJ, g))
    except np.linalg.LinAlgError:
        return False
    return tangent * dof <= _REL_OFFSET**2 * len(g) * residual


def extend_rate_set(
    rates: np.ndarray, SV: np.ndarray, G: np.ndarray | None, prev: Projection, m: int = 1
) -> np.ndarray | None:
    """``prev``'s rates plus the ``m`` in {1, 2} candidates that lower the residual most.

    The candidates' unit-norm responses S, one row per entry of ``rates``, enter through
    SV = S [prev.q, prev.r] and, for pairs, their Gram matrix G = S S' (``fit_productivity``).
    Against ``prev``'s projection candidate s has residual correlation c = s.r and squared
    norm d = 1 - |q's|^2, and it lowers the squared residual by c^2 / d.  A pair lowers it
    by c' D^-1 c, where D is the pair's block of the reduced Gram matrix G - (S q)(S q)'.
    Sets with prev.det * det <= _SINGULAR_DET are singular and skipped, and the first set
    in lexicographic order wins exact ties (``_best_sets``).  None when every set is
    singular.  ``fit_productivity`` calls it on the fine candidates of a zoom.
    """
    best = _best_sets(SV, G, prev.det, m, 1)
    return np.sort(np.append(prev.rates, rates[best[0]])) if len(best) else None


def _best_sets(SV: np.ndarray, G: np.ndarray | None, prev_det: float, m: int, keep: int) -> np.ndarray:
    """The candidate indices of the ``keep`` best sets of ``extend_rate_set``'s scan, best first.

    A (k, m) array with k <= ``keep``, empty when every set is singular.  A NaN score ranks
    first, as ``np.argmax`` takes it, and equal scores in lexicographic order of the sets.  The
    pair scan forms D once and scores the pairs in panels of ``_PANEL`` rows (``_best_pairs``):
    its memory is one R x R array plus O(_PANEL R + keep) for R candidates.
    """
    SQ, c = SV[:, :-1], SV[:, -1]
    if m == 2:
        return _best_pairs(SQ, c, G, prev_det, keep)
    det = 1.0 - np.einsum("ij,ij->i", SQ, SQ)
    ok = np.flatnonzero(prev_det * det > _SINGULAR_DET)
    return ok[_ranked(c[ok] * c[ok] / det[ok], ok, keep), None]


def _ranked(score: np.ndarray, order: np.ndarray, keep: int) -> np.ndarray:
    """Positions of the ``keep`` highest scores, NaN as the highest, ties in ascending ``order``."""
    score = np.where(np.isnan(score), math.inf, score)
    cut = _leaders(score, keep)
    return cut[np.lexsort((order[cut], -score[cut]))[:keep]]


def _leaders(score: np.ndarray, keep: int) -> np.ndarray:
    """Positions of the scores from the ``keep``-th highest up, its ties too: every one when ``keep`` or fewer."""
    if len(score) <= keep:
        return np.arange(len(score))
    return np.flatnonzero(score >= np.partition(score, len(score) - keep)[len(score) - keep])


def _best_pair(SQ: np.ndarray, c: np.ndarray, G: np.ndarray, prev_det: float) -> tuple[int, int] | None:
    """The best pair (i, j) of ``_best_pairs``, None when every pair is singular."""
    best = _best_pairs(SQ, c, G, prev_det, 1)
    return (int(best[0, 0]), int(best[0, 1])) if len(best) else None


def _best_pairs(SQ: np.ndarray, c: np.ndarray, G: np.ndarray, prev_det: float, keep: int) -> np.ndarray:
    """The ``keep`` best pairs i < j of ``extend_rate_set``'s scan, scored in panels of ``_PANEL`` rows i.

    Each panel takes the columns j > i as slices of d, c and D, and scores them in place with
    the expressions and order of operations of the flat upper-triangle form, so every score
    has the same bits.  The panel's nonsingular sets join the best ``keep`` so far, and the
    best ``keep`` of those go on (``_ranked``), so the sets in lexicographic order decide ties.
    """
    R = len(c)
    D = SQ @ SQ.T
    np.subtract(G, D, out=D)
    d = np.diagonal(D)
    score, pos = np.empty(0), np.empty(0, dtype=np.intp)  # the best sets so far, pos = i R + j
    for a in range(0, R - 1, _PANEL):
        b = min(a + _PANEL, R)
        di, ci = d[a:b, None], c[a:b, None]
        dj, cj, dij = d[a + 1 :], c[a + 1 :], D[a:b, a + 1 :]
        t = dij * dij
        det = di * dj
        det -= t
        num = dj * ci
        num *= ci
        np.multiply(2.0, dij, out=t)
        t *= ci
        t *= cj
        num -= t
        np.multiply(di, cj, out=t)
        t *= cj
        num += t
        ok = np.multiply(prev_det, det, out=t) > _SINGULAR_DET
        lead = ok[:, : b - a]  # column j - a - 1 of row i - a holds the set (i, j): keep j > i
        lead[np.tri(*lead.shape, -1, dtype=bool)] = False
        t.fill(-math.inf)
        np.divide(num, det, out=t, where=ok)
        t[np.isnan(t)] = math.inf  # a NaN score ranks first, as np.argmax takes it
        top = _leaders(t.ravel(), keep)
        top = top[ok.ravel()[top]]
        i, j = np.divmod(top, t.shape[1])
        score = np.concatenate([score, t.ravel()[top]])
        pos = np.concatenate([pos, (a + i) * R + (a + 1 + j)])
        best = _ranked(score, pos, keep)
        score, pos = score[best], pos[best]
    return np.column_stack(np.divmod(pos, R))


def fit_productivity(run: ProcessRun, cfg: FitConfig = FitConfig()) -> FitResult:
    """Best impulse-plus-exponential-sum model for a recorded run.

    Order 0 is the impulse alone (no term at all without allow_impulse).
    Order k refines two starts, in this order: the best candidate pair
    added to the order k-2 fit and the best single candidate added to the
    order k-1 fit (``extend_rate_set``); the lower refined residual wins,
    the first start on a tie.  With allow_impulse the static baseline is
    inside the search space (order 0), so the returned gof never falls
    below fit_fdp's.  Ties between model orders go to the smaller model.
    Growing rates, candidates and refined ones alike, stay at or below
    grow_max = min(rate_max, 150 / the run's time span).  The search scores
    the candidates of every ``_STRIDE``-th grid index; each step then zooms
    in on the fine candidates near its ``_KEEP[m]`` best coarse sets, where
    ``extend_rate_set`` picks the start.
    """
    t, u, y, dt, uu, yy = _common_grid(run)
    if uu == 0.0:
        raise ValueError("input is identically zero; nothing to identify")
    if yy == 0.0:
        raise ValueError("output is identically zero; nothing to identify")
    grid = rate_grid(cfg)
    if len(grid) < cfg.max_modes:
        raise ValueError("rate grid has fewer points than max_modes")
    span = float(t[-1] - t[0])  # a subnormal span makes 150 / span inf, and min keeps rate_max
    grow_max = min(cfg.rate_max, _MAX_GROWTH_EXPONENT / span)
    index = np.arange(len(grid))  # each candidate's grid index; its sign is its rate's
    rates = grid
    if cfg.allow_unstable:
        slow = index[grid <= grow_max][::-1]
        rates, index = np.concatenate([-grid[slow], grid]), np.concatenate([slow, index])

    # the search runs on u and y scaled by powers of two into [0.5, 1) at
    # their largest: exact, and growing-mode responses cannot overflow
    eu, ey = math.frexp(float(np.abs(u).max()))[1], math.frexp(float(np.abs(y).max()))[1]
    us, ys = np.ldexp(u, -eu), np.ldexp(y, -ey)

    def moments(at: np.ndarray, fit: Projection, gram: bool = False):
        """(at', S [q, r] of ``fit``, S S' or None) for the unit-norm responses S of rates[at'], where at'
        drops from the positions ``at`` the rates without a response or whose response overflows (a span
        past about 1e155).  Where the input's block moments overflow, the zeros of the Toeplitz matrices
        meet inf and give NaN norms, which drop those rates too."""
        with np.errstate(over="ignore", invalid="ignore"):
            sq, G, sv = response_moments(rates[at], us, dt, np.column_stack([fit.q, fit.r]), gram)
        norms = np.sqrt(sq)
        keep = (norms > 0) & np.isfinite(norms)
        if not keep.all():
            at, norms, sv = at[keep], norms[keep], sv[keep]
            G = None if G is None else G[np.ix_(keep, keep)]
        if G is not None:
            G /= norms[:, None]
            G /= norms
        sv /= norms[:, None]
        return at, sv, G

    def zoom(sets: np.ndarray) -> np.ndarray:
        """Positions of the candidates within _ZOOM grid indices of a coarse member of ``sets``, of its sign."""
        member = np.zeros(len(coarse), dtype=bool)
        member[sets] = True
        p = coarse[member]
        near = (np.abs(index[:, None] - index[p]) <= _ZOOM) & ((rates[:, None] > 0) == (rates[p] > 0))
        return np.flatnonzero(near.any(axis=1))

    # fits[k] is the refined fit of order k, None when it has no start.  The search reads the coarse
    # candidates, every _STRIDE-th grid index, through one response_moments pass per fit below the top
    # order: SV[k] = S [q, r] with fits[k], and for pairs the first pass gives their Gram matrix
    # G = S S' too.  Each search step takes its _KEEP[m] best coarse sets, and one more pass over the
    # fine candidates near them (``zoom``) gives the statistics from which extend_rate_set picks the start.
    fits = [project(us, dt, ys, np.empty(0), cfg.allow_impulse)]
    coarse, SV0, G = moments(np.flatnonzero(index % _STRIDE == 0), fits[0], cfg.max_modes >= 2)
    if not len(coarse) and not cfg.allow_impulse:
        raise ValueError(
            f"no candidate rate has a finite, nonzero response over the run's time span of {span:g}; "
            "rescale the time axis"
        )
    SV = {0: SV0}
    for k in range(1, cfg.max_modes + 1):
        starts = []
        for j, m in ((k - 2, 2), (k - 1, 1)):
            if j >= 0 and fits[j] is not None:
                fine, sv, Gf = moments(zoom(_best_sets(SV[j], G, fits[j].det, m, _KEEP[m])), fits[j], m == 2)
                seed = extend_rate_set(rates[fine], sv, Gf, fits[j], m)
                if seed is not None and not any(np.array_equal(seed, s) for s in starts):
                    starts.append(seed)
        fit = None
        for start in starts:
            trial = refine(us, dt, ys, start, grow_max, cfg)
            if trial is not None and (fit is None or trial.residual < fit.residual):
                fit = trial
        fits.append(fit)
        if k < cfg.max_modes and fit is not None:
            SV[k] = moments(coarse, fit)[1]
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
