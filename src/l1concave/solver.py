"""Path-following cyclic coordinate descent for combined L1 + concave penalties.

The working objective over a standardized design (every column with L2-norm
sqrt(n)) is

    (2n)^-1 ||y - X b||^2 + lambda0 ||b||_1 + sum_j p(|b_j|).

Each coordinate update is the exact global minimizer of its univariate
subproblem, so the objective never increases; every sweep checks this on r'r
and a running penalty sum, both updated per changed coordinate, and a rise is
an internal error, as is a running sum that drifts from its recomputation at
the fit's end. Sweeps run in fixed ascending coordinate order on Python
floats. A screen (one matvec plus the prox's zero-entry threshold) picks an
active set A to sweep until it settles. An A of at most _GRAM_MAX coordinates
sweeps by covariance updates (Friedman, Hastie & Tibshirani 2010, sec. 2.2):
with g = n^-1 X_A'r and G = n^-1 X_A'X_A as floats, a visit reads g_i + b_j,
a change by s takes s G[i] from g and adds n s (s G_ii - 2 g_i) to r'r, and
one n x |A| product catches r up after the phase. Other sweeps update r over
column views of a Fortran copy of the design. Per visit on the desk study
(n = 80), covariance updates cost 1.2-2.1 us against 1.6-3.0 us at the same
|A| = 3-16, and lost at |A| = 28-31 there and 32-35 at n = 500. Convergence
needs a full sweep that changes no coefficient by tol or more. It skips a
zero coordinate only when its target provably stays inside the prox's zero
zone (below zero_threshold * (1 - ZERO_MARGIN)), bounding the target by the
matvec at the start of the sweep plus the total coefficient change since, so
it makes exactly the updates a sweep over all coordinates would. The
certificate checks prox(grad_j + b_j) = b_j on every coordinate not provably
in the zero zone, at the residual and gradient recomputed from scratch,
whose r'r is the fit's rss. One engine runs a whole path from init (zero
when None), setting up the design copy, its buffers and a float mirror of
beta once; each later level starts from the beta, residual, r'r and
gradient its predecessor's certificate computed, the values a fresh start
from the same beta would compute, and a level that changes no coefficient
certifies those arrays. A single fit is a one-level path.

The lasso alone also has an exact path solver, lasso_homotopy, which the
cross-validation folds use; every beta it returns passes the same
certificate, and the levels it cannot certify are left to coordinate descent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .penalty import PenaltySpec, penalty_value, scalar_value

# allowed max |norm^2 / n - 1|: column norms within relative 1e-8 of sqrt(n)
_NORM_SQ_TOL = (1.0 + 1e-8) ** 2 - 1.0
_EPS = np.finfo(float).eps
_RUNNING_RTOL = 1e-9  # allowed drift of the running penalty sum, relative to the start objective
_GRAM_MAX = 24  # active sets up to this size sweep by covariance updates (module docstring)

# computable-solution premises: ||b||_0 <= CERT_SPARSITY * s_hat,
# ||n^-1 X'(y - Xb)||_inf <= CERT_RESIDUAL * lambda0 and lam >= CERT_LEVEL * lambda0;
# the theory only fixes the O(lambda0) order of the residual bound
CERT_SPARSITY = 3.0
CERT_RESIDUAL = 4.0
CERT_LEVEL = 1.0


class DegenerateColumnError(ValueError):
    """A design column has zero norm and cannot be standardized."""


@dataclass
class RegressionProblem:
    """Design and response for one fit; the fitters take the penalty as an argument.

    X may have any column scale; the fitters require every column to have
    L2-norm sqrt(n) (the output of standardize()), so that all coordinates
    share unit curvature, and raise ValueError naming the worst column.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=float).ravel()
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-d array")
        n, p = self.X.shape
        if n < 1 or p < 1:
            raise ValueError("X must have at least one row and one column")
        if len(self.y) != n:
            raise ValueError(f"length of y ({len(self.y)}) does not match rows of X ({n})")
        if not np.all(np.isfinite(self.X)) or not np.all(np.isfinite(self.y)):
            raise ValueError("X and y must be finite")


@dataclass
class FitResult:
    """One solver run: coefficients plus convergence and certificate record."""

    beta: np.ndarray
    support: np.ndarray
    objective: float  # rss / (2n) + the penalty at beta
    rss: float  # r'r of the residual r = y - X beta, recomputed by the certificate
    iterations: int
    converged: bool
    kkt_inf: float
    coordinatewise_global: bool
    penalty: PenaltySpec
    sweep_objectives: np.ndarray  # objective at the start and after every sweep

    @property
    def nnz(self) -> int:
        return int(self.support.size)


@dataclass
class PathResult:
    """Fits along a strictly decreasing concave-level grid, warm-started."""

    fits: list[FitResult]  # fits[k].penalty.lam is level k


@dataclass
class CertificateReport:
    """Computable-solution certificate: sparsity, residual correlation, lambda floor."""

    sparsity_ok: bool
    residual_ok: bool
    lambda_ok: bool
    sparsity_bound: float
    residual_bound: float
    lambda_floor: float


def center(X, y) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Center y and the columns of X, for models with an intercept.

    Returns (X_centered, y_centered, column_means, y_mean). After fitting
    coefficients b on the centered data, the intercept is
    y_mean - column_means @ b.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    x_means = X.mean(axis=0)
    y_mean = float(y.mean())
    return X - x_means, y - y_mean, x_means, y_mean


def standardize(X) -> tuple[np.ndarray, np.ndarray]:
    """Rescale every column of X to L2-norm sqrt(n).

    Returns (X_std, scales) with X_std[:, j] = scales[j] * X[:, j]. A
    coefficient vector b fitted on X_std corresponds to scales * b on the
    original design. Idempotent. Raises DegenerateColumnError naming the
    first zero-norm column.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    norms = np.sqrt((X**2).sum(axis=0))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateColumnError(f"column {int(zero[0])} has zero norm")
    scales = math.sqrt(n) / norms
    return X * scales, scales


def universal_lambda0(n: int, p: int, c: float) -> float:
    """c * sqrt(log(max(n, p)) / n), the universal L1 level.

    The dimension enters as max(n, p), the convention used in all bounds.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if n < 1:
        raise ValueError("n must be at least 1")
    if c < 0:
        raise ValueError("c must be nonnegative")
    return c * math.sqrt(math.log(max(n, p)) / n)


def default_lambda_grid(X, y, num: int = 50, ratio: float = 0.01) -> np.ndarray:
    """Geometric grid from lambda_max = ||n^-1 X'y||_inf (1 if X'y = 0) down to ratio *
    lambda_max; its top is lifted past any dot product's rounding of n^-1 x_j'y."""
    if num < 1 or not 0.0 < ratio < 1.0:
        raise ValueError(f"need num >= 1 and 0 < ratio < 1, got num={num} and ratio={ratio}")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, p = X.shape
    lam_max = float(np.max(np.abs(X.T @ y)) / n)
    if lam_max <= 0.0:
        return np.geomspace(1.0, ratio, num)
    grid = np.geomspace(lam_max, ratio * lam_max, num)
    grid[0] = lam_max + _rounding(n, p, float(y.dot(y)))
    return grid


def level_grid(values) -> np.ndarray:
    """values as a float array; ValueError unless nonempty, positive and strictly decreasing."""
    grid = np.asarray(values, dtype=float).ravel()
    if grid.size == 0 or not np.all(grid > 0.0) or not np.all(np.diff(grid) < 0.0):
        raise ValueError("a level grid must be nonempty, positive and strictly decreasing")
    return grid


def objective_value(X, y, beta, p: PenaltySpec) -> float:
    """The penalized least-squares objective recomputed from scratch."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    beta = np.asarray(beta, dtype=float).ravel()
    r, ab = y - X @ beta, np.abs(beta)
    pen = p.lambda0 * ab.sum() + penalty_value(p, ab).sum()
    return float(r @ r) / (2.0 * X.shape[0]) + float(pen)


def _penalty_sum(beta, p: PenaltySpec, pval) -> float:
    """lambda0 ||beta||_1 + sum_j p(|b_j|), with pval = scalar_value(p): the
    terms lambda0 t + pval(t) over the support's t = |b_j|, added left to
    right, as the engine's running sum adds them; a zero adds exactly 0.0."""
    return sum((p.lambda0 * t + pval(t) for t in np.abs(beta[beta.nonzero()]).tolist()), 0.0)


def _design(X):
    """Fortran copy, its column views and max |norm^2 / n - 1| of X; raises
    ValueError naming the worst column if that exceeds _NORM_SQ_TOL."""
    sq = (X**2).sum(axis=0)
    dev = np.abs(sq / X.shape[0] - 1.0)
    j = int(np.argmax(dev))
    if dev[j] > _NORM_SQ_TOL:
        raise ValueError(f"column {j} has norm {math.sqrt(sq[j]):.6g}, not sqrt(n)="
                         f"{math.sqrt(X.shape[0]):.6g}; run standardize() first")
    Xf = np.asfortranarray(X)
    return Xf, [Xf[:, k] for k in range(X.shape[1])], float(dev[j])


def _rounding(n, p, rr) -> float:
    """A bound on the rounding of any dot product n^-1 x_j'r where r'r = rr."""
    return 4.0 * (n + p) * _EPS * math.sqrt(rr / n)


def _residual(Xf, y, beta):
    """The residual r = y - X beta, the gradient n^-1 X'r and r'r, from scratch."""
    r = y - Xf.dot(beta)
    return r, Xf.T.dot(r) / Xf.shape[0], float(r.dot(r))


def _certificate(grad, beta, prox, zero_zone, tol):
    """||grad||_inf and the coordinatewise-global check of beta at its gradient:
    |prox(grad_j + b_j) - b_j| < 10 tol on every coordinate except the zeros
    with |grad_j| in the zero zone, where prox(grad_j) = 0 exactly."""
    ag = np.abs(grad)
    check = ((beta != 0.0) | (ag > zero_zone)).nonzero()[0]
    cw_dev = max((abs(prox(g + b) - b) for g, b in zip(grad[check].tolist(), beta[check].tolist())),
                 default=0.0)
    return float(ag.max()), cw_dev < 10.0 * tol


def _check_settings(tol, max_iter):
    if not 0.0 < tol < math.inf or max_iter < 1:
        raise ValueError(f"need finite tol > 0 and max_iter >= 1, got tol={tol} and "
                         f"max_iter={max_iter}")


def _cd_path(X, y, specs, init, tol, max_iter):
    """Shared coordinate-descent engine on a standardized X.

    Fits each penalty of specs in turn, the first from init (zero when None)
    and each later one from the fit before, with that fit's certified
    residual and gradient: the arrays a fresh start from the same beta would
    compute. Yields one FitResult per penalty, each with its own copy of beta."""
    Xf, cols, col_dev = _design(X)
    n, p = Xf.shape
    beta = np.zeros(p) if init is None else np.array(init, dtype=float).ravel()
    if beta.size != p:
        raise ValueError("init has wrong length")
    r, grad, rr = _residual(Xf, y, beta)
    _check_settings(tol, max_iter)
    from .scalar_prox import ZERO_MARGIN, make_prox, zero_threshold

    bl = beta.tolist()  # float mirror of beta for the sweep loops

    # |x_j'x_k| / n <= 1 + col_dev (Cauchy-Schwarz); fp bounds the rounding of
    # the dot products and residual updates relative to the residual's scale
    fp = 4.0 * (n + p) * _EPS
    grow = (1.0 + col_dev) * (1.0 + fp)
    buf, mul, add = np.empty(n), np.multiply, np.add
    no_room = [-math.inf] * p  # the residual sweeps of a large active set skip nothing
    n2, c4 = 2.0 * n, 4.0 * col_dev
    changes, gram_set = 0, None  # coordinate changes so far; the active set G belongs to

    def moved(j, bj, nb):
        # a changed coordinate: beta, its mirror, the running sums and the count
        nonlocal pen, bb, changes
        changes += 1
        beta[j] = bl[j] = nb
        anb, abj = abs(nb), abs(bj)
        pen += (l0 * anb + pval(anb)) - (l0 * abj + pval(abj))
        bb += nb * nb - bj * bj

    def descent(delta) -> float:
        # the objective may not rise across a sweep of either kind
        nonlocal prev_obj
        obj = rr / n2 + pen
        slack = 1e-12 * max(1.0, abs(prev_obj)) + c4 * (1.0 + bb)
        if obj > prev_obj + slack:
            raise RuntimeError(f"objective increased across a sweep ({prev_obj!r} -> "
                               f"{obj!r}); this indicates a prox bug")
        prev_obj = obj
        objs.append(obj)
        return delta

    def sweep(idx, room, cap=math.inf) -> float:
        # room[j] is how far |z_j| sat below the zero zone's edge, less a
        # rounding guard, when the sweep began; a zero coordinate is skipped
        # while bound = grow * drift, with drift the change summed over this
        # sweep, cannot have lifted |z_j| out of the zone. idx may leave out
        # zero coordinates with room[j] >= cap: once bound passes cap, its
        # tail becomes every later coordinate (the loop reads idx by position)
        nonlocal rr
        delta = drift = bound = 0.0
        for j in idx:
            bj = bl[j]
            if bj == 0.0 and bound <= room[j]:
                continue
            xj = cols[j]
            nb = prox(float(xj.dot(r)) / n + bj)
            if nb != bj:
                step = bj - nb
                mul(xj, step, buf)
                add(r, buf, r)
                moved(j, bj, nb)
                d = abs(step)
                drift += d
                bound = grow * drift
                if bound > cap:
                    idx[idx.index(j) + 1:] = range(j + 1, p)
                    cap = math.inf
                if d > delta:
                    delta = d
        rr = float(r.dot(r))  # kept for the closing full sweep's rounding guard
        return descent(delta)

    def gram_sweep(idx, G, gA) -> float:
        # gA[i] = n^-1 x_j'r for j = idx[i] and G = n^-1 X_A'X_A; r waits
        nonlocal rr
        delta, m = 0.0, len(idx)
        for i, j in enumerate(idx):
            bj, gi = bl[j], gA[i]
            nb = prox(gi + bj)
            if nb != bj:
                step = nb - bj
                Gi = G[i]
                rr += n * step * (step * Gi[i] - 2.0 * gi)
                for k in range(m):
                    gA[k] -= step * Gi[k]
                moved(j, bj, nb)
                if abs(step) > delta:
                    delta = abs(step)
        return descent(delta)

    for penalty in specs:
        prox = make_prox(penalty)
        pval, l0 = scalar_value(penalty), penalty.lambda0
        zthr = zero_threshold(penalty)
        zero_zone = zthr * (1.0 - ZERO_MARGIN)  # prox returns exactly 0.0 up to here
        pen, bb = _penalty_sum(beta, penalty, pval), float(beta.dot(beta))  # running sums
        prev_obj = start_obj = rr / n2 + pen
        objs = [prev_obj]

        sweeps, converged, level_start = 0, False, changes
        g = grad  # n^-1 X'r; the first screen reads the start's gradient
        while True:
            active = ((beta != 0.0) | (np.abs(g + beta) > zthr)).nonzero()[0].tolist()
            phase_start = changes
            if active:
                gram = len(active) <= _GRAM_MAX
                if gram and active != gram_set:  # else the last Gram block serves
                    XA, gram_set = Xf[:, active], active
                    G = (XA.T.dot(XA) / n).tolist()
                gA, start = g[active].tolist(), beta[active]
                while sweeps < max_iter:
                    sweeps += 1
                    delta = gram_sweep(active, G, gA) if gram else sweep(active, no_room)
                    if delta < tol:
                        break
                if gram and changes > phase_start:  # one n x |A| product catches r up
                    r -= XA.dot(beta[active] - start)
                    rr = float(r.dot(r))
            if sweeps >= max_iter:
                break
            if changes > phase_start:  # else r, and so g, is unchanged since the screen
                g = Xf.T.dot(r) / n
            sweeps += 1
            room = zero_zone - _rounding(n, p, rr) - np.abs(g)  # r is unchanged since rr was taken
            # the zeros this sweep skips for as long as bound <= cap
            out = (beta == 0.0) & (room >= 0.0)
            skip = room[out]
            cap = float(skip.min()) if skip.size else math.inf
            delta = sweep((~out).nonzero()[0].tolist(), room, cap)
            if delta < tol:
                converged = True
                break
            if sweeps >= max_iter:
                break
            g = Xf.T.dot(r) / n

        if changes > level_start:  # else the start's r and gradient are this beta's
            r, grad, rr = _residual(Xf, y, beta)
        kkt_inf, certified = _certificate(grad, beta, prox, zero_zone, tol)
        pen_fresh = _penalty_sum(beta, penalty, pval)
        if abs(pen - pen_fresh) > _RUNNING_RTOL * start_obj:
            raise RuntimeError(f"running penalty sum {pen!r} disagrees with its "
                               f"recomputation {pen_fresh!r}")
        yield FitResult(
            beta=beta.copy(),
            support=beta.nonzero()[0],
            objective=rr / n2 + pen_fresh,
            rss=rr,
            iterations=sweeps,
            converged=converged,
            kkt_inf=kkt_inf,
            coordinatewise_global=bool(converged and certified),
            penalty=penalty,
            sweep_objectives=np.asarray(objs),
        )


def fit_combined(prob: RegressionProblem, spec: PenaltySpec, *, init=None, tol: float = 1e-7,
                 max_iter: int = 1000) -> FitResult:
    """Cyclic coordinate descent where every update is the exact scalar global
    minimizer for the combined penalty spec; the lasso is spec = PenaltySpec("l1", lam)."""
    return next(_cd_path(prob.X, prob.y, [spec], init, tol, max_iter))


def fit_path(prob: RegressionProblem, spec: PenaltySpec, lambda_grid, *, init=None,
             tol: float = 1e-7, max_iter: int = 1000) -> PathResult:
    """Warm-started fits along a strictly decreasing concave-level grid.

    Every fit uses spec with its level lam replaced by the grid value;
    lambda0 and the shape come from spec. The first fit starts from init
    (zero when None), each later one from the fit before, with that fit's
    certified residual and gradient. Per-fit nonconvergence is recorded in
    the fit flags; the path never aborts.
    """
    specs = [replace(spec, lam=float(lam)) for lam in level_grid(lambda_grid)]
    return PathResult(fits=list(_cd_path(prob.X, prob.y, specs, init, tol, max_iter)))


def lasso_homotopy(prob: RegressionProblem, levels, *, tol: float = 1e-7,
                   max_iter: int = 1000) -> list[np.ndarray]:
    """Lasso solutions on prob's standardized X at strictly decreasing L1 levels, by homotopy.

    The lasso solution is piecewise linear in its level (Osborne, Presnell &
    Turlach 2000; the LARS-lasso of Efron et al. 2004). From lambda_max =
    ||n^-1 X'y||_inf down, each step holds the active set A and its signs s,
    on which b_A(l) = G_AA^-1 (n^-1 X_A'y - l s) with G = X'X/n, and ends
    where a variable enters or a coefficient reaches zero; the levels on the
    way are read off that segment. A variable just dropped may not re-enter
    with its old sign at the drop, nor one just added drop at its entry. Only
    the columns X'x_j/n of entered j are formed, never all of G.

    Returns the beta of the leading levels, each passing the check that
    closes every coordinate-descent fit (_certificate at tol). The list stops
    at the first level that fails it or that the path does not reach: within
    max_iter steps, with fewer than n variables active, and with G_AA
    nonsingular. The caller fits the remaining levels by coordinate descent.
    """
    _check_settings(tol, max_iter)
    from .scalar_prox import ZERO_MARGIN, make_prox, zero_threshold

    levels = level_grid(levels)
    Xf, y = _design(prob.X)[0], prob.y
    n, p = Xf.shape
    c0 = Xf.T @ y / n
    GA = np.empty((p, min(n, p)), order="F")  # column i is X'x_j/n for j = act[i]
    act, sgn = [], []  # A and s, in the same order
    inactive = np.ones(p, dtype=bool)
    ud = np.empty((0, 2))  # b_A(l) = ud[:, 0] - l ud[:, 1] on the current segment
    lam, fresh, barred = math.inf, -1, None
    out: list[np.ndarray] = []
    steps = 0
    while True:
        m = len(act)
        u, d = ud[:, 0], ud[:, 1]
        e, a = c0 - GA[:, :m] @ u, GA[:, :m] @ d
        # n^-1 x_j'r(l) = e_j + l a_j for inactive j; it reaches +l or -l at
        # the roots in rows 0 and 1
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = np.stack([e / (1.0 - a), -e / (1.0 + a)])
            drops = u / d
        if barred is not None:
            roots[barred] = np.nan
        roots[:, ~inactive] = np.nan
        roots = np.where((roots > 0.0) & (roots < lam), roots, 0.0)
        drops = np.where((drops > 0.0) & (drops < lam) & (np.asarray(act) != fresh), drops, 0.0)
        enter = int(np.argmax(roots))
        drop = int(np.argmax(drops)) if m else -1
        at = max(roots.flat[enter], drops[drop] if m else 0.0)

        while len(out) < levels.size and levels[len(out)] >= at:
            level = float(levels[len(out)])
            beta = np.zeros(p)
            beta[act] = u - level * d
            spec = PenaltySpec("l1", level)
            zero_zone = zero_threshold(spec) * (1.0 - ZERO_MARGIN)
            grad = _residual(Xf, y, beta)[1]
            if not _certificate(grad, beta, make_prox(spec), zero_zone, tol)[1]:
                return out
            out.append(beta)
        steps += 1
        if len(out) == levels.size or steps > max_iter:
            return out

        if m and drops[drop] == at:
            j = act[drop]
            barred = (0 if sgn[drop] > 0.0 else 1, j)
            act[drop], sgn[drop] = act[-1], sgn[-1]
            GA[:, drop] = GA[:, m - 1]
            act.pop()
            sgn.pop()
            inactive[j] = True
            fresh = -1
        else:
            if m + 1 >= n:
                return out
            sign, j = divmod(enter, p)
            GA[:, m] = Xf.T @ Xf[:, j] / n
            act.append(j)
            sgn.append(-1.0 if sign else 1.0)
            inactive[j] = False
            fresh, barred = j, None
        lam = at
        try:
            ud = np.linalg.solve(GA[act, :len(act)], np.column_stack([c0[act], sgn]))
        except np.linalg.LinAlgError:
            return out


def computable_certificate(fit: FitResult, s_hat: int) -> CertificateReport:
    """Check the computable-solution premises on a finished fit, at the fit's
    own lambda0 and the module constants CERT_SPARSITY, CERT_RESIDUAL and
    CERT_LEVEL."""
    l0 = fit.penalty.lambda0
    sparsity, residual, floor = CERT_SPARSITY * s_hat, CERT_RESIDUAL * l0, CERT_LEVEL * l0
    return CertificateReport(
        sparsity_ok=fit.nnz <= sparsity,
        residual_ok=fit.kkt_inf <= residual,
        lambda_ok=fit.penalty.lam >= floor,
        sparsity_bound=sparsity,
        residual_bound=residual,
        lambda_floor=floor,
    )


def refit_ls(prob: RegressionProblem, support) -> np.ndarray:
    """Least squares on the support columns, zeros elsewhere.

    With the true support this is the oracle estimator. Raises if the
    support is larger than n or the submatrix is rank deficient (the error
    names its condition number).
    """
    support = np.asarray(support, dtype=int).ravel()
    p = prob.X.shape[1]
    beta = np.zeros(p)
    if support.size == 0:
        return beta
    if np.unique(support).size != support.size:
        raise ValueError("support contains duplicate indices")
    if support.min() < 0 or support.max() >= p:
        raise ValueError("support index out of range")
    if support.size > prob.X.shape[0]:
        raise ValueError("support larger than the sample size")
    coef, _, _, sv = np.linalg.lstsq(prob.X[:, support], prob.y, rcond=None)
    if sv[-1] <= sv[0] * 1e-10:
        cond = math.inf if sv[-1] == 0.0 else sv[0] / sv[-1]
        raise ValueError(f"support submatrix is rank deficient (condition number {cond:.3e})")
    beta[support] = coef
    return beta
