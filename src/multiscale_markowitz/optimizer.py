"""Fully-invested portfolio construction and closed-form sensitivities.

Everything here minimizes ``w' Sigma w`` (or maximizes a Sharpe ratio)
subject to the budget ``sum(w) = 1``, optionally ``w >= 0`` and a floor
on expected return. One equality-constrained solve, ``min w_F' Sigma_FF
w_F`` over ``R_F w_F = b`` on a free set ``F`` through the Schur
complement ``R_F Sigma_FF^{-1} R_F'``, serves every solver: over all
assets and the budget it is the closed form ``w = Sigma^{-1} 1 / (1'
Sigma^{-1} 1)``, and the inequality-constrained variants run a primal
active-set iteration over it. Every result reports its KKT residual.

The long-only iteration starts from the clipped closed-form support:
the equality-constrained solution on the free assets, with every asset
it does not hold long fixed at zero, repeated until all remaining
weights are positive. That point is feasible and usually on the optimal
support, so the iteration only certifies it or frees the last few
bounds, every bound with a negative multiplier in the same step. A
return floor is solved without it first, and again as a second equality
row when that optimum misses it.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .covariance import MultiscaleCovariance, ScaledCovarianceSet, _condition, check_symmetric
from .errors import DataError, MaxIterationsError, NumericalError, ScaleOneWarning, SensitivitySignWarning
from .timeseries import _check_scales, _integral

MAX_CONDITION = 1e12

_BUDGET_TOL = 1e-10
_BOUND_TOL = 1e-12
# det(S) / prod(diag(S)) at or below which the Schur complement S of the
# constraint rows counts as singular: 1 for orthogonal rows, 0 for dependent
_DEPENDENT_ROWS = 1e-12
_ONE = np.ones(1)


@dataclass(frozen=True, eq=False)
class PortfolioWeights:
    """A fully-invested weight vector with solver diagnostics.

    ``kkt_residual`` is the max-norm of the stationarity condition at the
    solution. ``provenance`` records how the covariance behind it was
    built, read from a ``MultiscaleCovariance`` input: its ``scales``,
    ``covariance`` method, ``aggregation``, ``ridge`` and
    ``psd_repaired``. It is ``{}`` for a plain matrix, and the closed
    form adds its ``lagrange_multiplier`` either way.
    """

    asset_ids: tuple[str, ...]
    weights: np.ndarray
    method: str
    long_only: bool
    kkt_residual: float | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        ids = tuple(str(a) for a in self.asset_ids)
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(ids),):
            raise ValueError(f"weights shape {w.shape} does not match {len(ids)} assets")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if abs(w.sum() - 1.0) > _BUDGET_TOL:
            raise ValueError(f"weights sum to {float(w.sum())}, not 1")
        if self.long_only and w.min() < -_BOUND_TOL:
            raise ValueError(f"long-only weights contain {float(w.min())}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "asset_ids", ids)
        object.__setattr__(self, "weights", w)

    def as_dict(self) -> dict[str, float]:
        return {a: float(v) for a, v in zip(self.asset_ids, self.weights)}


def _as_cov(sigma, asset_ids=None):
    """The matrix, asset ids and provenance record of ``sigma``.

    Every solver and sensitivity enters here. A condition number above
    ``MAX_CONDITION`` is refused, so each later solve on ``sigma`` or a
    principal submatrix of it is well posed.
    """
    if isinstance(sigma, MultiscaleCovariance):
        m, ids, cond = np.asarray(sigma.matrix, dtype=float), sigma.asset_ids, sigma.condition
        record = {"scales": sigma.scales, "covariance": sigma.method,
                  "aggregation": sigma.aggregation, "ridge": sigma.ridge,
                  "psd_repaired": sigma.psd_repaired}
    else:
        m = check_symmetric(sigma, "covariance")
        ids, record = tuple(f"a{j + 1}" for j in range(m.shape[0])), {}
        cond = _condition(np.linalg.eigvalsh(m))
    if cond > MAX_CONDITION:
        raise NumericalError(
            f"covariance condition number {cond:.3e} exceeds {MAX_CONDITION:.0e}"
        )
    if asset_ids is not None:
        if len(asset_ids) != m.shape[0]:
            raise ValueError("asset_ids length does not match the matrix")
        ids = tuple(asset_ids)
    return m, ids, record


def _means(mu, n: int) -> np.ndarray:
    """``mu`` as ``n`` finite floats."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (n,):
        raise ValueError(f"mu shape {mu.shape} does not match {n} assets")
    if not np.isfinite(mu).all():
        k = int(np.flatnonzero(~np.isfinite(mu))[0])
        raise ValueError(f"mu must be finite, got {mu[k]} at asset {k}")
    return mu


def _eqp(m, rows, rhs, free):
    """Solve ``min w_F' M_FF w_F`` over ``R_F w_F = b`` on the free set ``F``.

    With ``X = M_FF^{-1} R_F'`` and ``nu = (R_F X)^{-1} b`` the solution is
    ``w_F = X nu``, and ``2 M_FF w_F = R_F' lambda`` holds with the
    multipliers ``lambda = 2 nu``; both are returned. ``M_FF`` is a
    principal submatrix of a matrix ``_as_cov`` has passed, so
    only the rows can make this fail: the result is ``None`` when ``F``
    has fewer coordinates than there are rows or when ``R_F X`` is
    numerically singular.
    """
    every = free.all()
    r_f = rows if every else rows[:, free]
    if r_f.shape[1] < len(rhs):
        return None
    x = np.linalg.solve(m if every else m[np.ix_(free, free)], r_f.T)
    s = r_f @ x
    if len(rhs) == 1:
        # a 1x1 determinant is the entry itself, and it is at most
        # _DEPENDENT_ROWS times itself exactly when it is not positive
        if s[0, 0] <= 0.0:
            return None
        nu = rhs / s[0, 0]
    else:
        if np.linalg.det(s) <= _DEPENDENT_ROWS * np.prod(np.diag(s)):
            return None
        nu = np.linalg.solve(s, rhs)
    return x @ nu, 2.0 * nu


def min_variance_closed_form(sigma) -> PortfolioWeights:
    """Unconstrained minimum-variance weights on the budget hyperplane.

    ``w = Sigma^{-1} 1 / (1' Sigma^{-1} 1)``; weights may be negative.
    The reported residual checks ``2 Sigma w = lambda 1`` with
    ``lambda = 2 / (1' Sigma^{-1} 1)``.
    """
    m, ids, record = _as_cov(sigma)
    n = m.shape[0]
    step = _eqp(m, np.ones((1, n)), _ONE, np.ones(n, dtype=bool))
    if step is None:
        raise NumericalError("1' Sigma^{-1} 1 is not positive")
    w, lam = step
    residual = float(np.abs(2.0 * m @ w - lam).max())
    record["lagrange_multiplier"] = float(lam[0])
    return PortfolioWeights(ids, w, "min_var", long_only=False,
                            kkt_residual=residual, provenance=record)


# ---------------------------------------------------------------------------
# primal active-set solver for:  min w' Sigma w
#                                s.t. R w = b,  w >= 0

def _support_start(m, a):
    """Feasible start for ``min w' m w`` over ``a' w = 1, w >= 0``.

    Solves the problem without bounds on the free set, fixes every
    coordinate it does not hold positive at zero and repeats; each pass
    fixes at least one more coordinate, so this ends within ``n`` solves.
    Returns the start and the last ``_eqp`` step, which is the active-set
    loop's first step from there. When no coordinate stays positive, the
    start is the single asset with the largest ``a`` and the step ``None``.
    """
    n = m.shape[0]
    free = np.ones(n, dtype=bool)
    while free.any():
        step = _eqp(m, a[None], _ONE, free)
        if step is None:
            break
        keep = step[0] > 0.0
        if keep.all():
            w = np.zeros(n)
            w[free] = step[0]
            return w, step
        free[free] = keep
    k = int(np.argmax(a))
    w = np.zeros(n)
    w[k] = 1.0 / a[k]
    return w, None


def _active_set_qp(m, rows, rhs, start, step=None):
    """Minimize ``w' m w`` over ``rows @ w = rhs`` and ``w >= 0``, from the
    feasible point ``start``. ``step``, when given, is ``_eqp``'s solve on
    the free set of ``start`` and stands in for the first iteration's.

    Each iteration solves on the free set and steps towards that solution
    as far as the bounds allow; a weight the step drives to zero is fixed.
    At the solution of its free set, the terminal test releases every
    bound with a negative multiplier at once. The loop still ends: a
    non-zero step lowers the strictly convex objective, so no free set
    reaches the terminal test twice, and a zero-length step, taken when
    a released weight would go negative, only fixes one released bound
    again. The last released bound left is not fixed again: a bound with
    a negative multiplier, released alone, gets a step that raises its
    weight.

    Returns ``w`` and its KKT residual: the max-norm of the stationarity
    condition on the free coordinates, from the terminal test.
    """
    n = m.shape[0]
    w = np.array(start, dtype=float)
    bound_active = w <= 0.0
    w[bound_active] = 0.0
    max_iter = 50 * (n + 2)
    for _ in range(max_iter):
        free = ~bound_active
        if step is None:
            step = _eqp(m, rows, rhs, free)
        dependent = step is None and len(rhs) == 2
        if dependent:
            # the budget and floor rows are dependent over F, so mu is
            # constant there and the feasible w meets the floor already:
            # solve the budget alone
            step = _eqp(m, rows[:1], rhs[:1], free)
        if step is None:
            raise NumericalError("singular working set in active-set iteration")
        w_free, lam = step
        step = None
        p = -w
        p[free] += w_free
        if np.abs(p).max() <= _BOUND_TOL:
            resid = 2.0 * m @ w - rows[:len(lam)].T @ lam
            if dependent:
                # with mu_F the largest mean on F, a floor multiplier eta
                # adds eta (mu_F - mu_i) to bound i's: take the least eta >= 0
                # that keeps every bound on a lower mean non-negative
                gap = rows[1, free].max() - rows[1]
                lower = bound_active & (gap > 0.0)
                resid += (-resid[lower] / gap[lower]).max(initial=0.0) * gap
            release = bound_active & (resid < -_BOUND_TOL)
            if not release.any():
                return w, float(np.abs(resid[free]).max())
            bound_active[release] = False
            continue
        # ratio test: the first free weight that the least step length
        # below 1 drives to zero blocks the step
        alpha, blocking = 1.0, None
        shrink = np.flatnonzero((p < -_BOUND_TOL) & free)
        if shrink.size:
            ratio = w[shrink] / -p[shrink]
            k = int(np.argmin(ratio))
            if ratio[k] < 1.0:
                alpha, blocking = ratio[k], shrink[k]
        w = np.clip(w + alpha * p, 0.0, None)
        if blocking is not None:
            bound_active[blocking] = True
            w[blocking] = 0.0
    raise MaxIterationsError(f"active-set solver did not converge in {max_iter} iterations")


def min_variance_long_only(sigma, mu=None, mu_target=None) -> PortfolioWeights:
    """Minimum variance with non-negative weights, optional return floor.

    With ``mu`` and ``mu_target`` given, adds ``mu' w >= mu_target``. A
    target above the best single-asset mean is infeasible. Otherwise the
    problem is solved without the floor first; when that optimum misses
    the floor, the floor binds at the optimum (the objective is strictly
    convex), so it is solved again with ``mu' w = mu_target`` as a second
    equality row. Every floor takes this one path, so a target equal to
    the best mean holds only the assets at that mean. The active set is
    resolved exactly: inactive bounds hold as strict inequalities, active
    bounds as exact zeros, and the stationarity residual is reported on
    the result.
    """
    m, ids, record = _as_cov(sigma)
    n = m.shape[0]
    ones = np.ones(n)
    if mu_target is not None:
        if mu is None:
            raise ValueError("mu_target needs mu")
        mu = _means(mu, n)
        mu_target = float(mu_target)
        if not math.isfinite(mu_target):
            raise ValueError(f"mu_target must be finite, got {mu_target}")
        mu_max = float(mu.max())
        if mu_target > mu_max:
            raise NumericalError(
                f"return floor {mu_target} exceeds best asset mean {mu_max}"
            )
    w, residual = _active_set_qp(m, ones[None], _ONE, *_support_start(m, ones))
    if mu_target is not None and mu @ w < mu_target:
        # the floor binds: start on it, part way from w to the best asset
        have = float(mu @ w)
        t = (mu_target - have) / (mu_max - have)
        start = (1.0 - t) * w
        start[int(np.argmax(mu))] += t
        w, residual = _active_set_qp(m, np.vstack([ones, mu]),
                                     np.array([1.0, mu_target]), start)
    w = w / w.sum()
    return PortfolioWeights(ids, w, "min_var", long_only=True,
                            kkt_residual=residual, provenance=record)


def max_sharpe(sigma, mu, risk_free: float = 0.0, long_only: bool = True) -> PortfolioWeights:
    """Maximize ``(mu - r_f)' w / sqrt(w' Sigma w)`` on the budget.

    Requires at least one asset with positive excess return. Both forms
    use the scale-invariance of the ratio: minimize ``y' Sigma y`` over
    ``(mu - r_f)' y = 1`` (and ``y >= 0`` when long-only), report the
    residual at ``y`` and renormalize ``y`` to the budget. Without bounds
    ``y`` is proportional to ``Sigma^{-1} (mu - r_f)``, which must have a
    positive sum.
    """
    m, ids, record = _as_cov(sigma)
    n = m.shape[0]
    mu = _means(mu, n)
    risk_free = float(risk_free)
    if not math.isfinite(risk_free):
        raise ValueError(f"risk_free must be finite, got {risk_free}")
    excess = mu - risk_free
    if excess.max() <= 0.0:
        raise NumericalError(
            f"best excess return is {excess.max():.3e}; Sharpe has no maximum"
        )
    if long_only:
        y, residual = _active_set_qp(m, excess[None], _ONE, *_support_start(m, excess))
    else:
        # excess != 0 and Sigma is positive definite, so this solve exists
        y, lam = _eqp(m, excess[None], _ONE, np.ones(n, dtype=bool))
        residual = float(np.abs(2.0 * m @ y - lam * excess).max())
    total = y.sum()
    if total <= 0.0:
        raise NumericalError(
            "max-Sharpe solution does not renormalize to the budget" if long_only else
            "tangency portfolio is not fully investable (1' Sigma^{-1} excess <= 0)"
        )
    return PortfolioWeights(ids, y / total, "max_sharpe", long_only=long_only,
                            kkt_residual=residual, provenance=record)


# ---------------------------------------------------------------------------
# closed-form sensitivities

@dataclass(frozen=True, eq=False)
class SensitivityReport:
    """Derivatives of the closed-form solution at one asset's variance.

    ``solve_vec`` is ``Sigma^{-1} 1`` and ``solve_total`` its sum; the
    minimum-variance weight of asset ``k`` is ``solve_vec[k] /
    solve_total``. Derivatives are with respect to ``Sigma_kk`` holding
    everything else fixed.
    """

    k: int
    asset_id: str
    solve_vec: np.ndarray
    solve_total: float
    weight: float
    dweight_dvar: float
    dsolve_k_dvar: float
    dtotal_dvar: float
    lagrange_multiplier: float


def _asset_index(k, n: int) -> int:
    """``k`` as an int index into ``n`` assets, or ``ValueError``."""
    index = _integral(k)
    if index is None or not 0 <= index < n:
        raise ValueError(f"asset index {k} outside [0, {n})")
    return index


def sensitivity_to_variance(sigma, k: int, asset_ids=None) -> SensitivityReport:
    """Differentiate the closed-form weights in one diagonal entry.

    ``d s_k / d Sigma_kk = -(Sigma^{-1})_kk s_k``, ``d S / d Sigma_kk =
    -s_k^2`` and ``d w_k / d Sigma_kk = s_k (-(Sigma^{-1})_kk S + s_k^2)
    / S^2`` with ``s = Sigma^{-1} 1``, ``S = sum(s)``. The weight
    derivative is negative whenever ``s_k > 0``; a non-negative value is
    reported with ``SensitivitySignWarning`` since it means the
    unconstrained solution shorts asset ``k``.
    """
    m, ids, _ = _as_cov(sigma, asset_ids)
    n = m.shape[0]
    k = _asset_index(k, n)
    inv = np.linalg.inv(m)
    s = inv @ np.ones(n)
    s_total = float(s.sum())
    if s_total <= 0.0:
        raise NumericalError("1' Sigma^{-1} 1 is not positive")
    sk = float(s[k])
    d_sk = -float(inv[k, k]) * sk
    d_total = -sk ** 2
    d_wk = sk * (-float(inv[k, k]) * s_total + sk ** 2) / s_total ** 2
    if d_wk >= 0.0:
        warnings.warn(
            f"dw/dvar for asset {ids[k]!r} is {d_wk:.3e} >= 0; the "
            "unconstrained solution holds it short",
            SensitivitySignWarning,
            stacklevel=2,
        )
    return SensitivityReport(
        k=k,
        asset_id=ids[k],
        solve_vec=s,
        solve_total=s_total,
        weight=sk / s_total,
        dweight_dvar=d_wk,
        dsolve_k_dvar=d_sk,
        dtotal_dvar=d_total,
        lagrange_multiplier=2.0 / s_total,
    )


def sensitivity_to_hurst(cov_set: ScaledCovarianceSet, k: int, dt: int) -> float:
    """Derivative of asset ``k``'s weight in its own scaling exponent.

    The variance at scale ``dt`` responds to the exponent as
    ``d var / d H = 2 ln(dt) var``, so the weight derivative is the
    variance sensitivity at that scale times this factor. At ``dt = 1``
    the factor vanishes identically and 0 is returned with
    ``ScaleOneWarning``.
    """
    if not isinstance(cov_set, ScaledCovarianceSet):
        raise TypeError("sensitivity_to_hurst reads a ScaledCovarianceSet")
    k = _asset_index(k, cov_set.n_assets)
    m = cov_set.matrix_at(dt)
    if dt == 1:
        warnings.warn("scale 1 carries no exponent information (ln 1 = 0)",
                      ScaleOneWarning, stacklevel=2)
        return 0.0
    rep = sensitivity_to_variance(m, k, asset_ids=cov_set.asset_ids)
    return rep.dweight_dvar * 2.0 * math.log(dt) * float(m[k, k])


def correlation_sensitivity_analytic(sigma, i: int, j: int) -> np.ndarray:
    """Gradient of every closed-form weight in the (i, j) correlation.

    Perturbing the correlation moves ``Sigma_ij`` by ``sqrt(Sigma_ii
    Sigma_jj)``; the chain rule through ``s = Sigma^{-1} 1`` gives the
    full vector ``d w / d rho_ij``.
    """
    m, _, _ = _as_cov(sigma)
    n = m.shape[0]
    i, j = _asset_index(i, n), _asset_index(j, n)
    if i == j:
        raise ValueError(f"need two distinct indices in [0, {n})")
    inv = np.linalg.inv(m)
    s = inv @ np.ones(n)
    s_total = float(s.sum())
    c = math.sqrt(m[i, i] * m[j, j])
    ds = -c * (inv[:, i] * s[j] + inv[:, j] * s[i])
    d_total = float(ds.sum())
    return (ds * s_total - s * d_total) / s_total ** 2


# ---------------------------------------------------------------------------
# risk-target verification

@dataclass(frozen=True)
class TargetCurveRow:
    scale: int
    portfolio_variance: float
    target_variance: float
    ratio: float
    within: bool


@dataclass(frozen=True, eq=False)
class TargetCurveReport:
    """Portfolio variance against a target curve, scale by scale."""

    rows: tuple[TargetCurveRow, ...]
    convention: str

    @property
    def all_within(self) -> bool:
        return all(r.within for r in self.rows)


def check_target_curve(weights, cov_set: ScaledCovarianceSet,
                       sigma_target_daily: float | None = None,
                       hurst_target: float | None = None,
                       target_table: dict | None = None) -> TargetCurveReport:
    """Compare portfolio variance per scale with a risk target curve.

    The default target is the power law ``sigma_target_daily^2 *
    dt^(2 * hurst_target)``, i.e. ``sigma_target_daily`` is a one-period
    standard deviation and the exponent steepens or flattens how risk may
    grow with horizon. Alternatively ``target_table`` maps each scale to
    an explicit variance target.
    """
    if isinstance(weights, PortfolioWeights):
        if weights.asset_ids != cov_set.asset_ids:
            raise DataError(
                f"weights universe {weights.asset_ids} does not match "
                f"covariances {cov_set.asset_ids}"
            )
        w = weights.weights
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (cov_set.n_assets,):
            raise ValueError(
                f"weights shape {w.shape} does not match {cov_set.n_assets} assets"
            )
    if target_table is not None:
        # a fractional scale is refused, not truncated onto an integer one
        targets = {s: float(v) for s, v in zip(_check_scales(target_table),
                                                target_table.values())}
        convention = "explicit per-scale variance targets"
    else:
        if sigma_target_daily is None or hurst_target is None:
            raise ValueError(
                "need sigma_target_daily and hurst_target, or a target_table"
            )
        if not 0.0 < sigma_target_daily < math.inf:
            raise ValueError(f"sigma_target_daily={sigma_target_daily} must be positive and finite")
        if not 0.0 < hurst_target < 1.0:
            raise ValueError(f"hurst_target={hurst_target} outside (0, 1)")
        # float * float gives inf or 0 where float ** 2 would raise OverflowError
        sigma2 = float(sigma_target_daily) * float(sigma_target_daily)
        targets = {s: sigma2 * s ** (2.0 * hurst_target) for s in cov_set.scales}
        convention = (
            "power law: variance(dt) <= sigma_target_daily^2 * dt^(2*hurst_target); "
            "sigma_target_daily is a one-period standard deviation"
        )
    if not all(0.0 < v < math.inf for v in targets.values()):
        raise ValueError(f"target variances must be positive and finite, got {targets}")
    missing = [s for s in cov_set.scales if s not in targets]
    if missing:
        raise ValueError(f"target_table missing scales {missing}")
    rows = []
    for s, m in zip(cov_set.scales, cov_set.matrices):
        pv = float(w @ m @ w)
        tv = targets[s]
        rows.append(TargetCurveRow(
            scale=s,
            portfolio_variance=pv,
            target_variance=tv,
            ratio=pv / tv,
            within=pv <= tv * (1.0 + 1e-12),
        ))
    return TargetCurveReport(rows=tuple(rows), convention=convention)
