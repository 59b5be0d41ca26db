"""Fully-invested portfolio construction and closed-form sensitivities.

Everything here minimizes ``w' Sigma w`` (or maximizes a Sharpe ratio)
subject to the budget ``sum(w) = 1``, optionally ``w >= 0`` and a floor
on expected return. The unconstrained problem has the closed form
``w = Sigma^{-1} 1 / (1' Sigma^{-1} 1)``; inequality-constrained variants
run a primal active-set iteration whose KKT conditions are verified and
reported on every result.

The long-only iteration starts from the clipped closed-form support:
the equality-constrained solution on the free assets, with every asset
it does not hold long fixed at zero, repeated until all remaining
weights are positive. That point is feasible and usually on the optimal
support, so the iteration only certifies it or frees the last few
bounds. The return-floor problem starts from a floor-feasible mix of
equal weights and the best asset instead.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .covariance import MultiscaleCovariance, ScaledCovarianceSet, check_symmetric
from .errors import DataError, MaxIterationsError, NumericalError, ScaleOneWarning, SensitivitySignWarning

MAX_CONDITION = 1e12

_BUDGET_TOL = 1e-10
_BOUND_TOL = 1e-12


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
            raise ValueError(f"weights sum to {w.sum()!r}, not 1")
        if self.long_only and w.min() < -_BOUND_TOL:
            raise ValueError(f"long-only weights contain {w.min()!r}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "asset_ids", ids)
        object.__setattr__(self, "weights", w)

    def as_dict(self) -> dict[str, float]:
        return {a: float(v) for a, v in zip(self.asset_ids, self.weights)}


def _as_cov(sigma, asset_ids=None):
    """The matrix, the asset ids and the provenance record of ``sigma``."""
    if isinstance(sigma, MultiscaleCovariance):
        ids = tuple(asset_ids) if asset_ids is not None else sigma.asset_ids
        record = {"scales": sigma.scales, "covariance": sigma.method,
                  "aggregation": sigma.aggregation, "ridge": sigma.ridge,
                  "psd_repaired": sigma.psd_repaired}
        return np.asarray(sigma.matrix, dtype=float), ids, record
    m = check_symmetric(sigma, "covariance")
    if asset_ids is None:
        asset_ids = tuple(f"a{j + 1}" for j in range(m.shape[0]))
    elif len(asset_ids) != m.shape[0]:
        raise ValueError("asset_ids length does not match the matrix")
    return m, tuple(asset_ids), {}


def _require_invertible(m: np.ndarray) -> None:
    vals = np.linalg.eigvalsh(m)
    if vals[0] <= 0.0 or vals[-1] / vals[0] > MAX_CONDITION:
        cond = math.inf if vals[0] <= 0 else vals[-1] / vals[0]
        raise NumericalError(
            f"covariance condition number {cond:.3e} exceeds {MAX_CONDITION:.0e}"
        )


def min_variance_closed_form(sigma, asset_ids=None) -> PortfolioWeights:
    """Unconstrained minimum-variance weights on the budget hyperplane.

    ``w = Sigma^{-1} 1 / (1' Sigma^{-1} 1)``; weights may be negative.
    The reported residual checks ``2 Sigma w = lambda 1`` with
    ``lambda = 2 / (1' Sigma^{-1} 1)``.
    """
    m, ids, record = _as_cov(sigma, asset_ids)
    _require_invertible(m)
    ones = np.ones(m.shape[0])
    s = np.linalg.solve(m, ones)
    s_total = s.sum()
    if s_total <= 0.0:
        raise NumericalError("1' Sigma^{-1} 1 is not positive")
    w = s / s_total
    lam = 2.0 / s_total
    residual = float(np.abs(2.0 * m @ w - lam).max())
    record["lagrange_multiplier"] = lam
    return PortfolioWeights(ids, w, "min_var", long_only=False,
                            kkt_residual=residual, provenance=record)


# ---------------------------------------------------------------------------
# primal active-set solver for:  min w' Sigma w
#                                s.t. a' w = 1,  w >= 0,  [f' w >= g]

def _eqp_step(m, a, floor_vec, floor_rhs, free, floor_active):
    nf = int(free.sum())
    rows = [a[free]]
    rhs = [1.0]
    if floor_active:
        rows.append(floor_vec[free])
        rhs.append(floor_rhs)
    amat = np.vstack(rows)
    k = np.zeros((nf + len(rhs), nf + len(rhs)))
    k[:nf, :nf] = 2.0 * m[np.ix_(free, free)]
    k[:nf, nf:] = amat.T
    k[nf:, :nf] = amat
    full_rhs = np.concatenate([np.zeros(nf), rhs])
    try:
        sol = np.linalg.solve(k, full_rhs)
        ok = np.allclose(k @ sol, full_rhs, atol=1e-9 * max(1.0, np.abs(full_rhs).max()))
    except np.linalg.LinAlgError:
        ok = False
    if not ok:
        # rank-deficient working set; fall back to the least-squares step,
        # which picks the minimum-norm solution among ties
        sol, *_ = np.linalg.lstsq(k, full_rhs, rcond=None)
        if not np.allclose(k @ sol, full_rhs,
                           atol=1e-7 * max(1.0, np.abs(full_rhs).max())):
            return None
    w_free = sol[:nf]
    nu = sol[nf:]
    return w_free, -nu


def _support_start(m, a):
    """Feasible start for ``min w' m w`` over ``a' w = 1, w >= 0``.

    Solves the problem without bounds on the free set, fixes every
    coordinate it does not hold positive at zero and repeats; each pass
    fixes at least one more coordinate, so this ends within ``n`` solves.
    When no coordinate stays positive, the start is the single asset
    with the largest ``a``.
    """
    n = m.shape[0]
    free = np.ones(n, dtype=bool)
    while free.any():
        x = np.linalg.solve(m[np.ix_(free, free)], a[free])
        total = float(a[free] @ x)
        if total <= 0.0:
            break
        x /= total
        keep = x > 0.0
        if keep.all():
            w = np.zeros(n)
            w[free] = x
            return w
        free[free] = keep
    k = int(np.argmax(a))
    w = np.zeros(n)
    w[k] = 1.0 / a[k]
    return w


def _active_set_qp(m, a, floor_vec=None, floor_rhs=None, start=None):
    n = m.shape[0]
    w = np.array(start, dtype=float)
    bound_active = w <= 0.0
    w[bound_active] = 0.0
    has_floor = floor_vec is not None
    floor_active = bool(has_floor and abs(floor_vec @ w - floor_rhs)
                        <= 1e-10 * max(1.0, abs(floor_rhs)))
    lam = 0.0
    eta = 0.0
    best = w
    max_iter = 50 * (n + 2)
    for _ in range(max_iter):
        free = ~bound_active
        step = _eqp_step(m, a, floor_vec, floor_rhs, free, floor_active)
        if step is None:
            # inconsistent working set: the floor is linearly dependent on
            # the budget over the free coordinates; release it
            if floor_active:
                floor_active = False
                continue
            raise NumericalError("singular working set in active-set iteration")
        w_free, nu = step
        lam = float(nu[0])
        eta = float(nu[1]) if floor_active else 0.0
        target = np.zeros(n)
        target[free] = w_free
        p = target - w
        if np.abs(p).max() <= _BOUND_TOL:
            grad = 2.0 * m @ w
            mu = grad - lam * a
            if has_floor:
                mu = mu - eta * floor_vec
            worst_bound = None
            worst_val = -_BOUND_TOL
            for i in np.flatnonzero(bound_active):
                if mu[i] < worst_val:
                    worst_val = mu[i]
                    worst_bound = i
            if floor_active and eta < -_BOUND_TOL and (
                    worst_bound is None or eta < worst_val):
                floor_active = False
                continue
            if worst_bound is not None:
                bound_active[worst_bound] = False
                continue
            return w, lam, eta, bound_active, floor_active
        alpha = 1.0
        blocking = None
        shrinking = (p < -_BOUND_TOL) & free & (w > 0.0)
        for i in np.flatnonzero(shrinking):
            cand = w[i] / -p[i]
            if cand < alpha:
                alpha = cand
                blocking = ("bound", i)
        if has_floor and not floor_active:
            df = float(floor_vec @ p)
            if df < -_BOUND_TOL:
                slack = float(floor_vec @ w - floor_rhs)
                cand = slack / -df
                if cand < alpha:
                    alpha = cand
                    blocking = ("floor", None)
        w = w + alpha * p
        w[bound_active] = 0.0
        np.clip(w, 0.0, None, out=w)
        best = w
        if blocking is not None:
            kind, idx = blocking
            if kind == "bound":
                bound_active[idx] = True
                w[idx] = 0.0
            else:
                floor_active = True
    raise MaxIterationsError(
        f"active-set solver did not converge in {max_iter} iterations",
        weights=best,
    )


def _kkt_residual(m, a, w, lam, eta, floor_vec, bound_active):
    grad = 2.0 * m @ w
    resid = grad - lam * a
    if floor_vec is not None:
        resid = resid - eta * floor_vec
    mu = np.where(bound_active, resid, 0.0)
    return float(np.abs(resid - mu).max())


def min_variance_long_only(sigma, mu=None, mu_target=None,
                           asset_ids=None) -> PortfolioWeights:
    """Minimum variance with non-negative weights, optional return floor.

    With ``mu`` and ``mu_target`` given, adds ``mu' w >= mu_target``.
    A target above the best single-asset mean is infeasible. The active
    set is resolved exactly: inactive bounds hold as strict inequalities,
    active bounds as exact zeros, and the stationarity residual is
    reported on the result.
    """
    m, ids, record = _as_cov(sigma, asset_ids)
    _require_invertible(m)
    n = m.shape[0]
    ones = np.ones(n)
    floor_vec = None
    floor_rhs = None
    if mu_target is None:
        start = _support_start(m, ones)
    else:
        if mu is None:
            raise ValueError("mu_target needs mu")
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (n,):
            raise ValueError(f"mu shape {mu.shape} does not match {n} assets")
        mu_target = float(mu_target)
        mu_max = float(mu.max())
        if mu_target > mu_max:
            raise NumericalError(
                f"return floor {mu_target} exceeds best asset mean {mu_max}"
            )
        floor_vec = mu
        floor_rhs = mu_target
        start = np.full(n, 1.0 / n)
        have = float(mu @ start)
        if have < mu_target:
            k = int(np.argmax(mu))
            t = (mu_target - have) / (mu_max - have)
            start = (1.0 - t) * start
            start[k] += t
    w, lam, eta, bound_active, floor_active = _active_set_qp(
        m, ones, floor_vec, floor_rhs, start)
    residual = _kkt_residual(m, ones, w, lam, eta if floor_active else 0.0,
                             floor_vec if floor_active else None, bound_active)
    w = w / w.sum()
    return PortfolioWeights(ids, w, "min_var", long_only=True,
                            kkt_residual=residual, provenance=record)


def max_sharpe(sigma, mu, risk_free: float = 0.0, long_only: bool = True,
               asset_ids=None) -> PortfolioWeights:
    """Maximize ``(mu - r_f)' w / sqrt(w' Sigma w)`` on the budget.

    Requires at least one asset with positive excess return. The
    long-only problem is solved through the scale-invariance of the
    ratio: minimize ``y' Sigma y`` over ``(mu - r_f)' y = 1, y >= 0`` and
    renormalize ``y`` to the budget.
    """
    m, ids, record = _as_cov(sigma, asset_ids)
    _require_invertible(m)
    n = m.shape[0]
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (n,):
        raise ValueError(f"mu shape {mu.shape} does not match {n} assets")
    excess = mu - float(risk_free)
    if excess.max() <= 0.0:
        raise NumericalError(
            f"best excess return is {excess.max():.3e}; Sharpe has no maximum"
        )
    if not long_only:
        y = np.linalg.solve(m, excess)
        total = y.sum()
        if total <= 0.0:
            raise NumericalError(
                "tangency portfolio is not fully investable (1' Sigma^{-1} excess <= 0)"
            )
        w = y / total
        lam = 2.0 * float(y @ m @ y)
        residual = float(np.abs(2.0 * m @ y - lam * excess).max())
        return PortfolioWeights(ids, w, "max_sharpe", long_only=False,
                                kkt_residual=residual, provenance=record)
    start = _support_start(m, excess)
    y, lam, eta, bound_active, _ = _active_set_qp(m, excess, None, None, start)
    residual = _kkt_residual(m, excess, y, lam, 0.0, None, bound_active)
    total = y.sum()
    if total <= 0.0:
        raise NumericalError("max-Sharpe solution does not renormalize to the budget")
    w = y / total
    w = np.clip(w, 0.0, None)
    w = w / w.sum()
    return PortfolioWeights(ids, w, "max_sharpe", long_only=True,
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
    if not 0 <= k < n:
        raise ValueError(f"asset index {k} outside [0, {n})")
    _require_invertible(m)
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
    dt = int(dt)
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
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"need two distinct indices in [0, {n})")
    _require_invertible(m)
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
        targets = {int(k): float(v) for k, v in target_table.items()}
        missing = [s for s in cov_set.scales if s not in targets]
        if missing:
            raise ValueError(f"target_table missing scales {missing}")
        convention = "explicit per-scale variance targets"
    else:
        if sigma_target_daily is None or hurst_target is None:
            raise ValueError(
                "need sigma_target_daily and hurst_target, or a target_table"
            )
        if sigma_target_daily <= 0:
            raise ValueError("sigma_target_daily must be positive")
        if not 0.0 < hurst_target < 1.0:
            raise ValueError(f"hurst_target={hurst_target} outside (0, 1)")
        targets = {
            s: sigma_target_daily ** 2 * s ** (2.0 * hurst_target)
            for s in cov_set.scales
        }
        convention = (
            "power law: variance(dt) <= sigma_target_daily^2 * dt^(2*hurst_target); "
            "sigma_target_daily is a one-period standard deviation"
        )
    rows = []
    for s, m in zip(cov_set.scales, cov_set.matrices):
        pv = float(w @ m @ w)
        tv = targets[s]
        rows.append(TargetCurveRow(
            scale=s,
            portfolio_variance=pv,
            target_variance=tv,
            ratio=pv / tv if tv > 0 else math.inf,
            within=pv <= tv * (1.0 + 1e-12),
        ))
    return TargetCurveReport(rows=tuple(rows), convention=convention)
