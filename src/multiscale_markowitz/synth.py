"""Seeded return generators with known scaling behavior.

Every generator takes an integer seed and is bit-reproducible: the same
seed yields the same panel on every run. Multi-draw experiments derive
per-call seeds with ``split_seed`` instead of reusing one stream.
"""
from __future__ import annotations

import math

import numpy as np

from .covariance import check_symmetric
from .errors import CalibrationFailure, DataError, NumericalError
from .scaling import _loglog_fit
from .timeseries import DEFAULT_SCALES, ReturnPanel, _integral, panel_from_returns

_MASK64 = (1 << 64) - 1


def split_seed(seed: int, index: int) -> int:
    """Derive an independent 64-bit seed for draw number ``index``.

    SplitMix64 finalizer applied to ``seed + (index+1) * golden``; cheap,
    stateless, and collision-free for the batch sizes used here.
    """
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


# ---------------------------------------------------------------------------
# elementary generators

def _check_sigma(sigma_daily):
    if not 0.0 < sigma_daily < math.inf:
        raise ValueError(f"sigma_daily must be positive and finite, got {sigma_daily}")
    # float * float gives inf or 0 where float ** 2 would raise OverflowError
    if not 0.0 < float(sigma_daily) * float(sigma_daily) < math.inf:
        raise ValueError(f"sigma_daily={sigma_daily} has a square that is not positive and finite")


def gen_gaussian_iid(n: int, sigma_daily: float = 0.01, seed: int = 0) -> ReturnPanel:
    """Independent Gaussian one-period returns, one asset."""
    if n < 16:
        raise DataError(f"n={n} too short, need >= 16")
    _check_sigma(sigma_daily)
    rng = np.random.default_rng(seed)
    r = sigma_daily * rng.standard_normal(n)
    return panel_from_returns(r)


def _fgn_autocov(n: int, hurst: float, sigma2: float) -> np.ndarray:
    k = np.arange(n, dtype=float)
    two_h = 2.0 * hurst
    return 0.5 * sigma2 * ((k + 1) ** two_h - 2 * k ** two_h + np.abs(k - 1) ** two_h)


def _fgn_draw(n, hurst, sigma_daily, rng):
    """fGn of length ``n`` by circulant embedding (Davies & Harte 1987).

    The circulant row ``[g(0..n-1), c, g(n-1..1)]`` has ``Toeplitz(g)`` as
    its top-left n x n block, so it is the covariance of a longer periodic
    series whenever its eigenvalues are non-negative. ``c = 0`` comes
    first; where it has a negative eigenvalue (large H at short n), the
    minimal embedding ``c = g(n)`` takes its place.
    """
    gamma = _fgn_autocov(n + 1, hurst, sigma_daily ** 2)
    for middle in (0.0, gamma[n]):
        lam = np.fft.fft(np.concatenate([gamma[:n], [middle], gamma[n - 1:0:-1]])).real
        if lam.min() >= -1e-8 * np.abs(lam).max():
            break
    else:
        raise NumericalError(
            f"circulant embedding for hurst={hurst}, n={n} has negative eigenvalues"
        )
    lam = np.clip(lam, 0.0, None)
    m = 2 * n
    v0, vn = rng.standard_normal(2)
    a = rng.standard_normal(n - 1)
    b = rng.standard_normal(n - 1)
    w = np.zeros(m, dtype=complex)
    w[0] = np.sqrt(lam[0] / m) * v0
    w[1:n] = np.sqrt(lam[1:n] / (2 * m)) * (a + 1j * b)
    w[n] = np.sqrt(lam[n] / m) * vn
    w[n + 1:] = np.conj(w[1:n][::-1])
    return np.fft.fft(w)[:n].real


def gen_fgn(n: int, hurst: float = 0.5, sigma_daily: float = 0.01, seed: int = 0) -> ReturnPanel:
    """Fractional Gaussian noise via circulant embedding.

    Sums of ``m`` consecutive values have variance ``sigma_daily^2 m^{2H}``
    exactly, so the series is the canonical fixture for scaling estimators.

    Parameters
    ----------
    n : int
        Sample length; must be a power of two, at least 16.
    hurst : float
        Self-similarity exponent, in (0, 1). 0.5 gives white noise.
    """
    if n < 16 or n & (n - 1):
        raise DataError(f"n={n} must be a power of two >= 16")
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst={hurst} outside (0, 1)")
    _check_sigma(sigma_daily)
    rng = np.random.default_rng(seed)
    return panel_from_returns(_fgn_draw(n, hurst, sigma_daily, rng))


def constant_correlation_cov(n_assets: int, rho: float, sigma_daily: float = 0.01) -> np.ndarray:
    """Covariance with equal volatilities and one pairwise correlation."""
    if n_assets < 1:
        raise ValueError("n_assets must be >= 1")
    if not -1.0 / max(n_assets - 1, 1) <= rho <= 1.0:
        raise ValueError(f"rho={rho} makes the matrix indefinite for {n_assets} assets")
    _check_sigma(sigma_daily)
    c = np.full((n_assets, n_assets), rho)
    np.fill_diagonal(c, 1.0)
    return sigma_daily ** 2 * c


def gen_correlated(n: int, cov: np.ndarray, seed: int = 0) -> ReturnPanel:
    """Gaussian panel with the given daily covariance matrix."""
    if n < 16:
        raise DataError(f"n={n} too short, need >= 16")
    c = check_symmetric(cov, "cov")
    vals, vecs = np.linalg.eigh(c)
    if vals.min() < -1e-8 * max(vals.max(), 1e-300):
        raise DataError(f"cov has negative eigenvalue {vals.min():.3e}")
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((n, c.shape[0])) @ root.T
    return panel_from_returns(r)


# ---------------------------------------------------------------------------
# lead-lag pair with correlation rising in the observation scale

def _epps_curves(thetas: np.ndarray, noise_var: float, scales) -> np.ndarray:
    """Exact block-sum correlation of the lagged-factor pair: a row per theta, a column per scale.

    Asset one is ``f_t`` plus noise; asset two applies the geometric lag
    kernel ``(1-theta) theta^l`` to the same factor, plus noise of equal
    variance. Short blocks miss the lagged mass, so correlation starts low
    and rises toward ``1 / (1 + noise_var)`` as blocks lengthen.
    """
    out = np.empty((len(thetas), len(scales)))
    t = thetas[:, None]
    g0 = (1.0 - t) / (1.0 + t)
    for idx, m in enumerate(scales):
        h = np.arange(m, dtype=float)
        kappa = (1.0 - t) * t ** h
        num = ((m - h) * kappa).sum(axis=1)
        var_x = m * (1.0 + noise_var)
        var_y = m * (g0[:, 0] + noise_var)
        if m > 1:
            hh = np.arange(1.0, m)
            var_y += 2.0 * ((m - hh) * g0 * t ** hh).sum(axis=1)
        out[:, idx] = num / np.sqrt(var_x * var_y)
    return out


def _check_epps(rho_inf, h_rho):
    """Refuse a correlation ceiling outside (0, 1] or a decay exponent outside (0, 1), NaN included."""
    if not 0.0 < rho_inf <= 1.0:
        raise ValueError(f"rho_inf={rho_inf} outside (0, 1]")
    if not 0.0 < h_rho < 1.0:
        raise ValueError(f"h_rho={h_rho} outside (0, 1)")


def calibrate_epps(rho_inf: float, h_rho: float) -> float:
    """Find the lag persistence whose correlation curve has slope ``h_rho``.

    The slope of log correlation against log scale over ``DEFAULT_SCALES``
    comes from ``scaling._loglog_fit``, the fit the estimator reads it back
    with. Deterministic grid search with one refinement pass; each grid of
    400 persistences is evaluated and fitted in one array pass. Raises
    ``CalibrationFailure`` (reporting the nearest achievable pair) when no
    persistence gets within 0.02. Arguments outside ``gen_epps``'s ranges
    raise ``ValueError`` with its messages.
    """
    _check_epps(rho_inf, h_rho)
    noise_var = 1.0 / rho_inf - 1.0

    def fit_slopes(thetas):
        return _loglog_fit(DEFAULT_SCALES, np.log(_epps_curves(thetas, noise_var, DEFAULT_SCALES)).T)[0]

    grid = np.linspace(0.0, 0.995, 400)
    slopes = fit_slopes(grid)
    i = int(np.argmin(np.abs(slopes - h_rho)))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    fine = np.linspace(lo, hi, 400)
    fine_slopes = fit_slopes(fine)
    j = int(np.argmin(np.abs(fine_slopes - h_rho)))
    if abs(fine_slopes[j] - h_rho) > 0.02:
        raise CalibrationFailure(
            f"decay exponent {h_rho} with rho_inf={rho_inf} is unreachable; "
            f"nearest achievable exponent is {fine_slopes[j]:.3f}",
            nearest=(rho_inf, float(fine_slopes[j])),
        )
    return float(fine[j])


def gen_epps(n: int, rho_inf: float = 0.6, h_rho: float = 0.3, seed: int = 0,
             sigma_daily: float = 0.01) -> ReturnPanel:
    """Two-asset panel whose correlation grows with the observation scale.

    ``rho_inf`` is the long-block correlation ceiling; ``h_rho`` the target
    log-log slope of correlation against scale, fitted by
    ``scaling._loglog_fit`` over ``DEFAULT_SCALES``. Both
    assets are unit-variance white at scale one with shared dependence
    hidden in the lag structure, so their own scaling stays diffusive.
    """
    if n < 16:
        raise DataError(f"n={n} too short, need >= 16")
    _check_epps(rho_inf, h_rho)
    _check_sigma(sigma_daily)
    theta = calibrate_epps(rho_inf, h_rho)
    noise_var = 1.0 / rho_inf - 1.0
    amp = math.sqrt(noise_var)
    burn = 0 if theta == 0.0 else min(20000, int(math.log(1e-12) / math.log(theta)) + 1)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(n + burn)
    x = f[burn:] + amp * rng.standard_normal(n)
    # the lag kernel as its recursion y[t] = (1-theta) f[t] + theta y[t-1], y[-1] = 0
    lagged, acc = [], 0.0
    for v in f.tolist():
        acc = (1.0 - theta) * v + theta * acc
        lagged.append(acc)
    y = np.array(lagged[burn:]) + amp * rng.standard_normal(n)
    g0 = (1.0 - theta) / (1.0 + theta)
    r = np.column_stack([
        x / math.sqrt(1.0 + noise_var),
        y / math.sqrt(g0 + noise_var),
    ])
    return panel_from_returns(sigma_daily * r)


# ---------------------------------------------------------------------------
# volatility structure generators

def gen_regime_switch(n: int, sigma_low=0.008, sigma_high=0.02, switch_points=(),
                      seed: int = 0, n_assets: int | None = None) -> ReturnPanel:
    """Gaussian returns whose volatility toggles at fixed times.

    Starts in the low state; each switch point flips every asset to the
    other state. ``sigma_low``/``sigma_high`` may be scalars or per-asset
    sequences.
    """
    if n < 16:
        raise DataError(f"n={n} too short, need >= 16")
    lo = np.atleast_1d(np.asarray(sigma_low, dtype=float))
    hi = np.atleast_1d(np.asarray(sigma_high, dtype=float))
    if n_assets is None:
        n_assets = max(len(lo), len(hi))
    if len(lo) == 1:
        lo = np.full(n_assets, lo[0])
    if len(hi) == 1:
        hi = np.full(n_assets, hi[0])
    if len(lo) != n_assets or len(hi) != n_assets:
        raise ValueError("sigma_low/sigma_high lengths disagree with n_assets")
    if not (np.all(0 < lo) and np.all(lo < hi) and np.all(hi < np.inf)):
        raise ValueError("need 0 < sigma_low < sigma_high < inf per asset")
    pts = [_integral(p) for p in switch_points]
    if None in pts:
        raise ValueError(f"switch points must be integers, got {list(switch_points)}")
    if any(not 0 <= p < n for p in pts) or any(b <= a for a, b in zip(pts, pts[1:])):
        raise DataError(f"switch points {pts} must be strictly increasing in [0, {n})")
    toggles = np.zeros(n)
    for p in pts:
        toggles[p] = 1.0
    high = (np.cumsum(toggles) % 2).astype(bool)
    vol = np.where(high[:, None], hi[None, :], lo[None, :])
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((n, n_assets)) * vol
    return panel_from_returns(r)


def gen_multifractal(n: int, intermittency: float = 0.2, hurst_base: float = 0.5,
                     seed: int = 0, sigma_daily: float = 0.01) -> ReturnPanel:
    """Multiplicative lognormal cascade volatility times a noise series.

    The cascade splits the sample dyadically; each of the ``log2 n`` levels
    multiplies by mean-one lognormal factors with log-variance
    ``intermittency * ln 2``, so the log-volatility variance over the whole
    series is ``intermittency * ln n``. Larger ``intermittency`` widens the
    spread of generalized scaling exponents; zero-adjacent values give an
    essentially monofractal series. The noise is fGn with exponent
    ``hurst_base``, drawn as ``gen_fgn`` draws it.
    """
    depth = int(round(math.log2(n))) if n > 0 else 0
    if n < 16 or 2 ** depth != n or depth < 4:
        raise DataError(f"n={n} must be a power of two with at least 4 dyadic levels")
    if not 0.0 < intermittency <= 0.5:
        raise ValueError(f"intermittency={intermittency} outside (0, 0.5]")
    if not 0.0 < hurst_base < 1.0:
        raise ValueError(f"hurst_base={hurst_base} outside (0, 1)")
    _check_sigma(sigma_daily)
    v = intermittency * math.log(2.0)
    rng = np.random.default_rng(seed)
    log_vol = np.zeros(1)
    for level in range(1, depth + 1):
        log_vol = np.repeat(log_vol, 2) + rng.normal(-v / 2.0, math.sqrt(v), size=2 ** level)
    vol = np.exp(log_vol)
    if hurst_base == 0.5:
        noise = rng.standard_normal(n)
    else:
        noise = _fgn_draw(n, hurst_base, 1.0, rng)
    return panel_from_returns(sigma_daily * vol * noise)
