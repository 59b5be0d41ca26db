"""Seeded return generators with known scaling behavior.

Every generator takes an integer seed and is bit-reproducible: the same
seed yields the same panel on every run. Multi-draw experiments derive
per-call seeds with ``split_seed`` instead of reusing one stream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationFailure, DataError, NumericalError
from .timeseries import ReturnPanel, panel_from_returns

_MASK64 = (1 << 64) - 1

KINDS = ("gaussian_iid", "fgn", "correlated", "epps", "regime_switch", "cascade")

# the scales over which an epps pair's correlation slope is calibrated
EPPS_SCALES = (1, 2, 5, 10, 21)


def split_seed(seed: int, index: int) -> int:
    """Derive an independent 64-bit seed for draw number ``index``.

    SplitMix64 finalizer applied to ``seed + (index+1) * golden``; cheap,
    stateless, and collision-free for the batch sizes used here.
    """
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative description of one synthetic panel.

    ``params`` holds the kind-specific arguments; ``generate`` dispatches.
    """

    kind: str
    n: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}; choose from {KINDS}")
        if int(self.n) < 1:
            raise ValueError("n must be a positive integer")
        if int(self.seed) < 0:
            raise ValueError("seed must be a non-negative integer")


def generate(spec: GeneratorSpec) -> ReturnPanel:
    """Build the panel a ``GeneratorSpec`` describes."""
    p = dict(spec.params)
    if spec.kind == "gaussian_iid":
        return gen_gaussian_iid(spec.n, seed=spec.seed, **p)
    if spec.kind == "fgn":
        return gen_fgn(spec.n, seed=spec.seed, **p)
    if spec.kind == "correlated":
        if "cov" not in p:
            p["cov"] = constant_correlation_cov(
                p.pop("n_assets", 2), p.pop("rho", 0.0), p.pop("sigma_daily", 0.01)
            )
        return gen_correlated(spec.n, seed=spec.seed, **p)
    if spec.kind == "epps":
        return gen_epps(spec.n, seed=spec.seed, **p)
    if spec.kind == "regime_switch":
        return gen_regime_switch(spec.n, seed=spec.seed, **p)
    return gen_multifractal(spec.n, seed=spec.seed, **p)


# ---------------------------------------------------------------------------
# elementary generators

def _check_sigma(sigma_daily):
    if not 0.0 < sigma_daily < math.inf:
        raise ValueError(f"sigma_daily must be positive and finite, got {sigma_daily}")


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


def _fgn_davies_harte(n, hurst, sigma_daily, rng):
    # circulant row [g(0..n-1), 0, g(n-1..1)]; its top-left n x n block is
    # exactly Toeplitz(g) whenever all eigenvalues are non-negative
    gamma = _fgn_autocov(n, hurst, sigma_daily ** 2)
    row = np.concatenate([gamma, [0.0], gamma[-1:0:-1]])
    lam = np.fft.fft(row).real
    if lam.min() < -1e-8 * np.abs(lam).max():
        return None
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


_CHOLESKY_MAX = 1 << 10


def _fgn_draw(n, hurst, sigma_daily, rng):
    """fGn by circulant embedding, else by a dense Cholesky factor when ``n`` allows."""
    r = _fgn_davies_harte(n, hurst, sigma_daily, rng)
    if r is not None:
        return r
    if n > _CHOLESKY_MAX:
        raise NumericalError(
            f"circulant embedding for hurst={hurst} has negative eigenvalues "
            f"and n={n} exceeds the dense fallback limit {_CHOLESKY_MAX}"
        )
    gamma = _fgn_autocov(n, hurst, sigma_daily ** 2)
    k = np.arange(n)
    cov = gamma[np.abs(k[:, None] - k)]
    chol = np.linalg.cholesky(cov)
    return chol @ rng.standard_normal(n)


def gen_fgn(n: int, hurst: float = 0.5, sigma_daily: float = 0.01, seed: int = 0) -> ReturnPanel:
    """Fractional Gaussian noise via circulant embedding.

    Sums of ``m`` consecutive values have variance ``sigma_daily^2 m^{2H}``
    exactly, so the series is the canonical fixture for scaling estimators.
    Falls back to a dense Cholesky factor when the embedding is not
    non-negative definite and ``n`` is small enough to afford it.

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
    c = np.asarray(cov, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"cov must be square, got shape {c.shape}")
    if np.abs(c - c.T).max() > 1e-10 * max(np.abs(c).max(), 1.0):
        raise DataError("cov must be symmetric")
    vals, vecs = np.linalg.eigh((c + c.T) / 2)
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


def calibrate_epps(rho_inf: float, h_rho: float) -> float:
    """Find the lag persistence whose correlation curve has slope ``h_rho``.

    The slope is measured on log correlation vs log scale over
    ``EPPS_SCALES``, matching how the estimator will read it back.
    Deterministic grid search with one refinement pass; each grid of 400
    persistences is evaluated and fitted in one array pass. Raises
    ``CalibrationFailure`` (reporting the nearest achievable pair) when no
    persistence gets within 0.02.
    """
    noise_var = 1.0 / rho_inf - 1.0
    scales = np.asarray(EPPS_SCALES, dtype=float)

    def fit_slopes(thetas):
        return np.polyfit(np.log(scales), np.log(_epps_curves(thetas, noise_var, scales)).T, 1)[0]

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
    log-log slope of correlation against scale over ``EPPS_SCALES``. Both
    assets are unit-variance white at scale one with shared dependence
    hidden in the lag structure, so their own scaling stays diffusive.
    """
    if n < 16:
        raise DataError(f"n={n} too short, need >= 16")
    if not 0.0 < rho_inf <= 1.0:
        raise ValueError(f"rho_inf={rho_inf} outside (0, 1]")
    if not 0.0 < h_rho < 1.0:
        raise ValueError(f"h_rho={h_rho} outside (0, 1)")
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
    if not all(float(p).is_integer() for p in switch_points):
        raise ValueError(f"switch points must be integers, got {list(switch_points)}")
    pts = [int(p) for p in switch_points]
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
    ``hurst_base``, drawn as ``gen_fgn`` draws it and refused where it is.
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
