"""Scaling-law estimation: structure functions, Hurst exponents, MF-DFA,
and the scale dependence of cross-correlations.

Every exponent the module reports is a slope of one law, a fluctuation
statistic growing as a power of the observation scale, and every slope
comes from one log-log fit, ``_loglog_fit``. Structure functions read
moments of block sums directly; detrended fluctuation analysis works on
the integrated profile and is robust to polynomial trends; the correlation
estimator tracks how the dependence between two assets builds up with scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .timeseries import ReturnPanel, _block_sums_each, _check_phase_rows, _check_scales, _integral

DEFAULT_SCALES = (1, 2, 5, 10, 21)
DEFAULT_Q_GRID = (-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0)


class HurstEstimate(NamedTuple):
    value: float
    stderr: float


def _series_and_name(obj, asset):
    """Accept a 1-D array or a panel plus asset id; return (values, name)."""
    if isinstance(obj, ReturnPanel):
        if asset is None:
            if obj.n_assets != 1:
                raise ValueError("asset id required for a multi-asset panel")
            return obj.returns[:, 0], obj.asset_ids[0]
        return obj.column(asset), asset
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D series, got shape {arr.shape}")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"series value at index {bad[0]} is {arr[bad[0]]}, not finite")
    return arr, ("series" if asset is None else str(asset))


def _abs_moments(x, q_grid, scales):
    """Checked scales and the structure functions of ``x``: row ``i``, column
    ``j`` is the phase average of ``mean(|block sum|^q_j)`` at ``scales[i]``.

    Every scale's block sums come from one prefix sum, and each scale's
    ``|block sum|`` is taken once for the whole q grid.
    """
    if not np.any(x != 0.0):
        raise DataError("all base returns are zero")
    scales = _check_scales(scales)
    for dt in scales:
        _check_phase_rows(len(x), dt)
    moments = np.empty((len(scales), len(q_grid)))
    for si, (dt, b) in enumerate(zip(scales, _block_sums_each(x, scales))):
        moments[si] = _phase_moments(np.abs(b), dt, q_grid)
    return scales, moments


def _dot(u, v):
    """``u @ v`` for 1-D arrays, summed by numpy rather than BLAS: a threaded
    BLAS splits a long sum by its thread count, so its last bits would
    follow the host's thread setting."""
    return np.einsum("i,i->", u, v)


def _phase_moments(a, dt, q_grid):
    """Mean over the phases ``p`` of ``mean(a[p::dt] ** q)``, for each ``q``
    of ``q_grid``: one power and one weighted sum over all of ``a`` per order.

    Each order is reduced on its own, so an order's moment does not depend
    on the orders beside it in the grid.
    """
    # row k belongs to phase p = k % dt, which holds n_p rows and gives
    # each of them the weight 1 / (dt * n_p)
    m, r = divmod(len(a), dt)
    w_p = 1.0 / (dt * np.array([m + 1] * r + [m] * (dt - r), dtype=float))
    w = np.broadcast_to(w_p, (m + (r > 0), dt)).reshape(-1)[: len(a)]
    return [float(_dot(a ** q, w)) for q in q_grid]


def _log(moments):
    """``np.log`` without warnings: a moment <= 0 gives a log that ``_loglog_fit`` refuses."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(np.asarray(moments, dtype=float))


def _loglog_fit(scales, log_m):
    """OLS slope, its standard error and R^2 of each column of ``log_m``
    against ``log(scales)``, as three arrays.

    ``log_m`` has one row per scale. Each column is summed on its own, as a
    contiguous row of the transpose and never through a matrix product, so
    its fit does not depend on the columns beside it. ``r2`` is 1.0 for an
    exact fit, including the constant case.
    """
    s = np.asarray(scales, dtype=float)
    if len(s) < 3:
        raise DataError(f"need >= 3 scales to fit, got {len(s)}")
    if np.any(s <= 0):
        raise ValueError("scales must be positive")
    y = np.ascontiguousarray(np.asarray(log_m, dtype=float).T)
    if not np.all(np.isfinite(y)):
        raise DataError("moments must be positive and finite for a log-log fit")
    x = np.log(s)
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    if sxx == 0.0:
        raise ValueError("scales must be distinct")
    slope = np.sum(xc * y, axis=1) / sxx
    yc = y - y.mean(axis=1, keepdims=True)
    resid = yc - slope[:, None] * xc
    ssr = np.sum(resid * resid, axis=1)
    sst = np.sum(yc * yc, axis=1)
    stderr = np.sqrt(ssr / (len(x) - 2) / sxx)
    # residuals at rounding level count as an exact fit, the constant
    # case included; testing sst instead misses near-constant log-moments
    tiny = (16.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(y).max(axis=1))) ** 2 * len(x)
    exact = ssr <= tiny
    r2 = np.where(exact, 1.0, 1.0 - ssr / np.where(exact, 1.0, sst))
    return slope, stderr, r2


def estimate_hurst(series, asset=None, scales=DEFAULT_SCALES) -> HurstEstimate:
    """Hurst exponent from the second structure function.

    Fits ``mean(|block sum|^2)`` against scale and halves the slope: a
    diffusive (uncorrelated) series gives 0.5, persistent series more,
    antipersistent less. This is the q = 2 column of ``structure_spectrum``.
    """
    spect = structure_spectrum(series, asset, (2.0,), scales)
    return HurstEstimate(float(spect.h_of_q[0]), float(spect.stderr[0]))


@dataclass(frozen=True, eq=False)
class ScalingSpectrum:
    """Generalized scaling exponents over a grid of moment orders.

    ``zeta[i]`` is the scaling exponent of the ``q_grid[i]``-th moment and
    ``h_of_q[i] = zeta[i] / q_grid[i]``. A flat ``h_of_q`` means one
    exponent describes all moments; a decreasing profile is the signature
    of multifractality. ``stderr[i]`` is the standard error of
    ``h_of_q[i]`` under either method. ``nonmonotone`` flags any increase
    of ``h_of_q`` beyond numerical tolerance.
    """

    asset_id: str
    q_grid: tuple[float, ...]
    zeta: np.ndarray
    h_of_q: np.ndarray
    stderr: np.ndarray
    fit_r2: np.ndarray
    scales: tuple[int, ...]
    method: str
    nonmonotone: bool = False

    def __post_init__(self):
        q = _check_q_grid(self.q_grid)
        k = len(q)
        for name in ("zeta", "h_of_q", "stderr", "fit_r2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (k,):
                raise ValueError(f"{name} must have shape ({k},)")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "q_grid", q)

    def h_at(self, q: float) -> float:
        """h(q) for a grid value of q."""
        for qi, h in zip(self.q_grid, self.h_of_q):
            if qi == q:
                return float(h)
        raise KeyError(f"q={q} not on the grid {self.q_grid}")

    def h_spread(self) -> float:
        """h(-4) - h(4); positive and large for multifractal series."""
        return self.h_at(-4.0) - self.h_at(4.0)


def _check_q_grid(q_grid):
    q = tuple(float(v) for v in q_grid)
    if len(q) == 0:
        raise ValueError("q grid must be nonempty")
    if not all(math.isfinite(v) for v in q):
        raise ValueError(f"q grid must be finite, got {q}")
    if any(v == 0 for v in q):
        raise ValueError("q grid must not contain zero")
    if any(b <= a for a, b in zip(q, q[1:])):
        raise ValueError("q grid must be strictly increasing")
    return q


def _spectrum(name, q_grid, scales, log_m, method) -> ScalingSpectrum:
    """The spectrum whose ``zeta`` are the log-log slopes of ``log_m``'s
    columns, one column per order of ``q_grid``."""
    zeta, stderr, r2 = _loglog_fit(scales, log_m)
    q = np.array(q_grid)
    h = zeta / q
    return ScalingSpectrum(name, q_grid, zeta, h, stderr / np.abs(q), r2, scales, method,
                           nonmonotone=bool(np.any(np.diff(h) > 1e-6)))


def structure_spectrum(series, asset=None, q_grid=DEFAULT_Q_GRID,
                       scales=DEFAULT_SCALES) -> ScalingSpectrum:
    """Scaling exponents from structure functions over a grid of orders."""
    q_grid = _check_q_grid(q_grid)
    x, name = _series_and_name(series, asset)
    scales, moments = _abs_moments(x, q_grid, scales)
    return _spectrum(name, q_grid, scales, _log(moments), "structure")


# ---------------------------------------------------------------------------
# multifractal detrended fluctuation analysis

def default_dfa_scales(n: int) -> tuple[int, ...]:
    """Twelve log-spaced segment sizes from 16 up to ``n // 8``, rounded and deduplicated."""
    largest = n // 8
    if largest < 16:
        raise DataError(f"series of length {n} supports no segment grid (16..{largest})")
    grid = np.exp(np.linspace(math.log(16), math.log(largest), 12))
    return tuple(np.unique(np.round(grid).astype(int)))


def mfdfa(series, asset=None, q_grid=DEFAULT_Q_GRID, scales=None,
          detrend_order: int = 1) -> ScalingSpectrum:
    """Multifractal detrended fluctuation analysis of one series.

    The series is integrated into a profile, split into segments of each
    size from both ends of the record, and each segment is detrended by a
    least-squares polynomial of order ``detrend_order``. ``h(q)`` is the
    log-log slope of the order-``q`` mean of the residual fluctuations.

    Parameters
    ----------
    series : ReturnPanel or 1-D array
    q_grid : sequence of float
        Strictly increasing moment orders, zero excluded.
    scales : sequence of int, optional
        Segment sizes; default is a log grid from 16 to ``n // 8``. Every
        size must satisfy ``detrend_order + 2 <= s <= n // 4``.
    detrend_order : int
        Polynomial order removed per segment, at least 1.

    Raises
    ------
    DataError
        When the series cannot hold four segments of the largest size, or
        when every segment at some size has zero residual variance.
    """
    x, name = _series_and_name(series, asset)
    q_grid = _check_q_grid(q_grid)
    if _integral(detrend_order) is None:
        raise ValueError(f"detrend_order must be an integer, got {detrend_order!r}")
    detrend_order = int(detrend_order)
    if detrend_order < 1:
        raise ValueError("detrend_order must be >= 1")
    n = len(x)
    if scales is None:
        scales = default_dfa_scales(n)
    scales = _check_scales(scales)
    if max(scales) * 4 > n:
        raise DataError(
            f"series of length {n} cannot hold 4 segments of size {max(scales)}"
        )
    if min(scales) < detrend_order + 2:
        raise ValueError(
            f"smallest scale {min(scales)} cannot pin an order-{detrend_order} polynomial"
        )

    profile = np.cumsum(x - x.mean())
    log_f = np.empty((len(scales), len(q_grid)))
    for si, s in enumerate(scales):
        ns = n // s
        design = np.vander(np.arange(s, dtype=float), detrend_order + 1)
        fit = np.linalg.pinv(design).T
        # the segments from each end are views of the profile; each view's
        # trend array becomes its residuals in place
        f2 = np.empty(2 * ns)
        for k, segments in enumerate((profile[: ns * s].reshape(ns, s),
                                      profile[n - ns * s:].reshape(ns, s))):
            resid = (segments @ fit) @ design.T
            np.subtract(segments, resid, out=resid)
            f2[k * ns:(k + 1) * ns] = np.einsum("ij,ij->i", resid, resid) / s
        if not np.any(f2 > 0.0):
            raise DataError(
                f"all {2 * ns} segments of size {s} have zero residual variance"
            )
        # each order is averaged on its own, as _phase_moments does
        with np.errstate(divide="ignore"):
            log_f[si] = [np.log(np.mean(f2 ** (q / 2.0))) for q in q_grid]
    return _spectrum(name, q_grid, scales, log_f, "dfa")


# ---------------------------------------------------------------------------
# cross-correlation scaling

@dataclass(frozen=True, eq=False)
class CorrelationScaling:
    """Scale dependence of the correlation between two assets.

    ``h_rho`` is the log-log slope of the phase-averaged correlation
    against scale; ``h_cross_2`` the slope of the raw cross moment
    ``mean(r_i r_j)``. With the single-asset first-moment exponents the
    decomposition ``h_rho = h_cross_2 - (h_i_1 + h_j_1)`` should close;
    ``identity_residual`` measures how far it is from closing and
    ``combined_stderr`` propagates the four fit errors.
    """

    pair: tuple[str, str]
    scales: tuple[int, ...]
    rho_by_scale: np.ndarray
    h_rho: float
    h_rho_stderr: float
    h_cross_2: float
    h_i_1: float
    h_i_1_stderr: float
    h_j_1: float
    h_j_1_stderr: float
    identity_residual: float
    combined_stderr: float
    negative_correlation: bool


def estimate_correlation_scaling(panel: ReturnPanel, asset_i: str, asset_j: str,
                                 scales=DEFAULT_SCALES) -> CorrelationScaling:
    """Fit the growth of a pairwise correlation with observation scale.

    For each scale the correlation and the raw cross moment are computed
    per non-overlapping phase and phase-averaged. Fits run on absolute
    values; a negative correlation sets ``negative_correlation`` rather
    than raising, since noisy near-zero correlations are routine.
    """
    if not isinstance(panel, ReturnPanel):
        raise TypeError("estimate_correlation_scaling needs a ReturnPanel")
    if asset_i == asset_j:
        raise ValueError("need two distinct assets")
    xi = panel.column(asset_i)
    xj = panel.column(asset_j)
    scales = _check_scales(scales)
    # per scale: rho, the raw cross moment and each series' first absolute
    # moment (its q = 1 structure function), one curve per column
    curves = np.empty((len(scales), 4))
    each_i = _block_sums_each(xi, scales)
    each_j = _block_sums_each(xj, scales)
    for si, dt in enumerate(scales):
        _check_phase_rows(len(xi), dt)
        bs_i = next(each_i)
        bs_j = next(each_j)
        rho_p = []
        cross_p = []
        for p in range(dt):
            bi = bs_i[p::dt]
            bj = bs_j[p::dt]
            ci = bi - bi.mean()
            cj = bj - bj.mean()
            ss_i = _dot(ci, ci)
            ss_j = _dot(cj, cj)
            if ss_i == 0.0 or ss_j == 0.0:
                raise DataError(
                    f"zero variance at scale {dt}, phase {p}; correlation undefined"
                )
            rho_p.append(_dot(ci, cj) / (math.sqrt(ss_i) * math.sqrt(ss_j)))
            cross_p.append(_dot(bi, bj) / len(bi))
        curves[si] = (np.mean(rho_p), np.mean(cross_p),
                      *_phase_moments(np.abs(bs_i), dt, (1.0,)),
                      *_phase_moments(np.abs(bs_j), dt, (1.0,)))

    rho = curves[:, 0].copy()
    h, err, _ = _loglog_fit(scales, _log(np.abs(curves)))
    h_rho, h_cross, h_i, h_j = h.tolist()
    e_rho, e_cross, e_i, e_j = err.tolist()
    return CorrelationScaling(
        pair=(asset_i, asset_j),
        scales=scales,
        rho_by_scale=rho,
        h_rho=h_rho,
        h_rho_stderr=e_rho,
        h_cross_2=h_cross,
        h_i_1=h_i,
        h_i_1_stderr=e_i,
        h_j_1=h_j,
        h_j_1_stderr=e_j,
        identity_residual=h_rho - (h_cross - h_i - h_j),
        combined_stderr=math.sqrt(e_rho ** 2 + e_cross ** 2 + e_i ** 2 + e_j ** 2),
        negative_correlation=bool(np.any(rho < 0.0)),
    )
