"""Per-scale covariance estimation and the scale-averaged blend.

Covariances are estimated on block sums of the returns at each scale,
divided by their scale to bring them to a common per-period footing, and
averaged.
The product estimator averages the per-phase covariances of a scale in one
weighted Gram product ``y'y``: each block sum is centred by its phase mean
and scaled by ``1/sqrt(dt (n_p - 1))``, where its phase holds ``n_p`` sums.
Every scale's block sums come from one prefix sum of the returns, and a
phase's sum telescopes to the difference of two of its entries.
A robust variant replaces the usual variance scale with mean absolute
deviation about the median, keeping the correlation structure.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateAssetWarning
from .timeseries import (
    MODE_NONOVERLAPPING,
    MODE_OVERLAPPING,
    ReturnPanel,
    _check_phase_rows,
    _check_scales,
    _integral,
    _prefix_sum,
    _trusted,
)

METHOD_PRODUCT = "product"
METHOD_L1 = "l1"


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def check_symmetric(matrix, name: str = "matrix") -> np.ndarray:
    """Symmetric part of a square, finite, symmetric matrix.

    Raises ``ValueError`` unless ``matrix`` is square, has only finite
    entries and differs from its transpose by at most 1e-8 of its largest
    entry. An exactly symmetric input comes back bit-identical.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    if np.abs(m - m.T).max() > 1e-8 * max(np.abs(m).max(), 1e-300):
        raise ValueError(f"{name} is not symmetric")
    return _sym(m)


@functools.lru_cache(maxsize=128)
def _phase_weights(rows: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``n_p`` of each of ``k`` phases of ``rows`` block sums, ``1/sqrt(k (n_p - 1))``
    and the row ``p + n_p k`` of the prefix sum that ends phase ``p``.

    The first two are ``(k, 1)`` columns and the last a ``(k,)`` index; all
    depend only on the window's shape and are read-only because every call
    with that shape shares them.
    """
    counts = ((rows - 1 - np.arange(k)) // k + 1)[:, None]
    weights = 1.0 / np.sqrt(k * (counts - 1.0))
    ends = np.arange(k) + k * counts[:, 0]
    for a in (counts, weights, ends):
        a.setflags(write=False)
    return counts, weights, ends


def _phase_cov(s: np.ndarray, k: int, c: np.ndarray | None = None,
               buf: np.ndarray | None = None) -> np.ndarray:
    """Mean over the phases ``i mod k`` of the rows' sample covariances.

    One weighted Gram product, as the module docstring says; ``y.T @ y``
    runs as BLAS ``syrk``, so the result is exactly symmetric. For ``k > 1``
    the rows ``s`` are the block sums ``c[k:] - c[:-k]`` of the prefix sum
    ``c`` and become ``y`` in place: phase ``p``'s ``n_p`` sums telescope to
    ``c[p + n_p k] - c[p]``, so no pass over ``s`` sums them. ``s`` is then
    the first rows of ``buf``, which holds them rounded up to whole rounds
    of ``k`` rows; the spare rows are centred and weighted with the others
    in one broadcast and never read, so they need only hold finite values.
    """
    rows, n = s.shape
    if k == 1:
        # the sum over the count is what ``mean`` computes, without its dispatch
        xc = s - s.sum(axis=0) / rows
        return xc.T @ xc / (rows - 1)
    counts, weights, ends = _phase_weights(rows, k)
    means = c[ends]
    means -= c[:k]
    means /= counts
    # every round of k rows as (rounds, k, n): row i sits at its phase i mod k
    y = buf[: -(-rows // k) * k].reshape(-1, k, n)
    y -= means
    y *= weights
    return s.T @ s


def _cov_l1(x: np.ndarray, dead: np.ndarray, joint: bool) -> np.ndarray:
    # correlation times a mean-absolute-deviation scale; the deviation is
    # taken about the per-asset median
    dev = np.abs(x - np.median(x, axis=0))
    c = _phase_cov(x, 1)
    sd = np.sqrt(np.diag(c))
    sd_safe = np.where(sd > 0.0, sd, 1.0)
    rho = c / np.outer(sd_safe, sd_safe)
    rho[dead, :] = 0.0
    rho[:, dead] = 0.0
    if joint:
        scale = dev.T @ dev / x.shape[0]
    else:
        d = dev.mean(axis=0)
        scale = np.outer(d, d)
    return rho * scale


def _constant_columns(x: np.ndarray) -> np.ndarray:
    """``np.ptp(x, axis=0) == 0.0`` for finite ``x``, as an exact ``max == min``.

    On a narrow window, reducing the contiguous rows of one transposed
    copy is about four times faster than ``ptp``'s reductions down short
    rows; at 200 assets the copy makes it slower, by far less than one
    per-scale Gram product costs.
    """
    cols = x.T.copy()
    return cols.max(axis=1) == cols.min(axis=1)


@dataclass(frozen=True, eq=False)
class ScaledCovarianceSet:
    """Covariance matrices of the same universe at several scales."""

    asset_ids: tuple[str, ...]
    scales: tuple[int, ...]
    matrices: tuple[np.ndarray, ...]
    method: str
    aggregation: str

    def __post_init__(self):
        ids = tuple(str(a) for a in self.asset_ids)
        scales = _check_scales(self.scales)
        if len(self.matrices) != len(scales):
            raise DataError("one matrix per scale required")
        n = len(ids)
        mats = []
        for s, m in zip(scales, self.matrices):
            a = np.asarray(m, dtype=float)
            if a.shape != (n, n):
                raise DataError(
                    f"matrix at scale {s} has shape {a.shape}, expected ({n}, {n})"
                )
            a = check_symmetric(a, f"matrix at scale {s}")
            a.setflags(write=False)
            mats.append(a)
        object.__setattr__(self, "asset_ids", ids)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "matrices", tuple(mats))

    @property
    def n_assets(self) -> int:
        return len(self.asset_ids)

    @functools.cached_property
    def _blends(self) -> dict:
        """Default-weight blends of this set by checked ``ridge``, kept by ``multiscale_cov``."""
        return {}

    def matrix_at(self, dt: int) -> np.ndarray:
        try:
            return self.matrices[self.scales.index(_integral(dt))]
        except ValueError:
            raise KeyError(f"scale {dt} not in {self.scales}") from None


def build_covariance_set(panel: ReturnPanel, scales, method: str = METHOD_PRODUCT,
                         aggregation: str = MODE_NONOVERLAPPING,
                         l1_joint: bool = False) -> ScaledCovarianceSet:
    """Covariance of the ``dt``-period returns at each scale, phase-averaged.

    Non-overlapping aggregation averages the covariances of the ``dt`` phases
    (block sums starting at ``p, p + dt, ...``), in one Gram product for the
    product estimator and phase by phase for L1; overlapping aggregation uses
    every start index. The block sums of every scale above 1 are written from
    one prefix sum, taken at the first such scale, into one buffer that each
    scale overwrites. A scale under ``MIN_PHASE_ROWS`` block sums in its
    worst phase raises ``DataError``; a constant asset gets zero rows
    and columns and a ``DegenerateAssetWarning`` per scale. The matrices are
    exactly symmetric by construction and not re-checked.
    """
    return _build_sets(panel, [(scales, aggregation)], method, l1_joint)[0]


def build_covariance_sets(panel: ReturnPanel, scales, aggregations,
                          method: str = METHOD_PRODUCT,
                          l1_joint: bool = False) -> tuple[ScaledCovarianceSet, ...]:
    """``build_covariance_set`` of ``panel`` under each of ``aggregations``, in one pass.

    Returns one set per mode, in the order given, each bit for bit the set
    its own build returns; all hold one scale-1 matrix. The first
    mode that fails its scales' ``MIN_PHASE_ROWS`` check raises its own
    build's ``DataError``, and a constant asset gets a
    ``DegenerateAssetWarning`` per scale per mode.
    """
    modes = () if isinstance(aggregations, str) else tuple(aggregations)
    if not modes or len(set(modes)) != len(modes):
        raise ValueError(f"need a sequence of distinct aggregations, got {aggregations!r}")
    return _build_sets(panel, [(scales, mode) for mode in modes], method, l1_joint)


def _build_sets(panel, requests, method, l1_joint):
    """``build_covariance_set`` of ``panel`` for each ``(scales, aggregation)`` of ``requests``.

    Every request's arguments are checked, then each one's geometry in
    order, so the first failing request raises its own build's ``DataError``.
    One pass takes the constant-column test, the prefix sum and each scale's
    block sums once, and makes each (scale, phase count) matrix once, as one
    array for every set that holds it. Warnings name the caller's caller.
    """
    requests = [(_check_scales(scales), aggregation) for scales, aggregation in requests]
    if method not in (METHOD_PRODUCT, METHOD_L1):
        raise ValueError(f"unknown method {method!r}")
    for _, aggregation in requests:
        if aggregation not in (MODE_NONOVERLAPPING, MODE_OVERLAPPING):
            raise ValueError(f"unknown aggregation {aggregation!r}")
    for scales, aggregation in requests:
        for dt in scales:
            _check_phase_rows(panel.n_periods, dt, aggregation)

    # decided on the one-period returns: block sums of a constant column
    # carry cumsum rounding and would not test as exactly constant
    dead = _constant_columns(panel.returns)
    dead_ids = [panel.asset_ids[i] for i in np.flatnonzero(dead)]

    def estimate(s, dt, k):
        if method == METHOD_PRODUCT:
            m = _phase_cov(s, k, c, buf)
            if dead_ids:
                m[dead, :] = 0.0
                m[:, dead] = 0.0
        else:
            acc = np.zeros((panel.n_assets, panel.n_assets))
            for p in range(k):
                acc += _cov_l1(s[p::k], dead, l1_joint)
            m = acc / k
        # finite returns can still overflow a product; a finite diagonal
        # bounds every entry. It is not negative, so its largest entry is
        # below inf exactly when every entry is finite (NaN compares false)
        if not m.diagonal().max() < math.inf:
            raise DataError(f"variance at scale {dt} overflows: returns too large")
        m.setflags(write=False)
        return m

    def phases(dt, aggregation):
        return dt if aggregation == MODE_NONOVERLAPPING else 1

    mats = {}  # by (scale, phase count): at scale 1 every mode has one phase
    c = buf = None
    for dt in dict.fromkeys(dt for scales, _ in requests for dt in scales):
        if dt == 1:
            s = panel.returns
        else:
            if c is None:
                c = _prefix_sum(panel.returns)
                # the window's shape holds every scale's rows, rounded up to
                # whole rounds of the scale, and, being the size of the
                # window's other arrays, reuses their freed heap chunks:
                # lower peak memory than a rows-sized buffer. Zeros keep its
                # spare rows finite
                buf = np.zeros(panel.returns.shape)
            s = np.subtract(c[dt:], c[:-dt], out=buf[: len(c) - dt])
        readers = [aggregation for scales, aggregation in requests if dt in scales]
        # one warning per scale per request, as each request's own build gives
        for aid in dead_ids * len(readers):
            warnings.warn(
                f"asset {aid!r} has zero variance at scale {dt}; "
                "its covariance entries are zero",
                DegenerateAssetWarning,
                stacklevel=3,
            )
        # the non-overlapping product estimator centres the block sums in
        # place, so the one-phase matrix is taken first
        for k in sorted({phases(dt, aggregation) for aggregation in readers}):
            mats[dt, k] = estimate(s, dt, k)
    return tuple(_trusted(ScaledCovarianceSet, asset_ids=panel.asset_ids, scales=scales,
                          matrices=tuple(mats[dt, phases(dt, aggregation)] for dt in scales),
                          method=method, aggregation=aggregation)
                 for scales, aggregation in requests)


def _condition(vals: np.ndarray) -> float:
    """``vals[-1] / vals[0]`` of ascending eigenvalues; inf unless ``vals[0] > 0``."""
    return np.inf if vals[0] <= 0 else vals[-1] / vals[0]


MAX_CONDITION = 1e12

_UNIT_ROUNDOFF = 2.0 ** -53
_TINY = float(np.finfo(float).tiny)


def _certify(a: np.ndarray) -> bool:
    """True when one Cholesky proves ``a`` positive definite with cond(a) < ``MAX_CONDITION / 2``.

    ``a`` is a finite, exactly symmetric matrix; LAPACK reads its lower
    triangle. With ``C = MAX_CONDITION``, ``t`` the trace, ``u = 2^-53``
    and ``g = (n+1)u / (1 - 2(n+1)u)``, the diagonal of a copy of ``a`` is
    lowered by ``s = 2t/C + g t + u max(a_ii)`` and that copy ``H`` is
    factored. If the factorization completes with ``R``, Higham,
    *Accuracy and Stability of Numerical Algorithms*, Thm 10.3, gives
    ``R'R = H + dH`` with ``|dH| <= gamma_{n+1} |R'||R|``, so
    ``||dH||_2 <= g tr(H) <= g t``; ``R'R`` is positive definite, so
    ``lambda_min(H) > -g t`` (Rump 2006, *Verification of positive
    definiteness*, BIT 46). Each ``H_ii`` lies within ``u a_ii`` of
    ``a_ii - s``, so::

        lambda_min(a) > s - g t - u max(a_ii) = 2t/C >= 2 lambda_max(a) / C.

    The rounding of ``t`` and ``s`` themselves moves this by a relative
    ``(n+4)u + C ((n+4)u)^2``, far inside the factor 2 between ``C/2``
    and ``C``. A trace that is not finite, or so small that ``2t/C`` is
    not a normal float, is never certified: underflow would void the
    bound. False means only that this test did not decide.
    """
    n = a.shape[0]
    # Python floats overflow to inf without numpy's warning
    diag = a.diagonal().tolist()
    t = sum(diag)
    if not _TINY <= 2.0 * t / MAX_CONDITION < math.inf:
        return False
    g = (n + 1) * _UNIT_ROUNDOFF / (1.0 - 2 * (n + 1) * _UNIT_ROUNDOFF)
    h = a.copy()
    # through a view of the diagonal: .flat would copy it out and back
    h.reshape(-1)[:: n + 1] -= 2.0 * t / MAX_CONDITION + g * t + _UNIT_ROUNDOFF * max(diag)
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


def psd_repair(matrix: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues to zero; identity on PSD input.

    Requires a finite symmetric matrix (``check_symmetric``). Matrices
    whose smallest eigenvalue is within a relative 1e-12 of zero are
    returned unchanged, which makes the operation idempotent.
    """
    vals, vecs = np.linalg.eigh(check_symmetric(matrix))
    tol = 1e-12 * max(np.abs(vals).max(), 1e-300)
    if vals.min() >= -tol:
        return matrix
    rebuilt = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    return _sym(rebuilt)


@dataclass(frozen=True, eq=False)
class MultiscaleCovariance:
    """Weighted average of per-scale covariances on a per-period footing.

    ``scale_weights`` are the weights applied to each matrix after it was
    divided by its scale. ``ridge`` is the diagonal loading actually added
    and ``psd_repaired`` records whether negative eigenvalues had to be
    clipped. The constructor checks the matrix (finite and symmetric) and
    tries ``_certify`` on it; ``multiscale_cov`` skips the checks and
    passes on the blend's own certificate.
    """

    matrix: np.ndarray
    asset_ids: tuple[str, ...]
    scales: tuple[int, ...]
    scale_weights: tuple[float, ...]
    ridge: float
    psd_repaired: bool
    method: str
    aggregation: str

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        n = len(self.asset_ids)
        if m.shape != (n, n):
            raise DataError(
                f"matrix shape {m.shape} does not match {n} assets"
            )
        # a fresh array: the input is not held
        m = check_symmetric(m, "matrix")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_certified", _certify(m))
        object.__setattr__(self, "asset_ids", tuple(str(a) for a in self.asset_ids))
        object.__setattr__(self, "scales", _check_scales(self.scales))
        object.__setattr__(self, "scale_weights", tuple(float(w) for w in self.scale_weights))

    @property
    def n_assets(self) -> int:
        return len(self.asset_ids)

    @functools.cached_property
    def condition(self) -> float:
        """Exact condition number from ``eigvalsh``, inf unless positive definite.

        Computed on first read, unless the blend's exact path already has it.
        """
        return _condition(np.linalg.eigvalsh(self.matrix))


def _check_ridge(ridge) -> None:
    """Refuse a ``ridge`` that is neither ``"auto"`` nor a finite non-negative number."""
    if isinstance(ridge, str):
        if ridge != "auto":
            raise ValueError(f"ridge must be a float or 'auto', got {ridge!r}")
    elif not 0.0 <= float(ridge) < np.inf:
        raise ValueError(f"ridge must be non-negative and finite, got {float(ridge)}")


def multiscale_cov(cov_set: ScaledCovarianceSet, ridge=0.0,
                   scale_weights=None) -> MultiscaleCovariance:
    """Average the per-scale covariances into one working matrix.

    The blend is ``sum_j w_j * (m_j / dt_j)`` with ``scale_weights`` ``w``,
    equal by default and used exactly as given. They are the one per-scale
    knob: ``w_j = dt_j`` gives the raw average of the matrices, and
    ``lam_j * (dt_j / t_j)`` divides each by a target ``t_j`` instead.
    ``ridge`` adds diagonal loading: a finite non-negative float, or
    ``"auto"`` for ``1e-8 * trace / n``. The blend of the checked set is
    not re-checked. A blend that ``_certify`` passes needs no repair;
    otherwise its ``eigvalsh`` decides PSD repair, which clips the blend
    without its ridge, so a repaired blend keeps its ridge.

    A blend with the default weights is kept on the immutable ``cov_set``,
    keyed by the checked ``ridge`` (``0`` and ``0.0`` are one key), and a
    later call for that ridge returns the same object; it lives as long as
    the set. Explicit ``scale_weights`` are never kept, and a refused
    ``ridge`` keeps nothing.
    """
    _check_ridge(ridge)
    if scale_weights is not None:
        return _blend(cov_set, ridge, scale_weights)
    key = ridge if isinstance(ridge, str) else float(ridge)
    blends = cov_set._blends
    if key not in blends:
        blends[key] = _blend(cov_set, ridge, scale_weights)
    return blends[key]


def _blend(cov_set: ScaledCovarianceSet, ridge, scale_weights) -> MultiscaleCovariance:
    """The blend ``multiscale_cov`` describes, made afresh for a checked ``ridge``."""
    k = len(cov_set.scales)
    if scale_weights is None:
        weights = (1.0 / k,) * k
    else:
        wts = np.asarray(scale_weights, dtype=float)
        if wts.shape != (k,):
            raise DataError(
                f"need {k} scale weights, got shape {wts.shape}"
            )
        if not np.all(np.isfinite(wts)):
            raise ValueError(f"scale weights must be finite, got {wts.tolist()}")
        if np.any(wts < 0) or wts.sum() <= 0:
            raise ValueError("scale weights must be non-negative with positive sum")
        weights = tuple(wts.tolist())

    n = cov_set.n_assets
    acc = np.zeros((n, n))
    # a Python float scales an array as the float64 it holds does
    for w, dt, m in zip(weights, cov_set.scales, cov_set.matrices):
        acc += w * (m / dt)

    ridge_val = 1e-8 * acc.trace() / n if isinstance(ridge, str) else float(ridge)
    if ridge_val > 0:
        # through a view of the diagonal, here and below: .flat would copy it out and back
        acc.reshape(-1)[:: n + 1] += ridge_val

    certified, repaired, seeded = _certify(acc), False, {}
    if not certified:
        # the exact path, for what the certificate leaves undecided
        vals = np.linalg.eigvalsh(acc)
        # ascending, so the ends hold the smallest value and the largest magnitude
        repaired = bool(vals[0] < -1e-12 * max(-vals[0], vals[-1], 1e-300))
        if repaired:
            acc.reshape(-1)[:: n + 1] -= ridge_val
            acc = psd_repair(acc)
            acc.reshape(-1)[:: n + 1] += ridge_val
            vals = np.linalg.eigvalsh(acc)
        seeded = {"condition": _condition(vals)}
    acc.setflags(write=False)
    return _trusted(
        MultiscaleCovariance, matrix=acc,
        asset_ids=cov_set.asset_ids,
        scales=cov_set.scales,
        scale_weights=weights,
        ridge=ridge_val,
        psd_repaired=repaired,
        method=cov_set.method,
        aggregation=cov_set.aggregation,
        _certified=certified,
        **seeded,
    )
