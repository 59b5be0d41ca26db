"""Shared fixtures and oracle helpers for the test suite."""

import math
import tracemalloc

import numpy as np
import pytest

from multiscale_markowitz.errors import DataError
from multiscale_markowitz.optimizer import min_variance_closed_form
from multiscale_markowitz.timeseries import ReturnPanel, panel_from_returns


def random_pd_matrix(rng, n, scale=1.0, diag_boost=0.0):
    """Random symmetric positive definite matrix.

    B B^T is PSD for any square B; adding a positive diagonal makes it PD
    with probability one and keeps the condition number reasonable.
    """
    b = rng.standard_normal((n, n)) * scale
    return b @ b.T + np.diag(rng.uniform(0.1, 1.0, size=n)) * scale**2


def simplex_grid(n_steps=1000):
    """All 3-vectors with nonnegative entries summing to 1 on a 1/n_steps grid."""
    i, j = np.meshgrid(np.arange(n_steps + 1), np.arange(n_steps + 1), indexing="ij")
    mask = i + j <= n_steps
    i, j = i[mask], j[mask]
    w = np.column_stack([i, j, n_steps - i - j]) / float(n_steps)
    return w


def brute_force_min_variance(sigma, floor_vec=None, floor_rhs=None, n_steps=1000):
    """Grid search for the long-only minimum variance portfolio, 3 assets.

    Independent oracle for the active-set solver: no linear algebra beyond
    evaluating the quadratic form on every feasible grid point.
    """
    w = simplex_grid(n_steps)
    if floor_vec is not None:
        w = w[w @ np.asarray(floor_vec) >= floor_rhs - 1e-12]
    obj = np.einsum("ij,jk,ik->i", w, sigma, w)
    k = int(np.argmin(obj))
    return w[k], float(obj[k])


def correlation_sensitivity(sigma, i, j, eps=1e-6):
    """Central-difference derivative of ``w_i + w_j`` in their correlation.

    Finite-difference oracle for ``correlation_sensitivity_analytic``:
    bumps ``Sigma_ij`` by ``+-eps * sqrt(Sigma_ii Sigma_jj)`` and re-solves
    the closed form.
    """
    m = np.asarray(sigma, dtype=float)
    c = math.sqrt(m[i, i] * m[j, j])
    out = []
    for sign in (+1.0, -1.0):
        mm = m.copy()
        mm[i, j] += sign * eps * c
        mm[j, i] += sign * eps * c
        w = min_variance_closed_form(mm).weights
        out.append(float(w[i] + w[j]))
    return (out[0] - out[1]) / (2.0 * eps)


def gen_stable_iid(n: int, alpha: float = 1.5, scale: float = 1.0, seed: int = 0) -> ReturnPanel:
    """Symmetric alpha-stable iid draws (Chambers-Mallows-Stuck).

    Minimal heavy-tail fixture: block sums of ``m`` terms scale like
    ``m^{1/alpha}``, so the first-moment scaling exponent is ``1/alpha``.
    Only the symmetric case is generated; ``alpha`` must lie in (1, 2] for
    the first moment to exist.
    """
    if n < 16:
        raise DataError(f"n={n} too short, need >= 16")
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"alpha={alpha} outside (1, 2]")
    if scale <= 0:
        raise ValueError("scale must be positive")
    rng = np.random.default_rng(seed)
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    w = rng.exponential(1.0, n)
    num = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
    tail = (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    return panel_from_returns(scale * num * tail)


def peak_traced_bytes(fn, *args):
    """Peak bytes that ``tracemalloc`` sees allocated during one ``fn(*args)`` call.

    Counts what was live at the high-water mark above what was traced
    before the call, so the result held at return counts too.
    """
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
