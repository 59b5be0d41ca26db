"""Shared fixtures and oracle helpers for the test suite."""

import math

import numpy as np
import pytest

from multiscale_markowitz.optimizer import min_variance_closed_form


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
