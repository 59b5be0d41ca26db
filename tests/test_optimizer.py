"""Portfolio construction: closed form, active set, sensitivities."""

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import brute_force_min_variance, correlation_sensitivity, random_pd_matrix

from multiscale_markowitz import optimizer
from multiscale_markowitz.errors import (
    DataError, NumericalError, ScaleOneWarning, SensitivitySignWarning,
)
from multiscale_markowitz.covariance import (
    METHOD_PRODUCT,
    MultiscaleCovariance,
    ScaledCovarianceSet,
    multiscale_cov,
)
from multiscale_markowitz.optimizer import (
    check_target_curve,
    correlation_sensitivity_analytic,
    max_sharpe,
    min_variance_closed_form,
    min_variance_long_only,
    sensitivity_to_hurst,
    sensitivity_to_variance,
)
from multiscale_markowitz.synth import constant_correlation_cov


def _set_for(matrices, scales, ids):
    return ScaledCovarianceSet(ids, tuple(scales), tuple(matrices), METHOD_PRODUCT,
                               "nonoverlapping")


# ---------------------------------------------------------------------------
# closed form


def test_closed_form_identity_matrix():
    w = min_variance_closed_form(np.eye(3))
    assert np.allclose(w.weights, 1.0 / 3.0, atol=1e-15)
    assert w.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert w.kkt_residual < 1e-12
    # lambda = 2 / (1' Sigma^{-1} 1)
    assert w.provenance["lagrange_multiplier"] == pytest.approx(2.0 / 3.0)


def test_closed_form_diagonal_matrix():
    w = min_variance_closed_form(np.diag([1.0, 2.0]))
    assert np.allclose(w.weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_closed_form_uniform_correlation():
    w = min_variance_closed_form(np.array([[1.0, 0.5], [0.5, 1.0]]))
    assert np.allclose(w.weights, [0.5, 0.5], atol=1e-14)


def test_closed_form_scale_invariant():
    rng = np.random.default_rng(11)
    m = random_pd_matrix(rng, 4)
    w1 = min_variance_closed_form(m).weights
    w2 = min_variance_closed_form(1000.0 * m).weights
    assert np.allclose(w1, w2, atol=1e-12)


def test_closed_form_accepts_blended_matrix():
    cs = _set_for((np.eye(2) * 1e-4,), (1,), ("x", "y"))
    ms = multiscale_cov(cs)
    assert isinstance(ms, MultiscaleCovariance)
    w = min_variance_closed_form(ms)
    assert w.asset_ids == ("x", "y")
    assert np.allclose(w.weights, 0.5)


def test_solvers_carry_the_blend_record():
    cs = _set_for((np.diag([1e-4, 2e-4]), np.diag([6e-4, 9e-4])), (1, 5), ("x", "y"))
    ms = multiscale_cov(cs, ridge="auto")
    record = {"scales": (1, 5), "covariance": METHOD_PRODUCT,
              "aggregation": "nonoverlapping", "ridge": ms.ridge,
              "psd_repaired": False}
    lam = 2.0 / np.linalg.solve(ms.matrix, np.ones(2)).sum()
    assert min_variance_closed_form(ms).provenance == {
        **record, "lagrange_multiplier": pytest.approx(lam, rel=1e-12)}
    assert min_variance_long_only(ms).provenance == record
    assert max_sharpe(ms, np.array([0.01, 0.02])).provenance == record
    assert max_sharpe(ms, np.array([0.01, 0.02]), long_only=False).provenance == record
    assert min_variance_long_only(ms.matrix).provenance == {}


def test_closed_form_singular_matrix():
    with pytest.raises(NumericalError, match="condition number inf"):
        min_variance_closed_form(np.ones((3, 3)))


def test_closed_form_ill_conditioned():
    with pytest.raises(NumericalError, match="condition number 1.000e\\+15"):
        min_variance_closed_form(np.diag([1.0, 1e-15]))


@pytest.mark.parametrize("matrix", [
    np.diag([1.0, 1e-15]),                  # ill-conditioned
    np.array([[1.0, 2.0], [2.0, 1.0]]),     # indefinite: repaired to singular
])
def test_blend_conditioning_refused_as_plain_matrix(matrix):
    # the blend carries the condition number of its own eigvalsh; the
    # solvers must refuse it with the text a plain matrix gets
    blend = multiscale_cov(_set_for([matrix], [1], ("a", "b")))
    assert blend.psd_repaired == (matrix[0, 1] == 2.0)
    for solve in (min_variance_closed_form, min_variance_long_only,
                  lambda s: max_sharpe(s, np.array([0.01, 0.02]))):
        with pytest.raises(NumericalError) as plain:
            solve(blend.matrix)
        with pytest.raises(NumericalError, match="condition number") as blended:
            solve(blend)
        assert str(blended.value) == str(plain.value)


@pytest.mark.parametrize("ridge", ["auto", 1e-5])
def test_repaired_blend_keeps_its_ridge_and_solves(ridge):
    # the repair clips the blend without its ridge and adds it back, so the
    # smallest eigenvalue is the ridge, not a clipped zero the solvers refuse
    indefinite = 1e-4 * np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
    blend = multiscale_cov(_set_for([indefinite], [1], ("a", "b", "c")), ridge=ridge)
    assert blend.psd_repaired
    vals = np.linalg.eigvalsh(blend.matrix)
    assert vals[0] == pytest.approx(blend.ridge, rel=1e-6)
    assert blend.condition == pytest.approx(vals[-1] / vals[0])
    w = min_variance_long_only(blend)
    assert w.provenance["psd_repaired"] and w.provenance["ridge"] == blend.ridge
    assert w.weights.sum() == pytest.approx(1.0)


def test_blend_asset_ids_length_checked_before_solving(monkeypatch):
    # a blend gets the plain matrix's refusal, before any solve starts
    blend = multiscale_cov(_set_for([np.diag([1.0, 2.0, 3.0])], [1], ("a", "b", "c")))
    monkeypatch.setattr(optimizer, "_eqp", lambda *a: pytest.fail("solved"))
    for sigma in (blend.matrix, blend):
        with pytest.raises(ValueError, match="^asset_ids length does not match the matrix$"):
            sensitivity_to_variance(sigma, 2, asset_ids=("x",))


def test_hand_built_blend_is_refused_when_ill_conditioned():
    ms = MultiscaleCovariance(np.diag([1.0, 1e-15]), ("a", "b"), (1,), (1.0,), 0.0,
                              False, "product", "nonoverlapping")
    with pytest.raises(NumericalError, match="condition number 1.000e\\+15"):
        min_variance_long_only(ms)


def test_closed_form_can_short():
    # strong correlation pushes the high-variance asset negative
    m = np.array([[1.0, 0.9], [0.9, 1.0]]) * np.outer([1.0, 3.0], [1.0, 3.0])
    w = min_variance_closed_form(m)
    assert not w.long_only
    assert w.weights.min() < 0.0
    assert w.weights.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# long-only quadratic program


def test_long_only_matches_closed_form_when_interior():
    rng = np.random.default_rng(12)
    m = np.diag(rng.uniform(0.5, 2.0, size=3))  # diagonal: all weights positive
    w_free = min_variance_closed_form(m).weights
    w_box = min_variance_long_only(m)
    assert np.allclose(w_box.weights, w_free, atol=1e-10)
    assert w_box.kkt_residual < 1e-8


def test_long_only_clamps_shorted_asset():
    m = np.array([[1.0, 0.9], [0.9, 1.0]]) * np.outer([1.0, 3.0], [1.0, 3.0])
    w = min_variance_long_only(m)
    assert w.weights.min() == 0.0  # exact complementary slackness
    assert w.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_long_only_agrees_with_grid_search(rng):
    for _ in range(5):
        m = random_pd_matrix(rng, 3)
        w = min_variance_long_only(m)
        w_grid, obj_grid = brute_force_min_variance(m, n_steps=400)
        obj = float(w.weights @ m @ w.weights)
        assert obj <= obj_grid + 1e-4
        assert np.abs(w.weights - w_grid).max() < 0.01


def test_long_only_return_floor_binds():
    m = np.eye(3)
    mu = np.array([0.02, 0.05, 0.08])
    w = min_variance_long_only(m, mu=mu, mu_target=0.06)
    assert w.weights @ mu == pytest.approx(0.06, abs=1e-10)
    assert w.kkt_residual < 1e-8


def test_long_only_return_floor_slack_when_easy():
    m = np.eye(2)
    mu = np.array([0.10, 0.12])
    w = min_variance_long_only(m, mu=mu, mu_target=0.05)
    # unconstrained optimum already clears the floor
    assert np.allclose(w.weights, 0.5, atol=1e-10)


def test_long_only_infeasible_target():
    with pytest.raises(NumericalError, match="exceeds best asset mean"):
        min_variance_long_only(np.eye(2), mu=np.array([0.01, 0.02]), mu_target=0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solvers_refuse_a_non_finite_floor_or_risk_free_rate(bad):
    mu = np.array([0.01, 0.02])
    with pytest.raises(ValueError, match="^mu_target must be finite, got "):
        min_variance_long_only(np.eye(2), mu=mu, mu_target=bad)
    for long_only in (True, False):
        with pytest.raises(ValueError, match="^risk_free must be finite, got "):
            max_sharpe(np.eye(2), mu, risk_free=bad, long_only=long_only)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("solve", [
    lambda m, mu: min_variance_long_only(m, mu, mu_target=0.05),
    lambda m, mu: max_sharpe(m, mu),
    lambda m, mu: max_sharpe(m, mu, long_only=False),
], ids=["floor", "max_sharpe_long_only", "max_sharpe"])
def test_non_finite_means_refused_before_solving(solve, bad, monkeypatch):
    # refused before any solve: a NaN mean would drop the floor silently
    # or run the active set to its iteration cap
    m = np.array([[1.0, 0.2], [0.2, 2.0]])
    monkeypatch.setattr(optimizer, "_eqp", lambda *a: pytest.fail("solved"))
    with pytest.raises(ValueError, match=f"^mu must be finite, got {bad} at asset 0$"):
        solve(m, np.array([bad, 0.1]))


def test_long_only_floor_at_best_mean_holds_the_best_asset():
    w = min_variance_long_only(np.eye(3), mu=np.array([0.01, 0.02, 0.03]), mu_target=0.03)
    assert np.array_equal(w.weights, [0.0, 0.0, 1.0])
    assert w.kkt_residual == 0.0


def test_long_only_floor_at_best_mean_mixes_tied_assets():
    # only assets 0 and 2 meet the floor; among them the least variance
    w = min_variance_long_only(np.diag([1.0, 1.0, 4.0]), mu=np.array([0.03, 0.01, 0.03]),
                               mu_target=0.03)
    assert np.allclose(w.weights, [0.8, 0.0, 0.2], atol=1e-15)
    assert w.weights[1] == 0.0
    assert w.kkt_residual < 1e-15


def test_long_only_floor_matches_grid_search(rng):
    for _ in range(3):
        m = random_pd_matrix(rng, 3)
        mu = rng.uniform(0.0, 0.1, size=3)
        target = 0.5 * (mu.min() + mu.max())
        w = min_variance_long_only(m, mu=mu, mu_target=target)
        w_grid, obj_grid = brute_force_min_variance(
            m, floor_vec=mu, floor_rhs=target, n_steps=400)
        assert float(w.weights @ m @ w.weights) <= obj_grid + 1e-4


def test_long_only_scale_invariant():
    rng = np.random.default_rng(13)
    m = random_pd_matrix(rng, 4)
    w1 = min_variance_long_only(m).weights
    w2 = min_variance_long_only(250.0 * m).weights
    assert np.allclose(w1, w2, atol=1e-9)


def _near_tied_floor_draws():
    """200 random problems for floors at and a few ulps below the best mean."""
    rng = np.random.default_rng(3)
    draws = []
    for _ in range(200):
        n = int(rng.integers(2, 30))
        a = rng.standard_normal((n, n))
        m = a @ a.T + 0.1 * np.eye(n)
        draws.append((m, rng.normal(0.02, 0.05, n)))
    return draws


@pytest.mark.parametrize("draw", [16, 60, 181])
def test_long_only_floor_just_below_a_near_tie_converges(draw):
    m, mu = _near_tied_floor_draws()[draw]
    target = mu.max() - 1e-15
    w = min_variance_long_only(m, mu=mu, mu_target=target).weights
    assert mu @ w >= target - 1e-12
    _assert_floor_kkt(m, mu, w, binds=True)


# ---------------------------------------------------------------------------
# the equality-constrained solve


def _eqp_by_determinant(m, rows, rhs, free):
    """``optimizer._eqp`` without its shortcuts: the principal submatrix
    even when every coordinate is free, and the determinant test and
    ``np.linalg.solve`` even for one row."""
    r_f = rows[:, free]
    if r_f.shape[1] < len(rhs):
        return None
    x = np.linalg.solve(m[np.ix_(free, free)], r_f.T)
    s = r_f @ x
    if np.linalg.det(s) <= optimizer._DEPENDENT_ROWS * np.prod(np.diag(s)):
        return None
    nu = np.linalg.solve(s, rhs)
    return x @ nu, 2.0 * nu


def test_eqp_shortcuts_return_the_same_bytes():
    rng = np.random.default_rng(41)
    for i in range(2000):
        n = int(rng.integers(1, 12))
        a = rng.standard_normal((n, n))
        m = a @ a.T + 0.01 * np.eye(n)
        free = np.ones(n, dtype=bool) if i % 3 == 0 else rng.random(n) < 0.7
        n_rows = 2 if i % 5 == 0 else 1
        rows = rng.standard_normal((n_rows, n))
        rhs = np.ones(n_rows) if i % 2 else rng.standard_normal(n_rows)
        got = optimizer._eqp(m, rows, rhs, free)
        want = _eqp_by_determinant(m, rows, rhs, free)
        if want is None:
            assert got is None
        else:
            assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


@pytest.mark.parametrize("m, row", [(np.eye(3), np.zeros(3)), (-np.eye(3), np.ones(3))],
                         ids=["zero", "negative"])
def test_eqp_one_row_refuses_a_non_positive_schur_value(m, row):
    free = np.ones(3, dtype=bool)
    assert _eqp_by_determinant(m, row[None], np.ones(1), free) is None
    assert optimizer._eqp(m, row[None], np.ones(1), free) is None


def _qp_cases():
    rng = np.random.default_rng(31)
    cases = [(f"random{n}_{k}", random_pd_matrix(rng, n), rng.normal(0.02, 0.05, size=n))
             for n in (20, 60) for k in range(2)]
    vol = np.geomspace(0.5, 3.0, 200)
    m = constant_correlation_cov(200, 0.3, sigma_daily=1.0) * np.outer(vol, vol)
    cases.append(("constcorr200", m, 0.02 * np.sqrt(np.diag(m)) + rng.normal(0.0, 0.02, 200)))
    return cases


QP_CASES = _qp_cases()


def _assert_long_only_kkt(m, w, a):
    """``m w = c a`` on the support and ``m w >= c a`` off it, for one ``c``.

    This certifies a minimizer of ``w' m w`` over ``a' w = 1, w >= 0``
    (and, rescaled, of the budget form) to 1e-9 relative.
    """
    g = m @ w
    c = float(w @ g) / float(a @ w)
    tol = 1e-9 * np.abs(g).max()
    support = w > 0.0
    assert np.all(w >= 0.0)
    assert np.abs(g[support] - c * a[support]).max() <= tol
    assert np.all(g[~support] - c * a[~support] >= -tol)


def _slsqp_min_quadratic(m, a, floor=None):
    """Scipy's SLSQP on ``min x' m x, a' x = 1, x >= 0``, made exactly feasible.

    ``floor = (f, g)`` adds ``f' x >= g``.
    """
    n = m.shape[0]
    x0 = np.clip(a, 0.0, None) + 1e-3
    constraints = [{"type": "eq", "fun": lambda x: a @ x - 1.0, "jac": lambda x: a}]
    if floor is not None:
        f, g = floor
        constraints.append({"type": "ineq", "fun": lambda x: f @ x - g, "jac": lambda x: f})
    res = minimize(lambda x: x @ m @ x, x0 / (a @ x0), jac=lambda x: 2.0 * m @ x,
                   method="SLSQP", bounds=[(0.0, None)] * n, constraints=constraints,
                   options={"ftol": 1e-14, "maxiter": 1000})
    x = np.clip(res.x, 0.0, None)
    return x / (a @ x)


@pytest.mark.parametrize("name,m,mu", QP_CASES, ids=[c[0] for c in QP_CASES])
def test_long_only_kkt_and_slsqp_at_size(name, m, mu):
    w = min_variance_long_only(m).weights
    ones = np.ones(len(w))
    _assert_long_only_kkt(m, w, ones)
    oracle = _slsqp_min_quadratic(m, ones)
    assert w @ m @ w <= oracle @ m @ oracle * (1.0 + 1e-9)


@pytest.mark.parametrize("name,m,mu", QP_CASES, ids=[c[0] for c in QP_CASES])
def test_max_sharpe_kkt_and_slsqp_at_size(name, m, mu):
    w = max_sharpe(m, mu).weights
    _assert_long_only_kkt(m, w, mu)
    oracle = _slsqp_min_quadratic(m, mu)
    sharpe = (w @ mu) / np.sqrt(w @ m @ w)
    assert sharpe >= (oracle @ mu) / np.sqrt(oracle @ m @ oracle) * (1.0 - 1e-9)


@pytest.mark.parametrize("name,m,mu", QP_CASES, ids=[c[0] for c in QP_CASES])
def test_long_only_floor_kkt_and_slsqp_at_size(name, m, mu):
    target = float(np.median(mu))
    w = min_variance_long_only(m, mu=mu, mu_target=target).weights
    ones = np.ones(len(w))
    g = 2.0 * m @ w
    tol = 1e-9 * np.abs(g).max()
    support = w > 0.0
    assert np.all(w >= 0.0)
    assert w @ mu >= target - 1e-12 * np.abs(mu).max()
    # 2 m w = lam 1 + eta mu + z with eta >= 0, z >= 0 and z = 0 on the support;
    # eta may be nonzero only when the floor binds
    binds = abs(w @ mu - target) <= 1e-12 * np.abs(mu).max()
    rows = np.column_stack([ones, mu] if binds else [ones])
    mult, *_ = np.linalg.lstsq(rows[support], g[support], rcond=None)
    z = g - rows @ mult
    assert np.abs(z[support]).max() <= tol
    assert np.all(z[~support] >= -tol)
    if binds:
        assert mult[1] >= -tol
    oracle = _slsqp_min_quadratic(m, ones, floor=(mu, target))
    assert w @ m @ w <= oracle @ m @ oracle * (1.0 + 1e-9)


def _random_floor_problem(rng, tied=False):
    n = int(rng.integers(2, 30))
    a = rng.standard_normal((n, n))
    mu = rng.normal(0.02, 0.05, n)
    return a @ a.T + 0.1 * np.eye(n), np.round(mu, 2) if tied else mu


def test_long_only_slack_floor_returns_the_unfloored_weights():
    # a floor the no-floor optimum clears changes nothing, bit for bit
    rng = np.random.default_rng(5)
    for _ in range(300):
        m, mu = _random_floor_problem(rng)
        plain = min_variance_long_only(m)
        floored = min_variance_long_only(m, mu=mu, mu_target=mu @ plain.weights - 0.01)
        assert floored.weights.tobytes() == plain.weights.tobytes()
        assert floored.kkt_residual == plain.kkt_residual


def _assert_floor_kkt(m, mu, w, binds):
    """The certificate of ``test_long_only_floor_kkt_and_slsqp_at_size``:
    ``2 m w = lam 1 + eta mu + z`` with ``z >= 0``, ``z = 0`` on the
    support, and ``eta >= 0`` only when the floor binds (else 0)."""
    g = 2.0 * m @ w
    tol = 1e-9 * np.abs(g).max()
    support = w > 0.0
    assert np.all(w >= 0.0)
    rows = np.column_stack([np.ones(len(w)), mu] if binds else [np.ones(len(w))])
    mu_s = mu[support][0]
    if binds and np.all(mu[support] == mu_s):
        # the two rows are dependent on the support, so least squares cannot
        # pick eta: take the least eta >= 0 that keeps z >= 0 where mu < mu_s
        short = mu < mu_s
        g_s = g[support].mean()
        eta = ((g_s - g[short]) / (mu_s - mu[short])).max(initial=0.0)
        mult = np.array([g_s - eta * mu_s, eta])
    else:
        mult, *_ = np.linalg.lstsq(rows[support], g[support], rcond=None)
    z = g - rows @ mult
    assert np.abs(z[support]).max() <= tol
    assert np.all(z[~support] >= -tol)
    if binds:
        assert mult[1] >= -tol


def test_long_only_floor_sweep_binds_exactly_with_a_kkt_certificate():
    # floors from the median up to the best mean, on untied and tied means;
    # a floor binds exactly when the no-floor optimum misses it
    rng = np.random.default_rng(12)
    binding = 0
    for i in range(60):
        m, mu = _random_floor_problem(rng, tied=i % 2 == 1)
        plain = min_variance_long_only(m).weights
        for q in (50, 75, 90, 99, 100):
            target = float(np.percentile(mu, q))
            w = min_variance_long_only(m, mu=mu, mu_target=target).weights
            binds = mu @ plain < target
            if binds:
                binding += 1
                assert abs(mu @ w - target) <= 1e-12 * np.abs(mu).max()
            else:
                assert np.array_equal(w, plain)
            _assert_floor_kkt(m, mu, w, binds)
    assert binding >= 200


def test_long_only_floor_at_and_just_below_the_best_mean_converges():
    # floors at the best mean take the same two-row path as every other
    # floor; at and a few ulps below it the loop meets vertices whose
    # budget and floor rows are dependent over the free set
    cases = [(m, mu, mu.max() - below) for m, mu in _near_tied_floor_draws()
             for below in (0.0, 1e-15, 1e-13, 1e-10)]
    rng = np.random.default_rng(12)
    draws = [_random_floor_problem(rng, tied=i % 2 == 1) for i in range(1955)]
    for i in (70, 80, 90, 122, 338, 464, 558, 592, 668, 1002,
              1262, 1280, 1290, 1462, 1638, 1650, 1702, 1704, 1860, 1954):
        m, mu = draws[i]
        cases.append((m, mu, mu.max()))
    for m, mu, target in cases:
        plain = min_variance_long_only(m).weights
        w = min_variance_long_only(m, mu=mu, mu_target=target).weights
        assert mu @ w >= target - 1e-12 * np.abs(mu).max()
        _assert_floor_kkt(m, mu, w, binds=mu @ plain < target)


def test_bulk_release_refixed_by_a_zero_step_reaches_the_optimum(monkeypatch):
    # a seeded search's first problem whose terminal test releases two
    # bounds at once, one of which the next solve would drive negative:
    # a zero-length step fixes it again before the loop goes on
    rng = np.random.default_rng(2592)
    m = random_pd_matrix(rng, 4)
    mu = rng.normal(0.02, 0.05, 4)
    plain = min_variance_long_only(m).weights
    target = float(mu @ plain + 0.5 * (mu.max() - mu @ plain))
    solves = []
    eqp = optimizer._eqp

    def recording(m, rows, rhs, free):
        solves.append(free.copy())
        return eqp(m, rows, rhs, free)

    monkeypatch.setattr(optimizer, "_eqp", recording)
    w = min_variance_long_only(m, mu=mu, mu_target=target).weights
    # free set b releases two or more bounds of a, and c fixes one of them again
    assert any((b & ~a).sum() >= 2 and not (c & ~b).any() and (b & ~a & ~c).sum() == 1
               for a, b, c in zip(solves, solves[1:], solves[2:]))
    assert abs(mu @ w - target) <= 1e-12 * np.abs(mu).max()
    _assert_floor_kkt(m, mu, w, binds=True)
    oracle = _slsqp_min_quadratic(m, np.ones(4), floor=(mu, target))
    assert w @ m @ w <= oracle @ m @ oracle * (1.0 + 1e-9)


def test_active_set_from_every_vertex_returns_the_support_start_optimum():
    # a warm start anywhere on the simplex reaches the same optimum as the
    # clipped closed-form support, however many bounds it must release
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(8, 13))
        m = random_pd_matrix(rng, n)
        ones = np.ones(n)
        want, _ = optimizer._active_set_qp(m, ones[None], optimizer._ONE,
                                           *optimizer._support_start(m, ones))
        for start in np.eye(n):
            w, _ = optimizer._active_set_qp(m, ones[None], optimizer._ONE, start)
            assert np.abs(w - want).max() <= 1e-12


@pytest.mark.parametrize("name,m,mu", QP_CASES, ids=[c[0] for c in QP_CASES])
def test_unconstrained_paths_at_size(name, m, mu):
    s = np.linalg.solve(m, np.ones(len(mu)))
    w = min_variance_closed_form(m).weights
    assert np.abs(w * s.sum() - s).max() <= 1e-10 * np.abs(s).max()
    y = np.linalg.solve(m, mu)
    if y.sum() <= 0.0:
        with pytest.raises(NumericalError, match="not fully investable"):
            max_sharpe(m, mu, long_only=False)
        return
    w = max_sharpe(m, mu, long_only=False).weights
    assert np.abs(w * y.sum() - y).max() <= 1e-10 * np.abs(y).max()


@pytest.mark.parametrize("name,m,mu", QP_CASES, ids=[c[0] for c in QP_CASES])
def test_every_solver_reports_a_small_kkt_residual_at_size(name, m, mu):
    results = [min_variance_closed_form(m), min_variance_long_only(m),
               min_variance_long_only(m, mu=mu, mu_target=float(np.median(mu))),
               max_sharpe(m, mu)]
    if np.linalg.solve(m, mu).sum() > 0.0:
        results.append(max_sharpe(m, mu, long_only=False))
    for res in results:
        w = res.weights
        # the max-Sharpe residual is on the scale of y = w / (mu' w), where mu' y = 1
        scale = 1.0 if res.method == "min_var" else 1.0 / abs(w @ mu)
        assert res.kkt_residual <= 1e-9 * np.abs(2.0 * m @ w).max() * scale


# ---------------------------------------------------------------------------
# tangency portfolio


def test_max_sharpe_identity_cov():
    w = max_sharpe(np.eye(2), np.array([0.02, 0.01]))
    assert np.allclose(w.weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-10)
    assert w.method == "max_sharpe"


def test_max_sharpe_short_path():
    w = max_sharpe(np.eye(2), np.array([0.10, -0.05]), long_only=False)
    # w proportional to Sigma^{-1} mu, normalized to sum one
    assert np.allclose(w.weights, [2.0, -1.0], atol=1e-10)


def test_max_sharpe_needs_positive_excess():
    with pytest.raises(NumericalError, match="Sharpe has no maximum"):
        max_sharpe(np.eye(2), np.array([0.01, 0.02]), risk_free=0.05)


def test_max_sharpe_beats_random_feasible(rng):
    m = random_pd_matrix(rng, 4)
    mu = rng.uniform(0.01, 0.10, size=4)
    w = max_sharpe(m, mu)
    best = (w.weights @ mu) / np.sqrt(w.weights @ m @ w.weights)
    for _ in range(200):
        c = rng.dirichlet(np.ones(4))
        sharpe = (c @ mu) / np.sqrt(c @ m @ c)
        assert sharpe <= best + 1e-9


def test_max_sharpe_when_unconstrained_tangency_holds_nothing_long():
    # Sigma^{-1} mu has no positive entry, so the clipped closed-form
    # support is empty; the answer is the one asset with positive excess
    m = np.array([[1.0, -0.9], [-0.9, 1.0]])
    w = max_sharpe(m, np.array([-0.91, 0.8]))
    assert np.array_equal(w.weights, [0.0, 1.0])


def test_max_sharpe_risk_free_shift():
    m = np.eye(2)
    w_a = max_sharpe(m, np.array([0.06, 0.03]), risk_free=0.0)
    w_b = max_sharpe(m, np.array([0.08, 0.05]), risk_free=0.02)
    assert np.allclose(w_a.weights, w_b.weights, atol=1e-10)


# ---------------------------------------------------------------------------
# sensitivities


def test_variance_sensitivity_identity_two_assets():
    rep = sensitivity_to_variance(np.eye(2), 0)
    assert rep.dweight_dvar == pytest.approx(-0.25, abs=1e-14)
    assert rep.dsolve_k_dvar == pytest.approx(-1.0)
    assert rep.dtotal_dvar == pytest.approx(-1.0)
    assert rep.weight == pytest.approx(0.5)


def test_variance_sensitivity_scales_inversely():
    for c in (0.5, 2.0, 10.0):
        rep = sensitivity_to_variance(c * np.eye(2), 0)
        assert rep.dweight_dvar == pytest.approx(-1.0 / (4.0 * c), rel=1e-12)


def test_variance_sensitivity_matches_finite_difference(rng):
    for _ in range(5):
        m = random_pd_matrix(rng, 4, scale=0.1, )
        k = int(rng.integers(0, 4))
        rep = sensitivity_to_variance(m, k)
        eps = 1e-7 * m[k, k]
        up, dn = m.copy(), m.copy()
        up[k, k] += eps
        dn[k, k] -= eps
        fd = (min_variance_closed_form(up).weights[k]
              - min_variance_closed_form(dn).weights[k]) / (2.0 * eps)
        assert rep.dweight_dvar == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_variance_sensitivity_warns_on_shorted_asset():
    m = np.array([[1.0, 0.9], [0.9, 1.0]]) * np.outer([1.0, 3.0], [1.0, 3.0])
    with pytest.warns(SensitivitySignWarning):
        rep = sensitivity_to_variance(m, 1)
    assert rep.dweight_dvar >= 0.0


def test_hurst_sensitivity_scale_one_is_zero():
    cs = _set_for((np.eye(2) * 1e-4,), (1,), ("x", "y"))
    with pytest.warns(ScaleOneWarning):
        assert sensitivity_to_hurst(cs, 0, 1) == 0.0


def test_hurst_sensitivity_refuses_a_fractional_scale():
    rng = np.random.default_rng(14)
    cs = _set_for((np.eye(3) * 1e-4, random_pd_matrix(rng, 3, scale=0.01)), (1, 21),
                  ("a", "b", "c"))
    assert sensitivity_to_hurst(cs, 0, 21.0) == sensitivity_to_hurst(cs, 0, 21)
    # a scale is never truncated onto its neighbour, scale 1 included
    for dt in (21.9, 1.5):
        with pytest.raises(KeyError, match=f"scale {dt} not in"):
            sensitivity_to_hurst(cs, 0, dt)


@pytest.mark.parametrize("k, dt", [(99, 1), (99, 21), (-1, 1), (3, 21)])
def test_hurst_sensitivity_checks_asset_index_at_every_scale(k, dt):
    cs = _set_for((np.eye(3) * 1e-4, np.eye(3) * 2.1e-3), (1, 21), ("a", "b", "c"))
    with pytest.raises(ValueError, match=rf"asset index {k} outside \[0, 3\)"):
        sensitivity_to_hurst(cs, k, dt)


@pytest.mark.parametrize("k", [1.5, np.nan, "1", None])
def test_sensitivities_refuse_a_non_integer_asset_index(k):
    cs = _set_for((np.eye(3) * 1e-4, np.eye(3) * 2.1e-3), (1, 21), ("a", "b", "c"))
    message = rf"asset index {k} outside \[0, 3\)"
    for call in (lambda: sensitivity_to_variance(np.eye(3), k),
                 lambda: sensitivity_to_hurst(cs, k, 21),
                 lambda: correlation_sensitivity_analytic(np.eye(3), 0, k),
                 lambda: correlation_sensitivity_analytic(np.eye(3), k, 0)):
        with pytest.raises(ValueError, match=message):
            call()


def test_sensitivities_read_a_whole_index_as_an_int():
    cs = _set_for((np.eye(3) * 1e-4, np.eye(3) * 2.1e-3), (1, 21), ("a", "b", "c"))
    assert sensitivity_to_variance(np.eye(3), 1.0).k == 1
    assert sensitivity_to_hurst(cs, True, 21) == sensitivity_to_hurst(cs, 1, 21)
    assert np.array_equal(correlation_sensitivity_analytic(np.eye(3), 0, 1.0),
                          correlation_sensitivity_analytic(np.eye(3), 0, 1))
    with pytest.raises(ValueError, match="need two distinct indices"):
        correlation_sensitivity_analytic(np.eye(3), 1, 1.0)


def test_hurst_sensitivity_matches_finite_difference():
    rng = np.random.default_rng(14)
    m21 = random_pd_matrix(rng, 3, scale=0.01)
    cs = _set_for((np.eye(3) * 1e-4, m21), (1, 21), ("a", "b", "c"))
    k = 1
    got = sensitivity_to_hurst(cs, k, 21)
    # bump the exponent: var(dt) multiplies by dt^(2 eps)
    eps = 1e-7
    out = []
    for sign in (+1.0, -1.0):
        mm = m21.copy()
        mm[k, k] *= 21.0 ** (2.0 * sign * eps)
        out.append(min_variance_closed_form(mm).weights[k])
    fd = (out[0] - out[1]) / (2.0 * eps)
    assert got == pytest.approx(fd, rel=1e-4)


def test_hurst_sensitivity_negative_for_long_asset():
    cs = _set_for((np.eye(3) * 1e-4, np.eye(3) * 2.1e-3), (1, 21), ("a", "b", "c"))
    assert sensitivity_to_hurst(cs, 0, 21) < 0.0


def test_correlation_sensitivity_analytic_matches_fd(rng):
    for _ in range(5):
        m = random_pd_matrix(rng, 3, scale=0.1)
        grad = correlation_sensitivity_analytic(m, 0, 1)
        fd_pair = correlation_sensitivity(m, 0, 1, eps=1e-7)
        assert grad[0] + grad[1] == pytest.approx(fd_pair, rel=1e-4, abs=1e-10)


def test_correlation_sensitivity_negative_for_diagonal_dominant():
    m = np.diag([1.0, 1.2, 0.8])
    assert correlation_sensitivity(m, 0, 1) < 0.0


# ---------------------------------------------------------------------------
# risk-target verification


def test_target_curve_power_law():
    sig1 = np.eye(2) * 1e-4
    cs = _set_for(tuple(dt * sig1 for dt in (1, 5, 21)), (1, 5, 21), ("x", "y"))
    w = min_variance_closed_form(multiscale_cov(cs))
    # realized daily vol is sqrt(0.5e-4) ~ 0.71%; a 1% target clears every scale
    rep = check_target_curve(w, cs, sigma_target_daily=0.01, hurst_target=0.5)
    assert rep.all_within
    assert len(rep.rows) == 3
    # an impossible target fails at every scale
    rep_bad = check_target_curve(w, cs, sigma_target_daily=0.001, hurst_target=0.5)
    assert not rep_bad.all_within
    assert not any(r.within for r in rep_bad.rows)


def test_target_curve_table_form():
    sig1 = np.eye(2) * 1e-4
    cs = _set_for((sig1, 5.0 * sig1), (1, 5), ("x", "y"))
    w = np.array([0.5, 0.5])
    # portfolio variance 0.5e-4 at scale 1 and 2.5e-4 at scale 5; scales
    # outside the set are ignored
    rep = check_target_curve(w, cs, target_table={1: 1e-4, 5: 2e-4, 21: 1.0})
    assert rep.convention == "explicit per-scale variance targets"
    assert [r.target_variance for r in rep.rows] == [1e-4, 2e-4]
    assert [r.ratio for r in rep.rows] == pytest.approx([0.5, 1.25])
    assert [r.within for r in rep.rows] == [True, False]
    with pytest.raises(ValueError, match=r"^target_table missing scales \[5\]$"):
        check_target_curve(w, cs, target_table={1: 1e-4})


@pytest.mark.parametrize("table", [{1: 1e-4, 5.9: 1e-3}, {1: 1e-4, 5: 1e-3, 5.9: 2e-3}])
def test_target_curve_refuses_a_fractional_table_scale(table):
    # 5.9 is neither read as scale 5 nor allowed to replace its target
    sig1 = np.eye(2) * 1e-4
    cs = _set_for((sig1, 5.0 * sig1), (1, 5), ("x", "y"))
    with pytest.raises(ValueError, match="^scales must be positive integers, got 5.9$"):
        check_target_curve(np.array([0.5, 0.5]), cs, target_table=table)


@pytest.mark.parametrize("targets, message", [
    ({"sigma_target_daily": np.nan, "hurst_target": 0.5},
     "sigma_target_daily=nan must be positive and finite"),
    ({"sigma_target_daily": np.inf, "hurst_target": 0.5},
     "sigma_target_daily=inf must be positive and finite"),
    ({"sigma_target_daily": 0.0, "hurst_target": 0.5},
     "sigma_target_daily=0.0 must be positive and finite"),
    ({"target_table": {1: 1e-4, 5: -1.0}}, "target variances must be positive and finite"),
    ({"target_table": {1: 1e-4, 5: np.nan}}, "target variances must be positive and finite"),
    ({"target_table": {1: 1e-4, 5: np.inf}}, "target variances must be positive and finite"),
    ({"target_table": {1: 0.0, 5: 1e-4}}, "target variances must be positive and finite"),
    ({"sigma_target_daily": 1e200, "hurst_target": 0.5},
     "target variances must be positive and finite"),
    ({"sigma_target_daily": 1e-200, "hurst_target": 0.5},
     "target variances must be positive and finite"),
])
def test_target_curve_refuses_targets_that_are_not_positive_and_finite(targets, message):
    sig1 = np.eye(2) * 1e-4
    cs = _set_for((sig1, 5.0 * sig1), (1, 5), ("x", "y"))
    with pytest.raises(ValueError, match=f"^{message}"):
        check_target_curve(np.array([0.5, 0.5]), cs, **targets)


@pytest.mark.parametrize("weights, targets, message", [
    (np.array([0.5, 0.5]), {"sigma_target_daily": 0.01},
     r"need sigma_target_daily and hurst_target, or a target_table"),
    (np.array([0.5, 0.5]), {"hurst_target": 0.5},
     r"need sigma_target_daily and hurst_target, or a target_table"),
    (np.array([0.5, 0.5]), {"sigma_target_daily": 0.01, "hurst_target": 1.0},
     r"hurst_target=1.0 outside \(0, 1\)"),
    (np.array([0.5, 0.5]), {"sigma_target_daily": 0.01, "hurst_target": 0.0},
     r"hurst_target=0.0 outside \(0, 1\)"),
    (np.array([0.2, 0.3, 0.5]), {"sigma_target_daily": 0.01, "hurst_target": 0.5},
     r"weights shape \(3,\) does not match 2 assets"),
    (np.array([[0.5, 0.5]]), {"sigma_target_daily": 0.01, "hurst_target": 0.5},
     r"weights shape \(1, 2\) does not match 2 assets"),
])
def test_target_curve_refuses_a_missing_target_a_bad_exponent_and_misshapen_weights(
        weights, targets, message):
    sig1 = np.eye(2) * 1e-4
    cs = _set_for((sig1, 5.0 * sig1), (1, 5), ("x", "y"))
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_target_curve(weights, cs, **targets)


@pytest.mark.parametrize("weights, long_only, message", [
    ([0.5, 0.3, 0.2], False, r"weights shape \(3,\) does not match 2 assets"),
    ([np.nan, 1.0], False, r"weights must be finite"),
    ([0.5, np.inf], False, r"weights must be finite"),
    # the reprs of numpy scalars: NumPy 2 wraps them as np.float64(...)
    ([0.5, 0.5 + 2e-10], False, r"weights sum to (np\.float64\()?1\.0000000002\)?, not 1"),
    ([1.5, -0.5], True, r"long-only weights contain (np\.float64\()?-0\.5\)?"),
])
def test_portfolio_weights_refuses_shape_non_finite_budget_and_short_weights(
        weights, long_only, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        optimizer.PortfolioWeights(("x", "y"), weights, "test", long_only)


def test_portfolio_weights_keeps_a_budget_within_tolerance_and_shorts_when_allowed():
    w = optimizer.PortfolioWeights(("x", "y"), [1.5, -0.5 + 5e-11], "test", False)
    assert w.as_dict() == {"x": 1.5, "y": -0.5 + 5e-11}
    assert not w.weights.flags.writeable


def test_target_curve_ratio_definition():
    sig1 = np.eye(2) * 1e-4
    cs = _set_for((sig1,), (1,), ("x", "y"))
    w = min_variance_closed_form(multiscale_cov(cs))
    rep = check_target_curve(w, cs, sigma_target_daily=0.01, hurst_target=0.5)
    row = rep.rows[0]
    assert row.portfolio_variance == pytest.approx(0.5e-4)
    assert row.target_variance == pytest.approx(1e-4)
    assert row.ratio == pytest.approx(0.5)
    # weights over another universe are rejected, not matched by position
    other = min_variance_closed_form(multiscale_cov(_set_for((sig1,), (1,), ("x", "z"))))
    with pytest.raises(DataError, match="universe"):
        check_target_curve(other, cs, sigma_target_daily=0.01, hurst_target=0.5)
