"""Acceptance gate: one test per release criterion, tolerances as stated.

Each test prints a single PASS/FAIL line with the measured quantity so a
plain ``pytest -s tests/test_acceptance.py`` reads as a checklist. Fixed
seeds come from ``split_seed`` so every criterion is reproducible in
isolation.
"""

import json
import time

import numpy as np
import pytest

from conftest import brute_force_min_variance

import multiscale_markowitz as mm
from multiscale_markowitz.backtest import BacktestConfig, run_backtest
from multiscale_markowitz.cli import main
from multiscale_markowitz.covariance import (
    METHOD_PRODUCT,
    ScaledCovarianceSet,
    build_covariance_set,
    multiscale_cov,
)
from multiscale_markowitz.optimizer import (
    min_variance_closed_form,
    min_variance_long_only,
    sensitivity_to_hurst,
    sensitivity_to_variance,
)
from multiscale_markowitz.scaling import estimate_correlation_scaling, estimate_hurst, mfdfa
from multiscale_markowitz.synth import (
    constant_correlation_cov,
    gen_correlated,
    gen_fgn,
    gen_gaussian_iid,
    gen_multifractal,
    split_seed,
)
from multiscale_markowitz.timeseries import panel_from_returns


def _report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _random_pd(rng, n, scale=1.0):
    b = rng.standard_normal((n, n)) * scale
    return b @ b.T + np.diag(rng.uniform(0.1, 1.0, size=n)) * scale**2


def _diag_dominant(rng, n):
    # small positive correlations on well-separated variances: the
    # unconstrained solution holds every asset long
    d = rng.uniform(0.8, 1.3, size=n)
    c = np.full((n, n), 0.1) + np.diag(1.0 - np.full(n, 0.1))
    return c * np.outer(np.sqrt(d), np.sqrt(d))


# ---------------------------------------------------------------------------
# 1. closed-form optimality conditions


def test_criterion_1_closed_form_stationarity():
    t0 = time.perf_counter()
    worst_resid = 0.0
    worst_budget = 0.0
    for i in range(100):
        rng = np.random.default_rng(split_seed(1001, i))
        sigma = _random_pd(rng, 5)
        w = min_variance_closed_form(sigma)
        s = np.linalg.solve(sigma, np.ones(5))
        lam = 2.0 / s.sum()
        resid = np.abs(2.0 * sigma @ w.weights - lam).max()
        worst_resid = max(worst_resid, resid)
        worst_budget = max(worst_budget, abs(w.weights.sum() - 1.0))
        assert w.provenance["lagrange_multiplier"] == pytest.approx(lam, rel=1e-12)
    elapsed = time.perf_counter() - t0
    ok = worst_resid < 1e-8 and worst_budget < 1e-10 and elapsed < 1.0
    _report(1, ok,
            f"100 5-asset instances, max |2 Sigma w - lambda 1| = {worst_resid:.2e} "
            f"(< 1e-8), max |sum w - 1| = {worst_budget:.2e} (< 1e-10), "
            f"{elapsed:.2f}s (< 1s)")


# ---------------------------------------------------------------------------
# 2. constrained solutions against grid search


def test_criterion_2_qp_matches_brute_force():
    t0 = time.perf_counter()
    worst_gap = -np.inf
    for i in range(20):
        rng = np.random.default_rng(split_seed(1002, i))
        sigma = _random_pd(rng, 3)

        w = min_variance_long_only(sigma)
        _, obj_grid = brute_force_min_variance(sigma, n_steps=1000)
        gap = float(w.weights @ sigma @ w.weights) - obj_grid
        worst_gap = max(worst_gap, gap)

        mu = rng.uniform(0.0, 0.1, size=3)
        target = mu.min() + 0.6 * (mu.max() - mu.min())
        wf = min_variance_long_only(sigma, mu=mu, mu_target=target)
        _, obj_grid_f = brute_force_min_variance(sigma, floor_vec=mu,
                                                 floor_rhs=target, n_steps=1000)
        gap_f = float(wf.weights @ sigma @ wf.weights) - obj_grid_f
        worst_gap = max(worst_gap, gap_f)
    elapsed = time.perf_counter() - t0
    ok = worst_gap < 1e-5 and elapsed < 30.0
    _report(2, ok,
            f"20 long-only + 20 return-floor instances vs 1e-3 simplex grid, "
            f"worst objective gap = {worst_gap:.2e} (< 1e-5), {elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 3. analytic sensitivities


def test_criterion_3_variance_and_exponent_sensitivities():
    worst_rel = 0.0
    all_negative = True
    all_h_negative = True
    for i in range(20):
        rng = np.random.default_rng(split_seed(1003, i))
        sigma = _diag_dominant(rng, 4)
        k = int(rng.integers(0, 4))
        rep = sensitivity_to_variance(sigma, k)
        assert rep.solve_vec[k] > 0  # fixture keeps every asset long

        eps = 1e-6 * sigma[k, k]
        up, dn = sigma.copy(), sigma.copy()
        up[k, k] += eps
        dn[k, k] -= eps
        fd = (min_variance_closed_form(up).weights[k]
              - min_variance_closed_form(dn).weights[k]) / (2.0 * eps)
        worst_rel = max(worst_rel, abs(rep.dweight_dvar - fd) / abs(fd))
        all_negative &= rep.dweight_dvar < 0.0

        cs = ScaledCovarianceSet(("a1", "a2", "a3", "a4"), (1, 21),
                                 (sigma, 21.0 * sigma),
                                 METHOD_PRODUCT, "nonoverlapping")
        all_h_negative &= sensitivity_to_hurst(cs, k, 21) < 0.0
    ok = worst_rel < 1e-4 and all_negative and all_h_negative
    _report(3, ok,
            f"20 instances: worst |analytic - fd| / |fd| = {worst_rel:.2e} (< 1e-4), "
            f"dw/dvar negative on all = {all_negative}, "
            f"dw/dH negative at scale 21 on all = {all_h_negative}")


# ---------------------------------------------------------------------------
# 4. correlation raises, pair weight falls


def test_criterion_4_pair_weight_decreases_in_correlation():
    all_strict = True
    for i in range(20):
        rng = np.random.default_rng(split_seed(1004, i))
        d = rng.uniform(0.8, 1.25, size=3)
        pair_weights = []
        for rho in np.arange(0.0, 0.501, 0.05):
            sigma = np.diag(d).astype(float)
            sigma[0, 1] = sigma[1, 0] = rho * np.sqrt(d[0] * d[1])
            w = min_variance_closed_form(sigma).weights
            pair_weights.append(w[0] + w[1])
        steps = np.diff(pair_weights)
        all_strict &= bool(np.all(steps < 0.0))
    _report(4, all_strict,
            "rho_12 from 0 to 0.5 strictly lowers w_1 + w_2 on all 20 "
            f"diagonal-dominant instances = {all_strict}")


# ---------------------------------------------------------------------------
# 5. exponent recovery by both estimators


def test_criterion_5_hurst_recovery():
    t0 = time.perf_counter()
    detail = []
    ok = True
    for hurst in (0.3, 0.5, 0.7):
        sf_vals = []
        dfa_vals = []
        for s in range(20):
            panel = gen_fgn(1 << 14, hurst=hurst, seed=split_seed(3, s))
            sf_vals.append(estimate_hurst(panel).value)
            dfa_vals.append(mfdfa(panel, q_grid=(2.0,)).h_at(2.0))
        sf_mean = float(np.mean(sf_vals))
        dfa_mean = float(np.mean(dfa_vals))
        ok &= abs(sf_mean - hurst) < 0.05 and abs(dfa_mean - hurst) < 0.05
        detail.append(f"H={hurst}: structure {sf_mean:.3f}, dfa {dfa_mean:.3f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _report(5, ok, "; ".join(detail) + f" (each within +/-0.05, 20-seed means), "
            f"{elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# 6. spectrum width separates cascade from iid


def test_criterion_6_multifractality_detection():
    cascade_spreads = []
    iid_spreads = []
    for s in range(5):
        casc = gen_multifractal(1 << 13, intermittency=0.2, seed=split_seed(1, s))
        cascade_spreads.append(mfdfa(casc).h_spread())
        iid = gen_gaussian_iid(1 << 13, seed=split_seed(2, s))
        iid_spreads.append(mfdfa(iid).h_spread())
    ok = all(v > 0.1 for v in cascade_spreads) and all(v < 0.1 for v in iid_spreads)
    _report(6, ok,
            f"cascade h(-4)-h(4) in [{min(cascade_spreads):.2f}, "
            f"{max(cascade_spreads):.2f}] (> 0.1); iid spread max "
            f"{max(iid_spreads):.3f} (< 0.1)")


# ---------------------------------------------------------------------------
# 7. correlation growth exponent and its decomposition


def test_criterion_7_epps_exponent_recovery():
    worst_err = 0.0
    identity_ok = True
    for s in range(5):
        panel = mm.gen_epps(1 << 14, rho_inf=0.6, h_rho=0.3, seed=split_seed(100, s))
        cs = estimate_correlation_scaling(panel, "a1", "a2")
        worst_err = max(worst_err, abs(cs.h_rho - 0.3))
        identity_ok &= abs(cs.identity_residual) <= 2.0 * cs.combined_stderr
    ok = worst_err < 0.1 and identity_ok
    _report(7, ok,
            f"5 seeds: worst |H_rho - 0.3| = {worst_err:.3f} (< 0.1), "
            f"identity residual within 2x combined stderr on all = {identity_ok}")


# ---------------------------------------------------------------------------
# 8. scale-invariant truth collapses multiscale to daily


def test_criterion_8_elliptical_equivalence():
    # exact truth: Sigma(dt) = dt * Sigma(1)
    rng = np.random.default_rng(split_seed(1008, 0))
    sigma1 = _random_pd(rng, 4, scale=0.01)
    scales = (1, 2, 5, 10, 21)
    cs_all = ScaledCovarianceSet(("a1", "a2", "a3", "a4"), scales,
                                 tuple(dt * sigma1 for dt in scales),
                                 METHOD_PRODUCT, "nonoverlapping")
    cs_daily = ScaledCovarianceSet(("a1", "a2", "a3", "a4"), (1,), (sigma1,),
                                   METHOD_PRODUCT, "nonoverlapping")
    w_multi = min_variance_long_only(multiscale_cov(cs_all)).weights
    w_daily = min_variance_long_only(multiscale_cov(cs_daily)).weights
    exact_gap = float(np.abs(w_multi - w_daily).max())

    # sampled truth: per-rebalance agreement between the two strategies
    seed_means = []
    for s in range(20):
        seed = split_seed(8, s)
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((3, 3)) * 0.004
        sig = b @ b.T + np.diag([1e-4, 1.3e-4, 0.9e-4])
        panel = gen_correlated(1500, sig, seed=seed)
        rd = run_backtest(panel, BacktestConfig(strategy="markowitz_daily",
                                                lookback=750))
        rm = run_backtest(panel, BacktestConfig(strategy="markowitz_multiscale",
                                                lookback=750))
        gaps = [np.abs(w1 - w2).max() for (_, w1), (_, w2)
                in zip(rd.weights_history, rm.weights_history)]
        seed_means.append(float(np.mean(gaps)))
    sampled_gap = float(np.mean(seed_means))
    ok = exact_gap < 1e-8 and sampled_gap < 0.05
    _report(8, ok,
            f"exact-truth weight gap = {exact_gap:.2e} (< 1e-8); backtest "
            f"20-seed mean L-inf gap = {sampled_gap:.4f} (< 0.05)")


# ---------------------------------------------------------------------------
# 9. the one-command pipeline is deterministic


def test_criterion_9_repro_pipeline(tmp_path, capsys):
    outputs = []
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        code = main(["repro", "--seed", "7", "--out-dir", str(d)])
        assert code == 0
        outputs.append(d)
    capsys.readouterr()  # repro output is verified from its files

    table_a = (outputs[0] / "repro_table.txt").read_bytes()
    table_b = (outputs[1] / "repro_table.txt").read_bytes()
    summary_a = (outputs[0] / "repro_summary.json").read_bytes()
    summary_b = (outputs[1] / "repro_summary.json").read_bytes()
    deterministic = table_a == table_b and summary_a == summary_b

    rep = json.loads(summary_a)
    rows = rep["strategies"]
    four_rows = len(rows) == 4
    finite = all(bool(np.all(np.isfinite([r["sharpe"], r["sortino"],
                                          r["max_drawdown"]])))
                 for r in rows)
    header_ok = table_a.decode().splitlines()[0].split() == [
        "Method", "Sharpe", "Ratio", "Sortino", "Ratio", "Max", "Drawdown", "(%)"]
    recorded = rep["multiscale_drawdown_no_worse"] is not None
    ok = deterministic and four_rows and finite and header_ok and recorded
    _report(9, ok,
            f"two repro runs byte-identical = {deterministic}; 4 strategies = "
            f"{four_rows}; metrics finite = {finite}; drawdown comparison "
            f"recorded (not asserted) = {rep['multiscale_drawdown_no_worse']}")


# ---------------------------------------------------------------------------
# 10. estimation never sees the future


def test_criterion_10_no_look_ahead():
    panel = gen_correlated(400, constant_correlation_cov(3, 0.3, 0.01), seed=split_seed(1010, 0))
    cfg = BacktestConfig(lookback=125, rebalance_every=21)
    base = run_backtest(panel, cfg)

    all_identical = True
    for t_fit, w_base in base.weights_history:
        mutated = panel.returns.copy()
        mutated[t_fit:] = -3.0 * mutated[t_fit:] + 0.02
        rep = run_backtest(panel_from_returns(mutated, asset_ids=panel.asset_ids),
                           cfg)
        w_mut = dict(rep.weights_history)[t_fit]
        all_identical &= bool(np.array_equal(w_base, w_mut))
    _report(10, all_identical,
            f"mutating every return from each fit time onward leaves that fit's "
            f"weights bit-identical across {len(base.weights_history)} rebalances "
            f"= {all_identical}")
