"""Walk-forward evaluation and the strategy comparison table."""

import math
from collections import Counter

import numpy as np
import pytest

from multiscale_markowitz import covariance, optimizer
from multiscale_markowitz.errors import DataError, NumericalError
from multiscale_markowitz.backtest import (
    BacktestConfig,
    STRATEGY_EQUAL,
    STRATEGY_MARKOWITZ_DAILY,
    STRATEGY_MARKOWITZ_MULTISCALE,
    STRATEGY_MAX_SHARPE_DAILY,
    STRATEGY_MAX_SHARPE_MULTISCALE,
    compare,
    display_name,
    fit_weights,
    metrics,
    run_backtest,
    standard_comparison_configs,
)
from multiscale_markowitz.synth import constant_correlation_cov, gen_correlated
from multiscale_markowitz.timeseries import panel_from_returns


def _panel(n=400, n_assets=3, seed=0, drift=0.0):
    cov = constant_correlation_cov(n_assets, 0.3, sigma_daily=0.01)
    p = gen_correlated(n, cov, seed=seed)
    if drift:
        return panel_from_returns(p.returns + drift, asset_ids=p.asset_ids)
    return p


# ---------------------------------------------------------------------------
# performance metrics


def test_metrics_drawdown_hand_example():
    m = metrics([1.0, 2.0, 1.0])
    assert m.max_drawdown == pytest.approx(-0.5)
    # up ln2 then down ln2: zero mean log return
    assert m.sharpe == pytest.approx(0.0, abs=1e-12)


def test_metrics_sortino_infinite_without_downside():
    m = metrics([1.0, 1.05, 1.2, 1.25, 1.5])
    assert m.sortino == np.inf
    assert m.max_drawdown == 0.0


def test_metrics_alternating_small_moves():
    rng = np.random.default_rng(12)
    wiggle = 1.0 + rng.uniform(-0.1, 0.1, 400)
    eq = np.cumprod(1.0 + 0.01 * np.tile([1.0, -1.0], 200) * wiggle)
    m = metrics(np.concatenate([[1.0], eq]))
    assert abs(m.sharpe) < 0.5  # tiny negative drift from compounding


def test_metrics_constant_equity_rejected():
    with pytest.raises(NumericalError, match="zero variance"):
        metrics([1.0, 1.0, 1.0])


def test_metrics_near_constant_growth_has_no_ratios():
    # the log returns are ln 2 up to the last ulp: their spread is rounding,
    # so Sharpe and Sortino are NaN like the kurtosis, not 1e17 and inf
    m = metrics(2.0 ** np.arange(4))
    assert np.isnan(m.sharpe) and np.isnan(m.sortino) and np.isnan(m.excess_kurtosis)
    assert m.max_drawdown == 0.0


def test_metrics_needs_three_points():
    with pytest.raises(ValueError):
        metrics([1.0, 1.1])
    with pytest.raises(ValueError):
        metrics([1.0, -0.5, 1.0])


def test_metrics_annualization():
    rng = np.random.default_rng(1)
    r = rng.standard_normal(2000) * 0.01 + 0.0005
    eq = np.exp(np.concatenate([[0.0], np.cumsum(r)]))
    m = metrics(eq, periods_per_year=252)
    expected = r.mean() / r.std(ddof=1) * np.sqrt(252)
    assert m.sharpe == pytest.approx(expected, rel=1e-12)


def test_metrics_kurtosis_convention():
    from scipy import stats

    rng = np.random.default_rng(2)
    r = rng.standard_normal(5000) * 0.01
    eq = np.exp(np.concatenate([[0.0], np.cumsum(r)]))
    m = metrics(eq)
    assert m.excess_kurtosis == pytest.approx(
        stats.kurtosis(np.diff(np.log(eq)), fisher=True, bias=True))


@pytest.mark.filterwarnings("ignore:Precision loss:RuntimeWarning")
def test_metrics_kurtosis_matches_scipy_exactly():
    from scipy import stats

    rng = np.random.default_rng(2)
    r = rng.standard_normal(5000) * 0.01
    eq = np.exp(np.concatenate([[0.0], np.cumsum(r)]))
    want = stats.kurtosis(np.diff(np.log(eq)), fisher=True, bias=True)
    assert metrics(eq).excess_kurtosis == want
    # log returns all equal to ln 2: scipy's near-constant guard gives NaN
    eq = 2.0 ** np.arange(4)
    assert np.isnan(stats.kurtosis(np.diff(np.log(eq)), fisher=True, bias=True))
    assert np.isnan(metrics(eq).excess_kurtosis)


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        BacktestConfig(strategy="alpha_max")


def test_config_rejects_tiny_lookback():
    with pytest.raises(ValueError):
        BacktestConfig(lookback=5)


@pytest.mark.parametrize("field", ["lookback", "rebalance_every"])
def test_config_stores_integral_periods_as_int_and_refuses_fractions(field):
    cfg = BacktestConfig(**{field: 21.0})
    assert getattr(cfg, field) == 21 and type(getattr(cfg, field)) is int
    for bad in (200.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {bad!r}$"):
            BacktestConfig(**{field: bad})


@pytest.mark.parametrize("periods", [math.nan, math.inf, 252.5])
def test_periods_per_year_must_be_a_whole_number(periods):
    # NaN would make every Sharpe and Sortino NaN, inf make them -inf
    with pytest.raises(ValueError, match=f"^periods_per_year must be an integer, got {periods!r}$"):
        BacktestConfig(periods_per_year=periods)
    with pytest.raises(ValueError, match="^periods_per_year must be a positive integer"):
        metrics([1.0, 1.01, 0.99, 1.02], periods_per_year=periods)


@pytest.mark.parametrize("risk_free", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_risk_free(risk_free):
    with pytest.raises(ValueError, match="risk_free must be finite"):
        BacktestConfig(strategy=STRATEGY_EQUAL, risk_free=risk_free)


def test_config_effective_scales_for_daily():
    cfg = BacktestConfig(strategy=STRATEGY_MARKOWITZ_DAILY, scales=(1, 2, 5))
    assert cfg.effective_scales == (1,)
    cfg_ms = BacktestConfig(strategy=STRATEGY_MARKOWITZ_MULTISCALE, scales=(1, 2, 5))
    assert cfg_ms.effective_scales == (1, 2, 5)


# ---------------------------------------------------------------------------
# walk-forward mechanics


def test_backtest_panel_too_short():
    with pytest.raises(DataError, match="need lookback 125"):
        run_backtest(_panel(100), BacktestConfig(lookback=125))


def test_backtest_lookback_too_short_for_scales():
    with pytest.raises(ValueError):
        run_backtest(_panel(400), BacktestConfig(lookback=50, scales=(1, 21)))


@pytest.mark.parametrize("aggregation, lookback, ok", [
    ("overlapping", 40, True),      # 20 overlapping blocks of 21 days
    ("overlapping", 23, False),     # 3 overlapping blocks
    ("nonoverlapping", 40, False),  # no full phase of 21-day blocks
    ("nonoverlapping", 104, True),  # 4 blocks in the shortest phase
])
def test_backtest_lookback_check_counts_blocks_as_the_fit_does(aggregation, lookback, ok):
    cfg = BacktestConfig(strategy=STRATEGY_MARKOWITZ_MULTISCALE, aggregation=aggregation,
                         lookback=lookback, rebalance_every=10, scales=(1, 21))
    p = _panel(200)
    if not ok:
        with pytest.raises(ValueError, match=f"^lookback {lookback} leaves "):
            run_backtest(p, cfg)
        with pytest.raises(DataError):
            fit_weights(p.window(0, lookback), cfg)
        return
    fit_weights(p.window(0, lookback), cfg)
    assert run_backtest(p, cfg).fallbacks == ()


def test_backtest_equal_weight_equity_matches_manual():
    p = _panel(300, n_assets=2, seed=3)
    cfg = BacktestConfig(strategy=STRATEGY_EQUAL, lookback=125, rebalance_every=21)
    rep = run_backtest(p, cfg)
    simple = (np.exp(p.returns[125:]) - 1.0) @ np.array([0.5, 0.5])
    manual = np.concatenate([[1.0], np.cumprod(1.0 + simple)])
    assert np.allclose(rep.equity, manual, rtol=1e-12)
    assert len(rep.equity) == 300 - 125 + 1


def test_backtest_single_asset_equity_compounds_prices():
    r = np.random.default_rng(4).standard_normal(300) * 0.01
    p = panel_from_returns(r)
    cfg = BacktestConfig(strategy=STRATEGY_EQUAL, lookback=125)
    rep = run_backtest(p, cfg)
    assert rep.equity[-1] == pytest.approx(np.exp(r[125:].sum()), rel=1e-10)


def test_backtest_rebalance_count():
    p = _panel(300, seed=5)
    rep = run_backtest(p, BacktestConfig(lookback=125, rebalance_every=21))
    # fits at t = 125, 146, ... < 300
    expected = len(range(125, 300, 21))
    assert len(rep.weights_history) == expected
    assert len(rep.turnover) == expected
    assert rep.weights_history[0][0] == 125


def test_backtest_first_turnover_is_full_allocation():
    p = _panel(300, seed=6)
    rep = run_backtest(p, BacktestConfig(lookback=125))
    assert rep.turnover[0] == pytest.approx(1.0)


def test_backtest_weights_long_only_and_budgeted():
    p = _panel(420, seed=7)
    rep = run_backtest(p, BacktestConfig(lookback=125))
    for _, w in rep.weights_history:
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert w.min() >= -1e-12


def test_backtest_deterministic():
    p = _panel(350, seed=8)
    cfg = BacktestConfig(lookback=125)
    a = run_backtest(p, cfg)
    b = run_backtest(p, cfg)
    assert np.array_equal(a.equity, b.equity)
    assert a.performance == b.performance


@pytest.mark.parametrize("strategy", [STRATEGY_MARKOWITZ_MULTISCALE,
                                      STRATEGY_MAX_SHARPE_DAILY])
def test_fit_weights_records_the_blend(strategy):
    cfg = BacktestConfig(strategy=strategy)
    w = fit_weights(_panel(n=125, drift=1e-3), cfg)
    assert set(w.provenance) == {"scales", "covariance", "aggregation",
                                 "ridge", "psd_repaired"}
    assert w.provenance["scales"] == cfg.effective_scales
    assert w.provenance["psd_repaired"] is False
    assert w.provenance["ridge"] > 0.0


def test_backtest_fallback_on_fit_failure():
    # max-Sharpe cannot fit when every trailing mean return is negative
    r = np.random.default_rng(9).standard_normal((300, 2)) * 0.002 - 0.004
    p = panel_from_returns(r)
    cfg = BacktestConfig(strategy=STRATEGY_MAX_SHARPE_DAILY, lookback=125)
    rep = run_backtest(p, cfg)
    assert len(rep.fallbacks) > 0
    t, msg = rep.fallbacks[0]
    assert "NumericalError" in msg
    assert "Sharpe has no maximum" in msg
    # fallback keeps the equal allocation
    assert np.allclose(rep.weights_history[0][1], 0.5)


def test_backtest_future_data_does_not_affect_weights():
    p = _panel(400, seed=10)
    cfg = BacktestConfig(lookback=125, rebalance_every=21)
    base = run_backtest(p, cfg)
    # corrupt everything after the last fit time; weights must not move
    last_fit = base.weights_history[-1][0]
    mutated = p.returns.copy()
    mutated[last_fit:] *= -3.0
    rep2 = run_backtest(panel_from_returns(mutated, asset_ids=p.asset_ids), cfg)
    for (t1, w1), (t2, w2) in zip(base.weights_history, rep2.weights_history):
        assert t1 == t2
        assert np.array_equal(w1, w2)


# ---------------------------------------------------------------------------
# comparison table


def test_display_names():
    assert display_name(BacktestConfig(strategy=STRATEGY_EQUAL)) == "Equally Weighted"
    assert display_name(BacktestConfig(strategy=STRATEGY_MARKOWITZ_DAILY)) \
        == "Traditional Markowitz"
    assert "Multiscale" in display_name(BacktestConfig())


def test_standard_comparison_has_four_rows():
    cfgs = standard_comparison_configs()
    assert len(cfgs) == 4
    names = [display_name(c) for c in cfgs]
    assert names[0] == "Equally Weighted"
    assert len(set(names)) == 4


def test_standard_comparison_optional_max_sharpe_rows():
    cfgs = standard_comparison_configs(max_sharpe_rows=True)
    assert len(cfgs) == 7
    assert len({display_name(c) for c in cfgs}) == 7


def test_compare_table_format():
    p = _panel(350, seed=11)
    table = compare(p, standard_comparison_configs(BacktestConfig(lookback=125)))
    text = table.to_text()
    assert "Max Drawdown (%)" in text
    assert "Equally Weighted" in text
    assert "Traditional Markowitz" in text
    lines = [l for l in text.splitlines() if l.strip()]
    assert len(lines) >= 5
    csv_text = table.to_csv()
    header = csv_text.splitlines()[0].split(",")
    assert header[0] == "method"
    assert len(csv_text.splitlines()) == 5


# ---------------------------------------------------------------------------
# checks made once per refit


@pytest.mark.parametrize("strategy, aggregation, cumsums", [
    (STRATEGY_MARKOWITZ_DAILY, "nonoverlapping", 0),
    (STRATEGY_MARKOWITZ_MULTISCALE, "nonoverlapping", 1),
    (STRATEGY_MARKOWITZ_MULTISCALE, "overlapping", 1),
    (STRATEGY_MAX_SHARPE_MULTISCALE, "nonoverlapping", 1),
])
def test_fit_weights_decomposes_once(monkeypatch, strategy, aggregation, cumsums):
    # a refit on a package-built window takes one eigvalsh (the blend's),
    # one prefix sum for all its scales and no symmetry re-check
    window = _panel(n=400, n_assets=4, drift=0.001).window(100, 400)
    calls = Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(np.linalg, "eigvalsh")
    count(np, "cumsum")
    count(covariance, "check_symmetric")
    count(optimizer, "check_symmetric")
    cfg = BacktestConfig(strategy=strategy, aggregation=aggregation, lookback=300)
    fit_weights(window, cfg)
    assert calls == Counter(eigvalsh=1, cumsum=cumsums)


@pytest.mark.parametrize("strategy, solves, held", [
    (STRATEGY_MARKOWITZ_DAILY, 1, 4),
    (STRATEGY_MARKOWITZ_MULTISCALE, 1, 4),
    (STRATEGY_MAX_SHARPE_MULTISCALE, 2, 3),
])
def test_fit_weights_reuses_the_support_solve(monkeypatch, strategy, solves, held):
    # the active-set loop starts from the support start's last solve; here
    # that start is optimal, so a fit takes one solve per support pass:
    # one when every asset stays positive, two when max-Sharpe drops one
    window = _panel(n=400, n_assets=4, drift=0.001).window(100, 400)
    calls = Counter()
    eqp = optimizer._eqp

    def counted(*args):
        calls["_eqp"] += 1
        return eqp(*args)
    monkeypatch.setattr(optimizer, "_eqp", counted)
    w = fit_weights(window, BacktestConfig(strategy=strategy, lookback=300)).weights
    assert calls["_eqp"] == solves
    assert np.count_nonzero(w) == held


@pytest.mark.parametrize("method", [covariance.METHOD_PRODUCT, covariance.METHOD_L1])
@pytest.mark.parametrize("strategy", [
    STRATEGY_MARKOWITZ_DAILY, STRATEGY_MARKOWITZ_MULTISCALE, STRATEGY_MAX_SHARPE_MULTISCALE,
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy flags the overflow itself
def test_fit_weights_names_overflowing_scale(strategy, method):
    # finite returns whose products overflow fail where the covariance is
    # built, naming the scale, and not later in the blend's eigvalsh
    rng = np.random.default_rng(0)
    window = panel_from_returns(rng.standard_normal((200, 3)) * 1e155)
    cfg = BacktestConfig(strategy=strategy, covariance_method=method)
    with pytest.raises(DataError, match="variance at scale 1 overflows"):
        fit_weights(window, cfg)
