"""Walk-forward evaluation and the strategy comparison table."""

import dataclasses
import itertools
import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from multiscale_markowitz import backtest, covariance, optimizer
from multiscale_markowitz.errors import DataError, DegenerateAssetWarning, NumericalError
from multiscale_markowitz.backtest import (
    OBJECTIVES,
    BacktestConfig,
    STRATEGY_EQUAL,
    STRATEGY_MARKOWITZ_DAILY,
    STRATEGY_MARKOWITZ_MULTISCALE,
    STRATEGY_MAX_SHARPE_DAILY,
    STRATEGY_MAX_SHARPE_MULTISCALE,
    STRATEGIES,
    compare,
    display_name,
    fit,
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


@pytest.mark.parametrize("kwargs, message", [
    ({"covariance_method": "x"}, "unknown covariance method 'x'"),
    ({"aggregation": "x"}, "unknown aggregation 'x'"),
])
def test_config_rejects_unknown_method_or_aggregation(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        BacktestConfig(**kwargs)


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


@pytest.mark.parametrize("periods", [0, -252])
def test_config_refuses_periods_per_year_below_one(periods):
    with pytest.raises(ValueError, match="^periods_per_year must be positive$"):
        BacktestConfig(periods_per_year=periods)


@pytest.mark.parametrize("risk_free", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_risk_free(risk_free):
    with pytest.raises(ValueError, match="risk_free must be finite"):
        BacktestConfig(strategy=STRATEGY_EQUAL, risk_free=risk_free)


@pytest.mark.parametrize("ridge, message", [
    (-1, "ridge must be non-negative and finite, got -1.0"),
    (math.nan, "ridge must be non-negative and finite, got nan"),
    ("bogus", "ridge must be a float or 'auto', got 'bogus'"),
])
def test_config_rejects_a_bad_ridge_when_built(ridge, message):
    # with the blend's own messages, and before any refit, so that an
    # equal-weight run cannot record a ridge no blend would accept
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BacktestConfig(strategy=STRATEGY_EQUAL, ridge=ridge)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        covariance.multiscale_cov(covariance.build_covariance_set(_panel(100), (1,)), ridge=ridge)


@pytest.mark.parametrize("ridge", ["auto", 0, 0.5, np.float64(1e-6)])
def test_config_keeps_a_good_ridge_as_given(ridge):
    got = dataclasses.asdict(BacktestConfig(ridge=ridge))["ridge"]
    assert got == ridge and type(got) is type(ridge)


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
    with pytest.raises(DataError, match="^scale 21 leaves 1 blocks in the worst phase, need >= 4$"):
        run_backtest(_panel(400), BacktestConfig(lookback=50, scales=(1, 21)))


def test_backtest_panel_must_leave_two_returns_after_the_window():
    # one row past the window gives a two-point equity curve, which metrics refuses;
    # as a DataError it is an error row in compare rather than sinking the table
    p = _panel(20)
    base = BacktestConfig(lookback=8, rebalance_every=1)
    configs = [dataclasses.replace(base, strategy=s)
               for s in (STRATEGY_EQUAL, STRATEGY_MARKOWITZ_DAILY)]
    error = ("panel has 9 rows; need lookback 8 plus one holding period of 1, "
             "and 2 rows after the window")
    with pytest.raises(DataError, match=f"^{error}$"):
        run_backtest(p.window(0, 9), configs[0])
    table = compare(p.window(0, 9), configs)
    assert [row.error for row in table.rows] == [f"DataError: {error}"] * 2
    assert table.reports == (None, None)
    assert len(run_backtest(p.window(0, 10), configs[0]).equity) == 3


def test_compare_makes_an_error_row_of_a_window_too_short_for_the_largest_scale():
    # 40 rows hold no full phase of 21-day blocks, but overlapping blocks and scale 1 fit
    table = compare(_panel(300), standard_comparison_configs(
        BacktestConfig(lookback=40, rebalance_every=10)))
    assert [row.name for row in table.rows] == [
        "Equally Weighted", "Traditional Markowitz", "Multiscale Markowitz",
        "Multiscale Markowitz (Overlapping)"]
    assert [row.error for row in table.rows] == [
        None, None, "DataError: scale 21 leaves 0 blocks in the worst phase, need >= 4", None]
    assert [rep is None for rep in table.reports] == [False, False, True, False]


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
        # the walk refuses up front with the refit's own message
        with pytest.raises(DataError, match="^scale 21 leaves [0-3] (blocks in the worst phase"
                                            "|overlapping observations), need >= 4$") as walk:
            run_backtest(p, cfg)
        with pytest.raises(DataError) as refit:
            fit_weights(p.window(0, lookback), cfg)
        assert str(walk.value) == str(refit.value)
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


def test_backtest_equity_is_the_running_product_bit_for_bit():
    # refitted weights and a short last holding period; the curve must be
    # the day-by-day running product, multiplied in the same order
    p = _panel(310, n_assets=3, seed=5)
    cfg = BacktestConfig(strategy=STRATEGY_MARKOWITZ_MULTISCALE, lookback=125,
                         rebalance_every=21)
    rep = run_backtest(p, cfg)
    equity = [1.0]
    for t, w in rep.weights_history:
        for g in 1.0 + (np.exp(p.returns[t:t + 21]) - 1.0) @ w:
            equity.append(equity[-1] * g)
    assert len(rep.weights_history) == 9
    assert np.array_equal(rep.equity, equity)


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


@pytest.mark.parametrize("n_assets", [2, 11, 140])
def test_turnover_after_the_walk_matches_each_refits_own_sum(n_assets):
    # falling prices until day 300 leave max-Sharpe no optimum on the early
    # windows, which keep the previous weights; the later fits move them
    rng = np.random.default_rng(n_assets)
    r = rng.standard_normal((520, n_assets)) * 0.01
    r += np.where(np.arange(520) < 300, -0.004, 0.004)[:, None]
    cfg = BacktestConfig(strategy=STRATEGY_MAX_SHARPE_DAILY, lookback=125, rebalance_every=9)
    rep = run_backtest(panel_from_returns(r), cfg)
    assert rep.fallbacks and len(rep.fallbacks) < len(rep.weights_history)
    want, prev = [], np.zeros(n_assets)
    for _, cur in rep.weights_history:
        want.append(float(np.abs(cur - prev).sum()))
        prev = cur
    assert rep.turnover.tobytes() == np.asarray(want).tobytes()
    assert abs(rep.turnover[0] - 1.0) <= 1e-12 and 0.0 in rep.turnover


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


def test_lineup_names_and_rows_are_pinned():
    assert STRATEGIES == ("equal_weight", "markowitz_daily", "markowitz_multiscale",
                          "max_sharpe_daily", "max_sharpe_multiscale")
    lineup = [(c.strategy, c.aggregation, display_name(c))
              for c in standard_comparison_configs(max_sharpe_rows=True)]
    assert lineup == [
        ("equal_weight", "nonoverlapping", "Equally Weighted"),
        ("markowitz_daily", "nonoverlapping", "Traditional Markowitz"),
        ("markowitz_multiscale", "nonoverlapping", "Multiscale Markowitz"),
        ("markowitz_multiscale", "overlapping", "Multiscale Markowitz (Overlapping)"),
        ("max_sharpe_daily", "nonoverlapping", "Traditional Max Sharpe"),
        ("max_sharpe_multiscale", "nonoverlapping", "Multiscale Max Sharpe"),
        ("max_sharpe_multiscale", "overlapping", "Multiscale Max Sharpe (Overlapping)"),
    ]
    assert standard_comparison_configs() == standard_comparison_configs(max_sharpe_rows=True)[:4]
    # scale 1 alone has one phase, so only the multiscale fits name their aggregation
    for strategy in (STRATEGY_EQUAL, STRATEGY_MARKOWITZ_DAILY, STRATEGY_MAX_SHARPE_DAILY):
        cfg = BacktestConfig(strategy=strategy, aggregation="overlapping")
        assert "Overlapping" not in display_name(cfg)


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


def test_compare_renders_a_failed_row():
    # one config's lookback exceeds the panel; the other rows still run
    configs = [BacktestConfig(strategy=STRATEGY_EQUAL, lookback=100),
               BacktestConfig(strategy=STRATEGY_MARKOWITZ_DAILY, lookback=1000)]
    table = compare(_panel(300, seed=11), configs)
    error = "DataError: panel has 300 rows; need lookback 1000 plus one holding period of 21"
    assert table.rows[1].error == error and table.reports[1] is None
    failed = table.to_text().splitlines()[2].split()
    assert failed[:4] == ["Traditional", "Markowitz", "failed", "failed"]
    assert " ".join(failed[4:]) == error
    assert table.to_csv().splitlines()[2] == f'Traditional Markowitz,,,,"{error}"'


def test_csv_error_cell_quotes_a_double_quote_as_single():
    row = backtest.TableRow("Broken", None, None, None, error='bad "lookback"')
    table = backtest.ComparisonTable((row,), (None,))
    assert table.to_csv() == "method,sharpe,sortino,max_drawdown,error\nBroken,,,,\"bad 'lookback'\"\n"


# ---------------------------------------------------------------------------
# covariance sets shared by the rows of one compare


def _lineup(lookback=125, rebalance_every=21):
    return standard_comparison_configs(
        BacktestConfig(lookback=lookback, rebalance_every=rebalance_every), max_sharpe_rows=True)


def _assert_same_report(got, want):
    assert [t for t, _ in got.weights_history] == [t for t, _ in want.weights_history]
    assert all(np.array_equal(a, b) for (_, a), (_, b)
               in zip(got.weights_history, want.weights_history))
    assert np.array_equal(got.equity, want.equity)
    assert np.array_equal(got.turnover, want.turnover)
    assert got.fallbacks == want.fallbacks
    assert np.array_equal(got.performance, want.performance, equal_nan=True)


def _spy_shared_sets(monkeypatch):
    """Every memo a one-row or group set build ran under, as the list the spy fills."""
    memos = []

    def spy(build):
        def wrapper(*args, **kwargs):
            shared = backtest._SHARED_SETS.get()
            if shared is not None and all(m is not shared[0] for m in memos):
                memos.append(shared[0])
            return build(*args, **kwargs)
        return wrapper
    for name in ("build_covariance_set", "_build_sets"):
        monkeypatch.setattr(backtest, name, spy(getattr(backtest, name)))
    return memos


def _spy_held_sets(monkeypatch, memos):
    """The sets each memo holds as each row starts, as the list the spy fills."""
    held = []
    walk = backtest.run_backtest

    def spy(panel, cfg):
        held.append([len(m) for m in memos])
        return walk(panel, cfg)
    monkeypatch.setattr(backtest, "run_backtest", spy)
    return held


def test_compare_rows_match_their_own_backtests_bit_for_bit(monkeypatch):
    p = _panel(400, n_assets=4, seed=21, drift=0.001)
    configs = _lineup()
    memos = _spy_shared_sets(monkeypatch)
    held = _spy_held_sets(monkeypatch, memos)
    table = compare(p, configs)
    # the first daily row builds each window's daily and both multiscale
    # sets in one call, held as one entry; the first max-Sharpe row adds the
    # window means; one memo holds them all until compare returns
    windows = len(range(125, 400, 21))
    assert held == [[], [], [windows], [windows],
                    [windows], [2 * windows], [2 * windows]]
    assert len(memos) == 1 and memos[0] == {} and backtest._SHARED_SETS.get() is None
    for rep, cfg in zip(table.reports, configs):
        _assert_same_report(rep, run_backtest(p, cfg))


def test_compare_rows_of_both_objectives_in_pairs_match_their_own_backtests(monkeypatch):
    # each daily or multiscale row comes right after the row it shares with
    p = _panel(400, n_assets=4, seed=27, drift=0.001)
    lineup = _lineup()
    configs = [lineup[1], lineup[4], lineup[2], lineup[5]]
    memos = _spy_shared_sets(monkeypatch)
    held = _spy_held_sets(monkeypatch, memos)
    table = compare(p, configs)
    windows = len(range(125, 400, 21))
    assert held == [[], [windows], [2 * windows], [2 * windows]]
    assert len(memos) == 1 and memos[0] == {} and backtest._SHARED_SETS.get() is None
    for rep, cfg in zip(table.reports, configs):
        _assert_same_report(rep, run_backtest(p, cfg))


@pytest.mark.parametrize("configs", [
    [BacktestConfig(lookback=125)],
    standard_comparison_configs(BacktestConfig(lookback=125)),
    # no objective, no set: equal weights share with nobody
    [BacktestConfig(strategy=STRATEGY_EQUAL), BacktestConfig(strategy=STRATEGY_MARKOWITZ_DAILY)],
])
def test_compare_opens_no_memo_where_no_two_rows_share_a_set(monkeypatch, configs):
    memos = _spy_shared_sets(monkeypatch)
    compare(_panel(300, seed=26, drift=0.001), configs)
    assert memos == []


def test_compare_drops_its_shared_sets_when_a_row_raises(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("solver broke")
    memos = _spy_shared_sets(monkeypatch)
    monkeypatch.setattr(backtest, "max_sharpe", broken)
    # the first max-Sharpe row raises while the memo holds every group's sets
    with pytest.raises(RuntimeError, match="solver broke"):
        compare(_panel(300, seed=22, drift=0.001), _lineup())
    assert len(memos) == 1 and memos[0] == {} and backtest._SHARED_SETS.get() is None


def test_compare_on_a_changed_panel_with_the_same_dates_builds_fresh_sets():
    p = _panel(300, n_assets=4, seed=23, drift=0.001)
    changed = panel_from_returns(-0.5 * p.returns + 0.002, asset_ids=p.asset_ids)
    assert np.array_equal(p.timestamps, changed.timestamps)
    configs = _lineup()
    compare(p, configs)
    for rep, cfg in zip(compare(changed, configs).reports, configs):
        _assert_same_report(rep, run_backtest(changed, cfg))


def test_compare_keeps_the_error_row_of_a_shared_group_and_runs_the_rest():
    # 60 rows hold no full phase of 21-day blocks: both non-overlapping
    # multiscale rows fail, and the rows sharing with nobody or each other run
    p = _panel(300, n_assets=4, seed=24, drift=0.001)
    configs = _lineup(lookback=60, rebalance_every=10)
    table = compare(p, configs)
    error = "DataError: scale 21 leaves 1 blocks in the worst phase, need >= 4"
    assert [row.error for row in table.rows] == [None, None, error, None, None, error, None]
    for rep, cfg in zip(table.reports, configs):
        if rep is not None:
            _assert_same_report(rep, run_backtest(p, cfg))


def test_compare_never_sees_the_future_through_a_shared_set():
    p = _panel(300, n_assets=3, seed=25, drift=0.001)
    configs = _lineup()
    base = compare(p, configs).reports
    for t_fit, _ in base[0].weights_history:
        mutated = p.returns.copy()
        mutated[t_fit:] = -3.0 * mutated[t_fit:] + 0.02
        table = compare(panel_from_returns(mutated, asset_ids=p.asset_ids), configs)
        for want, got in zip(base, table.reports):
            fits = [(t, w) for t, w in want.weights_history if t <= t_fit]
            assert all(np.array_equal(w, w_got) for (_, w), (_, w_got)
                       in zip(fits, got.weights_history))


@pytest.mark.parametrize("method", [covariance.METHOD_PRODUCT, covariance.METHOD_L1])
@pytest.mark.parametrize("constant", [False, True])
def test_scale_one_is_the_same_in_the_daily_and_both_multiscale_sets(method, constant):
    # what lets a daily row take its set from a multiscale one
    returns = _panel(300, n_assets=4, seed=28, drift=0.001).returns.copy()
    if constant:
        returns[:, 2] = 0.0004
    window = panel_from_returns(returns).window(40, 265)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateAssetWarning)
        daily = covariance.build_covariance_set(window, (1,), method=method).matrices[0]
        for scales, aggregation in itertools.product(
                [(1, 2, 5, 10, 21), (21, 1, 5)], ["nonoverlapping", "overlapping"]):
            whole = covariance.build_covariance_set(window, scales, method=method,
                                                    aggregation=aggregation)
            assert whole.matrix_at(1).tobytes() == daily.tobytes(), (scales, aggregation)
    assert not constant or not daily[2].any()


def _spy_calls(monkeypatch, name):
    """The ``(args, kwargs, result)`` of every call to ``backtest.<name>``."""
    calls = []
    original = getattr(backtest, name)

    def spy(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out
    monkeypatch.setattr(backtest, name, spy)
    return calls


def test_compare_shares_blends_and_means_across_the_rows_of_a_window(monkeypatch):
    p = _panel(400, n_assets=4, seed=29, drift=0.001)
    sets = _spy_calls(monkeypatch, "_build_sets")
    blends = _spy_calls(monkeypatch, "multiscale_cov")
    solves = _spy_calls(monkeypatch, "max_sharpe")
    compare(p, _lineup())
    windows = len(range(125, 400, 21))
    # one build of the group's three sets, and one blend per set, per window
    assert [args[1] for args, _, _ in sets] == [(
        ((1,), "nonoverlapping"), ((1, 2, 5, 10, 21), "nonoverlapping"),
        ((1, 2, 5, 10, 21), "overlapping"))] * windows
    assert len(blends) == 6 * windows
    assert len({id(out) for _, _, out in blends}) == 3 * windows
    # the three max-Sharpe rows take each window's mean from one array
    assert len(solves) == 3 * windows
    assert len({id(args[1]) for args, _, _ in solves}) == windows


def test_compare_daily_rows_take_scale_one_from_the_overlapping_set_at_lookback_60(
        monkeypatch):
    # 60 rows hold no full phase of 21-day blocks, so the non-overlapping
    # multiscale rows are error rows, build nothing and request no set; the
    # daily set holds the overlapping set's scale-1 matrix
    p = _panel(300, n_assets=4, seed=24, drift=0.001)
    configs = _lineup(lookback=60, rebalance_every=10)
    one_row = _spy_calls(monkeypatch, "build_covariance_set")
    sets = _spy_calls(monkeypatch, "_build_sets")
    table = compare(p, configs)
    windows = len(range(60, 300, 10))
    assert one_row == []
    assert [args[1] for args, _, _ in sets] == \
        [(((1,), "nonoverlapping"), ((1, 2, 5, 10, 21), "overlapping"))] * windows
    assert all(daily.matrices[0] is whole.matrix_at(1) for _, _, (daily, whole) in sets)
    for rep, cfg in zip(table.reports, configs):
        if rep is not None:
            _assert_same_report(rep, run_backtest(p, cfg))


def test_compare_daily_rows_build_their_own_sets_where_the_multiscale_set_fails(
        monkeypatch):
    def no_multiscale(build):
        def wrapper(window, scales, *args, **kwargs):
            if scales != (1,):
                raise DataError("no multiscale set here")
            return build(window, scales, *args, **kwargs)
        return wrapper
    # a group build, which takes a list of requests, raises too
    for name in ("build_covariance_set", "_build_sets"):
        monkeypatch.setattr(backtest, name, no_multiscale(getattr(backtest, name)))
    p = _panel(400, n_assets=4, seed=30, drift=0.001)
    configs = _lineup()
    table = compare(p, configs)
    windows = len(range(125, 400, 21))
    for rep, cfg in zip(table.reports, configs):
        assert len(rep.fallbacks) == (windows if len(cfg.effective_scales) > 1 else 0)
        _assert_same_report(rep, run_backtest(p, cfg))


_WHOLE = (1, 2, 5, 10, 21)


@pytest.mark.parametrize("magnitude, failing, error, built", [
    # the overlapping product overflows at scale 2; the non-overlapping one,
    # which weights the block sums before their product, does not, and the
    # daily and non-overlapping rows build their own sets
    (3e153, {3, 6}, "variance at scale 2 overflows",
     [((1,), "nonoverlapping"), (_WHOLE, "nonoverlapping")] * 2),
    (1e154, {1, 2, 3, 4, 5, 6}, "variance at scale 1 overflows", []),
])
def test_compare_falls_back_to_one_mode_builds_where_the_joint_build_fails(
        monkeypatch, magnitude, failing, error, built):
    # six huge rows lie in the first window alone, so only that window's
    # group build raises, once; each row then gets the set or the error that
    # its own backtest gets
    returns = _panel(300, n_assets=4, seed=34, drift=0.001).returns.copy()
    returns[:6] = magnitude
    p = panel_from_returns(returns)
    configs = _lineup()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflowing products
        alone = [run_backtest(p, cfg) for cfg in configs]
    joint = []
    build_sets = backtest._build_sets

    def spy(window, *args, **kwargs):
        try:
            out = build_sets(window, *args, **kwargs)
        except DataError:
            joint.append((window.timestamps[0], False))
            raise
        joint.append((window.timestamps[0], True))
        return out
    monkeypatch.setattr(backtest, "_build_sets", spy)
    one_mode = _spy_calls(monkeypatch, "build_covariance_set")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        table = compare(p, configs)
    first = p.timestamps[0]
    assert joint == [(p.timestamps[t - 125], t != 125) for t in range(125, 300, 21)]
    # the sets that one-row builds return, all on the failing window
    assert {args[0].timestamps[0] for args, _, _ in one_mode} <= {first}
    assert [(args[1], kwargs["aggregation"]) for args, kwargs, _ in one_mode] == built
    for i, (rep, want) in enumerate(zip(table.reports, alone)):
        assert rep.fallbacks == ((
            (125, f"DataError: {error}: returns too large"),) if i in failing else ())
        _assert_same_report(rep, want)


def test_compare_tries_a_failing_group_build_once_per_window(monkeypatch):
    # the group build of every other window raises: each such window is
    # tried once, and its rows build their own sets, as alone
    p = _panel(400, n_assets=4, seed=35, drift=0.001)
    configs = _lineup()
    tried = []
    build_sets = backtest._build_sets

    def flaky(window, *args, **kwargs):
        tried.append(window.timestamps[0])
        if len(tried) % 2:
            raise DataError("no group sets here")
        return build_sets(window, *args, **kwargs)
    monkeypatch.setattr(backtest, "_build_sets", flaky)
    one_row = _spy_calls(monkeypatch, "build_covariance_set")
    table = compare(p, configs)
    starts = [p.timestamps[t - 125] for t in range(125, 400, 21)]
    assert tried == starts
    # each of the six fitted rows builds its own sets on the failing windows
    assert [args[0].timestamps[0] for args, _, _ in one_row] == starts[::2] * 6
    for rep, cfg in zip(table.reports, configs):
        assert rep.fallbacks == ()
        _assert_same_report(rep, run_backtest(p, cfg))


def test_compare_builds_a_single_reader_set_with_the_group(monkeypatch):
    # the non-overlapping multiscale set has two readers, so the group shares,
    # and its one build per window also makes the sets of one reader each
    base = BacktestConfig(lookback=125, rebalance_every=21)
    configs = [dataclasses.replace(base, strategy=STRATEGY_MARKOWITZ_DAILY),
               dataclasses.replace(base, strategy=STRATEGY_MARKOWITZ_MULTISCALE),
               dataclasses.replace(base, strategy=STRATEGY_MAX_SHARPE_MULTISCALE),
               dataclasses.replace(base, strategy=STRATEGY_MARKOWITZ_MULTISCALE,
                                   aggregation="overlapping")]
    p = _panel(400, n_assets=4, seed=36, drift=0.001)
    one_row = _spy_calls(monkeypatch, "build_covariance_set")
    sets = _spy_calls(monkeypatch, "_build_sets")
    table = compare(p, configs)
    windows = len(range(125, 400, 21))
    assert one_row == []
    assert [args[1] for args, _, _ in sets] == [(
        ((1,), "nonoverlapping"), (_WHOLE, "nonoverlapping"),
        (_WHOLE, "overlapping"))] * windows
    for rep, cfg in zip(table.reports, configs):
        _assert_same_report(rep, run_backtest(p, cfg))


@pytest.mark.parametrize("differ", [
    {}, {"lookback": 150}, {"rebalance_every": 10},
    {"covariance_method": covariance.METHOD_L1},
], ids=["same", "lookback", "rebalancing", "method"])
def test_compare_daily_row_borrows_only_from_a_set_of_its_own_windows_and_method(
        monkeypatch, differ):
    # the two multiscale rows share a set; a daily row that differs from
    # them in lookback, rebalancing or method builds its own one-scale sets
    base = BacktestConfig(lookback=125, rebalance_every=21)
    configs = [dataclasses.replace(base, strategy=STRATEGY_MARKOWITZ_MULTISCALE),
               dataclasses.replace(base, strategy=STRATEGY_MAX_SHARPE_MULTISCALE),
               dataclasses.replace(base, strategy=STRATEGY_MARKOWITZ_DAILY, **differ)]
    p = _panel(400, n_assets=4, seed=32, drift=0.001)
    sets = _spy_calls(monkeypatch, "build_covariance_set")
    table = compare(p, configs)
    daily = configs[2]
    windows = len(range(daily.lookback, 400, daily.rebalance_every))
    assert sum(args[1] == (1,) for args, _, _ in sets) == (windows if differ else 0)
    for rep, cfg in zip(table.reports, configs):
        _assert_same_report(rep, run_backtest(p, cfg))


def test_compare_l1_lineup_rows_match_their_own_backtests_bit_for_bit():
    p = _panel(400, n_assets=4, seed=33, drift=0.001)
    configs = standard_comparison_configs(
        BacktestConfig(covariance_method=covariance.METHOD_L1), max_sharpe_rows=True)
    table = compare(p, configs)
    assert len(configs) == 7 and all(row.error is None for row in table.rows)
    for rep, cfg in zip(table.reports, configs):
        _assert_same_report(rep, run_backtest(p, cfg))


def test_compare_warns_of_a_constant_asset_as_its_rows_do_alone():
    returns = _panel(300, n_assets=4, seed=31, drift=0.001).returns.copy()
    returns[:, 1] = 0.0005
    p = panel_from_returns(returns)
    configs = _lineup()

    def messages(run):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        return {str(w.message) for w in caught if w.category is DegenerateAssetWarning}

    alone = messages(lambda: [run_backtest(p, cfg) for cfg in configs])
    assert len(alone) == 5  # one per scale
    assert messages(lambda: compare(p, configs)) == alone


# ---------------------------------------------------------------------------
# checks made once per refit


@pytest.mark.parametrize("strategy, aggregation, cumsums", [
    (STRATEGY_MARKOWITZ_DAILY, "nonoverlapping", 0),
    (STRATEGY_MARKOWITZ_MULTISCALE, "nonoverlapping", 1),
    (STRATEGY_MARKOWITZ_MULTISCALE, "overlapping", 1),
    (STRATEGY_MAX_SHARPE_MULTISCALE, "nonoverlapping", 1),
])
def test_fit_weights_decomposes_once(monkeypatch, strategy, aggregation, cumsums):
    # a refit on a package-built window takes one Cholesky (the blend's
    # certificate) and no eigvalsh, one prefix sum for all its scales and
    # no symmetry re-check
    window = _panel(n=400, n_assets=4, drift=0.001).window(100, 400)
    calls = Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(np.linalg, "cholesky")
    count(np.linalg, "eigvalsh")
    count(np, "cumsum")
    count(covariance, "check_symmetric")
    count(optimizer, "check_symmetric")
    cfg = BacktestConfig(strategy=strategy, aggregation=aggregation, lookback=300)
    fit_weights(window, cfg)
    assert calls == Counter(cholesky=1, eigvalsh=0, cumsum=cumsums)


def test_fit_weights_calls_the_solvers_bound_in_backtest(monkeypatch):
    # the bench traces the QP by patching these two module globals, so a
    # fit must look them up at call time
    window = _panel(n=400, n_assets=4, drift=0.001).window(100, 400)
    calls = Counter()

    def count(name):
        fn = getattr(backtest, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(backtest, name, counted)

    count("min_variance_long_only")
    count("max_sharpe")
    expected = {
        STRATEGY_EQUAL: Counter(),
        STRATEGY_MARKOWITZ_DAILY: Counter(min_variance_long_only=1),
        STRATEGY_MARKOWITZ_MULTISCALE: Counter(min_variance_long_only=1),
        STRATEGY_MAX_SHARPE_DAILY: Counter(max_sharpe=1),
        STRATEGY_MAX_SHARPE_MULTISCALE: Counter(max_sharpe=1),
    }
    assert set(expected) == set(STRATEGIES)
    for strategy, want in expected.items():
        calls.clear()
        fit_weights(window, BacktestConfig(strategy=strategy, lookback=300))
        assert calls == want, strategy


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


# ---------------------------------------------------------------------------
# the one fit entry, against the two dispatches it replaced


def _reference_fit_weights(window, cfg):
    # fit_weights' own body before it called fit, also returning its blend
    objective = backtest._STRATEGY_TABLE[cfg.strategy].objective
    if objective is None:
        n = window.n_assets
        return optimizer.PortfolioWeights(window.asset_ids, np.full(n, 1.0 / n), "equal",
                                          long_only=True), None
    cset = covariance.build_covariance_set(window, cfg.effective_scales,
                                           method=cfg.covariance_method,
                                           aggregation=cfg.aggregation)
    blended = covariance.multiscale_cov(cset, ridge=cfg.ridge)
    if objective == "min_variance":
        return optimizer.min_variance_long_only(blended), blended
    mu = window.returns.mean(axis=0)
    return optimizer.max_sharpe(blended, mu, risk_free=cfg.risk_free), blended


def _reference_optimize(panel, objective, scales, method, aggregation, ridge, risk_free,
                        l1_joint, long_only, mu_target):
    # cmd_optimize's build, blend and if/elif before it called fit
    cset = covariance.build_covariance_set(panel, scales, method=method,
                                           aggregation=aggregation, l1_joint=l1_joint)
    blended = covariance.multiscale_cov(cset, ridge=ridge)
    mu = panel.returns.mean(axis=0)
    if objective == "max_sharpe":
        weights = optimizer.max_sharpe(blended, mu, risk_free=risk_free, long_only=long_only)
    elif long_only:
        weights = optimizer.min_variance_long_only(blended, mu=mu, mu_target=mu_target)
    else:
        weights = optimizer.min_variance_closed_form(blended)
    return weights, blended


def _assert_same_fit(got, want):
    (w, blend), (w_ref, blend_ref) = got, want
    assert (w.asset_ids, w.method, w.long_only) == (w_ref.asset_ids, w_ref.method, w_ref.long_only)
    assert w.weights.tobytes() == w_ref.weights.tobytes()
    assert repr(w.kkt_residual) == repr(w_ref.kkt_residual)
    assert repr(w.provenance) == repr(w_ref.provenance)
    if blend_ref is None:
        assert blend is None
    else:
        assert blend.matrix.tobytes() == blend_ref.matrix.tobytes()


@pytest.mark.parametrize("method, l1_joint, aggregation", list(itertools.product(
    (covariance.METHOD_PRODUCT, covariance.METHOD_L1), (False, True),
    ("nonoverlapping", "overlapping"))))
def test_fit_matches_the_optimize_dispatch_bit_for_bit(method, l1_joint, aggregation):
    window = _panel(n=500, n_assets=4, seed=12, drift=5e-4).window(100, 500)
    args = (window, (1, 2, 5, 10, 21), method, aggregation, "auto", 1e-4)
    mu = window.returns.mean(axis=0)
    free = _reference_optimize(*args[:1], "min_variance", *args[1:], l1_joint, True, None)[0]
    floor = (mu @ free.weights + mu.max()) / 2.0  # above the floor-free mean: it binds
    assert mu @ free.weights < floor
    for objective, long_only, mu_target in itertools.product(
            OBJECTIVES, (True, False), (None, floor)):
        want = _reference_optimize(window, objective, *args[1:], l1_joint, long_only, mu_target)
        got = fit(window, objective, *args[1:], l1_joint=l1_joint, long_only=long_only,
                  mu_target=mu_target)
        _assert_same_fit(got, want)
        if objective == "min_variance" and long_only and mu_target is not None:
            assert got[0].weights @ mu == pytest.approx(floor, rel=1e-9)


@pytest.mark.parametrize("method", [covariance.METHOD_PRODUCT, covariance.METHOD_L1])
@pytest.mark.parametrize("aggregation", ["nonoverlapping", "overlapping"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_fit_weights_matches_its_former_body_bit_for_bit(monkeypatch, strategy, aggregation,
                                                         method):
    # the blend is read where the bench reads it, from the multiscale_cov bound in backtest
    window = _panel(n=400, n_assets=4, seed=3, drift=0.001).window(100, 400)
    cfg = BacktestConfig(strategy=strategy, aggregation=aggregation, covariance_method=method,
                         lookback=300, risk_free=1e-4)
    blends = []
    blend = backtest.multiscale_cov

    def recorded(*args, **kwargs):
        blends.append(blend(*args, **kwargs))
        return blends[-1]
    monkeypatch.setattr(backtest, "multiscale_cov", recorded)
    got = fit_weights(window, cfg)
    _assert_same_fit((got, blends[0] if blends else None), _reference_fit_weights(window, cfg))
    assert len(blends) == (strategy != STRATEGY_EQUAL)


def test_fit_refuses_an_unknown_objective():
    with pytest.raises(ValueError, match="unknown objective 'target_curve'"):
        fit(_panel(200), "target_curve", (1,), covariance.METHOD_PRODUCT, "nonoverlapping",
            "auto", 0.0)
