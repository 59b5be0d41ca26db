"""Walk-forward evaluation of weighting schemes on a return panel.

Weights are fitted on a trailing estimation window, held fixed through
the next holding period, and applied to realized returns that strictly
follow the window. Equity compounds daily portfolio simple returns, so
results are invariant to anything that happens after the last fit date.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .covariance import (
    METHOD_L1,
    METHOD_PRODUCT,
    MIN_OBS_PER_PHASE,
    build_covariance_set,
    multiscale_cov,
)
from .errors import DataError, MultiscaleError, NumericalError
from .optimizer import PortfolioWeights, max_sharpe, min_variance_long_only
from .timeseries import (
    MODE_NONOVERLAPPING,
    MODE_OVERLAPPING,
    ReturnPanel,
    _check_scales,
    _integral,
    min_phase_rows,
)

STRATEGY_EQUAL = "equal_weight"
STRATEGY_MARKOWITZ_DAILY = "markowitz_daily"
STRATEGY_MARKOWITZ_MULTISCALE = "markowitz_multiscale"
STRATEGY_MAX_SHARPE_DAILY = "max_sharpe_daily"
STRATEGY_MAX_SHARPE_MULTISCALE = "max_sharpe_multiscale"

STRATEGIES = (
    STRATEGY_EQUAL,
    STRATEGY_MARKOWITZ_DAILY,
    STRATEGY_MARKOWITZ_MULTISCALE,
    STRATEGY_MAX_SHARPE_DAILY,
    STRATEGY_MAX_SHARPE_MULTISCALE,
)

DEFAULT_LOOKBACK = 125
DEFAULT_REBALANCE = 21
DEFAULT_SCALES = (1, 2, 5, 10, 21)


@dataclass(frozen=True)
class BacktestConfig:
    """Estimation window, holding period, and fitting choices."""

    strategy: str = STRATEGY_MARKOWITZ_MULTISCALE
    lookback: int = DEFAULT_LOOKBACK
    rebalance_every: int = DEFAULT_REBALANCE
    scales: tuple[int, ...] = DEFAULT_SCALES
    covariance_method: str = METHOD_PRODUCT
    aggregation: str = MODE_NONOVERLAPPING
    risk_free: float = 0.0
    ridge: float | str = "auto"
    periods_per_year: int = 252

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}")
        for name in ("lookback", "rebalance_every", "periods_per_year"):
            value = _integral(getattr(self, name))
            if value is None:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)
        if self.lookback < 8:
            raise ValueError("lookback must be at least 8 periods")
        if self.rebalance_every < 1:
            raise ValueError("rebalance_every must be >= 1")
        object.__setattr__(self, "scales", _check_scales(self.scales))
        if self.covariance_method not in (METHOD_PRODUCT, METHOD_L1):
            raise ValueError(f"unknown covariance method {self.covariance_method!r}")
        if self.aggregation not in (MODE_NONOVERLAPPING, MODE_OVERLAPPING):
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        if self.periods_per_year < 1:
            raise ValueError("periods_per_year must be positive")
        if not math.isfinite(self.risk_free):
            raise ValueError(f"risk_free must be finite, got {self.risk_free}")

    @property
    def effective_scales(self) -> tuple[int, ...]:
        if self.strategy in (STRATEGY_MARKOWITZ_DAILY, STRATEGY_MAX_SHARPE_DAILY):
            return (1,)
        return self.scales


class PerformanceMetrics(NamedTuple):
    sharpe: float
    sortino: float
    max_drawdown: float
    excess_kurtosis: float


def metrics(equity, periods_per_year: int = 252) -> PerformanceMetrics:
    """Annualized Sharpe and Sortino, max drawdown, excess kurtosis.

    All statistics are computed on log returns of the equity curve; the
    Sortino denominator is the root mean square of the negative returns
    (zero target). Max drawdown is the most negative peak-to-trough
    fraction, a value in [-1, 0]. Constant returns raise; returns constant
    up to rounding give NaN Sharpe, Sortino and kurtosis.
    """
    if (_integral(periods_per_year) or 0) < 1:
        raise ValueError(f"periods_per_year must be a positive integer, got {periods_per_year!r}")
    arr = np.asarray(equity, dtype=float)
    if arr.ndim != 1 or len(arr) < 3:
        raise ValueError("equity curve needs at least 3 points")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValueError("equity must be positive and finite")
    r = np.diff(np.log(arr))
    sd = r.std(ddof=1)
    if sd == 0.0:
        raise NumericalError("equity returns have zero variance")
    peak = np.maximum.accumulate(arr)
    max_dd = float((arr / peak - 1.0).min())
    # population moments as scipy.stats.kurtosis(fisher=True, bias=True)
    # takes them; its near-constant guard makes every ratio NaN
    d2 = (r - r.mean()) ** 2
    m2, m4 = float(d2.mean()), float((d2 ** 2).mean())
    if m2 <= (np.finfo(float).eps * r.mean()) ** 2:
        return PerformanceMetrics(math.nan, math.nan, max_dd, math.nan)
    ann = math.sqrt(periods_per_year)
    sharpe = float(r.mean() / sd * ann)
    downside = math.sqrt(float(np.mean(np.minimum(r, 0.0) ** 2)))
    if downside == 0.0:
        sortino = math.inf if r.mean() > 0 else 0.0
    else:
        sortino = float(r.mean() / downside * ann)
    return PerformanceMetrics(sharpe, sortino, max_dd, m4 / m2 ** 2 - 3)


@dataclass(frozen=True, eq=False)
class BacktestReport:
    """One strategy's walk-forward result."""

    config: BacktestConfig
    asset_ids: tuple[str, ...]
    equity: np.ndarray
    dates: np.ndarray
    weights_history: tuple[tuple[int, np.ndarray], ...]
    turnover: np.ndarray
    fallbacks: tuple[tuple[int, str], ...]
    performance: PerformanceMetrics


def fit_weights(window: ReturnPanel, cfg: BacktestConfig) -> PortfolioWeights:
    """Fit one set of weights on an estimation window."""
    n = window.n_assets
    ids = window.asset_ids
    if cfg.strategy == STRATEGY_EQUAL:
        return PortfolioWeights(ids, np.full(n, 1.0 / n), "equal", long_only=True)
    cset = build_covariance_set(window, cfg.effective_scales,
                                method=cfg.covariance_method,
                                aggregation=cfg.aggregation)
    blended = multiscale_cov(cset, ridge=cfg.ridge)
    if cfg.strategy in (STRATEGY_MARKOWITZ_DAILY, STRATEGY_MARKOWITZ_MULTISCALE):
        return min_variance_long_only(blended)
    mu = window.returns.mean(axis=0)
    return max_sharpe(blended, mu, risk_free=cfg.risk_free)


def run_backtest(panel: ReturnPanel, cfg: BacktestConfig) -> BacktestReport:
    """Walk the panel forward, refitting every ``rebalance_every`` periods.

    The window for the fit at time ``t`` is ``[t - lookback, t)``; the
    weights then apply to returns ``t .. t + rebalance_every - 1``. A fit
    failure keeps the previous weights (equal weights before the first
    success) and is recorded in ``fallbacks`` instead of aborting.
    """
    t_total = panel.n_periods
    if t_total < cfg.lookback + cfg.rebalance_every:
        raise DataError(
            f"panel has {t_total} rows; need lookback {cfg.lookback} plus one "
            f"holding period of {cfg.rebalance_every}"
        )
    if cfg.strategy != STRATEGY_EQUAL:
        dt = max(cfg.effective_scales)
        worst = min_phase_rows(cfg.lookback, dt, cfg.aggregation)
        if worst < MIN_OBS_PER_PHASE:
            raise ValueError(
                f"lookback {cfg.lookback} leaves {worst} observations at scale "
                f"{dt}; shrink scales or grow the window"
            )

    n = panel.n_assets
    equity = [1.0]
    weights_history = []
    turnover = []
    fallbacks = []
    prev = np.zeros(n)
    current = np.full(n, 1.0 / n)
    for t in range(cfg.lookback, t_total, cfg.rebalance_every):
        window = panel.window(t - cfg.lookback, t)
        try:
            current = fit_weights(window, cfg).weights
        except (MultiscaleError, np.linalg.LinAlgError) as exc:
            fallbacks.append((t, f"{type(exc).__name__}: {exc}"))
        weights_history.append((t, current))
        turnover.append(float(np.abs(current - prev).sum()))
        prev = current
        stop = min(t + cfg.rebalance_every, t_total)
        growth = panel.returns[t:stop]
        daily = (np.exp(growth) - 1.0) @ current
        for g in 1.0 + daily:
            equity.append(equity[-1] * g)

    equity = np.asarray(equity)
    return BacktestReport(
        config=cfg,
        asset_ids=panel.asset_ids,
        equity=equity,
        dates=panel.timestamps[cfg.lookback:],
        weights_history=tuple(weights_history),
        turnover=np.asarray(turnover),
        fallbacks=tuple(fallbacks),
        performance=metrics(equity, cfg.periods_per_year),
    )


# ---------------------------------------------------------------------------
# strategy comparison

def display_name(cfg: BacktestConfig) -> str:
    base = {
        STRATEGY_EQUAL: "Equally Weighted",
        STRATEGY_MARKOWITZ_DAILY: "Traditional Markowitz",
        STRATEGY_MARKOWITZ_MULTISCALE: "Multiscale Markowitz",
        STRATEGY_MAX_SHARPE_DAILY: "Traditional Max Sharpe",
        STRATEGY_MAX_SHARPE_MULTISCALE: "Multiscale Max Sharpe",
    }[cfg.strategy]
    if cfg.aggregation == MODE_OVERLAPPING and cfg.strategy in (
            STRATEGY_MARKOWITZ_MULTISCALE, STRATEGY_MAX_SHARPE_MULTISCALE):
        base += " (Overlapping)"
    return base


def standard_comparison_configs(base: BacktestConfig | None = None,
                                max_sharpe_rows: bool = False):
    """The canonical strategy lineup for a comparison table.

    Equal weight, a single-scale fit, and the multiscale fit under both
    aggregation modes, optionally repeated for the Sharpe objective.
    """
    if base is None:
        base = BacktestConfig()
    rows = [
        replace(base, strategy=STRATEGY_EQUAL, aggregation=MODE_NONOVERLAPPING),
        replace(base, strategy=STRATEGY_MARKOWITZ_DAILY,
                aggregation=MODE_NONOVERLAPPING),
        replace(base, strategy=STRATEGY_MARKOWITZ_MULTISCALE,
                aggregation=MODE_NONOVERLAPPING),
        replace(base, strategy=STRATEGY_MARKOWITZ_MULTISCALE,
                aggregation=MODE_OVERLAPPING),
    ]
    if max_sharpe_rows:
        rows += [
            replace(base, strategy=STRATEGY_MAX_SHARPE_DAILY,
                    aggregation=MODE_NONOVERLAPPING),
            replace(base, strategy=STRATEGY_MAX_SHARPE_MULTISCALE,
                    aggregation=MODE_NONOVERLAPPING),
            replace(base, strategy=STRATEGY_MAX_SHARPE_MULTISCALE,
                    aggregation=MODE_OVERLAPPING),
        ]
    return rows


@dataclass(frozen=True)
class TableRow:
    name: str
    sharpe: float | None
    sortino: float | None
    max_drawdown: float | None
    error: str | None = None


@dataclass(frozen=True, eq=False)
class ComparisonTable:
    """Side-by-side metrics for several strategies on one panel."""

    rows: tuple[TableRow, ...]
    reports: tuple[BacktestReport | None, ...]

    def to_text(self) -> str:
        header = ("Method", "Sharpe Ratio", "Sortino Ratio", "Max Drawdown (%)")
        cells = [header]
        for r in self.rows:
            if r.error is not None:
                cells.append((r.name, "failed", "failed", r.error))
                continue
            cells.append((r.name, f"{r.sharpe:.2f}", f"{r.sortino:.2f}",
                          f"{100.0 * r.max_drawdown:.1f}"))
        widths = [max(len(row[i]) for row in cells) for i in range(4)]
        lines = []
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["method,sharpe,sortino,max_drawdown,error"]
        for r in self.rows:
            if r.error is not None:
                err = r.error.replace('"', "'")
                lines.append(f'{r.name},,,,"{err}"')
            else:
                lines.append(
                    f"{r.name},{r.sharpe!r},{r.sortino!r},{r.max_drawdown!r},"
                )
        return "\n".join(lines) + "\n"


def compare(panel: ReturnPanel, configs) -> ComparisonTable:
    """Run several configurations and tabulate their metrics.

    Each row is named by ``display_name``. A strategy that fails outright
    contributes an error row rather than sinking the table.
    """
    rows = []
    reports = []
    for cfg in configs:
        name = display_name(cfg)
        try:
            rep = run_backtest(panel, cfg)
        except MultiscaleError as exc:
            rows.append(TableRow(name, None, None, None,
                                 error=f"{type(exc).__name__}: {exc}"))
            reports.append(None)
            continue
        perf = rep.performance
        rows.append(TableRow(name, perf.sharpe, perf.sortino, perf.max_drawdown))
        reports.append(rep)
    return ComparisonTable(tuple(rows), tuple(reports))
