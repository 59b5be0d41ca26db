"""Walk-forward evaluation of weighting schemes on a return panel.

Weights are fitted on a trailing estimation window, held fixed through
the next holding period, and applied to realized returns that strictly
follow the window. Equity compounds daily portfolio simple returns, so
results are invariant to anything that happens after the last fit date.
"""
from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .covariance import (
    METHOD_L1,
    METHOD_PRODUCT,
    _build_sets,
    _check_ridge,
    build_covariance_set,
    multiscale_cov,
)
from .errors import DataError, MultiscaleError, NumericalError
from .optimizer import PortfolioWeights, max_sharpe, min_variance_closed_form, min_variance_long_only
from .timeseries import (
    DEFAULT_SCALES,
    MIN_PHASE_ROWS,
    MODE_NONOVERLAPPING,
    MODE_OVERLAPPING,
    ReturnPanel,
    _check_phase_rows,
    _check_scales,
    _integral,
    min_phase_rows,
)

STRATEGY_EQUAL = "equal_weight"
STRATEGY_MARKOWITZ_DAILY = "markowitz_daily"
STRATEGY_MARKOWITZ_MULTISCALE = "markowitz_multiscale"
STRATEGY_MAX_SHARPE_DAILY = "max_sharpe_daily"
STRATEGY_MAX_SHARPE_MULTISCALE = "max_sharpe_multiscale"
# what fit optimizes, read by the strategy table and by msmark optimize's --objective
OBJECTIVES = MIN_VARIANCE, MAX_SHARPE = ("min_variance", "max_sharpe")


class _Strategy(NamedTuple):
    display_name: str
    objective: str | None  # one of OBJECTIVES, or None for equal weights
    multiscale: bool  # fits on the config's scales rather than scale 1 alone


# every fact about a strategy; it names objectives, as fit looks the solvers up as globals
_STRATEGY_TABLE = {
    STRATEGY_EQUAL: _Strategy("Equally Weighted", None, False),
    STRATEGY_MARKOWITZ_DAILY: _Strategy("Traditional Markowitz", MIN_VARIANCE, False),
    STRATEGY_MARKOWITZ_MULTISCALE: _Strategy("Multiscale Markowitz", MIN_VARIANCE, True),
    STRATEGY_MAX_SHARPE_DAILY: _Strategy("Traditional Max Sharpe", MAX_SHARPE, False),
    STRATEGY_MAX_SHARPE_MULTISCALE: _Strategy("Multiscale Max Sharpe", MAX_SHARPE, True),
}
STRATEGIES = tuple(_STRATEGY_TABLE)

# (daily, multiscale) strategies of one objective, in lineup order
_PAIRS = (
    (STRATEGY_MARKOWITZ_DAILY, STRATEGY_MARKOWITZ_MULTISCALE),
    (STRATEGY_MAX_SHARPE_DAILY, STRATEGY_MAX_SHARPE_MULTISCALE),
)

DEFAULT_LOOKBACK = 125
DEFAULT_REBALANCE = 21


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
        _check_ridge(self.ridge)  # checked, not normalised: asdict(cfg) keeps it as given

    @property
    def effective_scales(self) -> tuple[int, ...]:
        return self.scales if _STRATEGY_TABLE[self.strategy].multiscale else (1,)


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


# the one memo of window results (each group's covariance sets, which keep
# their blends, and window means) that a ``compare`` call hands the rows of a
# sharing group, with the row's group and the group's (scales, aggregation)
# requests; None outside ``compare`` and for a row whose group shares nothing
_SHARED_SETS = contextvars.ContextVar("_SHARED_SETS", default=None)


def _covariance_set(window, scales, method, aggregation, l1_joint):
    """``build_covariance_set`` of ``window``, looked up in its group's sets inside ``compare``.

    A window's first fit in a sharing group builds every set of the group in
    one ``_build_sets`` call. Where that raises ``DataError`` the window
    keeps no sets, and each of its rows builds its own set or meets its own
    error, as alone.
    """
    shared = _SHARED_SETS.get()
    if shared is not None:
        memo, group, requests = shared
        key = (group, window.timestamps[0])
        if key not in memo:
            try:
                memo[key] = dict(zip(requests, _build_sets(window, requests, method, l1_joint)))
            except DataError:
                memo[key] = {}
        sets = memo[key]
        if (scales, aggregation) in sets:
            return sets[scales, aggregation]
    return build_covariance_set(window, scales, method=method, aggregation=aggregation,
                                l1_joint=l1_joint)


def fit(window, objective, scales, method, aggregation, ridge, risk_free,
        l1_joint=False, long_only=True, mu_target=None):
    """Weights for ``objective`` (``None``: equal weights) on ``window``, and their blend.

    The one place that builds the covariance set, blends it and picks a solver;
    ``mu_target`` floors the long-only minimum variance and nothing else.
    Inside ``compare`` a set, and so its blend (``multiscale_cov`` keeps it on
    the set), and the window's mean may come from another row's fit of the
    same window; the solve is this call's own.
    """
    if objective is None:
        n = window.n_assets
        return PortfolioWeights(window.asset_ids, np.full(n, 1.0 / n), "equal", long_only=True), None
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; choose from {OBJECTIVES}")
    blended = multiscale_cov(_covariance_set(window, scales, method, aggregation, l1_joint),
                             ridge=ridge)
    mu = None
    if objective == MAX_SHARPE or mu_target is not None:
        shared = _SHARED_SETS.get()
        memo = {} if shared is None else shared[0]
        key = (window.timestamps[0], window.n_periods, "mean")
        if key not in memo:
            memo[key] = window.returns.mean(axis=0)
        mu = memo[key]
    if objective == MAX_SHARPE:
        return max_sharpe(blended, mu, risk_free=risk_free, long_only=long_only), blended
    if long_only:
        return min_variance_long_only(blended, mu=mu, mu_target=mu_target), blended
    return min_variance_closed_form(blended), blended


def fit_weights(window: ReturnPanel, cfg: BacktestConfig) -> PortfolioWeights:
    """Fit one set of weights on an estimation window."""
    return fit(window, _STRATEGY_TABLE[cfg.strategy].objective, cfg.effective_scales,
               cfg.covariance_method, cfg.aggregation, cfg.ridge, cfg.risk_free)[0]


def run_backtest(panel: ReturnPanel, cfg: BacktestConfig) -> BacktestReport:
    """Walk the panel forward, refitting every ``rebalance_every`` periods.

    The window for the fit at time ``t`` is ``[t - lookback, t)``; the
    weights then apply to returns ``t .. t + rebalance_every - 1``. A fit
    failure keeps the previous weights (equal weights before the first
    success) and is recorded in ``fallbacks`` instead of aborting.

    Two checks raise ``DataError``, an error row in ``compare``, before any
    fit: the panel holds the window plus one holding period and at least
    two rows, and the window leaves each phase of the strategy's largest
    scale the refit's ``MIN_PHASE_ROWS`` block sums.
    """
    t_total = panel.n_periods
    if t_total < cfg.lookback + max(cfg.rebalance_every, 2):  # metrics needs 3 equity points
        raise DataError(f"panel has {t_total} rows; need lookback {cfg.lookback} plus one "
                        f"holding period of {cfg.rebalance_every}"
                        + ("" if cfg.rebalance_every > 1 else ", and 2 rows after the window"))
    _check_phase_rows(cfg.lookback, max(cfg.effective_scales), cfg.aggregation)

    n = panel.n_assets
    daily = np.empty(t_total)  # portfolio returns from row cfg.lookback on
    weights_history = []
    fallbacks = []
    current = np.full(n, 1.0 / n)
    for t in range(cfg.lookback, t_total, cfg.rebalance_every):
        window = panel.window(t - cfg.lookback, t)
        try:
            current = fit_weights(window, cfg).weights
        except (MultiscaleError, np.linalg.LinAlgError) as exc:
            fallbacks.append((t, f"{type(exc).__name__}: {exc}"))
        weights_history.append((t, current))
        stop = min(t + cfg.rebalance_every, t_total)
        daily[t:stop] = (np.exp(panel.returns[t:stop]) - 1.0) @ current

    # each refit's turnover against the one before (none before the first);
    # a row sum of the contiguous 2-D array is that row's own 1-D sum, bit for bit
    turnover = np.abs(np.diff([w for _, w in weights_history], axis=0,
                              prepend=0.0)).sum(axis=1)
    # a 1-D cumprod multiplies in order, as a running product would
    equity = np.cumprod(np.concatenate([[1.0], 1.0 + daily[cfg.lookback:]]))
    return BacktestReport(
        config=cfg,
        asset_ids=panel.asset_ids,
        equity=equity,
        dates=panel.timestamps[cfg.lookback:],
        weights_history=tuple(weights_history),
        turnover=turnover,
        fallbacks=tuple(fallbacks),
        performance=metrics(equity, cfg.periods_per_year),
    )


# ---------------------------------------------------------------------------
# strategy comparison

def display_name(cfg: BacktestConfig) -> str:
    entry = _STRATEGY_TABLE[cfg.strategy]
    if entry.multiscale and cfg.aggregation == MODE_OVERLAPPING:
        return entry.display_name + " (Overlapping)"
    return entry.display_name


def standard_comparison_configs(base: BacktestConfig | None = None,
                                max_sharpe_rows: bool = False):
    """The canonical strategy lineup for a comparison table.

    Equal weight, a single-scale fit, and the multiscale fit under both
    aggregation modes, optionally repeated for the Sharpe objective.
    """
    if base is None:
        base = BacktestConfig()
    rows = [replace(base, strategy=STRATEGY_EQUAL, aggregation=MODE_NONOVERLAPPING)]
    for daily, multiscale in _PAIRS if max_sharpe_rows else _PAIRS[:1]:
        rows += [replace(base, strategy=daily, aggregation=MODE_NONOVERLAPPING),
                 replace(base, strategy=multiscale, aggregation=MODE_NONOVERLAPPING),
                 replace(base, strategy=multiscale, aggregation=MODE_OVERLAPPING)]
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


def _groups(configs):
    """Each row's sharing group and its requests, or None.

    A group is the fitted rows of one lookback, rebalancing and covariance
    method that pass ``run_backtest``'s phase-row check; its requests are
    their rows' distinct (effective scales, aggregation), in row order. A
    group shares only when some set is read by two of its rows.
    """
    keys = [(cfg.lookback, cfg.rebalance_every, cfg.covariance_method) for cfg in configs]
    reads = {}
    for key, cfg in zip(keys, configs):
        if (_STRATEGY_TABLE[cfg.strategy].objective is not None and
                min_phase_rows(cfg.lookback, max(cfg.effective_scales), cfg.aggregation)
                >= MIN_PHASE_ROWS):
            reads.setdefault(key, []).append((cfg.effective_scales, cfg.aggregation))
    shared = {key: tuple(dict.fromkeys(rows)) for key, rows in reads.items()
              if len(rows) > len(set(rows))}
    return [(key, shared[key]) if key in shared else None for key in keys]


def compare(panel: ReturnPanel, configs) -> ComparisonTable:
    """Run several configurations and tabulate their metrics.

    Each row is named by ``display_name``. A strategy that fails outright
    contributes an error row rather than sinking the table.

    The rows of a ``_groups`` group that shares build every set of the
    group in one pass per window, and blend each set once, as
    ``multiscale_cov`` keeps the blend on the set; they take the window's
    mean from the same memo. Each row still solves its own QP, and its
    report is the one ``run_backtest`` gives alone. The memo holds every
    window's sets and their blends until ``compare`` returns; a group that
    shares nothing opens none.
    """
    configs = list(configs)
    memo = {}
    rows = []
    reports = []
    try:
        for cfg, group in zip(configs, _groups(configs)):
            name = display_name(cfg)
            token = _SHARED_SETS.set(None if group is None else (memo, *group))
            try:
                rep = run_backtest(panel, cfg)
            except MultiscaleError as exc:
                rows.append(TableRow(name, None, None, None,
                                     error=f"{type(exc).__name__}: {exc}"))
                reports.append(None)
                continue
            finally:
                _SHARED_SETS.reset(token)
            perf = rep.performance
            rows.append(TableRow(name, perf.sharpe, perf.sortino, perf.max_drawdown))
            reports.append(rep)
    finally:
        memo.clear()
    return ComparisonTable(tuple(rows), tuple(reports))
