"""Scaling-aware covariance estimation and portfolio construction.

The pipeline: load or simulate a return panel (`timeseries`, `synth`),
measure how fluctuations grow with the observation scale (`scaling`),
estimate covariances at several scales and blend them (`covariance`),
build fully-invested portfolios with verified optimality conditions
(`optimizer`), and evaluate everything walk-forward (`backtest`).
"""

from .backtest import (
    BacktestConfig,
    BacktestReport,
    ComparisonTable,
    PerformanceMetrics,
    compare,
    metrics,
    run_backtest,
    standard_comparison_configs,
)
from .covariance import (
    MultiscaleCovariance,
    ScaledCovarianceSet,
    build_covariance_set,
    build_covariance_sets,
    multiscale_cov,
    psd_repair,
)
from .errors import DataError, MultiscaleError, MultiscaleWarning, NumericalError
from .optimizer import (
    PortfolioWeights,
    SensitivityReport,
    TargetCurveReport,
    check_target_curve,
    correlation_sensitivity_analytic,
    max_sharpe,
    min_variance_closed_form,
    min_variance_long_only,
    sensitivity_to_hurst,
    sensitivity_to_variance,
)
from .scaling import (
    CorrelationScaling,
    HurstEstimate,
    ScalingSpectrum,
    estimate_correlation_scaling,
    estimate_hurst,
    mfdfa,
    structure_spectrum,
)
from .synth import (
    gen_correlated,
    gen_epps,
    gen_fgn,
    gen_gaussian_iid,
    gen_multifractal,
    gen_regime_switch,
    split_seed,
)
from .timeseries import (
    PriceSeries,
    ReturnPanel,
    block_sums,
    load_prices,
    panel_from_returns,
    to_log_returns,
    to_price_series,
)

__version__ = "0.1.0"

__all__ = [
    "BacktestConfig",
    "BacktestReport",
    "ComparisonTable",
    "CorrelationScaling",
    "DataError",
    "HurstEstimate",
    "MultiscaleCovariance",
    "MultiscaleError",
    "MultiscaleWarning",
    "NumericalError",
    "PerformanceMetrics",
    "PortfolioWeights",
    "PriceSeries",
    "ReturnPanel",
    "ScaledCovarianceSet",
    "ScalingSpectrum",
    "SensitivityReport",
    "TargetCurveReport",
    "block_sums",
    "build_covariance_set",
    "build_covariance_sets",
    "check_target_curve",
    "compare",
    "correlation_sensitivity_analytic",
    "estimate_correlation_scaling",
    "estimate_hurst",
    "gen_correlated",
    "gen_epps",
    "gen_fgn",
    "gen_gaussian_iid",
    "gen_multifractal",
    "gen_regime_switch",
    "load_prices",
    "max_sharpe",
    "metrics",
    "mfdfa",
    "min_variance_closed_form",
    "min_variance_long_only",
    "multiscale_cov",
    "panel_from_returns",
    "psd_repair",
    "run_backtest",
    "sensitivity_to_hurst",
    "sensitivity_to_variance",
    "split_seed",
    "standard_comparison_configs",
    "structure_spectrum",
    "to_log_returns",
    "to_price_series",
]
