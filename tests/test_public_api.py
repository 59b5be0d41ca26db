"""The package's public names, its error classes and the README's commands."""

import inspect
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multiscale_markowitz
from multiscale_markowitz import backtest, cli, errors, scaling, synth, timeseries

_PACKAGE = Path(multiscale_markowitz.__file__).parent
_README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    missing = [name for name in multiscale_markowitz.__all__
               if not hasattr(multiscale_markowitz, name)]
    assert missing == []


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; the package runs on numpy alone
    code = ("import sys, multiscale_markowitz, multiscale_markowitz.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=_PACKAGE.parent)
    assert out.stdout.strip() == "[]"


def test_exports_are_unique():
    names = multiscale_markowitz.__all__
    assert len(names) == len(set(names))


def test_every_error_class_is_rooted_and_used():
    sources = "\n".join(p.read_text() for p in _PACKAGE.glob("*.py")
                        if p.name != "errors.py")
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass)
               if c.__module__ == errors.__name__]
    assert classes
    for cls in classes:
        assert issubclass(cls, (errors.MultiscaleError, errors.MultiscaleWarning)), cls
        assert re.search(rf"\b{cls.__name__}\b", sources), f"{cls.__name__} is never used"


def _readme_commands():
    text = _README.read_text()
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", text, flags=re.S | re.M)
    return [line[len("$ msmark "):] for block in blocks
            for line in block.splitlines() if line.startswith("$ msmark ")]


def test_readme_has_commands():
    assert len(_readme_commands()) >= 5


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_parses(command):
    cli.build_parser().parse_args(shlex.split(command))


def test_readme_library_example_runs(capsys):
    (code,) = re.findall(r"^```python\n(.*?)^```", _README.read_text(), flags=re.S | re.M)
    exec(compile(code, str(_README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_readme_names_resolve():
    names = set(re.findall(r"\bmm\.(\w+)", _README.read_text()))
    assert len(names) >= 10
    assert sorted(n for n in names if not hasattr(multiscale_markowitz, n)) == []


# The bench (msmark_bench/spans.py and worker.py) traces the program by
# replacing these names where the program looks them up.
_BENCH_PATCHED = {
    cli: ("main",),
    timeseries: ("load_prices", "to_log_returns", "prices_to_csv"),
    timeseries.ReturnPanel: ("window",),
    backtest: ("compare", "run_backtest", "fit_weights", "metrics",
               "build_covariance_set", "multiscale_cov",
               "min_variance_long_only", "max_sharpe"),
    scaling: ("structure_spectrum", "estimate_hurst", "mfdfa",
              "estimate_correlation_scaling"),
    synth: ("gen_correlated", "gen_regime_switch", "gen_fgn",
            "gen_multifractal", "gen_epps"),
}


def test_bench_patched_names_exist():
    missing = [f"{owner.__name__}.{name}" for owner, names in _BENCH_PATCHED.items()
               for name in names if not callable(getattr(owner, name, None))]
    assert missing == []


def test_compare_keeps_the_call_contract_the_bench_traces(monkeypatch):
    # the bench ties each fit to the latest run_backtest(panel, cfg) and reads
    # each fit's blend from its multiscale_cov; shared sets change neither
    events = []

    def spy(name):
        original = getattr(backtest, name)

        def wrapper(*args, **kwargs):
            events.append((name, args, kwargs))
            return original(*args, **kwargs)
        monkeypatch.setattr(backtest, name, wrapper)

    for name in ("run_backtest", "fit_weights", "multiscale_cov", "build_covariance_set"):
        spy(name)
    joint = []
    build_sets = backtest._build_sets
    monkeypatch.setattr(backtest, "_build_sets",
                        lambda *args, **kwargs: joint.append(args) or build_sets(*args, **kwargs))
    panel = synth.gen_correlated(300, synth.constant_correlation_cov(3, 0.3), seed=5)
    panel = timeseries.panel_from_returns(panel.returns + 1e-3, panel.asset_ids)
    configs = backtest.standard_comparison_configs(
        backtest.BacktestConfig(lookback=125, rebalance_every=21), max_sharpe_rows=True)
    backtest.compare(panel, configs)

    windows = len(range(125, 300, 21))
    starts = [i for i, (name, _, _) in enumerate(events) if name == "run_backtest"]
    assert [events[i][1:] for i in starts] == [((panel, cfg), {}) for cfg in configs]
    for i, stop, cfg in zip(starts, starts[1:] + [len(events)], configs):
        row = [(name, args, kwargs) for name, args, kwargs in events[i + 1:stop]
               if name != "build_covariance_set"]
        fits = [args for name, args, kwargs in row if name == "fit_weights" and not kwargs]
        assert len(fits) == windows
        assert all(len(args) == 2 and args[1] is cfg
                   and args[0].n_periods == cfg.lookback for args in fits)
        per_fit = ["fit_weights"] + ["multiscale_cov"] * (cfg.strategy != backtest.STRATEGY_EQUAL)
        assert [name for name, _, _ in row] == per_fit * windows
    # one build per window of the group's daily and both multiscale sets,
    # which the bench does not trace
    assert sum(name == "build_covariance_set" for name, _, _ in events) == 0
    assert [args[1] for args in joint] == [(
        ((1,), "nonoverlapping"), ((1, 2, 5, 10, 21), "nonoverlapping"),
        ((1, 2, 5, 10, 21), "overlapping"))] * windows


@pytest.mark.parametrize("strategy", [backtest.STRATEGY_MARKOWITZ_MULTISCALE,
                                      backtest.STRATEGY_MAX_SHARPE_MULTISCALE])
def test_fit_weights_calls_the_names_bound_in_backtest(monkeypatch, strategy):
    calls = []

    def spy(name):
        original = getattr(backtest, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(backtest, name, wrapper)

    for name in ("build_covariance_set", "multiscale_cov",
                 "min_variance_long_only", "max_sharpe"):
        spy(name)
    cfg = backtest.BacktestConfig(strategy=strategy)
    window = synth.gen_correlated(cfg.lookback, np.eye(3) * 1e-4, seed=3)
    window = timeseries.panel_from_returns(window.returns + 1e-3, window.asset_ids)
    backtest.fit_weights(window, cfg)
    solver = ("min_variance_long_only" if strategy == backtest.STRATEGY_MARKOWITZ_MULTISCALE
              else "max_sharpe")
    assert calls == ["build_covariance_set", "multiscale_cov", solver]
