"""End-to-end command line checks driven through ``main(argv)``."""

import argparse
import ast
import dataclasses
import gc
import importlib
import json
import os
import re
import shlex
import stat
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

from multiscale_markowitz import backtest as bt
from multiscale_markowitz import cli, scaling, synth
from multiscale_markowitz.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from multiscale_markowitz.covariance import build_covariance_set, multiscale_cov
from multiscale_markowitz.errors import DataError
from multiscale_markowitz.optimizer import PortfolioWeights
from multiscale_markowitz.timeseries import (PriceSeries, load_prices, prices_to_csv,
                                             to_log_returns, to_price_series)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MSMARK_OUT", raising=False)
    return tmp_path


def _simulate(capsys, workdir, args):
    code, out, _ = _run(capsys, ["simulate"] + args)
    assert code == EXIT_OK
    path = out.strip().splitlines()[-1]
    return workdir / path


# ---------------------------------------------------------------------------
# argument handling


def test_no_command_is_usage_error(capsys):
    code, _, err = _run(capsys, [])
    assert code == EXIT_USAGE
    assert err


def test_help_exits_zero(capsys):
    code, out, _ = _run(capsys, ["--help"])
    assert code == EXIT_OK
    for name in ("simulate", "estimate", "optimize", "backtest", "repro"):
        assert name in out


def test_ci_workflow_msmark_commands_exit_zero(capsys, workdir):
    # the workflow's installed-command step, run here through main(argv)
    # so a CLI change that breaks it fails in tier-1 first; its python -c
    # checks run in order, after the msmark lines that write their files
    root = Path(__file__).resolve().parents[1]
    workflow = root / ".github" / "workflows" / "tests.yml"
    step = workflow.read_text().split("- name: Installed msmark command\n", 1)[1]
    step = step.split("- name:", 1)[0]
    lines = [s.strip() for s in step.splitlines()
             if s.strip().startswith(("msmark ", "python -c "))]
    assert [line for line in lines if line.startswith("python")]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for line in lines:
        argv = shlex.split(line)
        if argv[0] == "python":
            run = subprocess.run([sys.executable] + argv[1:], cwd=workdir, env=env,
                                 capture_output=True, text=True)
            assert run.returncode == 0, (line, run.stderr)
            continue
        code, _, err = _run(capsys, argv[1:])
        assert code == EXIT_OK, (line, err)


def test_console_script_entry_resolves_to_main():
    # the installed `msmark` the workflow runs is this entry point of
    # pyproject.toml
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["msmark"] == "multiscale_markowitz.cli:main"
    module, attr = scripts["msmark"].split(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry is cli.main and callable(entry)


def test_main_leaves_nothing_for_the_cyclic_gc(capsys, workdir):
    # a parser built per call left hundreds of argparse objects in cycles,
    # freed whenever the collector next ran
    path = _simulate(capsys, workdir, ["--kind", "fgn", "--n", "512", "--seed", "3"])
    assert main(["estimate", str(path)]) == EXIT_OK
    gc.collect()
    assert main(["estimate", str(path)]) == EXIT_OK
    assert gc.collect() == 0


def test_subcommand_help_lists_flags(capsys):
    code, out, _ = _run(capsys, ["simulate", "--help"])
    assert code == EXIT_OK
    for flag in ("--kind", "--n", "--seed", "--switch-points", "--out-dir"):
        assert flag in out


# per kind: a non-default value for every option in its row of the kind
# table, and the generator call those values should make
_DIRECT_CALLS = {
    "gaussian_iid": ({"--sigma": "0.02"},
                     lambda n, seed: synth.gen_gaussian_iid(n, sigma_daily=0.02, seed=seed)),
    "fgn": ({"--hurst": "0.7", "--sigma": "0.02"},
            lambda n, seed: synth.gen_fgn(n, hurst=0.7, sigma_daily=0.02, seed=seed)),
    "correlated": ({"--assets": "3", "--rho": "0.4", "--sigma": "0.02"},
                   lambda n, seed: synth.gen_correlated(
                       n, synth.constant_correlation_cov(3, 0.4, 0.02), seed=seed)),
    "epps": ({"--rho-inf": "0.7", "--h-rho": "0.2", "--sigma": "0.02"},
             lambda n, seed: synth.gen_epps(n, rho_inf=0.7, h_rho=0.2, sigma_daily=0.02,
                                            seed=seed)),
    "regime_switch": ({"--sigma-low": "0.005,0.006,0.007", "--sigma-high": "0.03,0.02,0.04",
                       "--switch-points": "10,50", "--assets": "3"},
                      lambda n, seed: synth.gen_regime_switch(
                          n, sigma_low=(0.005, 0.006, 0.007), sigma_high=(0.03, 0.02, 0.04),
                          switch_points=(10, 50), n_assets=3, seed=seed)),
    "cascade": ({"--intermittency": "0.3", "--hurst": "0.6", "--sigma": "0.02"},
                lambda n, seed: synth.gen_multifractal(n, intermittency=0.3, hurst_base=0.6,
                                                       sigma_daily=0.02, seed=seed)),
}


def test_direct_calls_cover_every_kind():
    assert list(_DIRECT_CALLS) == list(cli._SIMULATE_KINDS)


@pytest.mark.parametrize("kind", _DIRECT_CALLS)
def test_simulate_calls_the_generator_with_its_options(capsys, workdir, kind):
    flags, direct = _DIRECT_CALLS[kind]
    _, keywords = cli._SIMULATE_KINDS[kind]
    assert set(flags) == {"--" + dest.replace("_", "-") for dest in keywords.values()}
    opts = {o.flag: o for o in cli._SIMULATE_OPTS}
    assert all(opts[f].cast(v) != opts[f].default for f, v in flags.items())
    for seed in (0, 5):
        argv = ["simulate", "--kind", kind, "--n", "128", "--seed", str(seed), "--out", "p.csv"]
        code, _, err = _run(capsys, argv + [a for item in flags.items() for a in item])
        assert code == EXIT_OK, err
        expected = prices_to_csv(to_price_series(direct(128, seed)))
        assert workdir.joinpath("p.csv").read_text() == expected


def test_unknown_kind_is_usage_error(capsys, workdir):
    code, _, err = _run(capsys, ["simulate", "--kind", "levy", "--n", "64"])
    assert code == EXIT_USAGE
    assert "levy" in err


def test_missing_required_flag(capsys, workdir):
    code, _, err = _run(capsys, ["simulate", "--kind", "gaussian_iid"])
    assert code == EXIT_USAGE
    assert "--n" in err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_default_filename(capsys, workdir):
    path = _simulate(capsys, workdir, ["--kind", "gaussian_iid", "--n", "64",
                                       "--seed", "3"])
    assert path.name == "gaussian_iid_64_3.csv"
    assert path.exists()
    header = path.read_text().splitlines()[0]
    assert header.startswith("date,")


def test_simulate_deterministic_bytes(capsys, workdir):
    a = _simulate(capsys, workdir, ["--kind", "fgn", "--n", "256", "--seed", "9",
                                    "--hurst", "0.7", "--out", "a.csv"])
    b = _simulate(capsys, workdir, ["--kind", "fgn", "--n", "256", "--seed", "9",
                                    "--hurst", "0.7", "--out", "b.csv"])
    assert a.read_bytes() == b.read_bytes()


def test_simulate_seed_changes_output(capsys, workdir):
    a = _simulate(capsys, workdir, ["--kind", "gaussian_iid", "--n", "64",
                                    "--seed", "1", "--out", "a.csv"])
    b = _simulate(capsys, workdir, ["--kind", "gaussian_iid", "--n", "64",
                                    "--seed", "2", "--out", "b.csv"])
    assert a.read_bytes() != b.read_bytes()


def test_simulate_output_loads_as_panel(capsys, workdir):
    from multiscale_markowitz.timeseries import load_prices, to_log_returns

    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "128",
                                       "--assets", "3", "--rho", "0.4"])
    panel = to_log_returns(load_prices(path))
    assert panel.n_assets == 3
    assert panel.n_periods == 128


def test_simulate_bad_generator_params_exit_data(capsys, workdir):
    # cascade length must be a power of two
    code, _, err = _run(capsys, ["simulate", "--kind", "cascade", "--n", "1000"])
    assert code == EXIT_DATA
    assert "power of two" in err


def test_simulate_negative_seed_is_refused_by_name(capsys, workdir):
    # numpy's own refusal named no option; the cast refuses it while parsing
    code, out, err = _run(capsys, ["simulate", "--kind", "fgn", "--n", "64", "--seed", "-1"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err.strip() == ("msmark simulate: error: argument --seed: "
                           "expected a non-negative integer, got '-1'")
    assert not list(workdir.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--kind", "fgn", "--n", "64", "--hurst", "1.5"], "hurst=1.5 outside"),
    (["backtest", "{csv}", "--rebalance", "0"], "rebalance_every must be >= 1"),
    (["optimize", "{csv}", "--ridge", "-1"], "ridge must be non-negative"),
    (["estimate", "{csv}", "--q-grid", "0,1"], "q grid must not contain zero"),
    (["optimize", "{csv}", "--ridge", "nan"], "ridge must be non-negative and finite, got nan"),
    (["optimize", "{csv}", "--ridge", "inf"], "ridge must be non-negative and finite, got inf"),
    (["optimize", "{csv}", "--ridge", "1e400"], "ridge must be non-negative and finite, got inf"),
    (["optimize", "{csv}", "--mu-target", "nan"], "mu_target must be finite, got nan"),
    (["optimize", "{csv}", "--mu-target=-inf"], "mu_target must be finite, got -inf"),
    (["optimize", "{csv}", "--objective", "max_sharpe", "--risk-free", "nan"],
     "risk_free must be finite, got nan"),
    (["backtest", "{csv}", "--strategy", "max_sharpe_daily", "--lookback", "100",
      "--risk-free", "nan"], "risk_free must be finite, got nan"),
    (["backtest", "{csv}", "--strategy", "all", "--risk-free", "nan"],
     "risk_free must be finite, got nan"),
    (["simulate", "--kind", "fgn", "--n", "64", "--sigma", "nan"],
     "sigma_daily must be positive and finite, got nan"),
    (["simulate", "--kind", "gaussian_iid", "--n", "64", "--sigma", "inf"],
     "sigma_daily must be positive and finite, got inf"),
    (["simulate", "--kind", "cascade", "--n", "64", "--sigma", "nan"],
     "sigma_daily must be positive and finite, got nan"),
    (["simulate", "--kind", "epps", "--n", "64", "--sigma", "-0.01"],
     "sigma_daily must be positive and finite, got -0.01"),
    (["simulate", "--kind", "epps", "--n", "64", "--sigma", "inf"],
     "sigma_daily must be positive and finite, got inf"),
    (["simulate", "--kind", "correlated", "--n", "64", "--sigma", "-1"],
     "sigma_daily must be positive and finite, got -1.0"),
    (["simulate", "--kind", "regime_switch", "--n", "64", "--sigma-low", "nan"],
     "need 0 < sigma_low < sigma_high < inf per asset"),
    (["simulate", "--kind", "regime_switch", "--n", "64", "--sigma-high", "inf"],
     "need 0 < sigma_low < sigma_high < inf per asset"),
    (["estimate", "{csv}", "--q-grid", "nan,1"], "q grid must be finite, got (nan, 1.0)"),
    (["estimate", "{csv}", "--q-grid", "1,inf"], "q grid must be finite, got (1.0, inf)"),
    (["estimate", "{csv}", "--method", "dfa", "--q-grid", "nan"],
     "q grid must be finite, got (nan,)"),
    (["simulate", "--kind", "fgn", "--n", "1024", "--sigma", "1e200"],
     "sigma_daily=1e+200 has a square that is not positive and finite"),
    (["simulate", "--kind", "correlated", "--n", "64", "--sigma", "1e200"],
     "sigma_daily=1e+200 has a square that is not positive and finite"),
    (["simulate", "--kind", "gaussian_iid", "--n", "64", "--sigma", "1e-200"],
     "sigma_daily=1e-200 has a square that is not positive and finite"),
])
def test_out_of_range_option_is_usage_error(capsys, workdir, argv, message):
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "400",
                                       "--assets", "2", "--seed", "1"])
    code, _, err = _run(capsys, [a.format(csv=path) for a in argv])
    assert code == EXIT_USAGE
    assert f"msmark: error: {message}" in err
    assert "Traceback" not in err


_TOO_LARGE_FOR_A_FLOAT = "1" + "0" * 400


@pytest.mark.parametrize("argv, expected, message", [
    (["simulate", "--kind", "regime_switch", "--n", "100", "--switch-points",
      _TOO_LARGE_FOR_A_FLOAT], EXIT_DATA, "msmark: data error: switch points [1000"),
    (["simulate", "--kind", "correlated", "--n", "64", "--assets", _TOO_LARGE_FOR_A_FLOAT],
     EXIT_USAGE, "msmark: error: int too large to convert to float"),
], ids=["regime_switch", "correlated"])
def test_option_too_large_for_a_float_keeps_the_exit_codes(capsys, workdir, argv, expected,
                                                            message):
    code, out, err = _run(capsys, argv)
    assert code == expected
    assert out == ""
    assert err.startswith(message)
    assert "Traceback" not in err


@pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_output_files_get_the_mode_the_umask_leaves(capsys, workdir, mask, mode):
    old = os.umask(mask)
    try:
        path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "320",
                                           "--assets", "2", "--seed", "4"])
        code, _, _ = _run(capsys, ["optimize", str(path), "--out-prefix", "w"])
    finally:
        os.umask(old)
    assert code == EXIT_OK
    for written in (path, workdir / "w.csv", workdir / "w.json"):
        assert stat.S_IMODE(written.stat().st_mode) == mode


def test_failed_replace_leaves_no_temp_file(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("replace failed")
    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(OSError, match="^replace failed$"):
        cli._write_atomic(tmp_path / "out" / "w.csv", "a\n")
    assert list(tmp_path.joinpath("out").iterdir()) == []


def test_simulate_out_dir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "outputs"
    target.mkdir()
    monkeypatch.setenv("MSMARK_OUT", str(target))
    code, out, _ = _run(capsys, ["simulate", "--kind", "gaussian_iid", "--n", "64"])
    assert code == EXIT_OK
    assert (target / "gaussian_iid_64_0.csv").exists()
    # an empty variable means unset
    monkeypatch.setenv("MSMARK_OUT", "")
    code, out, _ = _run(capsys, ["simulate", "--kind", "gaussian_iid", "--n", "64"])
    assert code == EXIT_OK
    assert (tmp_path / "gaussian_iid_64_0.csv").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["simulate", "estimate", "optimize", "backtest", "repro"])
def test_empty_out_dir_is_usage_error(capsys, workdir, monkeypatch, command, source):
    # an empty --out-dir read as unset, so files went to $MSMARK_OUT unannounced
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "320",
                                       "--assets", "2", "--seed", "4"])
    monkeypatch.setenv("MSMARK_OUT", str(workdir / "envdir"))
    workdir.joinpath("o.cfg").write_text("out_dir =\n")
    extra = ["--out-dir", ""] if source == "flag" else ["--config", "o.cfg"]
    args = {"simulate": ["--kind", "fgn", "--n", "64"], "repro": []}.get(command, [str(path)])
    before = sorted(workdir.rglob("*"))
    code, out, err = _run(capsys, [command, *args, *extra])
    assert code == EXIT_USAGE
    assert out == ""
    assert "argument --out-dir: expected a directory name, got ''" in err
    assert sorted(workdir.rglob("*")) == before


# ---------------------------------------------------------------------------
# estimate


def test_estimate_recovers_exponent(capsys, workdir):
    path = _simulate(capsys, workdir, ["--kind", "fgn", "--n", "8192",
                                       "--hurst", "0.7", "--seed", "5"])
    code, out, _ = _run(capsys, ["estimate", str(path), "--json-out", "rep.json"])
    assert code == EXIT_OK
    assert "H(2)" in out
    rep = json.loads((workdir / "rep.json").read_text())
    h = rep["assets"]["a1"]["hurst"]
    assert abs(h - 0.7) < 0.08


def test_estimate_dfa_method(capsys, workdir):
    path = _simulate(capsys, workdir, ["--kind", "gaussian_iid", "--n", "4096",
                                       "--seed", "6"])
    code, out, _ = _run(capsys, ["estimate", str(path), "--method", "dfa",
                                 "--json-out", "rep.json"])
    assert code == EXIT_OK
    rep = json.loads((workdir / "rep.json").read_text())
    assert abs(rep["assets"]["a1"]["hurst"] - 0.5) < 0.08
    assert rep["assets"]["a1"]["spectrum"]["method"] == "dfa"


@pytest.mark.parametrize("grid, fitted", [("1,2,3", []), ("1,3", ["a1", "a2"])])
def test_estimate_structure_reads_hurst_off_the_q2_column(capsys, workdir, monkeypatch,
                                                          grid, fitted):
    # with q = 2 on the grid the spectrum already holds the Hurst fit;
    # without it, each asset takes its own fit, and both give the same H
    path = _simulate(capsys, workdir, ["--kind", "epps", "--n", "4096", "--seed", "7"])
    fit = scaling.estimate_hurst
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("asset"))
        return fit(*args, **kwargs)
    monkeypatch.setattr(scaling, "estimate_hurst", counted)
    code, _, _ = _run(capsys, ["estimate", str(path), "--q-grid", grid,
                               "--json-out", "rep.json"])
    assert code == EXIT_OK
    assert calls == fitted
    rep = json.loads((workdir / "rep.json").read_text())
    panel = to_log_returns(load_prices(path))
    assert sorted(rep["assets"]) == ["a1", "a2"]
    for asset, entry in rep["assets"].items():
        assert (entry["hurst"], entry["hurst_stderr"]) == tuple(fit(panel, asset=asset))


def test_estimate_report_is_strict_json(capsys, workdir):
    path = _simulate(capsys, workdir, ["--kind", "gaussian_iid", "--n", "4096",
                                       "--seed", "6"])
    code, _, _ = _run(capsys, ["estimate", str(path), "--method", "dfa",
                               "--q-grid", "1,3", "--json-out", "rep.json"])
    assert code == EXIT_OK

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    rep = json.loads((workdir / "rep.json").read_text(), parse_constant=reject)
    # H(2) is not estimated without q = 2 in the grid
    assert rep["assets"]["a1"]["hurst"] is None


def test_estimate_pairs(capsys, workdir):
    path = _simulate(capsys, workdir, ["--kind", "epps", "--n", "4096",
                                       "--seed", "7"])
    code, out, _ = _run(capsys, ["estimate", str(path), "--pairs", "true",
                                 "--json-out", "rep.json"])
    assert code == EXIT_OK
    assert "H_rho" in out
    rep = json.loads((workdir / "rep.json").read_text())
    assert "a1~a2" in rep["pairs"]
    assert "identity_residual" in rep["pairs"]["a1~a2"]


def test_estimate_pairs_are_the_library_records(capsys, workdir):
    # each pair object is its CorrelationScaling field for field
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "1500",
                                       "--assets", "3", "--rho", "0.35", "--seed", "5"])
    code, _, _ = _run(capsys, ["estimate", str(path), "--pairs", "true",
                               "--scales", "1,2,5,10", "--json-out", "rep.json"])
    assert code == EXIT_OK
    rep = json.loads((workdir / "rep.json").read_text())
    panel = to_log_returns(load_prices(path))
    assert sorted(rep["pairs"]) == ["a1~a2", "a1~a3", "a2~a3"]
    for key, entry in rep["pairs"].items():
        cs = scaling.estimate_correlation_scaling(panel, *key.split("~"), scales=(1, 2, 5, 10))
        assert entry == cli._jsonable(dataclasses.asdict(cs))
    assert {"pair", "scales", "h_i_1_stderr", "h_j_1_stderr"} <= set(rep["pairs"]["a1~a2"])


def test_estimate_pairs_report_the_first_failing_pair(capsys, workdir):
    # p5's 5-day and p2's 2-day log returns sum to exactly zero, so the
    # first pair fails at scale 5 although a later one fails at scale 2
    n = 60
    noise = 100.0 * np.exp(np.cumsum(np.random.default_rng(3).normal(0.0, 0.01, n + 1)))
    prices = np.column_stack([np.tile([1.0, 2.0, 1.0, 3.0, 1.0], 13)[:n + 1], noise,
                              np.tile([1.0, 2.0], 31)[:n + 1]])
    path = workdir / "zero.csv"
    path.write_text(prices_to_csv(PriceSeries(
        ("p5", "y", "p2"), np.datetime64("2020-01-01") + np.arange(n + 1), prices)))
    code, _, err = _run(capsys, ["estimate", str(path), "--asset", "y", "--pairs", "true",
                                 "--scales", "1,2,5"])
    assert code == EXIT_DATA
    assert err == ("msmark: data error: asset 'p5' has zero variance at scale 5, phase 0 "
                   "in pair p5~y; correlation undefined\n")


@pytest.mark.parametrize("method", ["structure", "dfa"])
def test_estimate_spectra_are_the_library_records(capsys, workdir, method):
    # each spectrum is its ScalingSpectrum field for field, asset_id as "asset"
    path = _simulate(capsys, workdir, ["--kind", "epps", "--n", "4096", "--seed", "7"])
    code, _, _ = _run(capsys, ["estimate", str(path), "--method", method,
                               "--json-out", "rep.json"])
    assert code == EXIT_OK
    rep = json.loads((workdir / "rep.json").read_text())
    panel = to_log_returns(load_prices(path))
    for asset in ("a1", "a2"):
        if method == "structure":
            spect = scaling.structure_spectrum(panel, asset=asset)
        else:
            spect = scaling.mfdfa(panel, asset=asset)
        expected = dataclasses.asdict(spect)
        expected["asset"] = expected.pop("asset_id")
        assert rep["assets"][asset]["spectrum"] == cli._jsonable(expected)


def test_estimate_unknown_asset_exit_data(capsys, workdir):
    path = _simulate(capsys, workdir, ["--kind", "gaussian_iid", "--n", "64"])
    code, _, err = _run(capsys, ["estimate", str(path), "--asset", "zz"])
    assert code == EXIT_DATA
    assert "zz" in err


def test_estimate_missing_file_exit_data(capsys, workdir):
    code, _, err = _run(capsys, ["estimate", "nope.csv"])
    assert code == EXIT_DATA


def test_estimate_non_utf8_file_exit_data(capsys, workdir):
    path = workdir / "bad.csv"
    path.write_bytes(b"date,a1\n2020-01-01,1\xff\n2020-01-02,2\n")
    code, _, err = _run(capsys, ["estimate", str(path)])
    assert code == EXIT_DATA
    assert "bad.csv: not UTF-8 text" in err


@pytest.mark.parametrize("header, message", [
    ("date,a1,a1", "asset ids must be unique"),
    ("date,a1,", "asset ids must be non-empty strings"),
])
def test_bad_header_ids_are_a_data_error_naming_the_path(capsys, workdir, header, message):
    path = workdir / "ids.csv"
    path.write_text(f"{header}\n2020-01-01,1,2\n2020-01-02,1,2\n")
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_prices(path)
    code, _, err = _run(capsys, ["estimate", str(path)])
    assert code == EXIT_DATA
    assert err == f"msmark: data error: {path}: {message}\n"


def test_estimate_cell_over_csv_field_limit_exit_data(capsys, workdir):
    path = workdir / "big.csv"
    path.write_text("date,a1\n2020-01-01,1\n2020-01-02," + "1" * 200_000 + "\n")
    code, _, err = _run(capsys, ["estimate", str(path)])
    assert code == EXIT_DATA
    assert "Traceback" not in err
    assert "big.csv line 3: field larger than field limit" in err


# ---------------------------------------------------------------------------
# optimize


def test_optimize_writes_weights(capsys, workdir):
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "400",
                                       "--assets", "3", "--rho", "0.2",
                                       "--seed", "8"])
    code, out, _ = _run(capsys, ["optimize", str(path), "--out-prefix", "w"])
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if ":" in l]
    assert len(lines) == 3
    weights = json.loads((workdir / "w.json").read_text())["weights"]
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)
    assert min(weights.values()) >= -1e-12
    csv_rows = (workdir / "w.csv").read_text().strip().splitlines()
    assert csv_rows[0] == "asset,weight"
    assert len(csv_rows) == 4


def test_optimize_near_equal_for_symmetric_universe(capsys, workdir):
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "2000",
                                       "--assets", "3", "--rho", "0.0",
                                       "--seed", "9"])
    code, out, _ = _run(capsys, ["optimize", str(path), "--out-prefix", "w"])
    assert code == EXIT_OK
    weights = json.loads((workdir / "w.json").read_text())["weights"]
    for v in weights.values():
        assert abs(v - 1.0 / 3.0) < 0.15


def test_optimize_mu_target_with_shorting_is_usage_error(capsys, workdir):
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "400",
                                       "--assets", "2", "--seed", "1"])
    code, _, err = _run(capsys, ["optimize", str(path), "--mu-target", "0.001",
                                 "--allow-short", "true"])
    assert code == EXIT_USAGE
    assert "long-only" in err


@pytest.mark.parametrize("short", ["false", "true"])
def test_optimize_mu_target_with_max_sharpe_is_usage_error(capsys, workdir, short):
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "400",
                                       "--assets", "2", "--seed", "1"])
    code, out, err = _run(capsys, ["optimize", str(path), "--objective", "max_sharpe",
                                   "--mu-target", "0.5", "--allow-short", short])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.strip() == "--mu-target applies only to --objective min_variance"


def test_optimize_infeasible_target_exit_numeric(capsys, workdir):
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "400",
                                       "--assets", "2", "--seed", "1"])
    code, _, err = _run(capsys, ["optimize", str(path), "--mu-target", "0.5"])
    assert code == EXIT_NUMERIC


def test_optimize_duplicated_column_refused_without_ridge_solved_with_auto(capsys, workdir):
    # the workflow's a1copy step: the copy makes the blend singular, so the
    # certificate cannot pass it and the exact eigvalsh path refuses it; the
    # auto ridge makes it solvable
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "1500", "--assets", "4",
                                       "--rho", "0.35", "--seed", "5"])
    rows = [line.split(",") for line in path.read_text().splitlines()]
    (workdir / "a1copy.csv").write_text("".join(
        ",".join(r + [r[1] + "copy" if i == 0 else r[1]]) + "\n" for i, r in enumerate(rows)))
    code, _, err = _run(capsys, ["optimize", "a1copy.csv", "--ridge", "0"])
    assert code == EXIT_NUMERIC
    assert re.search(r"covariance condition number \S+ exceeds 1e\+12$", err.strip())
    code, _, _ = _run(capsys, ["optimize", "a1copy.csv", "--ridge", "auto"])
    assert code == EXIT_OK
    weights = json.loads((workdir / "optimize.json").read_text())["weights"]
    assert weights["a1"] == pytest.approx(weights["a1copy"], abs=1e-6)


def test_optimize_floor_at_best_mean_holds_the_best_asset(capsys, workdir):
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "400",
                                       "--assets", "3", "--seed", "1"])
    mu = to_log_returns(load_prices(path)).returns.mean(axis=0)
    code, _, _ = _run(capsys, ["optimize", str(path), "--mu-target", repr(float(mu.max())),
                               "--out-prefix", "w"])
    assert code == EXIT_OK
    weights = json.loads((workdir / "w.json").read_text())["weights"]
    assert list(weights.values()) == [1.0 if j == mu.argmax() else 0.0 for j in range(3)]


def test_optimize_short_panel_exit_data(capsys, workdir):
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "40",
                                       "--assets", "2", "--seed", "1"])
    code, _, err = _run(capsys, ["optimize", str(path)])
    assert code == EXIT_DATA  # scale 21 leaves too few blocks


def test_optimize_allow_short_reports_method(capsys, workdir):
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "400",
                                       "--assets", "3", "--seed", "2"])
    code, out, _ = _run(capsys, ["optimize", str(path), "--allow-short", "true",
                                 "--out-prefix", "w"])
    assert code == EXIT_OK
    rep = json.loads((workdir / "w.json").read_text())
    assert rep["long_only"] is False


@pytest.mark.parametrize("flags, closed_form", [
    (["--objective", "min_variance"], False),
    (["--objective", "min_variance", "--allow-short", "true"], True),
    (["--objective", "max_sharpe"], False),
    (["--objective", "max_sharpe", "--allow-short", "true"], False),
    (["--mu-target", "0.0005"], False),
    (["--cov", "l1", "--l1-joint", "true"], False),
], ids=["min_variance", "closed_form", "max_sharpe", "max_sharpe_short",
        "mu_target", "l1_joint"])
def test_optimize_json_provenance(capsys, workdir, flags, closed_form):
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "400",
                                       "--assets", "3", "--rho", "0.2",
                                       "--seed", "8"])
    code, _, _ = _run(capsys, ["optimize", str(path), *flags, "--out-prefix", "w"])
    assert code == EXIT_OK
    rep = json.loads((workdir / "w.json").read_text())
    method = "l1" if "l1" in flags else "product"
    cset = build_covariance_set(to_log_returns(load_prices(path)), (1, 2, 5, 10, 21),
                                method=method, l1_joint="l1" in flags)
    expected = {"scales": [1, 2, 5, 10, 21], "covariance": method,
                "aggregation": "nonoverlapping",
                "ridge": multiscale_cov(cset, ridge="auto").ridge,
                "psd_repaired": False}
    prov = rep["provenance"]
    if closed_form:
        sigma = np.array(rep["covariance_matrix"])
        lam = 2.0 / np.linalg.solve(sigma, np.ones(3)).sum()
        assert prov.pop("lagrange_multiplier") == pytest.approx(lam, rel=1e-9)
    assert prov == expected


def test_optimize_report_is_the_weights_record(capsys, workdir):
    # PortfolioWeights' fields, weights keyed by asset, plus three keys of its own
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "400",
                                       "--assets", "3", "--rho", "0.2", "--seed", "8"])
    code, _, _ = _run(capsys, ["optimize", str(path), "--out-prefix", "w"])
    assert code == EXIT_OK
    rep = json.loads((workdir / "w.json").read_text())
    weights, blended = bt.fit(to_log_returns(load_prices(path)), bt.MIN_VARIANCE,
                              bt.DEFAULT_SCALES, "product", "nonoverlapping", "auto", 0.0)
    fields = [f.name for f in dataclasses.fields(PortfolioWeights)]
    assert set(rep) == set(fields) | {"input", "objective", "covariance_matrix"}
    for name in fields:
        value = weights.as_dict() if name == "weights" else getattr(weights, name)
        assert rep[name] == cli._jsonable(value), name
    assert rep["covariance_matrix"] == blended.matrix.tolist()


def test_optimize_dotted_prefixes_name_distinct_files(capsys, workdir):
    # each extension goes after the prefix's whole name, so two prefixes
    # that differ after their last dot no longer write the same two files
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "400",
                                       "--assets", "3", "--seed", "8"])
    written = []
    for prefix in ("runs/w_h0.5", "runs/w_h0.7"):
        code, _, err = _run(capsys, ["optimize", str(path), "--out-prefix", prefix])
        assert code == EXIT_OK
        assert f"wrote {prefix}.csv and {prefix}.json" in err
        written += [workdir / f"{prefix}.csv", workdir / f"{prefix}.json"]
    assert sorted(workdir.joinpath("runs").iterdir()) == sorted(written)


def test_optimize_fits_through_the_one_entry(capsys, workdir, monkeypatch):
    # cmd_optimize builds, blends and solves nothing itself
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "400",
                                       "--assets", "3", "--rho", "0.2", "--seed", "8"])
    calls = []
    fit = bt.fit

    def counted(*args, **kwargs):
        calls.append(args[1])
        return fit(*args, **kwargs)
    monkeypatch.setattr(bt, "fit", counted)
    for objective in bt.OBJECTIVES:
        calls.clear()
        code, _, _ = _run(capsys, ["optimize", str(path), "--objective", objective,
                                   "--out-prefix", "w"])
        assert code == EXIT_OK and calls == [objective]


def test_optimize_objective_choices_are_the_fit_objectives():
    opt = next(o for o in cli._OPTIMIZE_OPTS if o.flag == "--objective")
    assert opt.default in bt.OBJECTIVES
    assert [opt.cast(name) for name in bt.OBJECTIVES] == list(bt.OBJECTIVES)
    with pytest.raises(argparse.ArgumentTypeError,
                       match=f"expected one of {', '.join(bt.OBJECTIVES)}; got 'x'"):
        opt.cast("x")


def test_cli_imports_no_optimizer_and_calls_no_builder_blend_or_solver():
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "optimizer" not in imported
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not used & {"build_covariance_set", "multiscale_cov", "max_sharpe",
                       "min_variance_long_only", "min_variance_closed_form"}


@pytest.mark.parametrize("command, flag", [
    pytest.param(command, flag, id=command) for command, flag in (
        ("optimize", "--out-prefix"), ("backtest", "--out-prefix"),
        ("simulate", "--out"), ("estimate", "--json-out"))])
@pytest.mark.parametrize("prefix", ["", ".", "..", "runs/", "runs/.", "runs/.."])
def test_out_prefix_that_names_no_file_is_usage_error(capsys, workdir, command, flag, prefix):
    # refused while parsing, so nothing is printed or written
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "320",
                                       "--assets", "2", "--seed", "4"])
    before = sorted(workdir.rglob("*"))
    args = ["--kind", "fgn", "--n", "64"] if command == "simulate" else [str(path)]
    code, out, err = _run(capsys, [command, *args, flag, prefix])
    assert code == EXIT_USAGE
    assert out == ""
    assert f"argument {flag}: expected a file name prefix, got {prefix!r}" in err
    assert sorted(workdir.rglob("*")) == before


@pytest.mark.parametrize("argv", [
    ["simulate", "--kind", "fgn", "--n", "64", "--out-dir", "taken"],
    ["optimize", "{csv}", "--out-dir", "taken"],
    ["backtest", "{csv}", "--strategy", "equal_weight", "--out-dir", "taken"],
    ["repro", "--out-dir", "taken"],
    ["estimate", "{csv}", "--json-out", "taken/r.json"],
    ["simulate", "--kind", "fgn", "--n", "64", "--out", "adir"],
], ids=["simulate", "optimize", "backtest", "repro", "estimate", "simulate-onto-dir"])
def test_output_that_cannot_be_written_is_data_error(capsys, workdir, argv):
    # "taken" is a regular file where a directory is needed; "adir" is a
    # directory where the file goes, so the rename onto it fails
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "320",
                                       "--assets", "2", "--seed", "4"])
    workdir.joinpath("taken").write_text("a file\n")
    workdir.joinpath("adir").mkdir()
    code, _, err = _run(capsys, [a.format(csv=path) for a in argv])
    assert code == EXIT_DATA
    assert "msmark: data error: cannot write " in err
    assert "Traceback" not in err
    assert list(workdir.rglob("*.tmp")) == []
    assert workdir.joinpath("taken").read_text() == "a file\n"


# ---------------------------------------------------------------------------
# backtest


def test_backtest_dotted_prefix_keeps_its_whole_name(capsys, workdir):
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "320",
                                       "--assets", "2", "--seed", "4"])
    code, _, err = _run(capsys, ["backtest", str(path), "--strategy", "equal_weight",
                                 "--out-prefix", "runs/bt_lb.500"])
    assert code == EXIT_OK
    names = [f"runs/bt_lb.500{ext}" for ext in (".txt", ".csv", ".json")]
    assert f"wrote {', '.join(names)}" in err
    assert sorted(p.name for p in workdir.joinpath("runs").iterdir()) == sorted(
        Path(n).name for n in names)


@pytest.mark.parametrize("ridge", ["-1", "nan"])
def test_backtest_equal_weight_refuses_a_bad_ridge(capsys, workdir, ridge):
    # the equal-weight fit blends nothing, so the config itself checks it
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "320",
                                       "--assets", "2", "--seed", "4"])
    code, _, err = _run(capsys, ["backtest", str(path), "--strategy", "equal_weight",
                                 "--ridge", ridge, "--out-prefix", "bt"])
    assert code == EXIT_USAGE
    assert f"ridge must be non-negative and finite, got {float(ridge)}" in err
    assert not list(workdir.glob("bt.*"))


def test_backtest_table_all_strategies(capsys, workdir):
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "320",
                                       "--assets", "3", "--rho", "0.3",
                                       "--seed", "3"])
    code, out, _ = _run(capsys, ["backtest", str(path), "--out-prefix", "bt"])
    assert code == EXIT_OK
    assert "Max Drawdown (%)" in out
    body = [l for l in out.splitlines() if l.strip()]
    assert len(body) == 5  # header plus four strategies
    assert (workdir / "bt.txt").exists()
    assert (workdir / "bt.csv").exists()
    rep = json.loads((workdir / "bt.json").read_text())
    assert len(rep["rows"]) == 4
    for row in rep["rows"]:
        assert np.isfinite(row["sharpe"])


def test_backtest_single_strategy(capsys, workdir):
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "320",
                                       "--assets", "2", "--seed", "4"])
    code, out, _ = _run(capsys, ["backtest", str(path), "--strategy",
                                 "equal_weight", "--out-prefix", "bt"])
    assert code == EXIT_OK
    body = [l for l in out.splitlines() if l.strip()]
    assert len(body) == 2
    assert "Equally Weighted" in out


def _backtest_report(capsys, workdir, path, prefix, args, suffixes=(".txt",)):
    code, _, err = _run(capsys, ["backtest", str(path), "--out-prefix", prefix] + args)
    assert code == EXIT_OK, err
    return [(workdir / (prefix + suffix)).read_bytes() for suffix in suffixes]


def test_backtest_metrics_take_no_risk_free_rate(capsys, workdir):
    # the rate reaches max-Sharpe fits only; Sharpe and Sortino are of raw returns
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "320",
                                       "--assets", "3", "--rho", "0.3", "--seed", "3"])
    reports = [_backtest_report(capsys, workdir, path, f"rf{i}",
                                ["--strategy", "markowitz_multiscale", "--risk-free", rate],
                                suffixes=(".txt", ".csv"))
               for i, rate in enumerate(["0", "0.01"])]
    assert reports[0] == reports[1]


def test_backtest_flags_that_do_nothing_in_a_mode(capsys, workdir):
    # 'all' sets each row's aggregation; a single strategy has no Sharpe rows to add
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "320",
                                       "--assets", "3", "--rho", "0.3", "--seed", "3"])
    for i, (args, noop) in enumerate([
            ([], ["--aggregation", "overlapping"]),
            (["--strategy", "markowitz_daily"], ["--max-sharpe-rows", "true"])]):
        want = _backtest_report(capsys, workdir, path, f"base{i}", args)
        assert _backtest_report(capsys, workdir, path, f"noop{i}", args + noop) == want


def _recording_compare(monkeypatch):
    tables = []
    compare = bt.compare

    def recorded(panel, configs):
        tables.append((compare(panel, configs), configs))
        return tables[-1][0]
    monkeypatch.setattr(bt, "compare", recorded)
    return tables


def test_backtest_rows_are_the_table_rows(capsys, workdir, monkeypatch):
    # each row is its TableRow field for field plus config, fallbacks and
    # final equity; the failed multiscale rows too
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "320",
                                       "--assets", "3", "--rho", "0.3", "--seed", "3"])
    run = bt.run_backtest

    def failing(panel, cfg):
        if cfg.strategy == bt.STRATEGY_MARKOWITZ_MULTISCALE:
            raise DataError("no fit")
        return run(panel, cfg)
    monkeypatch.setattr(bt, "run_backtest", failing)
    tables = _recording_compare(monkeypatch)
    code, _, _ = _run(capsys, ["backtest", str(path), "--out-prefix", "bt"])
    assert code == EXIT_OK
    rows = json.loads((workdir / "bt.json").read_text())["rows"]
    [(table, configs)] = tables
    assert [row.error for row in table.rows] == [None, None] + ["DataError: no fit"] * 2
    for entry, row, cfg, rep in zip(rows, table.rows, configs, table.reports, strict=True):
        extra = {"config": dataclasses.asdict(cfg),
                 "fallbacks": None if rep is None else list(rep.fallbacks),
                 "final_equity": None if rep is None else rep.equity[-1]}
        assert entry == cli._jsonable({**dataclasses.asdict(row), **extra})


def test_repro_strategies_are_the_table_rows(capsys, workdir, monkeypatch):
    tables = _recording_compare(monkeypatch)
    code, _, _ = _run(capsys, ["repro", "--seed", "3"])
    assert code == EXIT_OK
    summary = json.loads((workdir / "repro_summary.json").read_text())
    [(table, _)] = tables
    assert summary["strategies"] == cli._jsonable([dataclasses.asdict(r) for r in table.rows])


def test_backtest_short_panel_exit_data(capsys, workdir):
    path = _simulate(capsys, workdir, ["--kind", "correlated", "--n", "64",
                                       "--assets", "2", "--seed", "4"])
    code, _, err = _run(capsys, ["backtest", str(path)])
    assert code == EXIT_DATA


# ---------------------------------------------------------------------------
# config files


def test_config_file_supplies_defaults(capsys, workdir):
    cfg = workdir / "sim.cfg"
    cfg.write_text("kind = gaussian_iid\nn = 64\nseed = 11  # fixed\n")
    code, out, _ = _run(capsys, ["simulate", "--config", str(cfg)])
    assert code == EXIT_OK
    assert (workdir / "gaussian_iid_64_11.csv").exists()


def test_cli_flag_overrides_config(capsys, workdir):
    cfg = workdir / "sim.cfg"
    cfg.write_text("kind = gaussian_iid\nn = 64\nseed = 11\n")
    code, out, _ = _run(capsys, ["simulate", "--config", str(cfg),
                                 "--seed", "12"])
    assert code == EXIT_OK
    assert (workdir / "gaussian_iid_64_12.csv").exists()


def test_config_unknown_key_is_usage_error(capsys, workdir):
    cfg = workdir / "sim.cfg"
    cfg.write_text("kind = gaussian_iid\nn = 64\nwibble = 3\n")
    code, _, err = _run(capsys, ["simulate", "--config", str(cfg)])
    assert code == EXIT_USAGE
    assert "wibble" in err


def test_config_bad_line_is_usage_error(capsys, workdir):
    cfg = workdir / "sim.cfg"
    cfg.write_text("kind gaussian_iid\n")
    code, _, err = _run(capsys, ["simulate", "--config", str(cfg)])
    assert code == EXIT_USAGE
    assert "line 1" in err


def test_config_skips_comment_only_and_blank_lines(capsys, workdir):
    cfg = workdir / "sim.cfg"
    cfg.write_text("# a white-noise panel\nkind = gaussian_iid\n\n   \nn = 64\n  # seeded\nseed = 11\n")
    code, out, _ = _run(capsys, ["simulate", "--config", str(cfg)])
    assert code == EXIT_OK
    assert (workdir / "gaussian_iid_64_11.csv").exists()


@pytest.mark.parametrize("name", ["missing.cfg", "."])
def test_unreadable_config_is_a_data_error(capsys, workdir, name):
    code, _, err = _run(capsys, ["simulate", "--config", name])
    assert code == EXIT_DATA
    assert f"cannot read config {name}: " in err


@pytest.mark.parametrize("command, flag, value, message", [
    ("simulate", "--sigma", "abc", "expected a number, got 'abc'"),
    ("estimate", "--pairs", "maybe", "expected a boolean, got 'maybe'"),
])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_value_its_cast_refuses_is_a_usage_error(capsys, parsed, workdir, command, flag, value,
                                                   message, source):
    cfg = workdir / "opts.cfg"
    cfg.write_text(f"{flag[2:]} = {value}\n")
    given = [f"{flag}={value}"] if source == "flag" else ["--config", str(cfg)]
    code, _ = parsed([command, *_INPUT[command], *given])
    assert code == EXIT_USAGE
    assert f"msmark {command}: error: argument {flag}: {message}" in capsys.readouterr().err


# A sample value for every option of every subcommand. A config line
# ``key = value`` and the flag ``--key=value`` must parse to the same
# value, through the one argparse path.
_SAMPLES = {
    "simulate": {"--kind": "fgn", "--n": "64", "--seed": "5", "--sigma": "0.02",
                 "--hurst": "0.6", "--assets": "3", "--rho": "-0.1", "--rho-inf": "0.5",
                 "--h-rho": "0.2", "--sigma-low": "0.01,0.02", "--sigma-high": "0.03",
                 "--switch-points": "10,20", "--intermittency": "0.1", "--out": "x.csv",
                 "--out-dir": "outs"},
    "estimate": {"--method": "dfa", "--asset": "a1", "--scales": "1,4",
                 "--q-grid": "-2,2", "--dfa-scales": "", "--detrend-order": "2",
                 "--pairs": "yes", "--json-out": "r.json", "--out-dir": "outs"},
    "optimize": {"--objective": "max_sharpe", "--scales": "1,5", "--cov": "l1",
                 "--l1-joint": "on", "--aggregation": "overlapping", "--ridge": "auto",
                 "--allow-short": "true", "--mu-target": "-0.001", "--risk-free": "0.01",
                 "--out-prefix": "p", "--out-dir": "outs"},
    "backtest": {"--strategy": "equal_weight", "--max-sharpe-rows": "1",
                 "--lookback": "100", "--rebalance": "5", "--scales": "1,2",
                 "--cov": "l1", "--aggregation": "overlapping", "--ridge": "0.5",
                 "--risk-free": "0.01", "--out-prefix": "p", "--out-dir": "outs"},
    "repro": {"--seed": "9", "--out-dir": "outs"},
}
_INPUT = {"simulate": [], "estimate": ["p.csv"], "optimize": ["p.csv"],
          "backtest": ["p.csv"], "repro": []}


@pytest.fixture
def parsed(monkeypatch):
    """Run ``main(argv)`` with every command replaced by one that keeps its options."""
    seen = []
    for name in _INPUT:
        monkeypatch.setattr(cli, f"cmd_{name}", lambda opts: seen.append(opts) or EXIT_OK)

    def parse(argv):
        code = main(argv)
        return code, (seen.pop() if code == EXIT_OK else None)
    return parse


def test_samples_cover_every_option(parsed):
    for name, samples in _SAMPLES.items():
        code, opts = parsed([name, *_INPUT[name]])
        assert code == EXIT_OK
        dests = {k for k in opts if not k.startswith("_")} - {"command", "input", "config"}
        assert dests == {f[2:].replace("-", "_") for f in samples}, name


@pytest.mark.parametrize("command, flag", [(c, f) for c, opts in _SAMPLES.items()
                                           for f in opts])
def test_config_line_parses_as_its_flag(parsed, workdir, command, flag):
    value = _SAMPLES[command][flag]
    cfg = workdir / "opts.cfg"
    cfg.write_text(f"{flag[2:]} = {value}\n")
    code, from_file = parsed([command, *_INPUT[command], "--config", str(cfg)])
    assert code == EXIT_OK
    code, from_flag = parsed([command, *_INPUT[command], f"{flag}={value}"])
    assert code == EXIT_OK
    dest = flag[2:].replace("-", "_")
    assert from_file[dest] == from_flag[dest]
    assert type(from_file[dest]) is type(from_flag[dest])


@pytest.mark.parametrize("command, line, dest, value", [
    ("estimate", "q-grid = -2,2", "q_grid", (-2.0, 2.0)),
    ("optimize", "ridge = auto", "ridge", "auto"),
    ("optimize", "ridge = 0.25", "ridge", 0.25),
    ("estimate", "pairs = yes", "pairs", True),
    ("backtest", "aggregation = overlapping", "aggregation", "overlapping"),
    ("simulate", "rho_inf = 0.5", "rho_inf", 0.5),
])
def test_config_line_values(parsed, workdir, command, line, dest, value):
    cfg = workdir / "opts.cfg"
    cfg.write_text(line + "\n")
    code, opts = parsed([command, *_INPUT[command], "--config", str(cfg)])
    assert code == EXIT_OK
    assert opts[dest] == value


def test_string_defaults_pass_their_casts(parsed):
    code, opts = parsed(["backtest", "p.csv"])
    assert code == EXIT_OK
    assert (opts["ridge"], opts["strategy"], opts["risk_free"]) == ("auto", "all", 0.0)
    assert opts["out_prefix"] is None


def test_explicit_flag_overrides_config_value(parsed, workdir):
    cfg = workdir / "opts.cfg"
    cfg.write_text("method = dfa\nq-grid = -2,2\n")
    code, opts = parsed(["estimate", "p.csv", "--config", str(cfg), "--q-grid", "1,3"])
    assert code == EXIT_OK
    assert (opts["method"], opts["q_grid"]) == ("dfa", (1.0, 3.0))
    code, opts = parsed(["estimate", "p.csv", "--q-grid=0.5", "--config", str(cfg)])
    assert code == EXIT_OK
    assert opts["q_grid"] == (0.5,)


@pytest.mark.parametrize("overridden", [False, True])
def test_bad_config_value_names_its_flag(capsys, parsed, workdir, overridden):
    # a bad value in the file is refused even when the command line sets the key
    cfg = workdir / "sim.cfg"
    cfg.write_text("kind = gaussian_iid\nn = x\n")
    code, _ = parsed(["simulate", "--config", str(cfg)] + (["--n", "64"] if overridden else []))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "msmark simulate: error: argument --n: expected an integer, got 'x'" in err
