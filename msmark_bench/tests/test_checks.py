"""Tests of the benchmark's own checks and of its workloads at a small size.

Run from the root of the repository::

    python3 -m pytest msmark_bench/tests -q

Each independent check must accept the program's correct answer and reject
a deliberately wrong one.
"""
from __future__ import annotations

import json
import os
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from multiscale_markowitz import backtest, covariance, optimizer, scaling, synth  # noqa: E402


@pytest.fixture(scope="module")
def window():
    cov = synth.constant_correlation_cov(6, 0.3)
    return synth.gen_correlated(240, cov, seed=3)


@pytest.mark.parametrize("aggregation", ["nonoverlapping", "overlapping"])
def test_covariance_check_rejects_one_perturbed_entry(window, aggregation):
    scales = (1, 2, 5, 10)
    cset = covariance.build_covariance_set(window, scales, aggregation=aggregation)
    program = np.array(covariance.multiscale_cov(cset, ridge="auto").matrix)
    reference = checks.blended_cov(window.returns, scales, aggregation)
    assert checks.check_covariance(reference, program) == []
    program[2, 4] *= 1.0 + 1e-6
    assert checks.check_covariance(reference, program)


def test_min_variance_certificate_rejects_weights_off_the_optimum(window):
    sigma = checks.blended_cov(window.returns, (1, 5), "nonoverlapping")
    w = np.array(optimizer.min_variance_long_only(sigma).weights)
    assert checks.check_weights(w, sigma) == []
    supp = np.flatnonzero(w > 0)
    moved = w.copy()
    moved[supp[0]] += 1e-4
    moved[supp[1]] -= 1e-4
    assert checks.check_weights(moved, sigma)
    unsupported = np.flatnonzero(w == 0)
    if unsupported.size:
        moved = w * (1 - 1e-4)
        moved[unsupported[0]] += 1e-4
        assert checks.check_weights(moved, sigma)


def test_max_sharpe_certificate_rejects_weights_off_the_optimum(window):
    x = window.returns + 0.001
    sigma = checks.blended_cov(x, (1, 2), "overlapping")
    mu = x.mean(axis=0)
    w = np.array(optimizer.max_sharpe(sigma, mu).weights)
    assert checks.check_weights(w, sigma, mu) == []
    supp = np.flatnonzero(w > 0)
    moved = w.copy()
    moved[supp[0]] += 1e-4
    moved[supp[-1]] -= 1e-4
    assert checks.check_weights(moved, sigma, mu)


def test_weight_check_rejects_shorts_and_broken_budget():
    assert checks.check_weights(np.array([1.2, -0.2]))
    assert checks.check_weights(np.array([0.5, 0.6]))


def test_equity_check_rejects_a_scaled_curve(window):
    cfg = backtest.BacktestConfig(strategy="markowitz_multiscale", lookback=120,
                                  rebalance_every=21, scales=(1, 2, 5))
    report = backtest.run_backtest(window, cfg)
    weights_at = {t: w for t, w in report.weights_history}
    equity = checks.equity_curve(window.returns, weights_at, 120, 21)
    perf = report.performance
    row = {"final_equity": float(report.equity[-1]), "sharpe": perf.sharpe,
           "sortino": perf.sortino, "max_drawdown": perf.max_drawdown}
    assert checks.check_row_metrics(checks.performance(equity), row) == []
    scaled = checks.performance(equity * 1.001)
    assert checks.check_row_metrics(scaled, row)


@pytest.fixture(scope="module")
def fgn():
    return synth.gen_fgn(1 << 12, hurst=0.7, seed=5).returns[:, 0]


def _entry(spect, hurst):
    return {"hurst": hurst, "spectrum": {"q_grid": list(spect.q_grid),
                                         "h_of_q": list(spect.h_of_q),
                                         "scales": list(spect.scales)}}


def test_structure_check_rejects_a_shifted_hurst_estimate(fgn):
    spect = scaling.structure_spectrum(fgn)
    entry = _entry(spect, scaling.estimate_hurst(fgn).value)
    h = np.array([checks.structure_zeta(fgn, q, spect.scales) / q for q in spect.q_grid])
    assert checks.check_spectrum(h, entry) == []
    entry["hurst"] += 1e-4
    assert checks.check_spectrum(h, entry)


def test_dfa_check_rejects_a_shifted_spectrum(fgn):
    spect = scaling.mfdfa(fgn)
    entry = _entry(spect, spect.h_at(2.0))
    h = checks.dfa_h(fgn, spect.q_grid, spect.scales)
    assert checks.check_spectrum(h, entry) == []
    entry["spectrum"]["h_of_q"][0] += 1e-4
    assert checks.check_spectrum(h, entry)


def test_correlation_slope_matches_the_program():
    pair = synth.gen_epps(1 << 12, seed=2)
    cs = scaling.estimate_correlation_scaling(pair, "a1", "a2")
    h_rho = checks.corr_h_rho(pair.returns[:, 0], pair.returns[:, 1], cs.scales)
    assert abs(h_rho - cs.h_rho) <= 1e-9 * abs(cs.h_rho)


def test_known_truth_rejects_a_wrong_hurst():
    def doc(h_fgn):
        spectrum = {"q_grid": [-4.0, 4.0], "h_of_q": [h_fgn, h_fgn]}
        return {"assets": {"fgn": {"hurst": h_fgn, "spectrum": spectrum},
                           "cascade": {"hurst": 0.5,
                                       "spectrum": {"q_grid": [-4.0, 4.0],
                                                    "h_of_q": [0.8, 0.4]}}},
                "pairs": {"lead~lag": {"h_rho": 0.3}}}
    assert checks.check_known_truth(doc(0.7), doc(0.7)) == []
    assert checks.check_known_truth(doc(0.6), doc(0.7))
    assert checks.check_known_truth(doc(0.7), doc(0.8))


def test_sampler_takes_its_probes_off_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as timing:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(timing.probes) >= 3
    assert 0.2 < timing.work_s < 0.3
    assert timing.reference_s == pytest.approx(timing.work_s / timing.factor)
    assert signal.getsignal(signal.SIGALRM) is previous


@pytest.fixture
def checkout(tmp_path):
    (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_to_its_end_at_a_small_size(checkout, name, trace):
    result, failures = run.run(checkout, name, seed=4, seconds=0, trace=trace, small=True)
    assert failures == []
    assert result["correct"] and result["failed"] == 0
    passes = 2  # the checked pass and one timed pass
    ops = sum(n for _, n in workloads.spec(name, small=True).commands("x", checkout))
    assert result["attempted"] == passes * ops
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == names
    assert not (checkout / ".bench_work" / f"{name}-{os.getpid()}").exists()


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "backtest_wide", "--seed", "1", "--seconds", "1"]) != 0
