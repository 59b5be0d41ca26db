"""Structure functions, power-law fitting, fluctuation analysis."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gen_stable_iid
from multiscale_markowitz.errors import DataError
from multiscale_markowitz.scaling import (
    MIN_OBS_FOR_FIT,
    default_dfa_scales,
    estimate_correlation_scaling,
    estimate_hurst,
    fit_scaling_exponent,
    mfdfa,
    structure_function,
    structure_spectrum,
)
from multiscale_markowitz.synth import (
    gen_epps,
    gen_fgn,
    gen_gaussian_iid,
    gen_multifractal,
)
from multiscale_markowitz.timeseries import panel_from_returns


# ---------------------------------------------------------------------------
# structure functions


def test_structure_function_alternating_series():
    # blocks of two cancel exactly
    x = np.tile([1.0, -1.0], 8)
    pts = dict(structure_function(x, q=2.0, scales=(1, 2)))
    assert pts[1.0] == pytest.approx(1.0)
    assert pts[2.0] == pytest.approx(0.0)


def test_structure_function_manual_phase_average():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    pts = dict(structure_function(x, q=1.0, scales=(2,)))
    # phase 0 blocks: 3, 7; phase 1 blocks: 5, 9
    expected = np.mean([np.mean([3.0, 7.0]), np.mean([5.0, 9.0])])
    assert pts[2.0] == pytest.approx(expected)


def test_structure_function_on_panel_column():
    p = panel_from_returns(np.arange(1.0, 9.0).reshape(4, 2), asset_ids=("x", "y"))
    pts_x = structure_function(p, asset="x", q=1.0, scales=(1,))
    assert pts_x[0][1] == pytest.approx(np.mean([1.0, 3.0, 5.0, 7.0]))


def test_structure_function_all_zero():
    with pytest.raises(DataError, match="all base returns are zero"):
        structure_function(np.zeros(32), scales=(1, 2))


def test_structure_function_scale_guard():
    with pytest.raises(DataError, match="blocks in the worst phase"):
        structure_function(np.ones(16), scales=(1, 8), min_obs=4)


def test_structure_function_negative_q_moments_positive():
    rng = np.random.default_rng(0)
    pts = structure_function(rng.standard_normal(512), q=-2.0, scales=(1, 2, 4))
    assert all(m > 0 for _, m in pts)


# ---------------------------------------------------------------------------
# power-law fits


def test_fit_exact_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = fit_scaling_exponent(list(zip(x, 3.0 * x**1.7)))
    assert fit.exponent == pytest.approx(1.7, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-10)
    assert fit.r2 == pytest.approx(1.0)


def test_fit_constant_series():
    fit = fit_scaling_exponent([(1.0, 2.0), (2.0, 2.0), (4.0, 2.0)])
    assert fit.exponent == pytest.approx(0.0, abs=1e-14)
    assert fit.r2 == pytest.approx(1.0)


def test_fit_needs_three_points():
    with pytest.raises(DataError, match="need >= 3 scales"):
        fit_scaling_exponent([(1.0, 1.0), (2.0, 2.0)])


def test_fit_rejects_nonpositive_moment():
    with pytest.raises(DataError, match="positive and finite"):
        fit_scaling_exponent([(1.0, 1.0), (2.0, 0.0), (4.0, 2.0)])


@settings(max_examples=60, deadline=None)
@given(prefactor=st.floats(1e-6, 1e6), exponent=st.floats(-3.0, 3.0),
       n_points=st.integers(3, 8))
@example(prefactor=1.0, exponent=1e-12, n_points=3)
def test_fit_recovers_any_exact_power_law(prefactor, exponent, n_points):
    x = 2.0 ** np.arange(n_points)
    fit = fit_scaling_exponent(list(zip(x, prefactor * x**exponent)))
    assert fit.exponent == pytest.approx(exponent, abs=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-9)


def test_fit_stderr_reflects_scatter(rng):
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    noisy = 2.0 * x**0.5 * np.exp(rng.normal(0.0, 0.1, size=len(x)))
    fit = fit_scaling_exponent(list(zip(x, noisy)))
    assert fit.stderr > 0.0
    assert fit.exponent == pytest.approx(0.5, abs=0.3)


# ---------------------------------------------------------------------------
# second-moment scaling estimates


def test_estimate_hurst_white_noise():
    p = gen_gaussian_iid(1 << 13, seed=10)
    est = estimate_hurst(p)
    assert est.value == pytest.approx(0.5, abs=0.05)
    assert est.stderr < 0.05


def test_estimate_hurst_persistent_series():
    est = estimate_hurst(gen_fgn(1 << 13, hurst=0.7, seed=12))
    assert est.value == pytest.approx(0.7, abs=0.05)


def test_estimate_hurst_antipersistent_series():
    est = estimate_hurst(gen_fgn(1 << 13, hurst=0.3, seed=13))
    assert est.value == pytest.approx(0.3, abs=0.05)


# ---------------------------------------------------------------------------
# moment spectra


def test_structure_spectrum_api():
    p = gen_gaussian_iid(1 << 12, seed=2)
    spec = structure_spectrum(p, q_grid=(1.0, 2.0, 3.0))
    assert spec.method == "structure"
    assert spec.h_at(2.0) == pytest.approx(0.5, abs=0.08)
    assert np.allclose(spec.zeta, np.asarray(spec.q_grid) * spec.h_of_q)
    with pytest.raises(KeyError):
        spec.h_at(2.5)


def test_structure_spectrum_stderr_is_that_of_h():
    x = gen_fgn(4096, hurst=0.7, seed=11)
    spec = structure_spectrum(x, q_grid=(-2.0, 2.0))
    assert spec.stderr[1] == estimate_hurst(x).stderr
    # a fit of zeta(q) over the same points has q times this error
    assert spec.stderr[0] * 2.0 == fit_scaling_exponent(
        structure_function(x, q=-2.0)).stderr


def test_structure_spectrum_matches_per_q_fits():
    # the spectrum reads every order from one pass over the block sums and
    # must give the per-q fits bit for bit
    x = gen_fgn(4096, hurst=0.7, seed=11)
    spec = structure_spectrum(x)
    for i, q in enumerate(spec.q_grid):
        fit = fit_scaling_exponent(structure_function(x, q=q, min_obs=MIN_OBS_FOR_FIT))
        assert spec.zeta[i] == fit.exponent
        assert spec.stderr[i] == fit.stderr / abs(q)
        assert spec.fit_r2[i] == fit.r2


def test_structure_spectrum_stable_first_moment():
    # block sums of alpha-stable terms grow like m^(1/alpha)
    alpha = 1.5
    p = gen_stable_iid(1 << 14, alpha=alpha, seed=9)
    spec = structure_spectrum(p, q_grid=(1.0,), scales=(1, 2, 5, 10, 21))
    assert spec.h_at(1.0) == pytest.approx(1.0 / alpha, abs=0.07)


# ---------------------------------------------------------------------------
# detrended fluctuation analysis


def test_mfdfa_white_noise_h2():
    spec = mfdfa(gen_gaussian_iid(1 << 13, seed=3), q_grid=(2.0,))
    assert spec.method == "dfa"
    assert spec.h_at(2.0) == pytest.approx(0.5, abs=0.05)


def test_mfdfa_persistent_h2():
    spec = mfdfa(gen_fgn(1 << 13, hurst=0.7, seed=4), q_grid=(2.0,))
    assert spec.h_at(2.0) == pytest.approx(0.7, abs=0.05)


def test_mfdfa_cascade_spectrum_widens():
    casc = mfdfa(gen_multifractal(1 << 13, intermittency=0.2, seed=5))
    iid = mfdfa(gen_gaussian_iid(1 << 13, seed=5))
    assert casc.h_spread() > iid.h_spread()
    assert casc.h_spread() > 0.1
    assert iid.h_spread() < 0.1


def test_mfdfa_zeta_definition():
    spec = mfdfa(gen_gaussian_iid(1 << 12, seed=6), q_grid=(1.0, 2.0, 4.0))
    assert np.allclose(spec.zeta, np.asarray(spec.q_grid) * spec.h_of_q)


def test_mfdfa_memory_is_linear_in_length():
    x = gen_fgn(1 << 14, hurst=0.7, seed=7)
    tracemalloc.start()
    try:
        mfdfa(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_mfdfa_series_too_short():
    with pytest.raises(DataError, match="cannot hold 4 segments"):
        mfdfa(np.random.default_rng(0).standard_normal(64), scales=(16, 32))


def test_mfdfa_rejects_tiny_scale_for_order():
    x = np.random.default_rng(0).standard_normal(4096)
    with pytest.raises(ValueError):
        mfdfa(x, scales=(3, 16, 32), detrend_order=2)


def test_mfdfa_degenerate_input():
    with pytest.raises(DataError, match="zero residual variance"):
        mfdfa(np.zeros(4096), scales=(16, 32, 64))


def test_default_dfa_scales_bounds():
    s = default_dfa_scales(4096)
    assert s[0] >= 16
    assert s[-1] <= 4096 // 8
    assert all(b > a for a, b in zip(s, s[1:]))
    with pytest.raises(DataError, match="supports no segment grid"):
        default_dfa_scales(64)


# ---------------------------------------------------------------------------
# pairwise scaling


def test_correlation_scaling_identical_drivers():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(4096) * 0.01
    p = panel_from_returns(np.column_stack([x, x]), asset_ids=("x", "y"))
    rep = estimate_correlation_scaling(p, "x", "y", scales=(1, 2, 5, 10, 21))
    assert np.allclose(rep.rho_by_scale, 1.0, atol=1e-12)
    assert rep.h_rho == pytest.approx(0.0, abs=1e-10)
    # decomposition closes: cross moment slope ~ 1, each |.| slope ~ 0.5
    assert rep.identity_residual == pytest.approx(0.0, abs=0.05)


def test_correlation_scaling_lead_lag_pair():
    p = gen_epps(1 << 13, rho_inf=0.6, h_rho=0.3, seed=17)
    rep = estimate_correlation_scaling(p, "a1", "a2")
    assert np.all(np.diff(rep.rho_by_scale) > -0.05)
    assert rep.h_rho == pytest.approx(0.3, abs=0.12)
    assert not rep.negative_correlation


def test_correlation_scaling_needs_distinct_assets():
    p = gen_epps(512, seed=1)
    with pytest.raises(ValueError):
        estimate_correlation_scaling(p, "a1", "a1")


# ---------------------------------------------------------------------------
# one prefix sum per series


def test_scaling_estimates_take_one_prefix_sum_per_series(monkeypatch):
    p = gen_epps(1 << 12, rho_inf=0.6, h_rho=0.3, seed=17)
    calls = Counter()
    cumsum = np.cumsum

    def counted(*args, **kwargs):
        calls["cumsum"] += 1
        return cumsum(*args, **kwargs)
    monkeypatch.setattr(np, "cumsum", counted)
    structure_spectrum(p, asset="a1")
    assert calls["cumsum"] == 1
    estimate_hurst(p, asset="a1")
    assert calls["cumsum"] == 2
    # block sums of each series, then each one's first structure function
    estimate_correlation_scaling(p, "a1", "a2")
    assert calls["cumsum"] == 6


def test_correlation_scaling_reports_errors_in_scale_order():
    # a zero-variance phase at scale 2 comes before the too-short scale 21
    x = np.tile([1.0, -1.0], 30)
    y = np.random.default_rng(3).standard_normal(60)
    p = panel_from_returns(np.column_stack([x, y]), asset_ids=("x", "y"))
    with pytest.raises(DataError, match="zero variance at scale 2, phase 0"):
        estimate_correlation_scaling(p, "x", "y", scales=(1, 2, 21))
    with pytest.raises(DataError, match="scale 21 leaves under 4 blocks per phase"):
        estimate_correlation_scaling(p, "x", "y", scales=(1, 21, 2))
