"""Synthetic return generators: distributional checks against theory."""

import math
import re

import numpy as np
import pytest

from conftest import gen_stable_iid
from multiscale_markowitz import scaling, synth
from multiscale_markowitz.errors import CalibrationFailure, DataError, NumericalError
from multiscale_markowitz.synth import (
    calibrate_epps,
    constant_correlation_cov,
    gen_correlated,
    gen_epps,
    gen_fgn,
    gen_gaussian_iid,
    gen_multifractal,
    gen_regime_switch,
    split_seed,
)
from multiscale_markowitz.timeseries import DEFAULT_SCALES, block_sums


# ---------------------------------------------------------------------------
# seeding


def test_split_seed_deterministic_and_distinct():
    a = split_seed(7, 0)
    assert a == split_seed(7, 0)
    vals = {split_seed(7, i) for i in range(100)}
    assert len(vals) == 100
    assert all(0 <= v < 2**64 for v in vals)
    assert split_seed(7, 0) != split_seed(8, 0)


# ---------------------------------------------------------------------------
# iid Gaussian


def test_gaussian_iid_shape_and_determinism():
    p = gen_gaussian_iid(256, sigma_daily=0.01, seed=5)
    q = gen_gaussian_iid(256, sigma_daily=0.01, seed=5)
    assert p.returns.shape == (256, 1)
    assert np.array_equal(p.returns, q.returns)
    assert not np.array_equal(p.returns, gen_gaussian_iid(256, seed=6).returns)


def test_gaussian_iid_std():
    p = gen_gaussian_iid(1 << 14, sigma_daily=0.01, seed=0)
    assert p.returns.std() == pytest.approx(0.01, rel=0.03)


def test_gaussian_iid_too_short():
    with pytest.raises(DataError, match="too short"):
        gen_gaussian_iid(8)


@pytest.mark.parametrize("sigma", [1e200, 1e-200])
@pytest.mark.parametrize("make", [
    lambda s: gen_gaussian_iid(64, sigma_daily=s),
    lambda s: gen_fgn(64, hurst=0.7, sigma_daily=s),
    lambda s: constant_correlation_cov(2, 0.1, sigma_daily=s),
    lambda s: gen_epps(64, sigma_daily=s),
    lambda s: gen_multifractal(64, sigma_daily=s),
])
def test_generators_refuse_a_sigma_whose_square_is_not_positive_and_finite(make, sigma):
    # 1e200 squared overflows, where float ** raises; 1e-200 squared is 0
    with pytest.raises(ValueError, match=re.escape(f"sigma_daily={sigma} has a square that")):
        make(sigma)


@pytest.mark.parametrize("make, error, message", [
    (lambda: constant_correlation_cov(0, 0.1), ValueError, r"n_assets must be >= 1"),
    (lambda: gen_correlated(15, np.eye(2) * 1e-4), DataError, r"n=15 too short, need >= 16"),
    (lambda: gen_epps(15), DataError, r"n=15 too short, need >= 16"),
    (lambda: gen_regime_switch(15), DataError, r"n=15 too short, need >= 16"),
    (lambda: gen_epps(64, rho_inf=0.0), ValueError, r"rho_inf=0.0 outside \(0, 1\]"),
    (lambda: gen_epps(64, rho_inf=1.5), ValueError, r"rho_inf=1.5 outside \(0, 1\]"),
    (lambda: gen_epps(64, h_rho=0.0), ValueError, r"h_rho=0.0 outside \(0, 1\)"),
    (lambda: gen_epps(64, h_rho=1.0), ValueError, r"h_rho=1.0 outside \(0, 1\)"),
    (lambda: gen_regime_switch(64, sigma_low=(0.01, 0.02), sigma_high=(0.03, 0.04, 0.05)),
     ValueError, r"sigma_low/sigma_high lengths disagree with n_assets"),
    (lambda: gen_multifractal(64, intermittency=0.0), ValueError,
     r"intermittency=0.0 outside \(0, 0.5\]"),
    (lambda: gen_multifractal(64, intermittency=0.6), ValueError,
     r"intermittency=0.6 outside \(0, 0.5\]"),
    (lambda: gen_multifractal(64, hurst_base=0.0), ValueError,
     r"hurst_base=0.0 outside \(0, 1\)"),
    (lambda: gen_multifractal(64, hurst_base=1.0), ValueError,
     r"hurst_base=1.0 outside \(0, 1\)"),
])
def test_generators_refuse_a_short_sample_and_parameters_out_of_range(make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make()


# ---------------------------------------------------------------------------
# fractional Gaussian noise


def test_fgn_requires_power_of_two():
    with pytest.raises(DataError, match="power of two"):
        gen_fgn(1000)


def test_fgn_deterministic():
    a = gen_fgn(256, hurst=0.7, seed=11)
    b = gen_fgn(256, hurst=0.7, seed=11)
    assert np.array_equal(a.returns, b.returns)


def test_fgn_half_is_white():
    r = gen_fgn(1 << 14, hurst=0.5, seed=2).returns[:, 0]
    lag1 = np.corrcoef(r[:-1], r[1:])[0, 1]
    assert abs(lag1) < 0.03


def test_fgn_lag_one_autocorrelation():
    # autocovariance of increments: rho(1) = 2^(2H-1) - 1
    for hurst, seed in ((0.7, 3), (0.3, 4)):
        r = gen_fgn(1 << 15, hurst=hurst, seed=seed).returns[:, 0]
        lag1 = np.corrcoef(r[:-1], r[1:])[0, 1]
        theory = 2.0 ** (2 * hurst - 1) - 1.0
        assert lag1 == pytest.approx(theory, abs=0.03)


def test_fgn_block_variance_scaling():
    # Var of m-sums grows like m^(2H)
    r = gen_fgn(1 << 15, hurst=0.7, seed=9)
    v1 = r.returns.var()
    v8 = block_sums(r.returns, 8)[::8].var()
    assert v8 / v1 == pytest.approx(8.0 ** (2 * 0.7), rel=0.15)


def test_fgn_unit_scale_std():
    r = gen_fgn(1 << 14, hurst=0.6, sigma_daily=0.015, seed=1).returns
    assert r.std() == pytest.approx(0.015, rel=0.05)


def _zero_middle_draw(n, hurst, sigma_daily, rng):
    """The circulant draw with middle entry 0 alone, None where that row fails.

    Where it holds, ``_fgn_draw`` must return exactly this, so the seeds
    behind existing panels keep their draws.
    """
    gamma = synth._fgn_autocov(n, hurst, sigma_daily ** 2)
    row = np.concatenate([gamma, [0.0], gamma[-1:0:-1]])
    lam = np.fft.fft(row).real
    if lam.min() < -1e-8 * np.abs(lam).max():
        return None
    lam = np.clip(lam, 0.0, None)
    m = 2 * n
    v0, vn = rng.standard_normal(2)
    a = rng.standard_normal(n - 1)
    b = rng.standard_normal(n - 1)
    w = np.zeros(m, dtype=complex)
    w[0] = np.sqrt(lam[0] / m) * v0
    w[1:n] = np.sqrt(lam[1:n] / (2 * m)) * (a + 1j * b)
    w[n] = np.sqrt(lam[n] / m) * vn
    w[n + 1:] = np.conj(w[1:n][::-1])
    return np.fft.fft(w)[:n].real


def _zero_middle(monkeypatch, make):
    """``make()`` with every fGn drawn by ``_zero_middle_draw``, which must hold."""
    def draw(*args):
        r = _zero_middle_draw(*args)
        assert r is not None
        return r
    with monkeypatch.context() as m:
        m.setattr(synth, "_fgn_draw", draw)
        return make()


@pytest.mark.parametrize("n", [16, 256, 4096])
@pytest.mark.parametrize("hurst", [0.1, 0.3, 0.5, 0.7, 0.85])
def test_fgn_is_bit_identical_where_the_zero_middle_row_holds(monkeypatch, n, hurst):
    want = _zero_middle(monkeypatch, lambda: gen_fgn(n, hurst=hurst, seed=5))
    assert np.array_equal(gen_fgn(n, hurst=hurst, seed=5).returns, want.returns)


def test_cascade_is_bit_identical_where_the_zero_middle_row_holds(monkeypatch):
    want = _zero_middle(monkeypatch, lambda: gen_multifractal(1024, hurst_base=0.7, seed=3))
    assert np.array_equal(gen_multifractal(1024, hurst_base=0.7, seed=3).returns, want.returns)


@pytest.mark.parametrize("n, hurst", [(16, 0.9), (2048, 0.95)])
def test_fgn_draws_where_the_zero_middle_row_fails(n, hurst):
    assert _zero_middle_draw(n, hurst, 0.01, np.random.default_rng(0)) is None
    r = gen_fgn(n, hurst=hurst, seed=5).returns
    assert r.shape == (n, 1) and np.isfinite(r).all()
    r = gen_multifractal(n, hurst_base=hurst, seed=5).returns
    assert r.shape == (n, 1) and np.isfinite(r).all()


@pytest.mark.parametrize("hurst", [0.9, 0.95, 0.99])
def test_fgn_draws_every_power_of_two_length(hurst):
    for e in range(4, 17):
        assert np.isfinite(gen_fgn(1 << e, hurst=hurst, seed=e).returns).all()


class _UnitNormals:
    """Stands in for a Generator whose normals are the ``j``-th unit vector."""

    def __init__(self, j, size):
        self.z, self.used = np.eye(size)[j], 0

    def standard_normal(self, k):
        self.used += k
        return self.z[self.used - k:self.used]


@pytest.mark.parametrize("n, hurst, zero_middle", [(16, 0.9, False), (256, 0.95, False),
                                                    (256, 0.7, True)])
def test_fgn_draw_has_exactly_the_toeplitz_covariance(n, hurst, zero_middle):
    # the draw is linear in its 2n normals; feeding it each unit vector
    # gives the matrix A, and A A^T is the covariance it draws
    assert (_zero_middle_draw(n, hurst, 1.0, np.random.default_rng(0)) is not None) == zero_middle
    a = np.column_stack([synth._fgn_draw(n, hurst, 1.0, _UnitNormals(j, 2 * n))
                         for j in range(2 * n)])
    gamma = synth._fgn_autocov(n, hurst, 1.0)
    k = np.arange(n)
    assert np.abs(a @ a.T - gamma[np.abs(k[:, None] - k)]).max() < 1e-12


@pytest.mark.parametrize("hurst", [0.05, 0.5, 0.9, 0.95, 0.99])
@pytest.mark.parametrize("n", [16, 256, 4096, 1 << 16])
def test_minimal_embedding_spectrum_reproduces_the_autocovariance(n, hurst):
    gamma = synth._fgn_autocov(n + 1, hurst, 1.0)
    lam = np.fft.fft(np.concatenate([gamma[:n], [gamma[n]], gamma[n - 1:0:-1]])).real
    assert lam.min() >= 0.0
    assert np.abs(np.fft.ifft(lam).real[:n] - gamma[:n]).max() < 1e-12


def test_fgn_refuses_where_both_rows_fail():
    # at n 2^19, H 0.999 the autocovariance's second difference loses enough
    # bits to cancellation that the g(n) row, too, has a negative eigenvalue
    with pytest.raises(NumericalError, match="has negative eigenvalues"):
        gen_fgn(1 << 19, hurst=0.999)


# ---------------------------------------------------------------------------
# correlated Gaussian panels


def test_constant_correlation_cov_entries():
    c = constant_correlation_cov(3, 0.4, sigma_daily=0.02)
    assert np.allclose(np.diag(c), 0.02**2)
    assert c[0, 1] == pytest.approx(0.4 * 0.02**2)
    with pytest.raises(ValueError):
        constant_correlation_cov(3, -0.9)


def test_gen_correlated_recovers_cov():
    cov = constant_correlation_cov(3, 0.5, sigma_daily=0.01)
    p = gen_correlated(1 << 14, cov, seed=8)
    sample = np.cov(p.returns.T)
    assert np.allclose(sample, cov, rtol=0.08, atol=1e-6)


def test_gen_correlated_rejects_non_psd():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(DataError, match="negative eigenvalue"):
        gen_correlated(64, bad)


def test_gen_correlated_rejects_asymmetric_cov():
    bad = np.array([[1.0, 0.5], [0.4, 1.0]]) * 1e-4
    with pytest.raises(ValueError, match="cov is not symmetric"):
        gen_correlated(64, bad)


def test_gen_correlated_rejects_non_finite_cov():
    bad = np.array([[1.0, np.nan], [np.nan, 1.0]]) * 1e-4
    with pytest.raises(ValueError, match="cov has non-finite entries"):
        gen_correlated(64, bad)


# ---------------------------------------------------------------------------
# lead-lag pair


def _epps_curve(theta, noise_var, scales):
    """The exact correlation curve of one lag persistence ``theta``."""
    return synth._epps_curves(np.array([theta]), noise_var, scales)[0]


def test_epps_curve_limits():
    scales = np.array([1, 2, 5, 10, 21, 100, 1000])
    rho = _epps_curve(0.7, 0.5, scales)
    assert np.all(np.diff(rho) > 0)
    # noise washes out and the lag is absorbed at coarse scales
    assert rho[-1] == pytest.approx(1.0 / 1.5, rel=0.02)


def test_calibrate_epps_hits_targets():
    theta = calibrate_epps(0.6, 0.3)
    noise_var = 1.0 / 0.6 - 1.0
    scales = np.array([1, 2, 5, 10, 21])
    rho = _epps_curve(theta, noise_var, scales)
    slope = np.polyfit(np.log(scales), np.log(rho), 1)[0]
    assert slope == pytest.approx(0.3, abs=0.02)
    # plateau limit is the asymptotic correlation
    limit = _epps_curve(theta, noise_var, np.array([100000]))[0]
    assert limit == pytest.approx(0.6, abs=0.01)


def test_calibrate_epps_failure_reports_nearest():
    with pytest.raises(CalibrationFailure, match="unreachable") as exc:
        calibrate_epps(0.95, 0.9)
    assert exc.value.nearest is not None
    rho_near, slope_near = exc.value.nearest
    assert 0.0 <= rho_near <= 1.0


@pytest.mark.parametrize("rho_inf, h_rho, message", [
    # a division by zero, a negative noise variance calibrated as if valid,
    # and a NaN target that every slope comparison misses
    (0.0, 0.3, r"rho_inf=0.0 outside \(0, 1\]"),
    (-0.5, 0.3, r"rho_inf=-0.5 outside \(0, 1\]"),
    (0.6, math.nan, r"h_rho=nan outside \(0, 1\)"),
])
def test_calibrate_epps_refuses_arguments_out_of_range_as_gen_epps_does(rho_inf, h_rho, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        calibrate_epps(rho_inf, h_rho)
    with pytest.raises(ValueError, match=f"^{message}$"):
        gen_epps(64, rho_inf=rho_inf, h_rho=h_rho)


def _reference_epps_curve(theta, noise_var, scales):
    # the one-theta loop over scales that the grid pass replaced
    out = np.empty(len(scales))
    g0 = (1.0 - theta) / (1.0 + theta)
    for idx, m in enumerate(scales):
        h = np.arange(m, dtype=float)
        kappa = (1.0 - theta) * theta ** h
        num = ((m - h) * kappa).sum()
        var_x = m * (1.0 + noise_var)
        var_y = m * (g0 + noise_var)
        if m > 1:
            hh = np.arange(1.0, m)
            var_y += 2.0 * ((m - hh) * g0 * theta ** hh).sum()
        out[idx] = num / math.sqrt(var_x * var_y)
    return out


def _reference_slopes(thetas, noise_var, scales):
    # one log-log fit per theta, as the calibration fitted before the grid pass
    log_curves = [np.log(_reference_epps_curve(t, noise_var, scales)) for t in thetas]
    return np.array([scaling._loglog_fit(scales, c[:, None])[0][0] for c in log_curves])


@pytest.mark.parametrize("rho_inf", [0.05, 0.6, 1.0])
@pytest.mark.parametrize("scales", [DEFAULT_SCALES, (1, 3, 100, 1000)])
def test_epps_curve_matches_per_scale_reference(rho_inf, scales):
    noise_var = 1.0 / rho_inf - 1.0
    grid_scales = np.asarray(scales, dtype=float)
    for theta in np.linspace(0.0, 0.995, 400):
        for s in (scales, grid_scales):
            assert (_epps_curve(theta, noise_var, s).tobytes()
                    == _reference_epps_curve(theta, noise_var, s).tobytes()), theta


def test_calibrate_epps_matches_per_theta_reference():
    # bit for bit, or the same failure; the reference's 800 scalar fits per
    # call cost about 0.1 s, so it runs on every tenth pair of the 20 x 25 grid
    scales = np.asarray(DEFAULT_SCALES, dtype=float)
    grid = np.linspace(0.0, 0.995, 400)
    outcomes = set()
    for a, rho_inf in enumerate(np.linspace(0.05, 1.0, 20)):
        noise_var = 1.0 / rho_inf - 1.0
        coarse = _reference_slopes(grid, noise_var, scales)
        for b, h_rho in enumerate(np.linspace(0.02, 0.98, 25)):
            if (25 * a + b) % 10:
                continue
            i = int(np.argmin(np.abs(coarse - h_rho)))
            fine = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)], 400)
            slopes = _reference_slopes(fine, noise_var, scales)
            j = int(np.argmin(np.abs(slopes - h_rho)))
            if abs(slopes[j] - h_rho) > 0.02:
                with pytest.raises(CalibrationFailure) as exc:
                    calibrate_epps(rho_inf, h_rho)
                assert exc.value.nearest == (rho_inf, float(slopes[j]))
                outcomes.add("fail")
            else:
                assert calibrate_epps(rho_inf, h_rho) == float(fine[j])
                outcomes.add("ok")
    assert outcomes == {"ok", "fail"}


def test_gen_epps_correlation_rises_with_scale():
    p = gen_epps(1 << 14, rho_inf=0.6, h_rho=0.3, seed=21)
    assert p.asset_ids == ("a1", "a2")
    r1 = np.corrcoef(p.returns.T)[0, 1]
    a = block_sums(p.returns, 21)[::21]
    r21 = np.corrcoef(a.T)[0, 1]
    assert r1 < r21
    assert r21 == pytest.approx(0.6, abs=0.08)


def test_gen_epps_deterministic():
    a = gen_epps(512, seed=3)
    b = gen_epps(512, seed=3)
    assert np.array_equal(a.returns, b.returns)


@pytest.mark.parametrize("theta", [0.0, 0.3, 0.7, 0.994])
def test_gen_epps_lag_filter_matches_lfilter(monkeypatch, theta):
    from scipy.signal import lfilter

    # rebuild the lagged asset from the same draws through scipy's filter
    monkeypatch.setattr(synth, "calibrate_epps", lambda *args: theta)
    n, noise_var = 4096, 1.0 / 0.6 - 1.0
    burn = 0 if theta == 0.0 else min(20000, int(math.log(1e-12) / math.log(theta)) + 1)
    rng = np.random.default_rng(9)
    f = rng.standard_normal(n + burn)
    rng.standard_normal(n)
    lagged = lfilter([1.0 - theta], [1.0, -theta], f)[burn:]
    y = lagged + math.sqrt(noise_var) * rng.standard_normal(n)
    want = 0.01 * (y / math.sqrt((1.0 - theta) / (1.0 + theta) + noise_var))
    got = gen_epps(n, rho_inf=0.6, seed=9).returns[:, 1]
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# volatility regimes


def test_regime_switch_segment_vols():
    p = gen_regime_switch(4000, sigma_low=0.008, sigma_high=0.02,
                          switch_points=(2000,), seed=4)
    lo = p.returns[:2000, 0].std()
    hi = p.returns[2000:, 0].std()
    assert lo == pytest.approx(0.008, rel=0.05)
    assert hi == pytest.approx(0.02, rel=0.05)


def test_regime_switch_toggles_back():
    p = gen_regime_switch(3000, switch_points=(1000, 2000), seed=4)
    first = p.returns[:1000, 0].std()
    last = p.returns[2000:, 0].std()
    assert last == pytest.approx(first, rel=0.15)


def test_regime_switch_per_asset_vols():
    p = gen_regime_switch(2000, sigma_low=(0.005, 0.01), sigma_high=(0.02, 0.03),
                          seed=1)
    assert p.n_assets == 2
    assert p.returns[:, 0].std() == pytest.approx(0.005, rel=0.1)
    assert p.returns[:, 1].std() == pytest.approx(0.01, rel=0.1)


def test_regime_switch_bad_schedule():
    with pytest.raises(DataError, match="strictly increasing"):
        gen_regime_switch(100, switch_points=(50, 20))
    with pytest.raises(DataError, match=r"strictly increasing in \[0, 100\)"):
        gen_regime_switch(100, switch_points=(200,))


def test_regime_switch_refuses_fractional_switch_points():
    with pytest.raises(ValueError, match=r"switch points must be integers, got \[5.5, 20.9\]"):
        gen_regime_switch(100, switch_points=(5.5, 20.9))
    whole = gen_regime_switch(100, switch_points=(5.0, 20.0), seed=3)
    assert np.array_equal(whole.returns, gen_regime_switch(100, switch_points=(5, 20), seed=3).returns)


# ---------------------------------------------------------------------------
# multiplicative cascade


def test_multifractal_requires_dyadic_length():
    with pytest.raises(DataError, match="dyadic levels"):
        gen_multifractal(1000)
    with pytest.raises(DataError, match="dyadic levels"):
        gen_multifractal(8)


def test_multifractal_deterministic():
    a = gen_multifractal(1 << 10, seed=5)
    b = gen_multifractal(1 << 10, seed=5)
    assert np.array_equal(a.returns, b.returns)


def test_multifractal_heavy_tails():
    from scipy import stats

    r = gen_multifractal(1 << 14, intermittency=0.2, seed=6).returns[:, 0]
    g = gen_gaussian_iid(1 << 14, seed=6).returns[:, 0]
    assert stats.kurtosis(r) > 1.0
    assert abs(stats.kurtosis(g)) < 0.2


def test_multifractal_scale_is_sigma_daily():
    r = gen_multifractal(1 << 14, intermittency=0.05, sigma_daily=0.01, seed=7)
    # weak intermittency: overall std close to nominal
    assert r.returns.std() == pytest.approx(0.01, rel=0.2)


# ---------------------------------------------------------------------------
# heavy-tail fixture


def test_stable_alpha_two_is_gaussian():
    r = gen_stable_iid(1 << 14, alpha=2.0, scale=1.0, seed=3).returns[:, 0]
    # CMS at alpha=2 yields N(0, 2): std sqrt(2)
    assert r.std() == pytest.approx(np.sqrt(2.0), rel=0.05)
    from scipy import stats

    assert abs(stats.kurtosis(r)) < 0.2


def test_stable_heavy_tails_for_small_alpha():
    r = gen_stable_iid(1 << 14, alpha=1.2, seed=3).returns[:, 0]
    # far heavier tails than any Gaussian sample of this size
    assert np.abs(r).max() > 8.0 * np.percentile(np.abs(r), 99)


def test_stable_rejects_alpha_at_most_one():
    with pytest.raises(ValueError):
        gen_stable_iid(64, alpha=1.0)
