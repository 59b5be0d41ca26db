"""Structure functions, log-log fits, fluctuation analysis."""

import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import gen_stable_iid, peak_traced_bytes
from multiscale_markowitz import scaling
from multiscale_markowitz.errors import DataError
from multiscale_markowitz.scaling import (
    DEFAULT_SCALES,
    correlation_scalings,
    default_dfa_scales,
    estimate_correlation_scaling,
    estimate_hurst,
    mfdfa,
    structure_spectrum,
)
from multiscale_markowitz.synth import (
    gen_epps,
    gen_fgn,
    gen_gaussian_iid,
    gen_multifractal,
)
from multiscale_markowitz.timeseries import block_sums, panel_from_returns


# ---------------------------------------------------------------------------
# structure functions


def test_structure_function_alternating_series():
    # blocks of two cancel exactly
    x = np.tile([1.0, -1.0], 8)
    _, moments = scaling._abs_moments(x, (2.0,), (1, 2))
    assert moments[0, 0] == pytest.approx(1.0)
    assert moments[1, 0] == pytest.approx(0.0)


def test_structure_function_manual_phase_average():
    # two blocks per phase, under the fits' floor, so the phase average
    # is read off the block sums directly
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    (moment,) = scaling._phase_moments(np.abs(block_sums(x, 2)), 2, (1.0,))
    # phase 0 blocks: 3, 7; phase 1 blocks: 5, 9
    expected = np.mean([np.mean([3.0, 7.0]), np.mean([5.0, 9.0])])
    assert moment == pytest.approx(expected)


def test_structure_function_on_panel_column():
    p = panel_from_returns(np.arange(1.0, 9.0).reshape(4, 2), asset_ids=("x", "y"))
    x, name = scaling._series_and_name(p, "x")
    assert name == "x"
    _, moments = scaling._abs_moments(x, (1.0,), (1,))
    assert moments[0, 0] == pytest.approx(np.mean([1.0, 3.0, 5.0, 7.0]))


def test_structure_function_all_zero():
    with pytest.raises(DataError, match="all base returns are zero"):
        scaling._abs_moments(np.zeros(32), (2.0,), (1, 2))


def test_structure_function_scale_guard():
    with pytest.raises(DataError, match="blocks in the worst phase"):
        scaling._abs_moments(np.ones(16), (2.0,), (1, 8))


def test_structure_function_negative_q_moments_positive():
    rng = np.random.default_rng(0)
    _, moments = scaling._abs_moments(rng.standard_normal(512), (-2.0,), (1, 2, 4))
    assert np.all(moments > 0)


# ---------------------------------------------------------------------------
# log-log fits


def _fit(scales, moments):
    """Slope, standard error and R^2 of the log-log fit of one moment column."""
    slope, stderr, r2 = scaling._loglog_fit(scales, scaling._log(np.c_[moments]))
    return slope[0], stderr[0], r2[0]


def test_fit_exact_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    exponent, stderr, r2 = _fit(x, 3.0 * x**1.7)
    assert exponent == pytest.approx(1.7, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-10)
    assert r2 == pytest.approx(1.0)


def test_fit_constant_series():
    exponent, _, r2 = _fit((1.0, 2.0, 4.0), (2.0, 2.0, 2.0))
    assert exponent == pytest.approx(0.0, abs=1e-14)
    assert r2 == pytest.approx(1.0)


def test_fit_needs_three_points():
    with pytest.raises(DataError, match="need >= 3 scales"):
        _fit((1.0, 2.0), (1.0, 2.0))


def test_fit_rejects_nonpositive_moment():
    with pytest.raises(DataError, match="positive and finite"):
        _fit((1.0, 2.0, 4.0), (1.0, 0.0, 2.0))


@settings(max_examples=60, deadline=None)
@given(prefactor=st.floats(1e-6, 1e6), exponent=st.floats(-3.0, 3.0),
       n_points=st.integers(3, 8))
@example(prefactor=1.0, exponent=1e-12, n_points=3)
def test_fit_recovers_any_exact_power_law(prefactor, exponent, n_points):
    x = 2.0 ** np.arange(n_points)
    slope, _, r2 = _fit(x, prefactor * x**exponent)
    assert slope == pytest.approx(exponent, abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("k", [3, 5, 8, 12, 13])
def test_loglog_fit_columns_are_one_column_fits(k):
    # numpy sums a contiguous run pairwise but a strided column in order,
    # so the row counts straddle its 8-element block
    rng = np.random.default_rng(k)
    scales = np.sort(rng.choice(np.arange(1, 200), size=k, replace=False))
    log_m = rng.normal(0.0, 3.0, size=(k, 7)) + rng.uniform(-2, 2, 7) * np.log(scales)[:, None]
    slope, stderr, r2 = scaling._loglog_fit(scales, log_m)
    for j in range(log_m.shape[1]):
        one = scaling._loglog_fit(scales, log_m[:, [j]])
        assert (slope[j], stderr[j], r2[j]) == tuple(v[0] for v in one)
    assert np.allclose(slope, np.polyfit(np.log(scales), log_m, 1)[0], rtol=0, atol=1e-12)


def test_loglog_fit_rejects_in_order():
    with pytest.raises(DataError, match="need >= 3 scales"):
        scaling._loglog_fit((0, -1), np.full((2, 1), np.nan))
    with pytest.raises(ValueError, match="scales must be positive"):
        scaling._loglog_fit((0, 1, 2), np.full((3, 1), np.nan))
    with pytest.raises(DataError, match="positive and finite"):
        scaling._loglog_fit((2, 2, 2), np.array([[0.0, 1.0], [1.0, 1.0], [np.inf, 1.0]]))
    with pytest.raises(ValueError, match="scales must be distinct"):
        scaling._loglog_fit((2, 2, 2), np.zeros((3, 2)))


def test_fit_stderr_reflects_scatter(rng):
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
    noisy = 2.0 * x**0.5 * np.exp(rng.normal(0.0, 0.1, size=len(x)))
    exponent, stderr, _ = _fit(x, noisy)
    assert stderr > 0.0
    assert exponent == pytest.approx(0.5, abs=0.3)


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
    scales, moments = scaling._abs_moments(x.returns[:, 0], (-2.0,), DEFAULT_SCALES)
    assert spec.stderr[0] * 2.0 == _fit(scales, moments[:, 0])[1]


def test_structure_spectrum_matches_per_q_fits():
    # the spectrum reads every order from one pass over the block sums and
    # must give the per-q fits bit for bit
    x = gen_fgn(4096, hurst=0.7, seed=11)
    spec = structure_spectrum(x)
    for i, q in enumerate(spec.q_grid):
        scales, moments = scaling._abs_moments(x.returns[:, 0], (q,), DEFAULT_SCALES)
        exponent, stderr, r2 = _fit(scales, moments[:, 0])
        assert spec.zeta[i] == exponent
        assert spec.stderr[i] == stderr / abs(q)
        assert spec.fit_r2[i] == r2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("estimate", [structure_spectrum, estimate_hurst, mfdfa])
def test_series_with_a_non_finite_value_is_refused(estimate, bad):
    x = np.random.default_rng(0).standard_normal(4096)
    x[[37, 900]] = bad
    with pytest.raises(ValueError, match="series value at index 37 is .*, not finite"):
        estimate(x)


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


def test_mfdfa_matches_per_q_spectra():
    # each order is averaged on its own, so a one-order call gives the
    # full grid's column bit for bit
    x = gen_fgn(4096, hurst=0.7, seed=11)
    spec = mfdfa(x)
    for i, q in enumerate(spec.q_grid):
        one = mfdfa(x, q_grid=(q,))
        assert (one.zeta[0], one.stderr[0], one.fit_r2[0]) == (
            spec.zeta[i], spec.stderr[i], spec.fit_r2[i])


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


@pytest.mark.parametrize("order", [1.5, np.nan, np.inf])
def test_mfdfa_refuses_a_non_integral_order(order):
    x = np.random.default_rng(0).standard_normal(4096)
    with pytest.raises(ValueError, match="detrend_order must be an integer"):
        mfdfa(x, scales=(16, 32, 64), detrend_order=order)


def test_mfdfa_takes_a_whole_float_order():
    x = np.random.default_rng(0).standard_normal(4096)
    spec = mfdfa(x, scales=(16, 32, 64), detrend_order=2.0)
    assert spec.zeta.tobytes() == mfdfa(x, scales=(16, 32, 64), detrend_order=2).zeta.tobytes()


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
# every pair from one pass over each series


def _fields(cs):
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v
            for k, v in dataclasses.asdict(cs).items()}


@pytest.mark.parametrize("scales", [DEFAULT_SCALES, (3, 1, 7, 12)])
def test_correlation_scalings_equal_the_one_pair_estimates(scales):
    # a series' shared statistics do not depend on the pairs it is in
    p, _ = _ref_series()
    pairs = list(itertools.permutations(p.asset_ids, 2))
    shared = correlation_scalings(p, pairs, scales)
    assert [cs.pair for cs in shared] == pairs
    by_pair = {}
    for cs in shared:
        one = estimate_correlation_scaling(p, *cs.pair, scales=scales)
        assert _fields(cs) == _fields(one)
        by_pair[cs.pair] = cs
    for (i, j), cs in by_pair.items():
        swapped = by_pair[j, i]
        assert cs.rho_by_scale.tobytes() == swapped.rho_by_scale.tobytes()
        assert (cs.h_rho, cs.h_cross_2, cs.h_i_1, cs.h_j_1) == (
            swapped.h_rho, swapped.h_cross_2, swapped.h_j_1, swapped.h_i_1)


def test_correlation_scalings_take_one_prefix_sum_per_series_and_one_fit_per_pair(monkeypatch):
    p, _ = _ref_series()
    calls = Counter()
    cumsum, fit = np.cumsum, scaling._loglog_fit

    def counted_cumsum(*args, **kwargs):
        calls["cumsum"] += 1
        return cumsum(*args, **kwargs)

    def counted_fit(*args, **kwargs):
        calls["fit"] += 1
        return fit(*args, **kwargs)
    monkeypatch.setattr(np, "cumsum", counted_cumsum)
    monkeypatch.setattr(scaling, "_loglog_fit", counted_fit)
    correlation_scalings(p, list(itertools.permutations(p.asset_ids, 2)), (3, 1, 7, 12))
    assert calls == Counter(cumsum=3, fit=6)


@pytest.mark.parametrize("scales", [DEFAULT_SCALES, (3, 1, 7, 12)])
def test_correlation_scalings_scratch_stays_under_the_pair_loop(scales):
    # a pair-by-pair loop of the one-pair estimate, which took both prefix
    # sums and both full block sums per pair, peaked at 2.01 (default
    # scales) and 1.92 ((3, 1, 7, 12)) times the panel's bytes here
    p = panel_from_returns(np.random.default_rng(5).standard_normal((1 << 16, 4)) * 0.01)
    pairs = list(itertools.combinations(p.asset_ids, 2))
    tracemalloc.start()
    try:
        correlation_scalings(p, pairs, scales)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.9 * p.returns.nbytes


def _zero_variance_panel(ids):
    """60 rows. The block sums of ``p5`` over 5 rows and of ``p2`` over 2
    rows are exactly zero, ``c`` is constant, ``y`` and ``w`` are noise."""
    rng = np.random.default_rng(3)
    cols = {"p5": np.tile([1.0, -1.0, 2.0, -2.0, 0.0], 12), "p2": np.tile([1.0, -1.0], 30),
            "c": np.full(60, 0.5), "y": rng.standard_normal(60), "w": rng.standard_normal(60)}
    return panel_from_returns(np.column_stack([cols[a] for a in ids]), asset_ids=ids)


@pytest.mark.parametrize("ids, scales, message", [
    # the first pair fails at scale 5, a later one already at scale 2
    (("p5", "y", "p2"), (1, 2, 5),
     "asset 'p5' has zero variance at scale 5, phase 0 in pair p5~y; correlation undefined"),
    # the first pair meets the too-short scale 21, a later one fails at scale 2
    (("y", "w", "p2"), (1, 2, 21), "scale 21 leaves 1 blocks in the worst phase, need >= 4"),
    # scale 1 is worked first, but a pair's first failing scale is the
    # first in the order given
    (("y", "c"), (2, 1, 5),
     "asset 'c' has zero variance at scale 2, phase 0 in pair y~c; correlation undefined"),
])
def test_correlation_scalings_raise_what_the_pair_loop_raises(ids, scales, message):
    p = _zero_variance_panel(ids)
    pairs = list(itertools.combinations(ids, 2))
    with pytest.raises(DataError) as loop:
        for pair in pairs:
            estimate_correlation_scaling(p, *pair, scales=scales)
    with pytest.raises(DataError) as shared:
        correlation_scalings(p, pairs, scales)
    assert str(loop.value) == str(shared.value) == message


# ---------------------------------------------------------------------------
# the one order-q power


def _power(a, q):
    """``a ** q`` in one new array: the one-order case of the shared chain."""
    [(_, out)] = scaling._powers(a, (q,))
    return out.copy() if out is a else out

# magnitudes from 1e-70 to 1e70, and a dense run of ordinary ones
_POWER_BASES = np.concatenate([np.logspace(-70, 70, 4001),
                               np.random.default_rng(31).uniform(0.5, 2.0, 4000)])
_PRODUCT_ORDERS = [q / 2.0 for q in range(-8, 9) if q]


@pytest.mark.parametrize("q", _PRODUCT_ORDERS)
def test_power_by_products_agrees_with_np_power(monkeypatch, q):
    want = np.power(_POWER_BASES, q)
    monkeypatch.setattr(np, "power", None)  # whole and half orders never call it
    got = _power(_POWER_BASES, q)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
    if q in (-1.0, 0.5, 1.0, 2.0):
        assert got.tobytes() == want.tobytes()
    monkeypatch.undo()
    zero = np.zeros(3)
    with np.errstate(divide="ignore"):
        assert np.array_equal(_power(zero, q), np.power(zero, q))


@pytest.mark.parametrize("q", [0.3, -0.7, 4.5, -5.0, 0.0])
def test_power_leaves_other_orders_to_np_power(monkeypatch, q):
    calls = []
    power = np.power

    def counted(a, order):
        calls.append(order)
        return power(a, order)
    monkeypatch.setattr(np, "power", counted)
    with np.errstate(over="ignore"):
        got = _power(_POWER_BASES, q)
        want = power(_POWER_BASES, q)
    assert calls == [q]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("q", [*_PRODUCT_ORDERS, 0.3])
def test_power_makes_one_new_array(q):
    a = np.random.default_rng(32).uniform(0.5, 2.0, 1 << 16)
    tracemalloc.start()
    try:
        out = _power(a, q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == a.shape and not np.shares_memory(out, a)
    assert peak < 1.1 * a.nbytes


@pytest.mark.parametrize("q", _PRODUCT_ORDERS)
def test_power_keeps_the_reference_product_order(q):
    want = _ref_power(_POWER_BASES, q)
    assert _power(_POWER_BASES, q).tobytes() == want.tobytes()


# every whole and half order in [-4, 4], and one that goes to np.power
_CHAIN_ORDERS = [k / 2.0 for k in range(-8, 9)] + [0.3]


@pytest.mark.parametrize("name", ["lead", "z"])
@pytest.mark.parametrize("dt", [1, 3, 7])
def test_phase_moments_equal_one_power_per_order(name, dt):
    # z's block sums hold exact zeros, so its negative orders are infinite
    a = np.abs(block_sums(_ref_series()[1][name], dt))
    w = scaling._phase_weights(len(a), dt)
    for p in range(dt):
        assert np.all(w[p::dt] == 1.0 / (dt * len(a[p::dt])))
    with np.errstate(divide="ignore"):
        grid = scaling._phase_moments(a, dt, _CHAIN_ORDERS)
        for q, moment in zip(_CHAIN_ORDERS, grid, strict=True):
            want = float(scaling._dot(_power(a, q), w))
            assert np.float64(moment).tobytes() == np.float64(want).tobytes(), q
            assert scaling._phase_moments(a, dt, (q,)) == [moment]


@pytest.mark.parametrize("dt", [1, 2, 5, 21])
def test_phase_weights_follow_their_definition(dt):
    # row k weighs 1 / (dt * n_p), n_p the rows of its phase p = k % dt
    n = 1003
    w = scaling._phase_weights(n, dt)
    want = [1.0 / (dt * len(range(k % dt, n, dt))) for k in range(n)]
    assert w.shape == (n,)
    assert w.tobytes() == np.array(want).tobytes()
    if dt == 1:
        assert w.strides == (0,)


def test_structure_spectrum_holds_five_series_of_scratch():
    # the prefix sum, one scale's |block sums|, the phase weights and the
    # product chain's two arrays; a scale's block sums are dropped before
    # the next scale's are made
    x = gen_fgn(1 << 16, hurst=0.7, seed=7).returns[:, 0].copy()
    assert peak_traced_bytes(structure_spectrum, x) < 5.5 * x.nbytes


def test_phase_moments_hold_the_weights_and_two_arrays():
    a = np.random.default_rng(33).uniform(0.5, 2.0, 1 << 16)
    tracemalloc.start()
    try:
        scaling._phase_moments(a, 5, _CHAIN_ORDERS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the phase weights, the running product and one scratch array
    assert peak < 3.1 * a.nbytes


def test_mfdfa_projects_on_one_basis_per_size(monkeypatch):
    # a pseudo-inverse is an SVD; the trend needs only an orthonormal basis
    x = gen_fgn(1 << 12, hurst=0.7, seed=8)
    calls = Counter()
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        calls["qr"] += 1
        return qr(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "qr", counted)
    monkeypatch.setattr(np.linalg, "pinv", None)
    spec = mfdfa(x)
    assert calls == Counter(qr=len(spec.scales))


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
    # block sums of each series, which also give their first moments
    estimate_correlation_scaling(p, "a1", "a2")
    assert calls["cumsum"] == 4


def test_every_estimate_makes_one_loglog_fit(monkeypatch):
    p = gen_epps(1 << 12, rho_inf=0.6, h_rho=0.3, seed=17)
    calls = Counter()
    fit = scaling._loglog_fit

    def counted(*args, **kwargs):
        calls["fit"] += 1
        return fit(*args, **kwargs)
    monkeypatch.setattr(scaling, "_loglog_fit", counted)
    for estimate in (lambda: structure_spectrum(p, asset="a1"),
                     lambda: mfdfa(p, asset="a1"),
                     lambda: estimate_hurst(p, asset="a1"),
                     lambda: estimate_correlation_scaling(p, "a1", "a2")):
        calls.clear()
        estimate()
        assert calls["fit"] == 1


def test_scaling_estimates_do_not_depend_on_blas_threads():
    # a threaded BLAS splits a long dot product by its thread count, which
    # moves the last bits, so the estimates keep their sums out of BLAS
    code = ("import numpy as np\n"
            "from multiscale_markowitz import scaling, synth\n"
            "p = synth.gen_epps(1 << 15, rho_inf=0.6, h_rho=0.3, seed=17)\n"
            "cs = scaling.estimate_correlation_scaling(p, 'a1', 'a2')\n"
            "out = [scaling.structure_spectrum(p, 'a1').zeta, scaling.mfdfa(p, 'a1').zeta,\n"
            "       cs.rho_by_scale, [cs.h_cross_2, cs.h_i_1, cs.h_j_1]]\n"
            "print(np.concatenate(out).tobytes().hex())\n")
    src = Path(scaling.__file__).resolve().parents[1]
    runs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        runs.add(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                check=True, cwd=src, env=env).stdout)
    assert len(runs) == 1


@pytest.mark.parametrize("q", [np.nan, np.inf, -np.inf])
def test_moment_order_must_be_finite(q):
    p = gen_gaussian_iid(1 << 10, seed=2)
    for spectrum in (structure_spectrum, mfdfa):
        with pytest.raises(ValueError, match="q grid must be finite"):
            spectrum(p, q_grid=(q, 1.0))


@pytest.mark.parametrize("scales", [(1, 2, 5, 10, 21), (3, 1, 7, 12)])
def test_correlation_scaling_first_moments_are_structure_function_fits(scales):
    # h_i_1 and h_j_1 come from the pair's block sums, exactly as the
    # first structure function of each series would give them
    p = gen_epps(1 << 12, rho_inf=0.6, h_rho=0.3, seed=17)
    cs = estimate_correlation_scaling(p, "a1", "a2", scales=scales)
    for asset, h, err in (("a1", cs.h_i_1, cs.h_i_1_stderr), ("a2", cs.h_j_1, cs.h_j_1_stderr)):
        checked, moments = scaling._abs_moments(p.column(asset), (1.0,), scales)
        assert (h, err) == _fit(checked, moments[:, 0])[:2]


def test_correlation_scaling_reports_errors_in_scale_order():
    # a zero-variance phase at scale 2 comes before the too-short scale 21
    x = np.tile([1.0, -1.0], 30)
    y = np.random.default_rng(3).standard_normal(60)
    p = panel_from_returns(np.column_stack([x, y]), asset_ids=("x", "y"))
    with pytest.raises(DataError, match="zero variance at scale 2, phase 0"):
        estimate_correlation_scaling(p, "x", "y", scales=(1, 2, 21))
    with pytest.raises(DataError, match="scale 21 leaves 1 blocks in the worst phase, need >= 4"):
        estimate_correlation_scaling(p, "x", "y", scales=(1, 21, 2))


# ---------------------------------------------------------------------------
# reference kernels: the plain per-phase and stacked-segment definitions that
# the whole-array kernels replace. Only the order of the sums differs, so
# the two agree to rounding.

def _ref_power(a, q):
    """``a ** q`` by the product rule alone, one order at a time: ``|q|``'s
    whole part of products of ``a`` (on ``np.sqrt(a)`` for a half order),
    then a reciprocal for a negative order."""
    n = 2.0 * abs(q)
    k, half = divmod(int(n), 2)
    if half:
        out = np.sqrt(a)
    elif k >= 2:
        out, k = a * a, k - 2
    else:
        out, k = a.copy(), 0
    for _ in range(k):
        out *= a
    if q < 0:
        np.divide(1.0, out, out=out)
    return out


def _ref_phase_moment(a, dt, q):
    return np.mean([np.mean(a[p::dt] ** q) for p in range(dt)])


def _ref_abs_moments(x, q_grid, scales):
    moments = np.empty((len(scales), len(q_grid)))
    for si, dt in enumerate(scales):
        a = np.abs(block_sums(x, dt))
        moments[si] = [_ref_phase_moment(a, dt, q) for q in q_grid]
    return moments


def _ref_pair_curves(xi, xj, scales):
    """Per scale: phase-averaged rho, cross moment and both first moments."""
    curves = np.empty((len(scales), 4))
    for si, dt in enumerate(scales):
        bs_i, bs_j = block_sums(xi, dt), block_sums(xj, dt)
        rho_p, cross_p = [], []
        for p in range(dt):
            bi, bj = bs_i[p::dt], bs_j[p::dt]
            rho_p.append(np.mean((bi - bi.mean()) * (bj - bj.mean())) / (bi.std() * bj.std()))
            cross_p.append(np.mean(bi * bj))
        curves[si] = (np.mean(rho_p), np.mean(cross_p),
                      _ref_phase_moment(np.abs(bs_i), dt, 1.0),
                      _ref_phase_moment(np.abs(bs_j), dt, 1.0))
    return curves


def _ref_dfa_log_f(x, q_grid, scales, order):
    n = len(x)
    profile = np.cumsum(x - x.mean())
    q_arr = np.array(q_grid)
    log_f = np.empty((len(scales), len(q_grid)))
    for si, s in enumerate(scales):
        ns = n // s
        segments = np.vstack([profile[: ns * s].reshape(ns, s),
                              profile[n - ns * s:].reshape(ns, s)])
        design = np.vander(np.arange(s, dtype=float), order + 1)
        resid = segments - (segments @ np.linalg.pinv(design).T) @ design.T
        f2 = np.mean(resid ** 2, axis=1)
        log_f[si] = np.log(np.mean(f2[None, :] ** (q_arr[:, None] / 2.0), axis=1))
    return log_f


REF_Q_GRID = (-4.0, -1.5, -1.0, 0.5, 1.0, 2.0, 2.5, 4.0)
REF_RTOL = 1e-12


def _ref_series():
    """Three series as panel columns, so each is a strided view, and the
    first also as a contiguous array. Column ``z`` takes values in
    {-2, ..., 2}, so many of its block sums are exactly zero."""
    rng = np.random.default_rng(23)
    n = 3000
    z = rng.integers(-2, 3, size=n).astype(float)
    lead = rng.standard_normal(n) * 0.01
    lag = 0.6 * np.r_[0.0, lead[:-1]] + 0.8 * rng.standard_normal(n) * 0.01
    p = panel_from_returns(np.column_stack([z, lead, lag]), asset_ids=("z", "lead", "lag"))
    return p, {"z": p.column("z"), "lead": p.column("lead"), "lag": p.column("lag"),
               "z contiguous": np.ascontiguousarray(p.column("z"))}


@pytest.mark.parametrize("name", ["z", "lead", "lag", "z contiguous"])
@pytest.mark.parametrize("scales", [DEFAULT_SCALES, (3, 1, 7, 12)])
def test_abs_moments_agree_with_the_reference(name, scales):
    x = _ref_series()[1][name]
    with np.errstate(divide="ignore"):
        _, moments = scaling._abs_moments(x, REF_Q_GRID, scales)
        expected = _ref_abs_moments(x, REF_Q_GRID, scales)
    if name.startswith("z"):
        # zero block sums make every negative-order moment infinite
        assert np.all(np.isinf(expected[:, :3]))
    np.testing.assert_allclose(moments, expected, rtol=REF_RTOL, atol=0)


@pytest.mark.parametrize("pair", [("lead", "lag"), ("z", "lag"), ("lag", "z")])
@pytest.mark.parametrize("scales", [DEFAULT_SCALES, (3, 1, 7, 12)])
def test_correlation_scaling_agrees_with_the_reference(pair, scales):
    p, cols = _ref_series()
    cs = estimate_correlation_scaling(p, *pair, scales=scales)
    curves = _ref_pair_curves(cols[pair[0]], cols[pair[1]], scales)
    h, err, _ = scaling._loglog_fit(scales, np.log(np.abs(curves)))
    np.testing.assert_allclose(cs.rho_by_scale, curves[:, 0], rtol=REF_RTOL, atol=0)
    np.testing.assert_allclose([cs.h_rho, cs.h_cross_2, cs.h_i_1, cs.h_j_1], h,
                               rtol=REF_RTOL, atol=0)
    np.testing.assert_allclose([cs.h_rho_stderr, cs.h_i_1_stderr, cs.h_j_1_stderr],
                               err[[0, 2, 3]], rtol=REF_RTOL, atol=0)


@pytest.mark.parametrize("name", ["z", "lead", "z contiguous"])
@pytest.mark.parametrize("order", [1, 2])
def test_mfdfa_agrees_with_the_reference(name, order):
    x = _ref_series()[1][name]
    scales = default_dfa_scales(len(x))
    spec = mfdfa(x, q_grid=REF_Q_GRID, scales=scales, detrend_order=order)
    zeta, stderr, _ = scaling._loglog_fit(scales, _ref_dfa_log_f(x, REF_Q_GRID, scales, order))
    np.testing.assert_allclose(spec.zeta, zeta, rtol=REF_RTOL, atol=0)
    np.testing.assert_allclose(spec.stderr, stderr / np.abs(REF_Q_GRID), rtol=REF_RTOL, atol=0)
