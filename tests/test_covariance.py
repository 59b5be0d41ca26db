"""Per-scale covariance estimation and the blended working matrix."""

import inspect
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiscale_markowitz import covariance
from multiscale_markowitz.errors import DataError, DegenerateAssetWarning
from multiscale_markowitz.covariance import (
    METHOD_L1,
    METHOD_PRODUCT,
    MultiscaleCovariance,
    ScaledCovarianceSet,
    build_covariance_set,
    multiscale_cov,
    psd_repair,
)
from multiscale_markowitz.synth import constant_correlation_cov, gen_correlated
from multiscale_markowitz.timeseries import (
    MODE_NONOVERLAPPING,
    MODE_OVERLAPPING,
    _prefix_sum,
    block_sums,
    min_phase_rows,
    panel_from_returns,
)


# ---------------------------------------------------------------------------
# single-scale estimates


def _one_scale(p, dt, **kwargs):
    """The matrix of the one-scale covariance set at ``dt``."""
    return build_covariance_set(p, (dt,), **kwargs).matrices[0]


def test_cov_identical_columns_rank_one():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(200)
    p = panel_from_returns(np.column_stack([x, x]), asset_ids=("x", "y"))
    m = _one_scale(p, 1)
    assert min_phase_rows(p.n_periods, 1) == 200
    assert m[0, 0] == pytest.approx(m[0, 1])
    assert m[0, 0] == pytest.approx(x.var(ddof=1))


def test_cov_alternating_series_l1():
    # median 0, every absolute deviation 1: robust variance estimate is 1
    p = panel_from_returns(np.tile([-1.0, 1.0], 50))
    m = _one_scale(p, 1, method=METHOD_L1)
    assert m[0, 0] == pytest.approx(1.0)


def test_cov_l1_gaussian_ratio():
    # E|X - med| = sigma sqrt(2/pi) for Gaussian X, so the robust diagonal
    # sits 2/pi below the product estimate
    rng = np.random.default_rng(2)
    p = panel_from_returns(rng.standard_normal(1 << 15) * 0.01)
    prod = _one_scale(p, 1, method=METHOD_PRODUCT)
    l1 = _one_scale(p, 1, method=METHOD_L1)
    assert l1[0, 0] / prod[0, 0] == pytest.approx(2.0 / np.pi, rel=0.03)


def test_cov_l1_joint_matches_marginal_on_diag():
    rng = np.random.default_rng(3)
    p = panel_from_returns(rng.standard_normal((500, 2)) * 0.01)
    marginal = _one_scale(p, 1, method=METHOD_L1, l1_joint=False)
    joint = _one_scale(p, 1, method=METHOD_L1, l1_joint=True)
    assert marginal.shape == joint.shape == (2, 2)
    # both must be symmetric with positive diagonals
    for m in (marginal, joint):
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) > 0)


def test_cov_brownian_scales_linearly():
    cov = constant_correlation_cov(3, 0.3, sigma_daily=0.01)
    p = gen_correlated(1 << 14, cov, seed=4)
    m1 = _one_scale(p, 1)
    m5 = _one_scale(p, 5)
    assert np.allclose(m5, 5.0 * m1, rtol=0.12, atol=2e-7)


def test_cov_degenerate_asset_warns_and_zeroes():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(100)
    p = panel_from_returns(np.column_stack([x, np.zeros(100)]), asset_ids=("x", "flat"))
    with pytest.warns(DegenerateAssetWarning):
        m = _one_scale(p, 1)
    assert m[1, 1] == 0.0
    assert m[0, 1] == 0.0
    assert m[0, 0] > 0.0


@pytest.mark.parametrize("aggregation", [MODE_NONOVERLAPPING, MODE_OVERLAPPING])
@pytest.mark.parametrize("dt", [1, 5])
def test_cov_constant_asset_is_degenerate(aggregation, dt):
    # a constant column must come out as exact zeros in both modes; block
    # sums built from a cumsum carry rounding, so the test is on the
    # one-period returns
    rng = np.random.default_rng(8)
    x = rng.standard_normal((500, 2)) * 0.01
    p = panel_from_returns(np.column_stack([x[:, 0], np.full(500, 0.001), x[:, 1]]),
                           asset_ids=("x", "flat", "y"))
    with pytest.warns(DegenerateAssetWarning, match="flat"):
        m = _one_scale(p, dt, aggregation=aggregation)
    assert np.all(m[1, :] == 0.0)
    assert np.all(m[:, 1] == 0.0)
    assert m[0, 0] > 0.0 and m[2, 2] > 0.0


def test_cov_scale_too_large():
    p = panel_from_returns(np.arange(20.0))
    with pytest.raises(DataError, match="worst phase"):
        _one_scale(p, 7)
    # 20 rows hold four overlapping blocks of 17 but only three of 18
    assert min_phase_rows(p.n_periods, 17, MODE_OVERLAPPING) == 4
    _one_scale(p, 17, aggregation=MODE_OVERLAPPING)
    with pytest.raises(DataError, match="3 overlapping observations"):
        _one_scale(p, 18, aggregation=MODE_OVERLAPPING)
    with pytest.raises(DataError, match="overlapping observations"):
        _one_scale(p, 25, aggregation=MODE_OVERLAPPING)


def _reference_cov(x, dt, aggregation):
    # block sums by reshape and sliding windows, covariance by np.cov
    t, n = x.shape
    if aggregation == MODE_OVERLAPPING:
        sums = np.lib.stride_tricks.sliding_window_view(x, dt, axis=0).sum(axis=-1)
        return np.cov(sums, rowvar=False), len(sums)
    covs, rows = [], []
    for p in range(dt):
        k = (t - p) // dt
        sums = x[p:p + k * dt].reshape(k, dt, n).sum(axis=1)
        covs.append(np.cov(sums, rowvar=False))
        rows.append(k)
    return np.mean(covs, axis=0), min(rows)


@pytest.mark.parametrize("aggregation", [MODE_NONOVERLAPPING, MODE_OVERLAPPING])
@pytest.mark.parametrize("dt", [2, 5, 21])
def test_cov_matches_reshape_sum_reference(aggregation, dt):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((500, 4)) * 0.01 + 0.002
    m = _one_scale(panel_from_returns(x), dt, aggregation=aggregation)
    ref, ref_obs = _reference_cov(x, dt, aggregation)
    assert min_phase_rows(len(x), dt, aggregation) == ref_obs
    assert np.abs(m - ref).max() <= 1e-12 * np.abs(ref).max()


def _per_phase_np_cov(x, dt, aggregation):
    # block sums by an explicit loop, covariance by np.cov per phase
    t = len(x)
    sums = np.array([x[i:i + dt].sum(axis=0) for i in range(t - dt + 1)])
    if aggregation == MODE_OVERLAPPING:
        return np.cov(sums, rowvar=False)
    return np.mean([np.cov(sums[p::dt], rowvar=False) for p in range(dt)], axis=0)


@pytest.mark.parametrize("aggregation", [MODE_NONOVERLAPPING, MODE_OVERLAPPING])
@pytest.mark.parametrize("dt", [2, 5, 21])
@pytest.mark.parametrize("t", [419, 420])
def test_cov_matches_per_phase_np_cov(aggregation, dt, t):
    # t rows leave t - dt + 1 block sums, a multiple of dt when dt divides
    # t + 1: at every dt for t = 419 and at none for t = 420
    rng = np.random.default_rng(10)
    x = rng.standard_normal((t, 5)) * 0.01 + 0.001
    m = _one_scale(panel_from_returns(x), dt, aggregation=aggregation)
    ref = _per_phase_np_cov(x, dt, aggregation)
    assert np.abs(m - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("aggregation,dt", [(MODE_NONOVERLAPPING, 1),
                                            (MODE_OVERLAPPING, 1),
                                            (MODE_OVERLAPPING, 5),
                                            (MODE_OVERLAPPING, 21)])
def test_cov_single_phase_is_plain_gram_product(aggregation, dt):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((300, 4)) * 0.01
    s = x if dt == 1 else block_sums(x, dt)
    xc = s - s.mean(axis=0)
    m = _one_scale(panel_from_returns(x), dt, aggregation=aggregation)
    assert np.array_equal(m, xc.T @ xc / (len(s) - 1))


@pytest.mark.parametrize("method", [METHOD_PRODUCT, METHOD_L1])
@pytest.mark.parametrize("aggregation", [MODE_NONOVERLAPPING, MODE_OVERLAPPING])
def test_set_matches_cov_at_scale_bitwise(method, aggregation):
    # each matrix of a many-scale set is the one-scale set's, bit for bit,
    # also when a larger scale comes before the smaller ones that share
    # its block-sum buffer
    rng = np.random.default_rng(12)
    p = panel_from_returns(rng.standard_normal((500, 6)) * 0.01)
    for scales in ((1, 2, 5, 10, 21), (21, 1, 5, 2)):
        cs = build_covariance_set(p, scales, method=method, aggregation=aggregation)
        for dt, m in zip(scales, cs.matrices):
            ref = _one_scale(p, dt, method=method, aggregation=aggregation)
            assert np.array_equal(m, ref)


@pytest.mark.parametrize("aggregation", [MODE_NONOVERLAPPING, MODE_OVERLAPPING])
@pytest.mark.parametrize("t", [500, 503])
def test_product_matrices_exactly_symmetric(aggregation, t):
    rng = np.random.default_rng(13)
    p = panel_from_returns(rng.standard_normal((t, 30)) * 0.01)
    for dt in (1, 2, 3, 5, 10, 21):
        m = _one_scale(p, dt, aggregation=aggregation)
        assert np.array_equal(m, m.T)


@pytest.mark.parametrize("method", [METHOD_PRODUCT, METHOD_L1])
@pytest.mark.parametrize("aggregation", [MODE_NONOVERLAPPING, MODE_OVERLAPPING])
def test_set_warns_once_per_dead_asset_and_scale(method, aggregation):
    rng = np.random.default_rng(14)
    x = rng.standard_normal((400, 5)) * 0.01
    x[:, 1] = 0.0
    x[:, 3] = 0.002
    p = panel_from_returns(x, asset_ids=("a", "flat", "b", "drift", "c"))
    with pytest.warns(DegenerateAssetWarning) as record:
        cs = build_covariance_set(p, (1, 5, 21), method=method, aggregation=aggregation)
    messages = sorted(str(w.message) for w in record)
    assert messages == sorted(
        f"asset {a!r} has zero variance at scale {dt}; its covariance entries are zero"
        for a in ("flat", "drift") for dt in (1, 5, 21)
    )
    for m in cs.matrices:
        for i in (1, 3):
            assert np.all(m[i, :] == 0.0) and np.all(m[:, i] == 0.0)
        assert np.all(np.diag(m)[[0, 2, 4]] > 0.0)


@pytest.mark.parametrize("aggregation", [MODE_NONOVERLAPPING, MODE_OVERLAPPING])
def test_degenerate_asset_warning_names_the_caller(aggregation):
    x = np.random.default_rng(14).standard_normal((100, 2)) * 0.01
    x[:, 1] = 0.0
    with pytest.warns(DegenerateAssetWarning) as record:
        build_covariance_set(panel_from_returns(x), (1, 5), aggregation=aggregation)
    assert [w.filename for w in record] == [__file__] * 2


# ---------------------------------------------------------------------------
# one build for several aggregation modes

_MODES = (MODE_NONOVERLAPPING, MODE_OVERLAPPING)


@pytest.mark.parametrize("method, l1_joint", [(METHOD_PRODUCT, False), (METHOD_PRODUCT, True),
                                              (METHOD_L1, False), (METHOD_L1, True)])
@pytest.mark.parametrize("n", [1, 2, 10, 57])
@pytest.mark.parametrize("scales", [(1, 2, 5, 10, 21), (3, 1, 7, 12), (4, 9)])
def test_joint_sets_are_each_modes_own_build_bit_for_bit(method, l1_joint, n, scales):
    # 21 window lengths leave every remainder, 0 included, of the rows mod
    # each scale; each mode's set is its one-mode build in either mode order
    x = np.random.default_rng(n).standard_t(4, (160, n)) * 0.01
    for rows in range(110, 131):
        p = panel_from_returns(x[:rows])
        alone = [build_covariance_set(p, scales, method=method, aggregation=mode,
                                      l1_joint=l1_joint) for mode in _MODES]
        for order in (_MODES, _MODES[::-1]):
            sets = covariance.build_covariance_sets(p, scales, order, method=method,
                                                    l1_joint=l1_joint)
            assert [s.aggregation for s in sets] == list(order)
            for cs in sets:
                want = alone[_MODES.index(cs.aggregation)]
                assert (cs.asset_ids, cs.scales, cs.method) == (want.asset_ids, scales, method)
                assert [m.tobytes() for m in cs.matrices] == [m.tobytes() for m in want.matrices]
                assert not any(m.flags.writeable for m in cs.matrices)
            if 1 in scales:
                assert sets[0].matrix_at(1) is sets[1].matrix_at(1)


@pytest.mark.parametrize("method", [METHOD_PRODUCT, METHOD_L1])
def test_joint_sets_warn_per_scale_per_mode_at_the_callers_line(method):
    x = np.random.default_rng(14).standard_normal((200, 3)) * 0.01
    x[:, 1] = 0.0005
    p = panel_from_returns(x, asset_ids=("a", "flat", "b"))
    with pytest.warns(DegenerateAssetWarning) as alone:
        for mode in _MODES:
            build_covariance_set(p, (1, 5, 21), method=method, aggregation=mode)
    with pytest.warns(DegenerateAssetWarning) as record:
        line = inspect.currentframe().f_lineno + 1
        covariance.build_covariance_sets(p, (1, 5, 21), _MODES, method=method)
    assert len(record) == 6
    assert sorted(str(w.message) for w in record) == sorted(str(w.message) for w in alone)
    assert [(w.filename, w.lineno) for w in record] == [(__file__, line)] * 6


@pytest.mark.parametrize("order", [_MODES, _MODES[::-1]])
def test_joint_sets_raise_the_error_of_the_mode_that_fails_its_rows(order):
    # 60 rows hold no full phase of 21-day blocks, but 40 overlapping sums
    p = panel_from_returns(np.random.default_rng(3).standard_normal((60, 3)) * 0.01)
    scales = (1, 2, 5, 10, 21)
    build_covariance_set(p, scales, aggregation=MODE_OVERLAPPING)
    with pytest.raises(DataError) as alone:
        build_covariance_set(p, scales, aggregation=MODE_NONOVERLAPPING)
    with pytest.raises(DataError, match=f"^{alone.value}$"):
        covariance.build_covariance_sets(p, scales, order)


@pytest.mark.parametrize("aggregations, message", [
    ((), "need a sequence of distinct aggregations, got ()"),
    ((MODE_OVERLAPPING, MODE_OVERLAPPING), "need a sequence of distinct aggregations"),
    (MODE_OVERLAPPING, "need a sequence of distinct aggregations, got 'overlapping'"),
    ((MODE_OVERLAPPING, "daily"), "unknown aggregation 'daily'"),
])
def test_joint_sets_refuse_modes_that_are_not_distinct_and_known(aggregations, message):
    p = panel_from_returns(np.random.default_rng(3).standard_normal((100, 2)))
    with pytest.raises(ValueError, match=re.escape(message)):
        covariance.build_covariance_sets(p, (1, 5), aggregations)


# ---------------------------------------------------------------------------
# one build for several (scales, aggregation) requests

_NON, _OVL = MODE_NONOVERLAPPING, MODE_OVERLAPPING
_WHOLE = (1, 2, 5, 10, 21)


def _phase_key(dt, aggregation):
    return dt, dt if aggregation == MODE_NONOVERLAPPING else 1


@pytest.mark.parametrize("method, l1_joint", [(METHOD_PRODUCT, False), (METHOD_PRODUCT, True),
                                              (METHOD_L1, False), (METHOD_L1, True)])
@pytest.mark.parametrize("n", [1, 2, 10, 57])
@pytest.mark.parametrize("requests", [
    [((1,), _NON), (_WHOLE, _NON), (_WHOLE, _OVL)],
    [((21, 1, 5), _NON), ((3,), _NON)],
    [((21, 1, 5), _OVL), ((3,), _NON)],
    [((2, 5, 10), _NON), ((1,), _OVL)],
    [((2, 5, 10), _OVL), ((1,), _NON), ((2, 5, 10), _NON)],
], ids=["lineup", "21-1-5,3", "21-1-5-ovl,3", "2-5-10,1", "2-5-10-both,1"])
def test_request_sets_are_each_requests_own_build_bit_for_bit(method, l1_joint, n, requests):
    # 21 window lengths leave every remainder, 0 included, of the rows mod
    # each scale; each (scale, phase count) matrix is one array for every
    # set that holds it
    x = np.random.default_rng(n).standard_t(4, (160, n)) * 0.01
    for rows in range(110, 131):
        p = panel_from_returns(x[:rows])
        sets = covariance._build_sets(p, requests, method, l1_joint)
        assert len(sets) == len(requests)
        arrays = {}
        for cs, (scales, aggregation) in zip(sets, requests):
            want = build_covariance_set(p, scales, method=method, aggregation=aggregation,
                                        l1_joint=l1_joint)
            assert (cs.asset_ids, cs.scales, cs.method, cs.aggregation) == \
                (want.asset_ids, scales, method, aggregation)
            assert [m.tobytes() for m in cs.matrices] == [m.tobytes() for m in want.matrices]
            assert not any(m.flags.writeable for m in cs.matrices)
            for dt, m in zip(scales, cs.matrices):
                assert arrays.setdefault(_phase_key(dt, aggregation), m) is m
        assert len({id(m) for m in arrays.values()}) == len(arrays)


@pytest.mark.parametrize("requests, failing", [
    # 60 rows hold 1 block of 21 days in the worst phase, and 3 overlapping
    # sums of 58 days; the first failing request raises, whatever follows
    ([((1, 5), _NON), ((58,), _OVL), ((1, 21), _NON)], 1),
    ([((1, 5), _NON), ((1, 21), _NON), ((58,), _OVL)], 1),
    ([((21, 1), _OVL), ((5, 21), _NON)], 1),
    ([((1, 21), _NON), ((1, 5), _OVL)], 0),
])
def test_request_sets_raise_the_error_of_the_first_failing_request(requests, failing):
    p = panel_from_returns(np.random.default_rng(3).standard_normal((60, 3)) * 0.01)
    scales, aggregation = requests[failing]
    with pytest.raises(DataError) as alone:
        build_covariance_set(p, scales, aggregation=aggregation)
    with pytest.raises(DataError, match=f"^{re.escape(str(alone.value))}$"):
        covariance._build_sets(p, requests, METHOD_PRODUCT, False)


@pytest.mark.parametrize("method", [METHOD_PRODUCT, METHOD_L1])
def test_request_sets_warn_per_scale_per_request_at_the_callers_caller(method):
    x = np.random.default_rng(14).standard_normal((200, 3)) * 0.01
    x[:, 1] = 0.0005
    p = panel_from_returns(x, asset_ids=("a", "flat", "b"))
    requests = [((1,), _NON), ((1, 5, 21), _NON), ((5, 21), _OVL)]
    with pytest.warns(DegenerateAssetWarning) as alone:
        for scales, aggregation in requests:
            build_covariance_set(p, scales, method=method, aggregation=aggregation)

    def caller():
        return covariance._build_sets(p, requests, method, False)
    with pytest.warns(DegenerateAssetWarning) as record:
        line = inspect.currentframe().f_lineno + 1
        caller()
    assert len(record) == 6
    assert sorted(str(w.message) for w in record) == sorted(str(w.message) for w in alone)
    assert sum("at scale 1;" in str(w.message) for w in record) == 2
    assert [(w.filename, w.lineno) for w in record] == [(__file__, line)] * 6


# every finite float, subnormals and both zeros included
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _column(draw, rows):
    kind = draw(st.sampled_from(["constant", "signed_zero", "last_ulp", "any"]))
    if kind == "constant":
        return [draw(_finite)] * rows
    if kind == "signed_zero":
        return draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=rows, max_size=rows))
    if kind == "last_ulp":
        v = draw(_finite)
        toward = draw(st.sampled_from([-np.inf, np.inf]))
        u = float(np.nextafter(v, 0.0 if abs(v) == np.finfo(float).max else toward))
        return draw(st.lists(st.sampled_from([v, u]), min_size=rows, max_size=rows))
    return draw(st.lists(_finite, min_size=rows, max_size=rows))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_constant_columns_are_those_of_zero_ptp(data):
    # the exact max == min test flags the same columns as ptp == 0, on
    # constant columns, mixes of +0.0 and -0.0 and values one ulp apart
    rows = data.draw(st.integers(1, 12), label="rows")
    n = data.draw(st.integers(1, 5), label="columns")
    x = np.array([data.draw(_column(rows)) for _ in range(n)]).T
    with np.errstate(over="ignore"):
        want = np.ptp(x, axis=0) == 0.0
    assert np.array_equal(covariance._constant_columns(x), want)


def test_cached_phase_weights_are_read_only():
    counts, weights, ends = covariance._phase_weights(500, 21)
    again = covariance._phase_weights(500, 21)
    assert again[1] is weights and again[2] is ends
    for arr in (counts, weights, ends):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    n_p = (500 - 1 - np.arange(21)) // 21 + 1
    assert np.array_equal(counts[:, 0], n_p)
    assert weights[:, 0].tobytes() == (1.0 / np.sqrt(21 * (n_p - 1.0))).tobytes()
    # the prefix-sum row that ends each phase
    assert np.array_equal(ends, np.arange(21) + 21 * n_p)


def _phase_cov_body_and_tail(s, k, c):
    """``_phase_cov`` for ``k > 1`` as it centred and weighted the whole rounds
    of ``k`` rows and the rows left over in two separate steps."""
    rows, n = s.shape
    counts = ((rows - 1 - np.arange(k)) // k + 1)[:, None]
    weights = 1.0 / np.sqrt(k * (counts - 1.0))
    means = c[np.arange(k) + k * counts[:, 0]]
    means -= c[:k]
    means /= counts
    m, r = divmod(rows, k)
    body = s[: m * k].reshape(m, k, n)
    body -= means
    body *= weights
    tail = s[m * k:]
    tail -= means[:r]
    tail *= weights[:r]
    return s.T @ s


@pytest.mark.parametrize("k", [2, 3, 5, 7, 21])
def test_phase_cov_one_broadcast_matches_body_and_tail_at_every_remainder(k):
    rng = np.random.default_rng(k)
    seen = set()
    for t in range(8 * k, 9 * k):  # the block sums' rows t + 1 - k take every remainder mod k
        x = rng.standard_normal((t, 6)) * 0.01
        c = _prefix_sum(x)
        rows = t + 1 - k
        seen.add(rows % k)
        want = _phase_cov_body_and_tail(c[k:] - c[:-k], k, c)
        # the spare rows hold whatever an earlier scale left there
        buf = rng.standard_normal(x.shape)
        s = np.subtract(c[k:], c[:-k], out=buf[:rows])
        got = covariance._phase_cov(s, k, c, buf)
        assert got.tobytes() == want.tobytes(), (t, k)
    assert seen == set(range(k))


@pytest.mark.parametrize("t", [5, 500, 503])
def test_scale_one_phase_cov_is_the_mean_centred_gram(t):
    s = np.random.default_rng(t).standard_normal((t, 7)) * 0.01
    xc = s - s.mean(axis=0)
    assert np.array_equal(covariance._phase_cov(s, 1), xc.T @ xc / (t - 1))


def test_product_set_scratch_is_a_prefix_sum_a_block_buffer_and_a_gram():
    # every scale's block sums come from one prefix sum into one reused
    # buffer; a padded copy per scale would add a window's size
    x = np.random.default_rng(16).standard_normal((500, 200)) * 0.01
    p = panel_from_returns(x)
    scales = (1, 2, 5, 10, 21)
    build_covariance_set(p, scales)  # fills the per-shape phase weight cache
    tracemalloc.start()
    try:
        cs = build_covariance_set(p, scales)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    retained = sum(m.nbytes for m in cs.matrices)
    assert peak - retained <= 2.5 * x.nbytes


def test_ridge_loads_the_diagonal_only():
    rng = np.random.default_rng(15)
    cs = build_covariance_set(panel_from_returns(rng.standard_normal((300, 6)) * 0.01), (1, 5))
    plain = multiscale_cov(cs).matrix
    assert np.array_equal(multiscale_cov(cs, ridge=1e-3).matrix, plain + 1e-3 * np.eye(6))


def test_cov_overlapping_close_to_nonoverlapping():
    rng = np.random.default_rng(6)
    p = panel_from_returns(rng.standard_normal((2000, 2)) * 0.01)
    m_no = _one_scale(p, 5)
    m_ov = _one_scale(p, 5, aggregation=MODE_OVERLAPPING)
    assert np.allclose(m_no, m_ov, rtol=0.15, atol=2e-7)


# ---------------------------------------------------------------------------
# covariance sets


def test_build_covariance_set_shapes():
    rng = np.random.default_rng(7)
    p = panel_from_returns(rng.standard_normal((300, 2)) * 0.01)
    cs = build_covariance_set(p, (1, 2, 5))
    assert cs.scales == (1, 2, 5)
    assert len(cs.matrices) == 3
    assert cs.matrix_at(5).shape == (2, 2)
    with pytest.raises(KeyError):
        cs.matrix_at(3)


def test_matrix_at_takes_whole_numbers_only():
    rng = np.random.default_rng(7)
    cs = build_covariance_set(panel_from_returns(rng.standard_normal((300, 2)) * 0.01), (1, 5))
    assert cs.matrix_at(5.0) is cs.matrix_at(5)
    for dt in (5.5, 1.5, "5"):
        with pytest.raises(KeyError, match=f"scale {dt} not in"):
            cs.matrix_at(dt)


def test_covariance_set_validates_shapes():
    with pytest.raises(DataError, match=r"expected \(2, 2\)"):
        ScaledCovarianceSet(("a", "b"), (1,), (np.eye(3),),
                            METHOD_PRODUCT, "nonoverlapping")


@pytest.mark.parametrize("bad, message", [
    (np.array([[1.0, 0.5], [0.0, 1.0]]), "matrix at scale 5 is not symmetric"),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), "matrix at scale 5 has non-finite entries"),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), "matrix at scale 5 has non-finite entries"),
])
def test_covariance_set_constructor_rejects_bad_matrices(bad, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ScaledCovarianceSet(("a", "b"), (1, 5), (np.eye(2), bad),
                            METHOD_PRODUCT, "nonoverlapping")


@pytest.mark.parametrize("scales, message", [
    ((), "need at least one scale"),
    ((2, 2), "scales must be distinct"),
])
def test_build_covariance_set_rejects_scales_as_constructor(scales, message):
    p = panel_from_returns(np.random.default_rng(0).standard_normal((100, 2)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_covariance_set(p, scales)
    with pytest.raises(ValueError, match=f"^{message}$"):
        ScaledCovarianceSet(("a1", "a2"), scales, (np.eye(2),) * len(scales),
                            METHOD_PRODUCT, "nonoverlapping")


@pytest.mark.parametrize("kwargs, message", [
    ({"method": "x"}, "unknown method 'x'"),
    ({"aggregation": "x"}, "unknown aggregation 'x'"),
])
def test_build_covariance_set_refuses_an_unknown_method_or_aggregation(kwargs, message):
    p = panel_from_returns(np.random.default_rng(0).standard_normal((100, 2)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        build_covariance_set(p, (1, 5), **kwargs)


def _scale_entry_points():
    from multiscale_markowitz import scaling
    from multiscale_markowitz.backtest import BacktestConfig
    rng = np.random.default_rng(0)
    p = panel_from_returns(rng.standard_normal((400, 2)))
    x = rng.standard_normal(400)
    return {
        "build_covariance_set": lambda s: build_covariance_set(p, s),
        "ScaledCovarianceSet": lambda s: ScaledCovarianceSet(
            ("a1", "a2"), s, (np.eye(2),) * len(s), METHOD_PRODUCT,
            MODE_NONOVERLAPPING),
        "MultiscaleCovariance": lambda s: MultiscaleCovariance(
            np.eye(2), ("a1", "a2"), s, (1.0,) * len(s), 0.0, False, METHOD_PRODUCT,
            MODE_NONOVERLAPPING),
        "BacktestConfig": lambda s: BacktestConfig(scales=s),
        "structure_spectrum": lambda s: scaling.structure_spectrum(x, scales=s),
        "mfdfa": lambda s: scaling.mfdfa(x, scales=s),
        "correlation_scaling": lambda s: scaling.estimate_correlation_scaling(
            p, "a1", "a2", scales=s),
    }


@pytest.mark.parametrize("entry, scales, message", [
    pytest.param(entry, scales, message, id=f"{entry}-{scales}")
    for entry in _scale_entry_points()
    for scales, message in [((4, 8.5), "scales must be positive integers, got 8.5"),
                            ((4, 0), "scales must be positive integers, got 0"),
                            ((), "need at least one scale")]
])
def test_every_entry_point_checks_scales_alike(entry, scales, message):
    # no entry point truncates a fractional scale, and none fails on an
    # empty list with a message of its own
    with pytest.raises(ValueError, match=f"^{message}$"):
        _scale_entry_points()[entry](scales)


@pytest.mark.parametrize("method", [METHOD_PRODUCT, METHOD_L1])
@pytest.mark.parametrize("aggregation", [MODE_NONOVERLAPPING, MODE_OVERLAPPING])
def test_built_set_and_blend_match_public_constructors(method, aggregation):
    # the package's own objects skip the constructors' checks; what they
    # hold must be what the constructors would have stored
    rng = np.random.default_rng(4)
    p = panel_from_returns(rng.standard_t(3, (260, 5)) * 0.01)
    cs = build_covariance_set(p.window(10, 260), (1, 2, 5, 21), method=method,
                              aggregation=aggregation)
    public = ScaledCovarianceSet(cs.asset_ids, cs.scales, cs.matrices,
                                 cs.method, cs.aggregation)
    assert (cs.asset_ids, cs.scales) == (public.asset_ids, public.scales)
    for built, checked in zip(cs.matrices, public.matrices):
        assert not built.flags.writeable
        assert built.tobytes() == checked.tobytes()
    blend = multiscale_cov(cs, ridge="auto")
    by_hand = MultiscaleCovariance(blend.matrix, blend.asset_ids, blend.scales,
                                   blend.scale_weights, blend.ridge,
                                   blend.psd_repaired, blend.method,
                                   blend.aggregation)
    assert not blend.matrix.flags.writeable
    assert blend.matrix.tobytes() == by_hand.matrix.tobytes()
    assert blend.condition == by_hand.condition
    assert blend.condition == pytest.approx(np.linalg.cond(blend.matrix), rel=1e-6)


def test_multiscale_covariance_constructor_checks_matrix():
    args = (("a", "b"), (1,), (1.0,), 0.0, False, METHOD_PRODUCT, "nonoverlapping")
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            MultiscaleCovariance(np.array([[1.0, bad], [bad, 1.0]]), *args)
    with pytest.raises(DataError, match=r"^matrix shape \(3, 3\) does not match 2 assets$"):
        MultiscaleCovariance(np.eye(3), *args)
    assert MultiscaleCovariance(np.diag([4.0, 1.0]), *args).condition == 4.0
    assert MultiscaleCovariance(np.diag([1.0, 0.0]), *args).condition == np.inf


def test_multiscale_covariance_constructor_refuses_an_asymmetric_matrix():
    # eigvalsh and the certificate's Cholesky both read one triangle, so an
    # asymmetric matrix would pass for the symmetric one below its diagonal
    args = (("a", "b"), (1,), (1.0,), 0.0, False, METHOD_PRODUCT, "nonoverlapping")
    with pytest.raises(ValueError, match="^matrix is not symmetric$"):
        MultiscaleCovariance([[1.0, 0.9], [-0.9, 1.0]], *args)
    # within check_symmetric's tolerance it stores the symmetric part
    near = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
    assert MultiscaleCovariance(near, *args).matrix.tobytes() == ((near + near.T) / 2).tobytes()


def test_condition_is_computed_on_first_read(monkeypatch):
    args = (("a", "b"), (1,), (1.0,), 0.0, False, METHOD_PRODUCT, "nonoverlapping")
    ms = MultiscaleCovariance(np.diag([4.0, 1.0]), *args)
    assert ms._certified and "condition" not in vars(ms)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
    assert ms.condition == 4.0 and ms.condition == 4.0
    assert len(calls) == 1


def test_blend_fallback_seeds_the_condition_it_computed(monkeypatch):
    # a blend the certificate cannot pass takes the eigvalsh path, whose
    # condition number the blend then carries; a certified one carries none
    singular = multiscale_cov(_manual_set((1,), (np.ones((2, 2)),)))
    assert not singular._certified and vars(singular)["condition"] == np.inf
    certified = multiscale_cov(_manual_set((1,), (np.diag([4.0, 1.0]),)))
    assert certified._certified and "condition" not in vars(certified)
    assert certified.condition == 4.0


def _certificate_cases(rng, n, count):
    """``count`` symmetric ``n x n`` matrices around the certificate's edges.

    They cycle through five kinds: cond log-uniform in [1e9, 1e13],
    indefinite, singular, a rank-deficient Gram matrix and a Gram matrix
    of full rank. A fifth of them get zero rows and columns for dead
    assets, half of those an auto ridge back on, and each is scaled by
    1e-150, 1, 1e150 or a log-uniform factor between.
    """
    for i in range(count):
        if i % 50 == 0:
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        kind = i % 5
        cond = 10.0 ** rng.uniform(9, 13)
        lam = np.sort(10.0 ** rng.uniform(-np.log10(cond), 0.0, n))
        lam[0], lam[-1] = 1.0 / cond, 1.0
        if kind == 1:
            lam[0] = -lam[0]
        elif kind == 2:
            lam[0] = 0.0
        if kind == 3:
            x = rng.standard_normal((int(rng.integers(0, n)), n))
            a = x.T @ x
        elif kind == 4:
            x = rng.standard_normal((int(rng.integers(n + 1, 3 * n + 3)), n))
            x *= 10.0 ** rng.uniform(-4.0, 0.0, n)
            a = x.T @ x
        else:
            a = (q * lam) @ q.T
        if n > 1 and rng.random() < 0.2:
            dead = rng.random(n) < 0.3
            a[dead] = 0.0
            a[:, dead] = 0.0
            if rng.random() < 0.5:
                a.flat[:: n + 1] += 1e-8 * np.trace(a) / n
        scale = rng.choice([-150.0, 0.0, 150.0, rng.uniform(-150.0, 150.0)])
        yield covariance._sym(a) * 10.0 ** scale


def test_certificate_never_passes_what_the_eigvalsh_path_would_repair_or_refuse():
    # 10^4 matrices: wherever _certify passes one, eigvalsh finds it
    # positive definite (no PSD repair) with a condition number the
    # solvers accept; the bound is tight enough to pass a good share
    rng = np.random.default_rng(2026)
    passed = total = 0
    worst = 0.0
    for n, count in [(1, 1000), (2, 2000), (3, 2000), (10, 2500), (50, 1800), (200, 700)]:
        for a in _certificate_cases(rng, n, count):
            total += 1
            if not covariance._certify(a):
                continue
            passed += 1
            vals = np.linalg.eigvalsh(a)
            assert not vals[0] < -1e-12 * max(-vals[0], vals[-1], 1e-300)
            assert covariance._condition(vals) <= covariance.MAX_CONDITION
            worst = max(worst, covariance._condition(vals))
    assert total == 10_000
    assert passed > 3000 and worst > covariance.MAX_CONDITION / 10


@pytest.mark.parametrize("a", [
    np.zeros((3, 3)),
    np.eye(3) * 1e-300,                    # 2t/C is not a normal float
    np.eye(3) * 1e308,                     # the trace overflows
    np.diag([1.0, 1.0, 1e-13]),            # cond above the bound
    np.diag([1.0, -1.0, 1.0]),
])
def test_certificate_declines(a):
    assert not covariance._certify(a)


# ---------------------------------------------------------------------------
# eigenvalue clipping


def test_psd_repair_hand_example():
    m = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    fixed = psd_repair(m)
    assert np.allclose(fixed, [[1.5, 1.5], [1.5, 1.5]], atol=1e-12)


def test_psd_repair_clips_negative_diagonal():
    fixed = psd_repair(np.diag([1.0, -0.1]))
    assert np.allclose(fixed, np.diag([1.0, 0.0]), atol=1e-15)


def test_psd_repair_identity_on_psd():
    m = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert psd_repair(m) is m


def test_psd_repair_idempotent():
    m = np.array([[1.0, 2.0], [2.0, 1.0]])
    once = psd_repair(m)
    assert psd_repair(once) is once


def test_psd_repair_rejects_asymmetric():
    with pytest.raises(ValueError):
        psd_repair(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_psd_repair_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        psd_repair(np.array([[1.0, bad], [bad, 1.0]]))


# ---------------------------------------------------------------------------
# blended matrix


def _manual_set(scales, matrices, ids=("a", "b")):
    n = len(ids)
    return ScaledCovarianceSet(ids, tuple(scales), tuple(matrices), METHOD_PRODUCT,
                               "nonoverlapping")


def test_multiscale_cov_normalizes_by_scale():
    cs = _manual_set((1, 2), (np.eye(2), 4.0 * np.eye(2)))
    ms = multiscale_cov(cs)
    # (I/1 + 4I/2) / 2 = 1.5 I
    assert np.allclose(ms.matrix, 1.5 * np.eye(2), atol=1e-15)
    assert ms.scale_weights == (0.5, 0.5)


def test_multiscale_cov_single_scale_is_identity():
    m = np.array([[1.0e-4, 2.0e-5], [2.0e-5, 3.0e-4]])
    cs = _manual_set((1,), (m,))
    ms = multiscale_cov(cs, scale_weights=(1.0,))
    assert np.array_equal(ms.matrix, m)


def test_multiscale_cov_raw_average_option():
    # the raw average with weights w is the blend with weights w_j * dt_j
    cs = _manual_set((1, 2), (np.eye(2), 4.0 * np.eye(2)))
    ms = multiscale_cov(cs, scale_weights=(0.5, 1.0))
    assert np.allclose(ms.matrix, 2.5 * np.eye(2), atol=1e-15)


def test_scale_weights_divide_by_any_per_scale_target():
    # weights lam_j * (dt_j / t_j) blend sum_j lam_j * m_j / t_j, so one knob
    # carries a target curve; at t = dt with uniform lam it is the default
    rng = np.random.default_rng(21)
    scales = (1, 2, 5, 10, 21)
    dt = np.array(scales, dtype=float)
    for _ in range(50):
        mats = []
        for _ in scales:
            a = rng.standard_normal((4, 4))
            mats.append(a @ a.T + 0.1 * np.eye(4))
        cs = _manual_set(scales, mats, ids=("a", "b", "c", "d"))
        lam = rng.dirichlet(np.ones(len(scales)))
        t = rng.uniform(0.5, 2.0) * dt ** (2.0 * rng.uniform(0.2, 0.8))
        got = multiscale_cov(cs, scale_weights=lam * (dt / t)).matrix
        want = sum(lj * m / tj for lj, m, tj in zip(lam, mats, t))
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        uniform = np.full(len(scales), 1.0 / len(scales)) * (dt / dt)
        assert (multiscale_cov(cs, scale_weights=uniform).matrix.tobytes()
                == multiscale_cov(cs).matrix.tobytes())


def test_multiscale_cov_custom_weights():
    cs = _manual_set((1, 2), (np.eye(2), 4.0 * np.eye(2)))
    ms = multiscale_cov(cs, scale_weights=(1.0, 0.0))
    assert np.allclose(ms.matrix, np.eye(2), atol=1e-15)
    with pytest.raises(DataError, match="need 2 scale weights"):
        multiscale_cov(cs, scale_weights=(1.0,))
    with pytest.raises(ValueError):
        multiscale_cov(cs, scale_weights=(-1.0, 2.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_multiscale_cov_rejects_non_finite_weights(bad):
    cs = _manual_set((1, 2), (np.eye(2), 4.0 * np.eye(2)))
    with pytest.raises(ValueError, match="scale weights must be finite"):
        multiscale_cov(cs, scale_weights=(bad, 1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-12])
def test_multiscale_cov_refuses_non_finite_or_negative_ridge(bad):
    cs = _manual_set((1,), (np.eye(2),))
    with pytest.raises(ValueError, match="^ridge must be non-negative and finite, got "):
        multiscale_cov(cs, ridge=bad)


def test_multiscale_cov_keeps_the_default_weight_blend_on_its_set():
    cs = build_covariance_set(gen_correlated(300, constant_correlation_cov(4, 0.3), seed=3),
                              (1, 5, 21))
    auto = multiscale_cov(cs, ridge="auto")
    assert multiscale_cov(cs, ridge="auto") is auto
    # a set built apart gives the same bits in a new object
    again = multiscale_cov(build_covariance_set(
        gen_correlated(300, constant_correlation_cov(4, 0.3), seed=3), (1, 5, 21)), ridge="auto")
    assert again is not auto and again.matrix.tobytes() == auto.matrix.tobytes()
    assert again.ridge == auto.ridge and again.condition == auto.condition


def test_multiscale_cov_never_keeps_a_blend_of_explicit_weights():
    cs = _manual_set((1, 2), (np.eye(2), 4.0 * np.eye(2)))
    default = multiscale_cov(cs)
    equal = multiscale_cov(cs, scale_weights=(0.5, 0.5))
    assert equal is not default and equal is not multiscale_cov(cs, scale_weights=(0.5, 0.5))
    assert equal.matrix.tobytes() == default.matrix.tobytes()
    assert multiscale_cov(cs, scale_weights=(1.0, 0.0)).matrix.tobytes() != default.matrix.tobytes()
    assert multiscale_cov(cs) is default


def test_multiscale_cov_keeps_one_blend_per_checked_ridge():
    cs = _manual_set((1, 2), (np.eye(2), 4.0 * np.eye(2)))
    plain = multiscale_cov(cs, ridge=0)
    assert multiscale_cov(cs, ridge=0.0) is plain and multiscale_cov(cs) is plain
    loaded = multiscale_cov(cs, ridge=1e-3)
    assert loaded is not plain and loaded.ridge == 1e-3
    assert np.array_equal(loaded.matrix, plain.matrix + 1e-3 * np.eye(2))
    auto = multiscale_cov(cs, ridge="auto")
    assert auto is not plain and auto is not loaded and multiscale_cov(cs, ridge=1e-3) is loaded


@pytest.mark.parametrize("bad", [np.nan, -1.0, "Auto"])
def test_multiscale_cov_refuses_a_bad_ridge_on_every_call(bad):
    cs = _manual_set((1,), (np.eye(2),))
    for _ in range(2):
        with pytest.raises(ValueError, match="^ridge must be "):
            multiscale_cov(cs, ridge=bad)
    assert cs._blends == {}
    assert multiscale_cov(cs, ridge="auto") is multiscale_cov(cs, ridge="auto")


def test_multiscale_cov_auto_ridge():
    cs = _manual_set((1,), (np.eye(2) * 1.0e-4,))
    ms = multiscale_cov(cs, ridge="auto")
    assert ms.ridge == pytest.approx(1e-8 * 1.0e-4)
    assert np.allclose(ms.matrix, np.eye(2) * (1.0e-4 + ms.ridge))


def test_multiscale_cov_repairs_indefinite_input():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]]) * 1e-4
    cs = _manual_set((1,), (bad,))
    ms = multiscale_cov(cs)
    assert ms.psd_repaired
    assert np.linalg.eigvalsh(ms.matrix).min() >= -1e-16



def test_repaired_blend_at_a_positive_ridge_is_the_repair_without_it_plus_it():
    # the ridge comes off the diagonal before the repair and goes back after
    bad = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]]) * 1e-4
    ms = multiscale_cov(_manual_set((1,), (bad,), ids=("a", "b", "c")), ridge=1e-5)
    diag = np.diag_indices(3)
    acc = np.zeros((3, 3))
    acc += 1.0 * (bad / 1)
    acc[diag] += 1e-5
    acc[diag] -= 1e-5
    want = psd_repair(acc)
    want[diag] += 1e-5
    assert ms.psd_repaired and ms.ridge == 1e-5
    assert ms.matrix.tobytes() == want.tobytes()
