"""Spans around calls into the package's layers, recorded from outside.

A ``Tracer`` replaces public functions at the names their callers look
up (``cli`` calls ``timeseries.load_prices``, ``backtest.fit_weights``
calls the ``build_covariance_set`` bound in ``backtest``, and so on) with
wrappers that record ``[name, parent index, start, end]``. A layer's
self time is its spans' durations minus the parts covered by child
spans. Every timed metric comes with a call count, so a refactor that
routes around a wrapped name reads as zero calls rather than as a
saving.

A ``Recorder`` keeps what the checks need from the same calls: each
fit's window, weights and blended covariance.
"""
from __future__ import annotations

import functools
import time
import tracemalloc

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self._open = []
        self._patched = []

    def wrap(self, name, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, open_[-1] if open_ else -1, 0.0, 0.0])
            open_.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = start
                spans[idx][3] = time.perf_counter()
                open_.pop()
        return traced

    def patch(self, owner, attr, name, inner=None):
        """Trace ``owner.attr`` as span ``name``; ``inner`` wraps it first."""
        original = getattr(owner, attr)
        fn = inner(original) if inner is not None else original
        setattr(owner, attr, self.wrap(name, fn))
        self._patched.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def durations(self, name):
        return [end - start for n, _, start, end in self.spans if n == name]

    def self_times(self):
        """Self time per span: its duration minus its children's durations."""
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


class Recorder:
    """Keeps each fit's window, weights and blended covariance, per backtest row."""

    def __init__(self):
        self.rows = []  # one list of fits per run_backtest call
        self.psd_repairs = 0
        self.mfdfa_peak_bytes = 0
        self._blended = None

    def run_backtest(self, fn):
        def wrapper(panel, cfg):
            self.rows.append([])
            return fn(panel, cfg)
        return wrapper

    def fit_weights(self, fn):
        def wrapper(window, cfg):
            self._blended = None
            out = fn(window, cfg)
            self.rows[-1].append((window.timestamps[0], window.timestamps[-1],
                                  np.array(out.weights), self._blended))
            return out
        return wrapper

    def multiscale_cov(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self._blended = np.array(out.matrix)
            self.psd_repairs += bool(out.psd_repaired)
            return out
        return wrapper

    def mfdfa(self, fn):
        """Measure the tracemalloc peak of each call."""
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.mfdfa_peak_bytes = max(self.mfdfa_peak_bytes, peak)
        return wrapper


def install(tracer: Tracer, recorder: Recorder):
    """Wrap each layer's public functions where the program looks them up."""
    from multiscale_markowitz import backtest, cli, scaling, timeseries

    tracer.patch(cli, "main", "cli.main")
    tracer.patch(timeseries, "load_prices", "timeseries.load_prices")
    tracer.patch(timeseries, "to_log_returns", "timeseries.to_log_returns")
    tracer.patch(timeseries.ReturnPanel, "window", "timeseries.window")
    tracer.patch(backtest, "compare", "backtest.compare")
    tracer.patch(backtest, "run_backtest", "backtest.run_backtest", recorder.run_backtest)
    tracer.patch(backtest, "fit_weights", "backtest.fit_weights", recorder.fit_weights)
    tracer.patch(backtest, "metrics", "backtest.metrics")
    tracer.patch(backtest, "build_covariance_set", "covariance.build_set")
    tracer.patch(backtest, "multiscale_cov", "covariance.blend", recorder.multiscale_cov)
    tracer.patch(backtest, "min_variance_long_only", "optimizer.qp")
    tracer.patch(backtest, "max_sharpe", "optimizer.qp")
    tracer.patch(scaling, "structure_spectrum", "scaling.structure")
    tracer.patch(scaling, "estimate_hurst", "scaling.structure")
    tracer.patch(scaling, "mfdfa", "scaling.mfdfa", recorder.mfdfa)
    tracer.patch(scaling, "estimate_correlation_scaling", "scaling.corr_scaling")


def _ms_quantile(values, q):
    return float(np.quantile(values, q) * 1e3) if values else 0.0


def layer_metrics(tracer: Tracer, recorder: Recorder) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    out = {}
    for key, span in (("optimizer.qp", "optimizer.qp"),
                      ("covariance.build_set", "covariance.build_set")):
        d = tracer.durations(span)
        out[f"{key}_s"] = float(sum(d))
        out[f"{key}_calls"] = len(d)
        out[f"{key}_ms_p50"] = _ms_quantile(d, 0.5)
        out[f"{key}_ms_p90"] = _ms_quantile(d, 0.9)
    for key, span in (("covariance.blend", "covariance.blend"),
                      ("timeseries.load_prices", "timeseries.load_prices"),
                      ("timeseries.window", "timeseries.window"),
                      ("backtest.metrics", "backtest.metrics"),
                      ("scaling.mfdfa", "scaling.mfdfa"),
                      ("scaling.structure", "scaling.structure"),
                      ("scaling.corr_scaling", "scaling.corr_scaling")):
        d = tracer.durations(span)
        out[f"{key}_s"] = float(sum(d))
        out[f"{key}_calls"] = len(d)
    own = tracer.self_times()
    for layer in ("backtest", "cli"):
        out[f"{layer}.self_s"] = float(sum(
            t for (name, *_), t in zip(tracer.spans, own) if name.startswith(layer + ".")))
    out["cli.calls"] = len(tracer.durations("cli.main"))
    out["covariance.psd_repairs"] = recorder.psd_repairs
    out["backtest.refits"] = len(tracer.durations("backtest.fit_weights"))
    out["scaling.mfdfa_peak_mib"] = recorder.mfdfa_peak_bytes / 2 ** 20
    return out
