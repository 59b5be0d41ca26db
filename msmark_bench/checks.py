"""Checks of the program's outputs, computed apart from the program.

Everything here is plain numpy written from the method's definitions:
the CSV is parsed again, per-scale covariances are rebuilt from phase
block sums, weights are certified by their optimality conditions, equity
curves and their statistics are recomputed from the weights, and
scaling exponents are refitted by reshape and least squares. None of it
calls the package, and none of it compares against stored output.

Each ``check_*`` function returns a list of failure messages; an empty
list means the output passed.
"""
from __future__ import annotations

import math

import numpy as np

# Agreement between a recomputation and the program: both evaluate the
# same formulas in a different order, so only rounding separates them.
REL_TOL = 1e-9
# Scaling exponents fitted through moments of order down to -4, where
# rounding in the program's cumulative sums is amplified.
SPECTRUM_TOL = 1e-6
# Optimality certificates: relative size of the largest KKT violation.
KKT_TOL = 1e-9
# Budget of a weight vector.
BUDGET_TOL = 1e-10

# Known-truth properties of the scaling workload's generators.
FGN_HURST = 0.7
FGN_HURST_TOL = 0.05
LEADLAG_H_RHO = 0.3
LEADLAG_H_RHO_TOL = 0.05
CASCADE_SPREAD_MARGIN = 0.3

PERIODS_PER_YEAR = 252


# ---------------------------------------------------------------------------
# input

def read_returns(path):
    """Parse a ``date,<id>,...`` price CSV; return ``(ids, dates, log returns)``.

    ``dates`` are those of the return rows, i.e. every price date but the first.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        dates = []
        for line in fh:
            dates.append(line[:line.index(",")])
    prices = np.loadtxt(path, delimiter=",", skiprows=1,
                        usecols=range(1, len(header)), ndmin=2)
    dates = np.array(dates, dtype="datetime64[D]")
    order = np.argsort(dates, kind="stable")
    return tuple(header[1:]), dates[order][1:], np.diff(np.log(prices[order]), axis=0)


def _close(a, b, tol=REL_TOL):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    scale = max(float(np.abs(b).max(initial=0.0)), 1e-300)
    return bool(np.abs(a - b).max(initial=0.0) <= tol * scale)


# ---------------------------------------------------------------------------
# covariance

def block_sums(x, dt, phase):
    """Sums of ``dt`` consecutive rows of ``x``, blocks starting at ``phase``."""
    k = (x.shape[0] - phase) // dt
    return x[phase:phase + k * dt].reshape(k, dt, *x.shape[1:]).sum(axis=1)


def scale_cov(x, dt, aggregation):
    """Covariance (ddof=1) of ``dt``-period sums, averaged over phases."""
    if dt == 1:
        return np.cov(x, rowvar=False, ddof=1)
    if aggregation == "overlapping":
        sums = np.lib.stride_tricks.sliding_window_view(x, dt, axis=0).sum(axis=-1)
        return np.cov(sums, rowvar=False, ddof=1)
    return np.mean([np.cov(block_sums(x, dt, p), rowvar=False, ddof=1)
                    for p in range(dt)], axis=0)


def blended_cov(x, scales, aggregation):
    """Equal-weight mean of per-scale covariances divided by scale, plus the
    ``1e-8 * trace / n`` ridge."""
    acc = np.mean([scale_cov(x, dt, aggregation) / dt for dt in scales], axis=0)
    acc = (acc + acc.T) / 2.0
    n = acc.shape[0]
    return acc + 1e-8 * np.trace(acc) / n * np.eye(n)


def check_covariance(reference, program, where=""):
    if program is None:
        return [f"{where}: no blended covariance was recorded"]
    if not _close(program, reference):
        err = np.abs(np.asarray(program) - reference).max() / np.abs(reference).max()
        return [f"{where}: blended covariance differs from the recomputation "
                f"(max relative error {err:.3e})"]
    return []


# ---------------------------------------------------------------------------
# optimality certificates

def kkt_min_variance(sigma, w):
    """Largest relative KKT violation of ``min w'Sw, 1'w = 1, w >= 0``.

    The gradient ``2 S w`` must be equal on the support and no smaller off it.
    """
    g = 2.0 * sigma @ w
    supp = w > 0.0
    lam = float(w @ g)
    scale = max(abs(lam), 1e-300)
    on = np.abs(g[supp] - lam).max(initial=0.0)
    off = (lam - g[~supp]).max(initial=0.0)
    return float(max(on, off) / scale)


def kkt_max_sharpe(sigma, w, excess):
    """Largest relative KKT violation of the max-Sharpe problem in y-form.

    ``y = w / (e'w)`` solves ``min y'Sy, e'y = 1, y >= 0``: ``2 S y - lam e``
    is zero on the support and non-negative off it, with ``lam = 2 y'Sy``.
    """
    ew = float(excess @ w)
    if ew <= 0.0:
        return math.inf
    y = w / ew
    g = 2.0 * sigma @ y
    r = g - float(y @ g) * excess
    supp = w > 0.0
    scale = max(float(np.abs(g).max()), 1e-300)
    on = np.abs(r[supp]).max(initial=0.0)
    off = (-r[~supp]).max(initial=0.0)
    return float(max(on, off) / scale)


def check_weights(w, sigma=None, excess=None, where=""):
    """Long-only, budget, and the optimality certificate when ``sigma`` is given."""
    w = np.asarray(w, dtype=float)
    out = []
    if w.min() < 0.0:
        out.append(f"{where}: negative weight {w.min():.3e}")
    if abs(w.sum() - 1.0) > BUDGET_TOL:
        out.append(f"{where}: weights sum to {w.sum()!r}")
    if sigma is not None:
        kkt = kkt_min_variance(sigma, w) if excess is None else kkt_max_sharpe(sigma, w, excess)
        if not kkt <= KKT_TOL:
            out.append(f"{where}: KKT violation {kkt:.3e} exceeds {KKT_TOL:.0e}")
    return out


# ---------------------------------------------------------------------------
# equity and performance

def equity_curve(returns, weights_at, lookback, rebalance):
    """Compound daily simple returns of weights refitted every ``rebalance`` days.

    ``weights_at[t]`` holds the weights fitted at ``t``; a missing ``t`` keeps
    the previous weights (equal weights before the first).
    """
    t_total, n = returns.shape
    current = np.full(n, 1.0 / n)
    equity = [1.0]
    for t in range(lookback, t_total, rebalance):
        current = weights_at.get(t, current)
        for g in 1.0 + (np.exp(returns[t:t + rebalance]) - 1.0) @ current:
            equity.append(equity[-1] * g)
    return np.array(equity)


def performance(equity):
    """Annualized Sharpe and Sortino of log returns, and max drawdown."""
    r = np.diff(np.log(equity))
    ann = math.sqrt(PERIODS_PER_YEAR)
    downside = math.sqrt(float(np.mean(np.minimum(r, 0.0) ** 2)))
    return {
        "final_equity": float(equity[-1]),
        "sharpe": float(r.mean() / r.std(ddof=1) * ann),
        "sortino": float(r.mean() / downside * ann),
        "max_drawdown": float((equity / np.maximum.accumulate(equity) - 1.0).min()),
    }


def check_row_metrics(expected, row, where=""):
    out = []
    for key, val in expected.items():
        got = row.get(key)
        if got is None or not _close(got, val):
            out.append(f"{where}: {key} {got!r} but the recomputation gives {val!r}")
    return out


# ---------------------------------------------------------------------------
# backtests

def check_backtest(spec, returns, dates, doc, fits):
    """Check one ``msmark backtest`` run.

    ``doc`` is the CLI's JSON report. ``fits`` maps each output row index to
    the fits the program made for it, as ``(first date, last date, weights,
    blended covariance)`` in call order.
    """
    failures = []
    rows = doc.get("rows", [])
    if [(r["config"]["strategy"], r["config"]["aggregation"]) for r in rows] != list(spec.rows):
        return [f"rows {[r.get('name') for r in rows]} do not match the lineup {spec.rows}"]
    refit_times = list(range(spec.lookback, returns.shape[0], spec.rebalance))
    for idx, row in enumerate(rows):
        strategy, aggregation = spec.rows[idx]
        where = row["name"]
        if row["error"] is not None:
            continue
        fallback_times = {t for t, _ in row["fallbacks"]}
        ok_times = [t for t in refit_times if t not in fallback_times]
        row_fits = fits.get(idx, [])
        starts = [int(np.searchsorted(dates, f[0])) for f in row_fits]
        stops = [int(np.searchsorted(dates, f[1])) + 1 for f in row_fits]
        if stops != ok_times or starts != [t - spec.lookback for t in ok_times]:
            failures.append(f"{where}: fitted windows do not match the refit schedule")
            continue
        scales = (1,) if strategy.endswith("_daily") else spec.scales
        weights_at = {}
        for t, (_, _, w, blended) in zip(ok_times, row_fits):
            weights_at[t] = w
            at = f"{where} t={t}"
            if strategy == "equal_weight":
                if not np.array_equal(w, np.full(len(w), 1.0 / len(w))):
                    failures.append(f"{at}: equal weights expected")
                continue
            x = returns[t - spec.lookback:t]
            sigma = blended_cov(x, scales, aggregation)
            failures += check_covariance(sigma, blended, at)
            excess = x.mean(axis=0) if strategy.startswith("max_sharpe") else None
            failures += check_weights(w, sigma, excess, at)
        expected = performance(equity_curve(returns, weights_at, spec.lookback,
                                            spec.rebalance))
        failures += check_row_metrics(expected, row, where)
    return failures


# ---------------------------------------------------------------------------
# scaling exponents

def ols_slope(x, y):
    design = np.column_stack([np.ones(len(x)), x])
    coef, *_ = np.linalg.lstsq(design, np.asarray(y, dtype=float), rcond=None)
    return coef[1]


def structure_zeta(x, q, scales):
    """Scaling exponent of ``mean |block sum|^q``, phase-averaged per scale."""
    moments = [np.mean([np.mean(np.abs(block_sums(x, dt, p)) ** q) for p in range(dt)])
               for dt in scales]
    return ols_slope(np.log(scales), np.log(moments))


def dfa_h(x, q_grid, scales, order=1):
    """MF-DFA ``h(q)`` with each segment detrended by its own polynomial fit."""
    n = len(x)
    profile = np.cumsum(x - x.mean())
    log_f = []
    for s in scales:
        ns = n // s
        segments = np.vstack([profile[:ns * s].reshape(ns, s),
                              profile[n - ns * s:].reshape(ns, s)])
        t = np.arange(s, dtype=float)
        coef = np.polynomial.polynomial.polyfit(t, segments.T, order)
        resid = segments - np.polynomial.polynomial.polyval(t, coef)
        f2 = np.mean(resid ** 2, axis=1)
        log_f.append([np.log(np.mean(f2 ** (q / 2.0))) / q for q in q_grid])
    log_f = np.array(log_f)
    return np.array([ols_slope(np.log(scales), log_f[:, i]) for i in range(len(q_grid))])


def corr_h_rho(xi, xj, scales):
    """Slope of log |phase-averaged correlation of block sums| against log scale."""
    rho = [np.mean([np.corrcoef(block_sums(xi, dt, p), block_sums(xj, dt, p))[0, 1]
                    for p in range(dt)]) for dt in scales]
    return ols_slope(np.log(scales), np.log(np.abs(rho)))


def check_spectrum(expected_h, entry, where=""):
    """Compare recomputed ``h(q)`` and ``H = h(2)`` against one asset's JSON entry."""
    out = []
    spec = entry["spectrum"]
    if not _close(spec["h_of_q"], expected_h, tol=SPECTRUM_TOL):
        out.append(f"{where}: h(q) {spec['h_of_q']} but the recomputation gives "
                   f"{list(expected_h)}")
    q_grid = list(spec["q_grid"])
    if 2.0 in q_grid:
        h2 = expected_h[q_grid.index(2.0)]
        if not _close(entry["hurst"], h2, tol=SPECTRUM_TOL):
            out.append(f"{where}: H(2) {entry['hurst']!r} but the recomputation gives {h2!r}")
    return out


def check_scaling(ids, returns, scales, dfa_doc, structure_doc):
    """Check both ``msmark estimate`` reports of the scaling workload.

    ``scales`` are those the structure-function command was given; MF-DFA
    picks its own segment sizes, which must leave four segments of the largest.
    """
    failures = []
    n = returns.shape[0]
    cols = {a: returns[:, j] for j, a in enumerate(ids)}
    for method, doc in (("dfa", dfa_doc), ("structure", structure_doc)):
        if doc is None:
            continue
        if set(doc["assets"]) != set(ids):
            failures.append(f"{method}: assets {sorted(doc['assets'])} instead of {sorted(ids)}")
            continue
        for a, entry in doc["assets"].items():
            spec = entry["spectrum"]
            q_grid = [float(q) for q in spec["q_grid"]]
            if method == "dfa":
                used = [int(s) for s in spec["scales"]]
                valid = len(used) >= 3 and used == sorted(set(used))
                if not (valid and 3 <= used[0] and used[-1] <= n // 4):
                    failures.append(f"dfa {a}: segment sizes {used} are not a valid grid")
                    continue
                h = dfa_h(cols[a], q_grid, used)
            else:
                h = np.array([structure_zeta(cols[a], q, scales) / q for q in q_grid])
            failures += check_spectrum(h, entry, f"{method} {a}")
    if structure_doc is not None:
        expected_pairs = {f"{ids[i]}~{ids[j]}" for i in range(len(ids))
                          for j in range(i + 1, len(ids))}
        if set(structure_doc["pairs"]) != expected_pairs:
            failures.append(f"pairs {sorted(structure_doc['pairs'])} instead of "
                            f"{sorted(expected_pairs)}")
        for key, entry in structure_doc["pairs"].items():
            i, j = key.split("~")
            h_rho = corr_h_rho(cols[i], cols[j], scales)
            if not _close(entry["h_rho"], h_rho, tol=SPECTRUM_TOL):
                failures.append(f"pair {key}: H_rho {entry['h_rho']!r} but the "
                                f"recomputation gives {h_rho!r}")
    failures += check_known_truth(dfa_doc, structure_doc)
    return failures


def check_known_truth(dfa_doc, structure_doc):
    """Properties the generators guarantee, whatever the seed."""
    out = []
    for method, doc in (("dfa", dfa_doc), ("structure", structure_doc)):
        if doc is None:
            continue
        h = doc["assets"]["fgn"]["hurst"]
        if not abs(h - FGN_HURST) <= FGN_HURST_TOL:
            out.append(f"{method}: fGn H {h:.4f} is not within {FGN_HURST_TOL} of {FGN_HURST}")
    if structure_doc is not None:
        h_rho = structure_doc["pairs"]["lead~lag"]["h_rho"]
        if not abs(h_rho - LEADLAG_H_RHO) <= LEADLAG_H_RHO_TOL:
            out.append(f"lead~lag H_rho {h_rho:.4f} is not within {LEADLAG_H_RHO_TOL} "
                       f"of {LEADLAG_H_RHO}")
    if dfa_doc is not None:
        def spread(asset):
            spec = dfa_doc["assets"][asset]["spectrum"]
            h = dict(zip(spec["q_grid"], spec["h_of_q"]))
            return h[-4.0] - h[4.0]
        gap = spread("cascade") - spread("fgn")
        if not gap >= CASCADE_SPREAD_MARGIN:
            out.append(f"dfa: cascade h(-4)-h(4) exceeds the fGn's by {gap:.4f}, "
                       f"less than {CASCADE_SPREAD_MARGIN}")
    return out
