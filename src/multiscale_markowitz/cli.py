"""Command-line entry point.

Subcommands: ``simulate`` writes synthetic price panels, ``estimate``
fits scaling exponents, ``optimize`` builds portfolio weights,
``backtest`` walks strategies forward, and ``repro`` runs the whole
pipeline end to end from fixed seeds.

Exit codes: 0 success, 1 usage, 2 bad input data, 3 numerical failure.
Results go to stdout and files; diagnostics go to stderr. Output files
are written atomically (temp file plus rename). Each ``key = value`` line
of a ``--config`` file is read as a ``--key=value`` flag placed before the
command line's own, so explicit flags override it.
"""
from __future__ import annotations

import argparse
import collections
import ctypes
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import backtest as bt
from . import covariance as cov
from . import optimizer as opt
from . import scaling
from . import synth
from . import timeseries as ts
from .errors import DataError, NumericalError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

OUT_DIR_ENV = "MSMARK_OUT"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through our own
    # exception so main() can return 1 instead
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


# ---------------------------------------------------------------------------
# option casts: argparse applies them to flags, config lines and string defaults

def _cast_int(raw):
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None


def _cast_float(raw):
    try:
        return float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {raw!r}") from None


def _cast_bool(raw):
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {raw!r}")


def _list_of(cast):
    def cast_list(raw):
        raw = raw.strip()
        return tuple(cast(p.strip()) for p in raw.split(",")) if raw else ()
    return cast_list


def _cast_ridge(raw):
    return "auto" if raw.strip() == "auto" else _cast_float(raw)


def _choice(options):
    def cast(raw):
        if raw not in options:
            raise argparse.ArgumentTypeError(
                f"expected one of {', '.join(options)}; got {raw!r}")
        return raw
    return cast


Opt = collections.namedtuple("Opt", "flag cast default help")


_COMMON = [
    Opt("--out-dir", str, None,
        f"output directory (default: ${OUT_DIR_ENV} or '.')"),
    Opt("--config", str, None,
        "key=value file supplying defaults; explicit flags win"),
]

_SIMULATE_OPTS = [
    Opt("--kind", _choice(synth.KINDS), None,
        "generator: " + ", ".join(synth.KINDS)),
    Opt("--n", _cast_int, None, "number of return periods"),
    Opt("--seed", _cast_int, 0, "random seed"),
    Opt("--sigma", _cast_float, 0.01, "one-period volatility"),
    Opt("--hurst", _cast_float, 0.5, "scaling exponent (fgn) or noise exponent (cascade)"),
    Opt("--assets", _cast_int, 2, "asset count (correlated, regime_switch)"),
    Opt("--rho", _cast_float, 0.0, "pairwise correlation (correlated)"),
    Opt("--rho-inf", _cast_float, 0.6, "long-block correlation ceiling (epps)"),
    Opt("--h-rho", _cast_float, 0.3, "correlation growth exponent (epps)"),
    Opt("--sigma-low", _list_of(_cast_float), (0.008,),
        "calm volatility per asset (regime_switch)"),
    Opt("--sigma-high", _list_of(_cast_float), (0.02,),
        "stressed volatility per asset (regime_switch)"),
    Opt("--switch-points", _list_of(_cast_int), (), "regime toggle indices (regime_switch)"),
    Opt("--intermittency", _cast_float, 0.2, "cascade intermittency"),
    Opt("--out", str, None, "output CSV path (default derived from kind/n/seed)"),
] + _COMMON

# generator keyword -> option dest, per kind
_SIMULATE_PARAMS = {
    "gaussian_iid": {"sigma_daily": "sigma"},
    "fgn": {"hurst": "hurst", "sigma_daily": "sigma"},
    "correlated": {"n_assets": "assets", "rho": "rho", "sigma_daily": "sigma"},
    "epps": {"rho_inf": "rho_inf", "h_rho": "h_rho", "sigma_daily": "sigma"},
    "regime_switch": {"sigma_low": "sigma_low", "sigma_high": "sigma_high",
                      "switch_points": "switch_points", "n_assets": "assets"},
    "cascade": {"intermittency": "intermittency", "hurst_base": "hurst",
                "sigma_daily": "sigma"},
}

_ESTIMATE_OPTS = [
    Opt("--method", _choice(("structure", "dfa")), "structure",
        "exponent estimator"),
    Opt("--asset", str, None, "restrict to one asset"),
    Opt("--scales", _list_of(_cast_int), scaling.DEFAULT_SCALES,
        "aggregation scales for structure functions"),
    Opt("--q-grid", _list_of(_cast_float), scaling.DEFAULT_Q_GRID, "moment orders"),
    Opt("--dfa-scales", _list_of(_cast_int), (), "segment sizes for dfa (default: auto)"),
    Opt("--detrend-order", _cast_int, 1, "polynomial order removed per segment"),
    Opt("--pairs", _cast_bool, False, "also fit pairwise correlation scaling"),
    Opt("--json-out", str, None, "write the full report as JSON"),
] + _COMMON

_OPTIMIZE_OPTS = [
    Opt("--objective", _choice(("min_variance", "max_sharpe")), "min_variance",
        "what to optimize"),
    Opt("--scales", _list_of(_cast_int), bt.DEFAULT_SCALES, "covariance scales"),
    Opt("--cov", _choice((cov.METHOD_PRODUCT, cov.METHOD_L1)), cov.METHOD_PRODUCT,
        "covariance estimator"),
    Opt("--l1-joint", _cast_bool, False,
        "average deviation products jointly in the l1 estimator"),
    Opt("--aggregation", _choice((ts.MODE_NONOVERLAPPING, ts.MODE_OVERLAPPING)),
        ts.MODE_NONOVERLAPPING, "aggregation mode"),
    Opt("--ridge", _cast_ridge, "auto", "diagonal loading: a number or 'auto'"),
    Opt("--allow-short", _cast_bool, False, "drop the long-only constraint"),
    Opt("--mu-target", _cast_float, None, "expected-return floor (sample means)"),
    Opt("--risk-free", _cast_float, 0.0, "risk-free rate for max_sharpe"),
    Opt("--out-prefix", str, None, "prefix for weights CSV and report JSON"),
] + _COMMON

_BACKTEST_OPTS = [
    Opt("--strategy", _choice(("all",) + bt.STRATEGIES), "all",
        "one strategy, or 'all' for the standard comparison"),
    Opt("--max-sharpe-rows", _cast_bool, False,
        "include Sharpe-objective rows in 'all'"),
    Opt("--lookback", _cast_int, bt.DEFAULT_LOOKBACK, "estimation window length"),
    Opt("--rebalance", _cast_int, bt.DEFAULT_REBALANCE, "holding period length"),
    Opt("--scales", _list_of(_cast_int), bt.DEFAULT_SCALES, "covariance scales"),
    Opt("--cov", _choice((cov.METHOD_PRODUCT, cov.METHOD_L1)), cov.METHOD_PRODUCT,
        "covariance estimator"),
    Opt("--aggregation", _choice((ts.MODE_NONOVERLAPPING, ts.MODE_OVERLAPPING)),
        ts.MODE_NONOVERLAPPING, "aggregation for multiscale strategies"),
    Opt("--ridge", _cast_ridge, "auto", "diagonal loading: a number or 'auto'"),
    Opt("--risk-free", _cast_float, 0.0, "risk-free rate"),
    Opt("--out-prefix", str, None, "prefix for table CSV/text and report JSON"),
] + _COMMON

_REPRO_OPTS = [
    Opt("--seed", _cast_int, 7, "seed for every synthetic input"),
] + _COMMON

_POSITIONAL_INPUT = ("input", "price panel CSV (date column plus one column per asset)")


def build_parser() -> _Parser:
    parser = _Parser(prog="msmark",
                     description="Scaling-aware covariance and portfolio tools")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser)
    specs = [
        ("simulate", "generate a synthetic price panel", _SIMULATE_OPTS, False),
        ("estimate", "fit scaling exponents from prices", _ESTIMATE_OPTS, True),
        ("optimize", "build portfolio weights from prices", _OPTIMIZE_OPTS, True),
        ("backtest", "walk strategies forward over prices", _BACKTEST_OPTS, True),
        ("repro", "run the full pipeline from fixed seeds", _REPRO_OPTS, False),
    ]
    for name, help_text, opts, has_input in specs:
        p = sub.add_parser(name, help=help_text, description=help_text)
        if has_input:
            p.add_argument(_POSITIONAL_INPUT[0], help=_POSITIONAL_INPUT[1])
        for o in opts:
            p.add_argument(o.flag, type=o.cast, default=o.default, metavar="V",
                           help=o.help)
        p.set_defaults(_opts=opts)
    return parser


@functools.cache
def _parser() -> _Parser:
    """``build_parser()``, built once per process.

    Building the tree leaves some 450 argparse objects in reference
    cycles. Built on every ``main`` call, they were freed whenever the
    cyclic garbage collector next ran, a moment set by unrelated
    allocations, and where their memory came free shaped the heap that the
    next command's arrays were placed in.
    """
    return build_parser()


def _config_flags(path, opts) -> list:
    """Each ``key = value`` line of the file at ``path`` as ``--key=value``.

    The ``=`` form keeps a value such as ``-2,2`` from reading as a flag.
    """
    known = {o.flag for o in opts} - {"--config"}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from None
    flags = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path} line {lineno}: expected key=value, got {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if flag not in known:
            raise _UsageError(f"{path} line {lineno}: unknown key {key!r}")
        flags.append(f"{flag}={val}")
    return flags


def _out_dir(merged) -> Path:
    if merged.get("out_dir"):
        return Path(merged["out_dir"])
    return Path(os.environ.get(OUT_DIR_ENV, "."))


def _write_atomic(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _jsonable(obj):
    """``obj`` with numpy values made plain and every non-finite float None.

    RFC 8259 has no NaN or Infinity, so a report stays strict JSON.
    """
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, np.datetime64):
        return str(obj)
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _dump_json(payload) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _note(message):
    print(message, file=sys.stderr)


def _load_panel(path) -> ts.ReturnPanel:
    try:
        series = ts.load_prices(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    return ts.to_log_returns(series)


# ---------------------------------------------------------------------------
# subcommands

def _require(merged, *keys):
    for key in keys:
        if merged.get(key) is None:
            raise _UsageError(f"--{key.replace('_', '-')} is required")


def cmd_simulate(merged) -> int:
    _require(merged, "kind", "n")
    kind = merged["kind"]
    params = {param: merged[dest] for param, dest in _SIMULATE_PARAMS[kind].items()}
    spec = synth.GeneratorSpec(kind=kind, n=merged["n"], seed=merged["seed"],
                               params=params)
    panel = synth.generate(spec)
    out = merged["out"]
    if out is None:
        out = _out_dir(merged) / f"{kind}_{merged['n']}_{merged['seed']}.csv"
    out = Path(out)
    _write_atomic(out, ts.prices_to_csv(ts.to_price_series(panel)))
    _note(f"wrote {panel.n_periods} returns for {panel.n_assets} asset(s) to {out}")
    print(str(out))
    return EXIT_OK


def _spectrum_payload(spec: scaling.ScalingSpectrum) -> dict:
    return {
        "asset": spec.asset_id,
        "method": spec.method,
        "q_grid": list(spec.q_grid),
        "zeta": spec.zeta,
        "h_of_q": spec.h_of_q,
        "stderr": spec.stderr,
        "fit_r2": spec.fit_r2,
        "scales": list(spec.scales),
        "nonmonotone": spec.nonmonotone,
    }


def cmd_estimate(merged) -> int:
    panel = _load_panel(merged["input"])
    assets = [merged["asset"]] if merged["asset"] else list(panel.asset_ids)
    for a in assets:
        if a not in panel.asset_ids:
            raise DataError(f"asset {a!r} not in panel columns {panel.asset_ids}")
    report = {"input": str(merged["input"]), "method": merged["method"],
              "assets": {}, "pairs": {}}
    lines = []
    for a in assets:
        if merged["method"] == "structure":
            spect = scaling.structure_spectrum(panel, asset=a,
                                               q_grid=merged["q_grid"],
                                               scales=merged["scales"])
        else:
            spect = scaling.mfdfa(panel, asset=a, q_grid=merged["q_grid"],
                                  scales=merged["dfa_scales"] or None,
                                  detrend_order=merged["detrend_order"])
        if 2.0 in spect.q_grid:
            # the spectrum's q = 2 column is the second-moment fit
            i = spect.q_grid.index(2.0)
            est, err = float(spect.h_of_q[i]), float(spect.stderr[i])
        elif spect.method == "structure":
            est, err = scaling.estimate_hurst(panel, asset=a, scales=merged["scales"])
        else:
            est = err = float("nan")
        report["assets"][a] = {"hurst": est, "hurst_stderr": err,
                               "spectrum": _spectrum_payload(spect)}
        lines.append(f"{a}: H(2) = {est:.4f} +/- {err:.4f}  "
                     f"[{spect.method}, scales {spect.scales}]")
    if merged["pairs"]:
        ids = list(panel.asset_ids)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                cs = scaling.estimate_correlation_scaling(panel, ids[i], ids[j],
                                                          scales=merged["scales"])
                key = f"{ids[i]}~{ids[j]}"
                report["pairs"][key] = {
                    "h_rho": cs.h_rho,
                    "h_rho_stderr": cs.h_rho_stderr,
                    "h_cross_2": cs.h_cross_2,
                    "h_i_1": cs.h_i_1,
                    "h_j_1": cs.h_j_1,
                    "identity_residual": cs.identity_residual,
                    "combined_stderr": cs.combined_stderr,
                    "rho_by_scale": cs.rho_by_scale,
                    "negative_correlation": cs.negative_correlation,
                }
                lines.append(
                    f"{key}: H_rho = {cs.h_rho:.4f} +/- {cs.h_rho_stderr:.4f}  "
                    f"identity residual {cs.identity_residual:+.4f} "
                    f"(combined stderr {cs.combined_stderr:.4f})"
                )
    print("\n".join(lines))
    if merged["json_out"]:
        _write_atomic(Path(merged["json_out"]), _dump_json(report))
        _note(f"wrote report to {merged['json_out']}")
    return EXIT_OK


def cmd_optimize(merged) -> int:
    long_only = not merged["allow_short"]
    if merged["mu_target"] is not None and merged["objective"] != "min_variance":
        raise _UsageError("--mu-target applies only to --objective min_variance")
    if merged["mu_target"] is not None and not long_only:
        raise _UsageError("--mu-target requires the long-only constraint")
    panel = _load_panel(merged["input"])
    cset = cov.build_covariance_set(panel, merged["scales"], method=merged["cov"],
                                    aggregation=merged["aggregation"],
                                    l1_joint=merged["l1_joint"])
    blended = cov.multiscale_cov(cset, ridge=merged["ridge"])
    mu = panel.returns.mean(axis=0)
    if merged["objective"] == "max_sharpe":
        weights = opt.max_sharpe(blended, mu, risk_free=merged["risk_free"],
                                 long_only=long_only)
    elif long_only:
        weights = opt.min_variance_long_only(blended, mu=mu,
                                             mu_target=merged["mu_target"])
    else:
        weights = opt.min_variance_closed_form(blended)
    for aid, val in weights.as_dict().items():
        print(f"{aid}: {val:.6f}")
    _note(f"kkt residual {weights.kkt_residual:.3e}")
    prefix = merged["out_prefix"]
    if prefix is None:
        prefix = _out_dir(merged) / "optimize"
    prefix = Path(prefix)
    weight_lines = ["asset,weight"] + [
        f"{aid},{val!r}" for aid, val in weights.as_dict().items()
    ]
    _write_atomic(prefix.with_suffix(".csv"), "\n".join(weight_lines) + "\n")
    payload = {
        "input": str(merged["input"]),
        "objective": merged["objective"],
        "long_only": weights.long_only,
        "method": weights.method,
        "weights": weights.as_dict(),
        "kkt_residual": weights.kkt_residual,
        "provenance": weights.provenance,
        "covariance_matrix": blended.matrix,
        "asset_ids": list(blended.asset_ids),
    }
    _write_atomic(prefix.with_suffix(".json"), _dump_json(payload))
    _note(f"wrote {prefix.with_suffix('.csv')} and {prefix.with_suffix('.json')}")
    return EXIT_OK


def cmd_backtest(merged) -> int:
    panel = _load_panel(merged["input"])
    base = bt.BacktestConfig(
        lookback=merged["lookback"],
        rebalance_every=merged["rebalance"],
        scales=merged["scales"],
        covariance_method=merged["cov"],
        aggregation=merged["aggregation"],
        risk_free=merged["risk_free"],
        ridge=merged["ridge"],
    )
    if merged["strategy"] == "all":
        configs = bt.standard_comparison_configs(
            base, max_sharpe_rows=merged["max_sharpe_rows"])
    else:
        configs = [dataclasses.replace(base, strategy=merged["strategy"])]
    table = bt.compare(panel, configs)
    if all(row.error is not None for row in table.rows):
        # partial failure prints a table; total failure is a hard error
        raise DataError(f"every strategy failed; first error: {table.rows[0].error}")
    print(table.to_text(), end="")
    prefix = merged["out_prefix"]
    if prefix is None:
        prefix = _out_dir(merged) / "backtest"
    prefix = Path(prefix)
    _write_atomic(prefix.with_suffix(".txt"), table.to_text())
    _write_atomic(prefix.with_suffix(".csv"), table.to_csv())
    payload = {
        "input": str(merged["input"]),
        "rows": [
            {
                "name": row.name,
                "sharpe": row.sharpe,
                "sortino": row.sortino,
                "max_drawdown": row.max_drawdown,
                "error": row.error,
                "config": dataclasses.asdict(cfg),
                "fallbacks": list(rep.fallbacks) if rep is not None else None,
                "final_equity": float(rep.equity[-1]) if rep is not None else None,
            }
            for row, cfg, rep in zip(table.rows, configs, table.reports)
        ],
    }
    _write_atomic(prefix.with_suffix(".json"), _dump_json(payload))
    _note(f"wrote {prefix.with_suffix('.txt')}, {prefix.with_suffix('.csv')}, "
          f"{prefix.with_suffix('.json')}")
    return EXIT_OK


def cmd_repro(merged) -> int:
    seed = merged["seed"]
    out_dir = _out_dir(merged)
    _note(f"running the pipeline with seed {seed} into {out_dir}")

    # stage 1: a five-asset panel with two volatility regimes
    n = 1400
    switch_points = (350, 700, 1050)
    lo = (0.008, 0.010, 0.012, 0.009, 0.011)
    hi = tuple(2.5 * v for v in lo)
    panel = synth.gen_regime_switch(n, lo, hi, switch_points,
                                    seed=synth.split_seed(seed, 0), n_assets=5)
    panel_path = out_dir / "repro_panel.csv"
    _write_atomic(panel_path, ts.prices_to_csv(ts.to_price_series(panel)))

    # stage 2: scaling estimates on a known-exponent series
    hurst_truth = 0.7
    fgn = synth.gen_fgn(1 << 14, hurst=hurst_truth,
                        seed=synth.split_seed(seed, 1))
    hurst_fit = scaling.estimate_hurst(fgn)
    spect = scaling.mfdfa(fgn)
    pair_panel = synth.gen_epps(1 << 14, rho_inf=0.6, h_rho=0.3,
                                seed=synth.split_seed(seed, 2))
    cs = scaling.estimate_correlation_scaling(pair_panel, "a1", "a2")

    # stage 3: weights from the blended covariance
    weights = bt.fit_weights(panel, bt.BacktestConfig())

    # stage 4: the standard strategy comparison
    table = bt.compare(panel, bt.standard_comparison_configs())
    print(table.to_text(), end="")
    _write_atomic(out_dir / "repro_table.txt", table.to_text())
    _write_atomic(out_dir / "repro_table.csv", table.to_csv())

    by_name = {row.name: row for row in table.rows}
    trad = by_name["Traditional Markowitz"]
    multi = by_name["Multiscale Markowitz"]
    drawdown_gap = None
    drawdown_no_worse = None
    if trad.max_drawdown is not None and multi.max_drawdown is not None:
        drawdown_gap = multi.max_drawdown - trad.max_drawdown
        drawdown_no_worse = bool(abs(multi.max_drawdown) <= abs(trad.max_drawdown))
    summary = {
        "seed": seed,
        "panel": {"file": panel_path.name, "n_periods": panel.n_periods,
                  "n_assets": panel.n_assets,
                  "switch_points": list(switch_points)},
        "scaling": {
            "fgn_hurst_truth": hurst_truth,
            "fgn_hurst_estimate": hurst_fit.value,
            "fgn_hurst_stderr": hurst_fit.stderr,
            "dfa_h2": spect.h_at(2.0),
            "pair_h_rho": cs.h_rho,
            "pair_identity_residual": cs.identity_residual,
            "pair_combined_stderr": cs.combined_stderr,
        },
        "weights": {
            "values": weights.as_dict(),
            "kkt_residual": weights.kkt_residual,
            "ridge": weights.provenance["ridge"],
        },
        "strategies": [
            {"name": row.name, "sharpe": row.sharpe, "sortino": row.sortino,
             "max_drawdown": row.max_drawdown, "error": row.error}
            for row in table.rows
        ],
        "multiscale_minus_traditional_drawdown": drawdown_gap,
        "multiscale_drawdown_no_worse": drawdown_no_worse,
    }
    _write_atomic(out_dir / "repro_summary.json", _dump_json(summary))
    _note(f"wrote {out_dir / 'repro_summary.json'}")
    print(f"fgn H(2): {hurst_fit.value:.4f} (truth {hurst_truth})")
    print(f"pair H_rho: {cs.h_rho:.4f} (truth 0.3)")
    if drawdown_gap is not None:
        verdict = "no worse than" if drawdown_no_worse else "worse than"
        print(f"multiscale minus traditional max drawdown: {drawdown_gap:+.4f} "
              f"(multiscale {verdict} traditional on this fixture)")
    return EXIT_OK


# ---------------------------------------------------------------------------

# mallopt parameters from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _fix_malloc_thresholds() -> bool:
    """Fix glibc's malloc thresholds, once per process; False without glibc.

    glibc raises its mmap threshold to the size of each large block freed,
    after which panel-sized arrays (a 65536 x 4 panel is 2 MiB) are carved
    from the brk heap, and it trims the top of the heap once more than
    twice that threshold lies free there. Whether an array then reuses
    resident pages or adds new ones turned on where small long-lived
    blocks happened to sit, so the peak memory of one and the same command
    moved by 2 MiB and more from run to run. Fixed, the mmap threshold of
    1 MiB gives every larger array a mapping of its own, returned when it
    is freed, and the trim threshold of 64 MiB (glibc's own ceiling for
    it) keeps the pages the heap has grown to, so later commands reuse
    them and the peak is the heap's high-water mark, reached in the first
    command.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, 1 << 20) and mallopt(_M_TRIM_THRESHOLD, 64 << 20))


def main(argv=None) -> int:
    _fix_malloc_thresholds()
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            raise _UsageError("msmark: error: a command is required")
        if args.config is not None:
            # the file's flags go first, so the command line's own flags win
            flags = _config_flags(args.config, args._opts)
            args = parser.parse_args(argv[:1] + flags + argv[1:])
        # looked up when called, so the one parser runs whatever cmd_<name> holds now
        return globals()[f"cmd_{args.command}"](vars(args))
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"msmark: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"msmark: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # an option value the library rejects
        print(f"msmark: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
