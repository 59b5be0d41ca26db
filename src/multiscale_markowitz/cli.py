"""Command-line entry point.

Subcommands: ``simulate`` writes synthetic price panels, ``estimate``
fits scaling exponents, ``optimize`` builds portfolio weights,
``backtest`` walks strategies forward, and ``repro`` runs the whole
pipeline end to end from fixed seeds.

Exit codes: 0 success, 1 usage, 2 bad input data, 3 numerical failure.
Results go to stdout and files; diagnostics go to stderr. Output files
are written atomically (temp file plus rename), with the mode a plain
``open()`` gives: 0666 less the umask. Each ``key = value`` line of a
``--config`` file is read as a ``--key=value`` flag placed before the
command line's own, so explicit flags override it.
"""
from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import backtest as bt
from . import covariance as cov
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


def _cast_seed(raw):
    # numpy's generators refuse a negative seed without naming the option
    seed = _cast_int(raw)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {raw!r}")
    return seed


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


def _cast_prefix(raw):
    # the cast of --out, --json-out and --out-prefix: each suffix is appended
    # to the name's last component, which must name a file
    if os.path.basename(raw) in ("", ".", ".."):
        raise argparse.ArgumentTypeError(f"expected a file name prefix, got {raw!r}")
    return raw


def _cast_dir(raw):
    # an empty name would read as unset and fall through to $MSMARK_OUT or '.'
    if not raw:
        raise argparse.ArgumentTypeError("expected a directory name, got ''")
    return raw


def _choice(options):
    def cast(raw):
        if raw not in options:
            raise argparse.ArgumentTypeError(
                f"expected one of {', '.join(options)}; got {raw!r}")
        return raw
    return cast


Opt = collections.namedtuple("Opt", "flag cast default help")


_COMMON = [
    Opt("--out-dir", _cast_dir, None,
        f"output directory (default: ${OUT_DIR_ENV} or '.')"),
    Opt("--config", str, None,
        "key=value file supplying defaults; explicit flags win"),
]


def _gen_constant_correlation(n, n_assets, rho, sigma_daily, seed):
    cov_matrix = synth.constant_correlation_cov(n_assets, rho, sigma_daily)
    return synth.gen_correlated(n, cov_matrix, seed=seed)


# per kind: its generator and the generator keyword -> option dest map;
# --kind offers these keys
_SIMULATE_KINDS = {
    "gaussian_iid": (synth.gen_gaussian_iid, {"sigma_daily": "sigma"}),
    "fgn": (synth.gen_fgn, {"hurst": "hurst", "sigma_daily": "sigma"}),
    "correlated": (_gen_constant_correlation,
                   {"n_assets": "assets", "rho": "rho", "sigma_daily": "sigma"}),
    "epps": (synth.gen_epps, {"rho_inf": "rho_inf", "h_rho": "h_rho", "sigma_daily": "sigma"}),
    "regime_switch": (synth.gen_regime_switch,
                      {"sigma_low": "sigma_low", "sigma_high": "sigma_high",
                       "switch_points": "switch_points", "n_assets": "assets"}),
    "cascade": (synth.gen_multifractal, {"intermittency": "intermittency",
                                         "hurst_base": "hurst", "sigma_daily": "sigma"}),
}

_SIMULATE_OPTS = [
    Opt("--kind", _choice(tuple(_SIMULATE_KINDS)), None,
        "generator: " + ", ".join(_SIMULATE_KINDS)),
    Opt("--n", _cast_int, None, "number of return periods"),
    Opt("--seed", _cast_seed, 0, "random seed"),
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
    Opt("--out", _cast_prefix, None, "output CSV path (default derived from kind/n/seed)"),
] + _COMMON

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
    Opt("--json-out", _cast_prefix, None, "write the full report as JSON"),
] + _COMMON

# the options optimize and backtest share
_FIT_OPTS = [
    Opt("--scales", _list_of(_cast_int), bt.DEFAULT_SCALES, "covariance scales"),
    Opt("--cov", _choice((cov.METHOD_PRODUCT, cov.METHOD_L1)), cov.METHOD_PRODUCT,
        "covariance estimator"),
    Opt("--aggregation", _choice((ts.MODE_NONOVERLAPPING, ts.MODE_OVERLAPPING)),
        ts.MODE_NONOVERLAPPING, "aggregation mode of the multiscale covariance; no effect "
        "under backtest --strategy all, whose rows set their own"),
    Opt("--ridge", _cast_ridge, "auto", "diagonal loading: a number or 'auto'"),
    Opt("--risk-free", _cast_float, 0.0, "per-period risk-free rate of max-Sharpe fits; reported "
        "Sharpe and Sortino ratios are of raw log returns and take none"),
    Opt("--out-prefix", _cast_prefix, None, "output file prefix (default: <out dir>/<command>)"),
] + _COMMON

_OPTIMIZE_OPTS = [
    Opt("--objective", _choice(bt.OBJECTIVES), bt.MIN_VARIANCE, "what to optimize"),
    Opt("--l1-joint", _cast_bool, False,
        "average deviation products jointly in the l1 estimator"),
    Opt("--allow-short", _cast_bool, False, "drop the long-only constraint"),
    Opt("--mu-target", _cast_float, None, "expected-return floor (sample means)"),
] + _FIT_OPTS

_BACKTEST_OPTS = [
    Opt("--strategy", _choice(("all",) + bt.STRATEGIES), "all",
        "one strategy, or 'all' for the standard comparison"),
    Opt("--max-sharpe-rows", _cast_bool, False,
        "include Sharpe-objective rows in 'all'; no effect with a single --strategy"),
    Opt("--lookback", _cast_int, bt.DEFAULT_LOOKBACK, "estimation window length"),
    Opt("--rebalance", _cast_int, bt.DEFAULT_REBALANCE, "holding period length"),
] + _FIT_OPTS

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
        # mkstemp makes the file 0600; give it the mode a plain open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_outputs(merged, option, default, files) -> list:
    """Write each ``(suffix, text)`` of ``files``; return the paths written.

    Each suffix is appended to the whole name that the ``option`` dest
    holds (or, where it holds none, ``<out dir>/<default>``), so that
    ``w_h0.5`` and ``w_h0.7`` name different files; ``with_suffix`` would
    cut both at the last dot. A write that fails is a data error.
    """
    base = merged.get(option)
    base = _out_dir(merged) / default if base is None else Path(base)
    paths = []
    for suffix, text in files:
        path = base.with_name(base.name + suffix)
        try:
            _write_atomic(path, text)
        except OSError as exc:
            raise DataError(f"cannot write {path}: {exc}") from None
        paths.append(path)
    return paths


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
    gen, keywords = _SIMULATE_KINDS[kind]
    panel = gen(merged["n"], seed=merged["seed"],
                **{key: merged[dest] for key, dest in keywords.items()})
    [out] = _write_outputs(merged, "out", f"{kind}_{merged['n']}_{merged['seed']}.csv",
                           [("", ts.prices_to_csv(ts.to_price_series(panel)))])
    _note(f"wrote {panel.n_periods} returns for {panel.n_assets} asset(s) to {out}")
    print(str(out))
    return EXIT_OK


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
        spectrum = dataclasses.asdict(spect)
        spectrum["asset"] = spectrum.pop("asset_id")
        report["assets"][a] = {"hurst": est, "hurst_stderr": err, "spectrum": spectrum}
        lines.append(f"{a}: H(2) = {est:.4f} +/- {err:.4f}  "
                     f"[{spect.method}, scales {spect.scales}]")
    if merged["pairs"]:
        pairs = itertools.combinations(panel.asset_ids, 2)
        for cs in scaling.correlation_scalings(panel, pairs, scales=merged["scales"]):
            key = "~".join(cs.pair)
            report["pairs"][key] = dataclasses.asdict(cs)
            lines.append(
                f"{key}: H_rho = {cs.h_rho:.4f} +/- {cs.h_rho_stderr:.4f}  "
                f"identity residual {cs.identity_residual:+.4f} "
                f"(combined stderr {cs.combined_stderr:.4f})"
            )
    print("\n".join(lines))
    if merged["json_out"] is not None:
        _write_outputs(merged, "json_out", None, [("", _dump_json(report))])
        _note(f"wrote report to {merged['json_out']}")
    return EXIT_OK


def cmd_optimize(merged) -> int:
    long_only = not merged["allow_short"]
    if merged["mu_target"] is not None and merged["objective"] != bt.MIN_VARIANCE:
        raise _UsageError("--mu-target applies only to --objective min_variance")
    if merged["mu_target"] is not None and not long_only:
        raise _UsageError("--mu-target requires the long-only constraint")
    weights, blended = bt.fit(_load_panel(merged["input"]), merged["objective"], merged["scales"],
                              merged["cov"], merged["aggregation"], merged["ridge"],
                              merged["risk_free"], merged["l1_joint"], long_only, merged["mu_target"])
    for aid, val in weights.as_dict().items():
        print(f"{aid}: {val:.6f}")
    _note(f"kkt residual {weights.kkt_residual:.3e}")
    weight_lines = ["asset,weight"] + [
        f"{aid},{val!r}" for aid, val in weights.as_dict().items()
    ]
    payload = {**dataclasses.asdict(weights), "input": str(merged["input"]),
               "objective": merged["objective"], "weights": weights.as_dict(),
               "covariance_matrix": blended.matrix}
    csv_path, json_path = _write_outputs(merged, "out_prefix", "optimize", [
        (".csv", "\n".join(weight_lines) + "\n"), (".json", _dump_json(payload))])
    _note(f"wrote {csv_path} and {json_path}")
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
    payload = {
        "input": str(merged["input"]),
        "rows": [
            {**dataclasses.asdict(row), "config": dataclasses.asdict(cfg),
             "fallbacks": list(rep.fallbacks) if rep is not None else None,
             "final_equity": float(rep.equity[-1]) if rep is not None else None}
            for row, cfg, rep in zip(table.rows, configs, table.reports)
        ],
    }
    paths = _write_outputs(merged, "out_prefix", "backtest", [
        (".txt", table.to_text()), (".csv", table.to_csv()), (".json", _dump_json(payload))])
    _note(f"wrote {', '.join(map(str, paths))}")
    return EXIT_OK


def cmd_repro(merged) -> int:
    seed = merged["seed"]
    _note(f"running the pipeline with seed {seed} into {_out_dir(merged)}")

    # stage 1: a five-asset panel with two volatility regimes
    n = 1400
    switch_points = (350, 700, 1050)
    lo = (0.008, 0.010, 0.012, 0.009, 0.011)
    hi = tuple(2.5 * v for v in lo)
    panel = synth.gen_regime_switch(n, lo, hi, switch_points,
                                    seed=synth.split_seed(seed, 0), n_assets=5)

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
        "panel": {"file": "repro_panel.csv", "n_periods": panel.n_periods,
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
        "strategies": [dataclasses.asdict(row) for row in table.rows],
        "multiscale_minus_traditional_drawdown": drawdown_gap,
        "multiscale_drawdown_no_worse": drawdown_no_worse,
    }
    *_, summary_path = _write_outputs(merged, None, "repro", [
        ("_panel.csv", ts.prices_to_csv(ts.to_price_series(panel))),
        ("_table.txt", table.to_text()), ("_table.csv", table.to_csv()),
        ("_summary.json", _dump_json(summary))])
    _note(f"wrote {summary_path}")
    print(f"fgn H(2): {hurst_fit.value:.4f} (truth {hurst_truth})")
    print(f"pair H_rho: {cs.h_rho:.4f} (truth 0.3)")
    if drawdown_gap is not None:
        verdict = "no worse than" if drawdown_no_worse else "worse than"
        print(f"multiscale minus traditional max drawdown: {drawdown_gap:+.4f} "
              f"(multiscale {verdict} traditional on this fixture)")
    return EXIT_OK


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
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
    # an option value the library rejects, or one too large for a float
    except (ValueError, OverflowError) as exc:
        print(f"msmark: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
