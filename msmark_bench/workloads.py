"""The benchmark's three workloads: how each input is made and run.

Each workload is one seeded input panel, written as a price CSV, and the
``msmark`` commands a user would run on it. This module imports only the
standard library at load time, so a set-up worker can time the package
import itself; numpy and the package are imported inside the functions.
"""
from __future__ import annotations

from dataclasses import dataclass

# Daily drift added to every asset of the narrow lineup, so that every
# 500-day window has an asset with positive mean return and the
# max-Sharpe rows always have an optimum.
NARROW_DRIFT = 0.0008

LOOKBACK = 500
SCALES = (1, 2, 5, 10, 21)


def _csv(values):
    return ",".join(str(v) for v in values)


@dataclass(frozen=True)
class Backtest:
    """A backtest workload: a panel shape plus one ``msmark backtest`` call."""

    n_assets: int
    n_days: int
    lookback: int
    rebalance: int
    # (strategy, aggregation) per expected output row, in table order
    rows: tuple[tuple[str, str], ...]
    flags: tuple[str, ...]

    scales = SCALES
    reports = ("backtest.json",)

    def refits_per_row(self) -> int:
        return len(range(self.lookback, self.n_days, self.rebalance))

    def commands(self, csv, out_dir):
        argv = ["backtest", str(csv), "--lookback", str(self.lookback),
                "--rebalance", str(self.rebalance), "--scales", _csv(self.scales),
                *self.flags, "--out-prefix", str(out_dir / "backtest")]
        return [(argv, len(self.rows) * self.refits_per_row())]

    def failed_ops(self, codes, docs):
        """Refits that failed: a failed command fails them all, an errored row
        fails its own, and each fallback is one."""
        failed = sum(n for code, n in codes if code != 0)
        doc = docs.get("backtest.json")
        if codes[0][0] == 0 and doc is not None:
            for row in doc["rows"]:
                failed += self.refits_per_row() if row["error"] else len(row["fallbacks"])
        return failed


@dataclass(frozen=True)
class Scaling:
    """The scaling workload: one long panel and two ``msmark estimate`` calls."""

    n_log2: int

    assets = ("fgn", "cascade", "lead", "lag")
    reports = ("dfa.json", "structure.json")

    def pairs(self):
        a = self.assets
        return [f"{a[i]}~{a[j]}" for i in range(len(a)) for j in range(i + 1, len(a))]

    def commands(self, csv, out_dir):
        n = len(self.assets)
        return [
            (["estimate", str(csv), "--method", "dfa",
              "--json-out", str(out_dir / "dfa.json")], n),
            (["estimate", str(csv), "--method", "structure", "--pairs", "true",
              "--scales", _csv(SCALES), "--json-out", str(out_dir / "structure.json")],
             n + len(self.pairs())),
        ]

    def failed_ops(self, codes, docs):
        """Estimates that failed: a command that exits non-zero fails them all."""
        return sum(n for code, n in codes if code != 0)


_NON, _OVL = "nonoverlapping", "overlapping"
_LINEUP = (
    ("equal_weight", _NON),
    ("markowitz_daily", _NON),
    ("markowitz_multiscale", _NON),
    ("markowitz_multiscale", _OVL),
    ("max_sharpe_daily", _NON),
    ("max_sharpe_multiscale", _NON),
    ("max_sharpe_multiscale", _OVL),
)
_WIDE_FLAGS = ("--strategy", "markowitz_multiscale")
_NARROW_FLAGS = ("--strategy", "all", "--max-sharpe-rows", "true")

# full size is what the benchmark measures; small size is for its tests
WORKLOADS = {
    "backtest_wide": {
        "full": Backtest(200, 920, LOOKBACK, 21, (("markowitz_multiscale", _NON),),
                         _WIDE_FLAGS),
        "small": Backtest(12, 400, 120, 21, (("markowitz_multiscale", _NON),),
                          _WIDE_FLAGS),
    },
    "lineup_narrow": {
        "full": Backtest(10, 1250, LOOKBACK, 5, _LINEUP, _NARROW_FLAGS),
        "small": Backtest(4, 400, 120, 20, _LINEUP, _NARROW_FLAGS),
    },
    "scaling_long": {
        "full": Scaling(16),
        "small": Scaling(13),
    },
}


def spec(name: str, small: bool = False):
    return WORKLOADS[name]["small" if small else "full"]


def generate(name: str, seed: int, small: bool = False):
    """Build the workload's return panel from ``seed`` with the package's generators.

    Returns ``(asset_ids, returns)``; the same seed gives the same panel.
    """
    import numpy as np
    from multiscale_markowitz import synth

    s = spec(name, small)
    if name == "backtest_wide":
        cov = synth.constant_correlation_cov(s.n_assets, 0.3)
        panel = synth.gen_correlated(s.n_days, cov, seed=synth.split_seed(seed, 0))
        return panel.asset_ids, panel.returns
    if name == "lineup_narrow":
        lo = np.linspace(0.008, 0.012, s.n_assets)
        switches = tuple(range(s.n_days // 5, s.n_days, s.n_days // 5))
        panel = synth.gen_regime_switch(s.n_days, lo, 2.5 * lo, switches,
                                        seed=synth.split_seed(seed, 1),
                                        n_assets=s.n_assets)
        return panel.asset_ids, panel.returns + NARROW_DRIFT
    n = 1 << s.n_log2
    fgn = synth.gen_fgn(n, hurst=0.7, seed=synth.split_seed(seed, 2))
    cascade = synth.gen_multifractal(n, intermittency=0.2, seed=synth.split_seed(seed, 3))
    pair = synth.gen_epps(n, rho_inf=0.6, h_rho=0.3, seed=synth.split_seed(seed, 4))
    returns = np.column_stack([fgn.returns, cascade.returns, pair.returns])
    return Scaling.assets, returns
